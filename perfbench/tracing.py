"""In-memory span tracing of srgpq's public functions, for the per-layer metrics.

Each listed function is replaced, in every loaded ``srgpq`` module that binds
it, by a wrapper that records one span: function, start, end, parent span and
the operation id the benchmark set.  Leaving the ``with`` block restores every
patched name, so untraced runs execute the unmodified code.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# The public functions wrapped in each layer (srgpq module).
LAYER_FUNCTIONS = {
    "cli": ("parse_graph6", "serialize_graph6", "run"),
    "graphcore": (
        "is_srg_report",
        "is_diamond_free",
        "phi_partition",
        "neighborhood_clique_cells",
    ),
    "localstats": (
        "check_condition_con",
        "m_spectrum",
        "verify_eq_pq",
        "pair_stats",
        "psi_partition",
        "matched_pairs",
        "verify_inv_formula",
        "verify_star",
        "verify_psi_regularity",
    ),
    "automorphism": (
        "build_sigma",
        "canonical_sigma_family",
        "automorphism_witness",
        "verify_inverse_law",
        "verify_involution_property",
        "generate_gamma",
        "related_set",
    ),
    "geometry": ("graph_to_pq", "verify_pq_axioms"),
    "params": ("detect_family", "solve_diophantine_17"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns)

# Functions whose calls are keyed for the per-vertex and per-graph ratios.
_VERTEX_KEYED = ("automorphism.build_sigma", "localstats.psi_partition")
_GRAPH_KEYED = ("graphcore.is_srg_report",)


def _base_vertex(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs["u"]


class Tracer:
    """Context manager that wraps the listed functions and keeps their spans."""

    def __init__(self):
        self.op = -1
        self._names = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._ops = array("i")
        self._stack: list[int] = []
        self.raised = {layer: 0 for layer in LAYER_FUNCTIONS}
        self.keys: dict[str, list[tuple]] = {name: [] for name in _VERTEX_KEYED + _GRAPH_KEYED}
        self.sigmas_kept = 0
        self._patched: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "srgpq" or name.startswith("srgpq."))
        ]
        for index, qualified in enumerate(TRACED):
            layer, fn = qualified.split(".")
            original = getattr(sys.modules[f"srgpq.{layer}"], fn)
            wrapper = self._wrap(index, qualified, original)
            for module in modules:
                if getattr(module, fn, None) is original:
                    self._patched.append((module, fn, original))
                    setattr(module, fn, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            module, fn, original = self._patched.pop()
            setattr(module, fn, original)

    def _wrap(self, index: int, qualified: str, original):
        layer = qualified.split(".")[0]
        vertex_keys = self.keys.get(qualified) if qualified in _VERTEX_KEYED else None
        graph_keys = self.keys.get(qualified) if qualified in _GRAPH_KEYED else None
        is_sigma = qualified == "automorphism.build_sigma"
        is_family = qualified == "automorphism.canonical_sigma_family"
        family_index = TRACED.index("automorphism.canonical_sigma_family")
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = len(self._starts)
            parent = stack[-1] if stack else -1
            self._names.append(index)
            self._parents.append(parent)
            self._ops.append(self.op)
            self._ends.append(0.0)
            if vertex_keys is not None:
                vertex_keys.append((self.op, _base_vertex(args, kwargs)))
            elif graph_keys is not None:
                graph_keys.append((self.op, hash(args[0])))
            if is_sigma and (parent < 0 or self._names[parent] != family_index):
                self.sigmas_kept += 1  # built by the caller itself, not for a family
            stack.append(span)
            self._starts.append(clock())
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.raised[layer] += 1
                raise
            finally:
                self._ends[span] = clock()
                stack.pop()
            if is_family:
                self.sigmas_kept += len(result)
            return result

        return wrapper

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        durations = [end - start for start, end in zip(self._starts, self._ends)]
        covered = [0.0] * len(durations)
        for span, parent in enumerate(self._parents):
            if parent >= 0:
                covered[parent] += durations[span]  # children of one span never overlap
        return [d - c for d, c in zip(durations, covered)]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time per function, raised per layer, ratios."""
        calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        for index, seconds in zip(self._names, self.self_times()):
            calls[TRACED[index]] += 1
            self_s[TRACED[index]] += seconds
        metrics: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        for layer, count in self.raised.items():
            metrics[f"{layer}.raised"] = (count, "count")
        sigma_calls = calls["automorphism.build_sigma"]
        metrics["automorphism.build_sigma.per_vertex"] = (
            _per_distinct(self.keys["automorphism.build_sigma"]), "ratio")
        metrics["automorphism.build_sigma.kept_ratio"] = (
            self.sigmas_kept / sigma_calls if sigma_calls else 0.0, "ratio")
        metrics["localstats.psi_partition.per_vertex"] = (
            _per_distinct(self.keys["localstats.psi_partition"]), "ratio")
        metrics["graphcore.precondition_repeat"] = (
            _per_distinct(self.keys["graphcore.is_srg_report"]), "ratio")
        return metrics

    def write(self, path) -> None:
        """Write every span as gzipped JSON: names, then rows of (name, start, end, parent, op)."""
        rows = [
            [name, round(start - self._origin, 9), round(end - self._origin, 9), parent, op]
            for name, start, end, parent, op in zip(
                self._names, self._starts, self._ends, self._parents, self._ops)
        ]
        document = {"names": list(TRACED), "columns": ["name", "start", "end", "parent", "op"],
                    "spans": rows}
        with gzip.open(path, "wt", encoding="ascii") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _per_distinct(keys: list[tuple]) -> float:
    """Calls per distinct (operation, key): 1.0 means nothing was computed twice."""
    return len(keys) / len(set(keys)) if keys else 0.0
