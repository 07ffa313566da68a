"""The four benchmark workloads: seeded inputs, timed operations and their correctness gate.

A workload is built from a seed and the srgpq modules (its set-up, timed by
the runner together with the import of srgpq) and then
runs numbered operations one at a time, a closed loop with one caller.  An
operation is one unit a user waits for: a full pass of analyses
(``gq35-full``, ``ovoid256-sweep``), one probe (``ovoid256-probe``) or one
screened candidate (``screen``).  Analyses go through ``srgpq.cli.run`` with
graph6 on stdin; probes and the PQ round trip call library functions.  Every
call goes through a module attribute, so the tracer's wrappers see it.

Each operation checks its outputs.  At seed 0 the reports of both sweeps must
match the pinned SHA-256 digests byte for byte; at every seed their
label-invariant projection (exit code, check names, severities, pass flags,
counts and histograms; no vertex names) must match the pinned projection.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from perfbench import inputs, speed

MODULES = ("cli", "graphcore", "localstats", "automorphism", "geometry", "params")


def load_srgpq() -> dict:
    """Import srgpq afresh and return its modules by layer name."""
    for name in [name for name in sys.modules if name == "srgpq" or name.startswith("srgpq.")]:
        del sys.modules[name]
    importlib.import_module("srgpq")
    return {layer: importlib.import_module(f"srgpq.{layer}") for layer in MODULES}


@dataclass
class Operation:
    """Timed steps and problems of one operation; only calls into srgpq are timed.

    A step key names one computation that every repetition of it repeats
    exactly, so the runner can take the typical time of each step in a run.
    The machine's speed is sampled around and within each step
    (``perfbench.speed``), so its time can also be read at the reference speed.
    """

    steps: list = field(default_factory=list)  # (stage, key, speed.Timing)
    problems: list = field(default_factory=list)

    @contextmanager
    def step(self, stage: str, key=None):
        """Time the block as one step, sampling the machine's speed around and within it."""
        with speed.timed() as timing:
            yield
        self.steps.append((stage, stage if key is None else key, timing))

    @property
    def seconds(self) -> float:
        return sum(timing.seconds for _, _, timing in self.steps)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_digest(code: int, report: str) -> str:
    """Digest of the parts of a report that do not depend on vertex labels."""
    document = json.loads(report)
    document.get("input", {}).pop("sha256", None)
    document.get("results", {}).pop("sigma_images", None)
    for check in document["checks"]:
        check["witness"] = check["witness"] is not None
    return _sha(json.dumps([code, document], sort_keys=True))


class Workload:
    """Base class: set-up in __init__, then run(index) performs operation number index."""

    name = ""
    round_size = 1  # operations the runner always runs together
    trace_rounds = 1  # rounds of a traced run

    def __init__(self, seed: int, srgpq: dict):
        self.seed = seed
        self.rng = random.Random(seed)
        self.srgpq = srgpq

    def run(self, index: int) -> Operation:
        op = Operation()
        try:
            self.operation(index, op)
        except Exception:  # an escaped exception fails the operation, the run goes on
            op.problems.append(traceback.format_exc(limit=3))
        return op

    def operation(self, index: int, op: Operation) -> None:
        raise NotImplementedError

    def cli(self, op: Operation, stage: str, key, argv: list[str], text: str = "") -> tuple[int, str]:
        """Run one CLI call with text on stdin; only the call itself is timed."""
        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        try:
            with op.step(stage, key):
                code = self.srgpq["cli"].run(argv)
            report = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = stdin, stdout
        return code, report


def _witness(rows: list[int], params: tuple, seed: int, rng: random.Random):
    """Relabel a witness by the seed (seed 0 keeps it) and check it before any timing.

    Returns the relabelled rows and the new name of every built vertex.
    """
    images = inputs.seeded_permutation(len(rows), rng, identity=seed == 0)
    rows = inputs.relabel(rows, images)
    if inputs.srg_params(rows) != params or not inputs.diamond_free(rows):
        raise RuntimeError(f"generated witness is not a diamond-free SRG{params}")
    return rows, images


class SweepWorkload(Workload):
    """One operation is one pass of analyses over a relabelled witness."""

    ops: tuple = ()  # (label, argv, stage, reads the graph)
    pins: dict = {}  # label -> (seed-0 report digest, invariant digest)

    def check_report(self, op: Operation, label: str, code: int, report: str, graph_text: str):
        full, invariant = self.pins[label]
        if self.seed == 0 and _sha(report) != full:
            op.problems.append(f"{label}: report differs from the pinned seed-0 report")
        if invariant_digest(code, report) != invariant:
            op.problems.append(f"{label}: exit code {code} or label-invariant results changed")
        if graph_text and json.loads(report)["input"]["sha256"] != _sha(graph_text):
            op.problems.append(f"{label}: input hash is not that of the canonical graph6")

    def operation(self, index: int, op: Operation) -> None:
        for label, argv, stage, reads_graph in self.ops:
            text = self.text if reads_graph else ""
            code, report = self.cli(op, stage, label, argv, text)
            self.check_report(op, label, code, report, text)

    def reports(self) -> dict:
        """label -> (report digest, invariant digest) of one pass, for pinning."""
        op, found = Operation(), {}
        for label, argv, stage, reads_graph in self.ops:
            code, report = self.cli(op, stage, label, argv, self.text if reads_graph else "")
            found[label] = (_sha(report), invariant_digest(code, report))
        return found


def _family_tuple(n: int, lam: int = 2) -> list[str]:
    base = n * n + 3 * n - lam
    return [str(x) for x in (base * base, n * (base + 1), lam, n * (n + 1))]


class Gq35Full(SweepWorkload):
    """Every analysis plus the parameter tools on the 64-vertex GQ(3,5) witness (n = 2)."""

    name = "gq35-full"
    trace_rounds = 2
    ops = (
        ("check-srg", ["check-srg", "-"], "srg", True),
        ("check-diamond-free", ["check-diamond-free", "-"], "diamond_free", True),
        ("check-con", ["check-con", "-"], "con", True),
        ("local-stats", ["local-stats", "-"], "local_stats", True),
        ("check-eq-pq", ["check-eq-pq", "-"], "eq_pq", True),
        ("check-star", ["check-star", "-"], "star", True),
        ("sigma", ["sigma", "-"], "sigma", True),
        ("group", ["group", "-"], "group", True),
        ("related", ["related", "-"], "related", True),
        *((f"feasibility-n{n}", ["feasibility", *_family_tuple(n)], "params", False)
          for n in (2, 3, 4, 10)),
        ("pq-params", ["pq-params", "3", "35", "20"], "params", False),
        ("diophantine", ["diophantine", "--max", "1000000"], "params", False),
        ("certificate", ["certificate-pq-3-35-20"], "params", False),
    )
    pins = {
        "check-srg": ("134900d061fdd37043f216efe4e0284cff19a7467ef677f7bb5eb6623bf53d18",
                      "ed2322daa6319fd12985cd6247e1df0f5235dcd59b3f9e8eb926b40b40ce92bd"),
        "check-diamond-free": ("7efd2603618d68ad465ece2612fd75c2b290d77f8a8ef864082c4389bea8b942",
                               "9895bec0984e87435ee78c5c792c095147eb28625875a52ae95684c5539e3e3b"),
        "check-con": ("6e61ed4fbeb499ed6c3a585b36c205b91d924e6d28d122bedd807649b8320308",
                      "24f0c3c5876dd47724b15f5c567843ef21f1807e7575ba701c80bfc7e097a769"),
        "local-stats": ("35125aae02689cfcffad32cdc803e350d3d252324d1ad8537496090472e73ed9",
                        "21f855d290a22d7eda6bb6826fc8b00d2becc30155c26ed2d3d5e1fc2dfddc85"),
        "check-eq-pq": ("389f4b3dfa7a71cf1648b6d74130c4d6f17726ce5224c3373028d9f911a8dda5",
                        "d0f30e1ad3913b49b2bfd55e53f21052e7f86c472697f4d650c5d81e55f03010"),
        "check-star": ("c5d04eae3e7cbe17b5d6e2726fec53e4fa3c2cb5464f676aa6c3fe9043bd4ae5",
                       "c667487db7f3bc42022b954577581c28dddac7f00e5b32f4dc64c6ab52e2c066"),
        "sigma": ("bab3dfa67e94f9308c2d728a50a91bbfbf45395752d67fb2e98b17955b63a897",
                  "00e9a6e5eaaa695ee83e1900738407ff33ce859358813f27ce581aca00daff06"),
        "group": ("8add64f7518a2257057a6c09e73b1f50c42b6f1ef8e3655519387d477e70efbe",
                  "fc68d1120c14fa6cfb6d04f3ba45d95ecd18dd99c0a09d2ae38031c747408529"),
        "related": ("ba3fcc00e97c8ff7d48d4fa2f675f68c9874f948ac8bf394196fb6b02ee1308e",
                    "b2dc4ac9ec21a166d8b448fb01be8de5d24f52c30994a25a4b45775bf8ca0e1c"),
        "feasibility-n2": ("09bf6e964f03f0b3c14d4c2846ddfc98b37d74475f502ca2ed3df565bc80a6e7",
                           "d014e7ea7c7ed97a1e65f7f53f9bea319540cdfb5bb2ddc4e15f75023bea898f"),
        "feasibility-n3": ("8ad533d837261a38bba19c2742640a1739afe5ab08e9da0c0438643a15664d21",
                           "4de6a71924a61bdb4d6cddcb2a1fae37887a782234d0daae51f877471f761e2c"),
        "feasibility-n4": ("8614ec6ad21e52545e0bc43fe5e2d636e442f0ca9d5f1f41b99a6a74859c4e23",
                           "9ec823f3e99ccf8d1f3bc9074c2c378bd45ef007a2b50befa8c16a17916d8172"),
        "feasibility-n10": ("156be268fbcb5b7f573bb8286447c359fc34e27d814d6b86556cb713a855f9dd",
                            "f05e6bf67b8e9bc53d8173ccd8622eb412ad9d8d48d4068ff0bf90b1614be37f"),
        "pq-params": ("9598e8a050a250a1bc90cf6640fa90079c613066064fe21e4eb2c1429179c52e",
                      "1af35fbf5a4c7b426d86a363d9c7d46538271ca9a6731dc71ffce6ddb3778775"),
        "diophantine": ("244f0996eb94cb36cc9cf17c6238e0141dbe96c396acc15f2f98de1cf85eff9a",
                        "47b136abd77c206082a927aea0acc2ee96d78f10396925f1d733de30f5851505"),
        "certificate": ("2b04def81997f9c3e08142ff3e0736d87101228f895e1194ff43fbe8ab6d8e7a",
                        "d7c232310a1efbc705bf31569fc3ade5654702bc6799afb6f9fd3ec7eb444c18"),
    }

    def __init__(self, seed: int, srgpq: dict):
        super().__init__(seed, srgpq)
        rows, _ = _witness(inputs.gq35_rows(), inputs.GQ35_PARAMS, seed, self.rng)
        self.text = inputs.graph6(rows)


class Ovoid256Sweep(SweepWorkload):
    """Analyses of the n = 3 witness: preconditions, check-con, local-stats, PQ round trip.

    The sigma sweep is left out: it is one call of about 20 s, which a run
    could time once.  build_sigma is timed per vertex on ovoid256-probe and
    the sigma sweep in full on gq35-full.
    """

    name = "ovoid256-sweep"
    trace_rounds = 2
    ops = (
        ("check-srg", ["check-srg", "-"], "srg", True),
        ("check-diamond-free", ["check-diamond-free", "-"], "diamond_free", True),
        ("check-con", ["check-con", "-"], "con", True),
        ("local-stats", ["local-stats", "-"], "local_stats", True),
    )
    pins = {
        "check-srg": ("bbb22465acfda61390922116cae241cc226ccfca7ecf1ba72f13889466743f9a",
                      "1aaf569cd7cec10b03090e7d8cf38e94fb0f7312807f9a9225ac9959bb27ce11"),
        "check-diamond-free": ("f19a49380b0ffd0806107d5ccefb22aeb962ca9f5639b26359ccb27c145ef842",
                               "a9fb4f56e5991c3d8add171aa8046898107ebffa867aa969d98c03f334ffdc29"),
        "check-con": ("8fe5a3b0aa269bd2c50d2d6dfb8f79f2ac572cfb15848d76bacabef1175f768c",
                      "3172bb87eb20a2bcd61119a0f3889bca0f5734fdc4e5f52d0f6fcbd20484b294"),
        "local-stats": ("29043ac01a0694fc9dc8250ea75c1f59e6524e40058417300b2f741d153c71f0",
                        "db8db5a14e2519d5c7fdf2bbcf2c85e38e5ed7088fbc63c951245d866b76faf2"),
    }
    # PQ(s, t, mu) of the witness: lines are the 4-cliques, 17 through each point.
    PQ = (3, 16, 12)
    LINES = 256 * 17 // 4

    def __init__(self, seed: int, srgpq: dict):
        super().__init__(seed, srgpq)
        rows, _ = _witness(inputs.ovoid256_rows(), inputs.OVOID256_PARAMS, seed, self.rng)
        self.text = inputs.graph6(rows)
        self.graph = self.srgpq["graphcore"].Graph(rows)

    def operation(self, index: int, op: Operation) -> None:
        super().operation(index, op)
        geometry = self.srgpq["geometry"]
        with op.step("pq"):
            incidence = geometry.graph_to_pq(self.graph)
            report = geometry.verify_pq_axioms(incidence)
        if not report.ok or report.params.as_tuple() != self.PQ or report.is_generalized_quadrangle:
            op.problems.append(f"pq round trip: expected PQ{self.PQ}, got {report}")
        if incidence.num_points != 256 or len(incidence.lines) != self.LINES:
            op.problems.append("pq round trip: wrong number of points or lines")


class Ovoid256Probe(Workload):
    """Per-vertex library calls at seeded base vertices of the n = 3 witness."""

    name = "ovoid256-probe"
    trace_rounds = 8
    PROBES = 256  # seeded (u, v, w) triples, cycled
    M_SPECTRUM = (2, 0, 0, 120, 30, 12, 0)
    R_DISTRIBUTION = {"0": 1360, "1": 510, "2": 408}

    def __init__(self, seed: int, srgpq: dict):
        super().__init__(seed, srgpq)
        self.rows, self.images = _witness(
            inputs.ovoid256_rows(), inputs.OVOID256_PARAMS, seed, self.rng)
        self.graph = self.srgpq["graphcore"].Graph(self.rows)
        params = self.srgpq["params"]
        self.family = params.detect_family(params.SrgParams(*inputs.OVOID256_PARAMS))
        self.probes = []
        for _ in range(self.PROBES):
            u = self.rng.randrange(256)
            outside = [x for x in range(256) if x != u and not self.rows[u] >> x & 1]
            v, w = self.rng.sample(outside, 2)
            self.probes.append((u, v, w))

    def operation(self, index: int, op: Operation) -> None:
        u, v, w = self.probes[index % self.PROBES]
        g, fam, rows = self.graph, self.family, self.rows
        localstats, automorphism = self.srgpq["localstats"], self.srgpq["automorphism"]
        problems = op.problems

        with op.step("inv"):
            inv = localstats.verify_inv_formula(g, fam, u)
        if not (inv.passed and inv.asserted and inv.details["dimension"] == 52):
            problems.append(f"inv-formula at {u}: {inv}")

        with op.step("star"):
            star = localstats.verify_star(g, fam, u)
        if not (star.passed and star.asserted and star.details["outside_block"] == 204):
            problems.append(f"star-identity at {u}: {star}")

        with op.step("psi_regularity"):
            psi = localstats.verify_psi_regularity(g, fam, u)
        if not (psi.passed and psi.asserted and psi.details["r_distribution"] == self.R_DISTRIBUTION):
            problems.append(f"psi-regularity at {u}: {psi}")

        with op.step("sigma"):
            sigma = automorphism.build_sigma(g, fam, u)
        if tuple(sigma.images) not in self.sigma_oracle(u):
            problems.append(f"build_sigma at {u} is not u + w^(+-1) (x - u)")

        with op.step("pairs"):
            spectrum = localstats.m_spectrum(g, fam, u, v)
            related = automorphism.related_set(g, fam, u, v)
            stats = localstats.pair_stats(g, u, v, w)
        if spectrum.counts != self.M_SPECTRUM:
            problems.append(f"m-spectrum at ({u}, {v}): {spectrum.counts}")
        if related.kind != "independent-with-M0" or related.members != tuple(
                sorted((u, v) + tuple(spectrum.m0_witnesses))):
            problems.append(f"related set at ({u}, {v}): {related}")
        p = (rows[u] & rows[v] & rows[w]).bit_count()
        expected = 8 if rows[v] >> w & 1 else 12  # lam (n+1) if v ~ w, else mu
        if stats.p != p or 2 * stats.p + stats.q != expected:
            problems.append(f"pair stats at ({u}, {v}, {w}): {stats}")

    def sigma_oracle(self, u: int) -> set:
        """Images of x -> u + w (x - u) and of its inverse x -> u + w^2 (x - u), relabelled."""
        preimage = [0] * 256
        for x, y in enumerate(self.images):
            preimage[y] = x
        built_u = preimage[u]
        return {
            tuple(self.images[built_u ^ _gf4_scale(scalar, x ^ built_u)] for x in preimage)
            for scalar in (2, 3)
        }


def _gf4_scale(scalar: int, vertex: int) -> int:
    """Multiply every 2-bit coordinate of a GF(4)^4 vertex by scalar."""
    return sum(inputs.GF4_MUL[scalar][vertex >> shift & 3] << shift for shift in (0, 2, 4, 6))


# Expected screen verdicts: (subcommand, exit code, ((check, severity), ...)), in order.
_PASS, _FAIL = "asserted-pass", "asserted-fail"
_ACCEPTED = (
    ("check-srg", 0, (("strongly-regular", _PASS),)),
    ("check-diamond-free", 0, (("diamond-free", _PASS),)),
    ("check-con", 0, (("preconditions", _PASS), ("condition-con", _PASS))),
)
_NOT_SRG = (("check-srg", 1, (("strongly-regular", _FAIL),)),)
_NOT_DIAMOND_FREE = _ACCEPTED[:1] + (("check-diamond-free", 1, (("diamond-free", _FAIL),)),)
# A toggle changes two degrees; a 2-switch keeps degrees and breaks a pair count.
_REJECTIONS = {
    "toggle": ("not-regular",),
    "switch": ("adjacent-pair-mismatch", "nonadjacent-pair-mismatch"),
}
_STAGES = {"check-srg": "srg", "check-diamond-free": "diamond_free", "check-con": "con"}


class Screen(Workload):
    """A seeded candidate stream; most candidates are rejected by check-srg.

    One round holds a fixed number of candidates of each kind, in seeded
    order, so every seed screens the same mix.  The witness copies are of
    GQ(3,5) only: check-con on a relabelled n = 3 witness is one 2-s call, a
    third of a round, that a run could time only twice; ovoid256-sweep times
    it instead.
    """

    name = "screen"
    # kind -> (candidates per round, distinct candidates generated)
    MIX = {
        "gq35-switch": (288, 48),
        "gq35-toggle": (96, 16),
        "ovoid256-switch": (288, 48),
        "ovoid256-toggle": (96, 16),
        "shrikhande": (6, 6),
        "rook4": (6, 6),
        "gq35": (4, 4),
    }
    round_size = sum(count for count, _ in MIX.values())

    def __init__(self, seed: int, srgpq: dict):
        super().__init__(seed, srgpq)
        rng, identity = self.rng, seed == 0
        gq35, _ = _witness(inputs.gq35_rows(), inputs.GQ35_PARAMS, seed, rng)
        ovoid, _ = _witness(inputs.ovoid256_rows(), inputs.OVOID256_PARAMS, seed, rng)
        makers = {
            "gq35-switch": lambda: inputs.two_switch(gq35, rng),
            "gq35-toggle": lambda: inputs.toggle(gq35, rng),
            "ovoid256-switch": lambda: inputs.two_switch(ovoid, rng),
            "ovoid256-toggle": lambda: inputs.toggle(ovoid, rng),
            "shrikhande": lambda: _relabelled(inputs.shrikhande_rows(), rng),
            "rook4": lambda: _relabelled(inputs.rook4_rows(), rng),
            "gq35": lambda: _relabelled(gq35, rng, identity),
        }
        params = {"gq35": inputs.GQ35_PARAMS, "shrikhande": (16, 6, 2, 2),
                  "rook4": (16, 6, 2, 2)}
        self.round = []
        for kind, (count, distinct) in self.MIX.items():
            pool = []
            for copy in range(distinct):
                text = inputs.graph6(makers[kind]())
                pool.append((kind, copy, text, _sha(text), params.get(kind)))
            self.round += [pool[i % distinct] for i in range(count)]
        rng.shuffle(self.round)

    def operation(self, index: int, op: Operation) -> None:
        kind, copy, text, digest, params = self.round[index % len(self.round)]
        if params is not None:
            copy = None  # relabelled copies of one graph do the same work
        if kind.endswith("-switch") or kind.endswith("-toggle"):
            expected = _NOT_SRG
        elif kind == "shrikhande":
            expected = _NOT_DIAMOND_FREE
        else:
            expected = _ACCEPTED  # rook4 is the n = -2 family member, so check-con passes
        for subcommand, code, checks in expected:
            got, report = self.cli(op, _STAGES[subcommand], (kind, copy, subcommand),
                                   [subcommand, "-"], text)
            document = json.loads(report)
            seen = tuple((c["name"], c["severity"]) for c in document["checks"])
            if got != code or seen != checks or document["input"]["sha256"] != digest:
                op.problems.append(f"{kind} {subcommand}: exit {got}, checks {seen}")
                return
            if subcommand == "check-srg" and code == 0:
                if document["results"]["srg_params"] != list(params):
                    op.problems.append(f"{kind}: parameters {document['results']['srg_params']}")
            elif subcommand == "check-srg":
                reason = document["checks"][0]["witness"]["reason"]
                if reason not in _REJECTIONS[kind.rsplit("-", 1)[1]]:
                    op.problems.append(f"{kind}: rejected for {reason}")


def _relabelled(rows: list[int], rng: random.Random, identity: bool = False) -> list[int]:
    return inputs.relabel(rows, inputs.seeded_permutation(len(rows), rng, identity))


WORKLOADS = {w.name: w for w in (Gq35Full, Ovoid256Sweep, Ovoid256Probe, Screen)}
