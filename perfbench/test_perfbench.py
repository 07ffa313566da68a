"""Tests of the benchmark itself: inputs, tracing and the runner's refusal without srgpq."""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import inputs, speed
from perfbench.tracing import LAYER_FUNCTIONS, TRACED, Tracer
from perfbench.workloads import MODULES, Operation, Ovoid256Probe, Screen

import srgpq.cli
from srgpq.graphcore import Graph, is_diamond_free, is_srg

ROOT = Path(__file__).resolve().parent.parent


def _srgpq_modules() -> dict:
    return {layer: sys.modules[f"srgpq.{layer}"] for layer in MODULES}


def _bindings() -> dict:
    """(module, name) -> bound object, for every traced name any srgpq module binds."""
    names = {fn for fns in LAYER_FUNCTIONS.values() for fn in fns}
    return {
        (module_name, fn): getattr(module, fn)
        for module_name, module in sys.modules.items()
        if module_name == "srgpq" or module_name.startswith("srgpq.")
        for fn in names
        if hasattr(module, fn)
    }


def test_tracing_restores_every_patched_name():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = _bindings()
            raise RuntimeError("leave the block by an exception")
    assert all(during[key] is not original for key, original in before.items())
    assert len(before) > len(TRACED)  # some functions are bound in several modules
    after = _bindings()
    assert all(after[key] is original for key, original in before.items())


def test_traced_call_counts_repeat_for_a_seed():
    runs = []
    for _ in range(2):
        workload = Ovoid256Probe(3, _srgpq_modules())
        with Tracer() as tracer:
            for index in range(2):
                tracer.op = index
                assert not workload.run(index).problems
        runs.append({k: v for k, (v, unit) in tracer.layer_metrics().items() if unit != "s"})
    assert runs[0] == runs[1]
    assert runs[0]["automorphism.build_sigma.calls"] == 2
    assert runs[0]["localstats.verify_star.calls"] == 2
    assert runs[0]["automorphism.build_sigma.kept_ratio"] == 1.0


def test_steps_are_scaled_by_the_loop_samples_around_and_within_them():
    op = Operation()
    start = time.perf_counter()
    with op.step("stage", key="key"):
        while time.perf_counter() - start < 2.5 * speed.INTERVAL_S:
            pass  # long enough for samples within the step
    wall = time.perf_counter() - start
    ((stage, key, timing),) = op.steps
    assert (stage, key) == ("stage", "key") and timing.loop > 0
    assert timing.samples >= 4  # before, at least two within, after
    assert 0 < timing.seconds < wall
    assert op.seconds == timing.seconds
    assert speed.Timing(1.0, speed.REFERENCE_S).at_reference == 1.0
    assert speed.Timing(1.0, 2 * speed.REFERENCE_S).at_reference == 0.5


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generators_are_deterministic_per_seed(seed):
    def build(seed):
        rng = random.Random(seed)
        images = inputs.seeded_permutation(256, rng, identity=seed == 0)
        witness = inputs.relabel(inputs.ovoid256_rows(), images)
        return witness, inputs.two_switch(witness, rng), inputs.toggle(witness, rng)

    assert build(seed) == build(seed)
    assert build(seed) != build(seed + 1)
    if seed == 0:
        assert build(0)[0] == inputs.ovoid256_rows()


def test_witnesses_match_the_program():
    ovoid = inputs.ovoid256_rows()
    assert inputs.srg_params(ovoid) == inputs.OVOID256_PARAMS and inputs.diamond_free(ovoid)
    assert is_srg(Graph(ovoid)).as_tuple() == inputs.OVOID256_PARAMS
    assert is_diamond_free(Graph(ovoid))[0]
    gq35 = inputs.gq35_rows()
    assert inputs.graph6(gq35) == srgpq.cli.serialize_graph6(srgpq.geometry.build_gq35())
    assert not inputs.diamond_free(inputs.shrikhande_rows())
    assert inputs.diamond_free(inputs.rook4_rows())


@pytest.mark.parametrize("seed", range(4))
def test_mutants_keep_degrees_but_are_not_srgs(seed):
    rng = random.Random(seed)
    for witness in (inputs.gq35_rows(), inputs.ovoid256_rows()):
        degrees = [row.bit_count() for row in witness]
        switched = inputs.two_switch(witness, rng)
        assert [row.bit_count() for row in switched] == degrees
        assert inputs.srg_params(switched) is None and is_srg(Graph(switched)) is None
        toggled = inputs.toggle(witness, rng)
        assert [row.bit_count() for row in toggled] != degrees
        assert is_srg(Graph(toggled)) is None
        assert inputs.graph6(switched) == srgpq.cli.serialize_graph6(Graph(switched))


def test_screen_candidates_get_their_verdicts():
    workload = Screen(5, _srgpq_modules())
    kinds = {candidate[0]: index for index, candidate in enumerate(workload.round)}
    for kind, index in sorted(kinds.items()):
        assert not workload.run(index).problems, kind


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gq35-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
