"""Differential tests: the bitset M_0 and m-spectrum kernels against the per-vertex loops.

The references in tests/oracles.py test one outside vertex at a time.  The
kernels must give the same M_0 sets, counts and witnesses, and raise the same
exception type with the same message, on random graphs and on edge-toggle and
2-switch mutants of both witnesses.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import gq35_rows, ovoid256_rows, toggle, two_switch
from srgpq.graphcore import Graph, bits
from srgpq.localstats import (
    LocalStatsError,
    MomentIdentityError,
    PairBoundError,
    _m0_mask,
    check_condition_con,
    m_spectrum,
    psi_partition,
)
from srgpq.params import FamilyInfo
from tests import oracles

# n = -2 and lam = n + 1 make the slope n - lam + 1 non-positive: the precondition path
FAMILIES = [FamilyInfo.from_n_lam(-2, 2)] + [
    FamilyInfo.from_n_lam(n, lam) for n in (1, 2, 3) for lam in range(n + 2)
]


def _outcome(function, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "returned", function(*args)
    except ValueError as exc:  # LocalStatsError and GraphError among them
        return "raised", type(exc), str(exc)


def _random_graph(nu: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(nu) for v in range(u + 1, nu) if rng.random() < density]
    return Graph.from_edges(nu, edges)


def _assert_kernels_agree(g: Graph, fam: FamilyInfo, u: int, v: int):
    if 0 <= u < g.nu and 0 <= v < g.nu:
        assert tuple(bits(_m0_mask(g, u, v))) == oracles.m0_set(g, u, v)
    outcome = _outcome(m_spectrum, g, fam, u, v)
    assert outcome == _outcome(oracles.m_spectrum, g, fam, u, v)
    return outcome


graphs = st.builds(
    _random_graph,
    nu=st.integers(1, 24),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(graphs, st.sampled_from(FAMILIES), st.data())
def test_m_spectrum_kernel_matches_the_loop_on_random_graphs(g, fam, data):
    # one step past either end reaches the bounds checks as well
    u = data.draw(st.integers(-1, g.nu), label="u")
    v = data.draw(st.integers(-1, g.nu), label="v")
    _assert_kernels_agree(g, fam, u, v)


def test_random_graphs_reach_every_outcome():
    # a fixed sample, so each exception path is compared on every run
    seen = set()
    for seed in range(60):
        g = _random_graph(12 + seed % 9, (0.1, 0.3, 0.5, 0.8)[seed % 4], seed)
        fam = FAMILIES[seed % len(FAMILIES)]
        for u in range(0, g.nu, 3):
            for v in range(g.nu):
                outcome = _assert_kernels_agree(g, fam, u, v)
                seen.add(outcome[0] if outcome[0] == "returned" else outcome[1])
    assert {"returned", PairBoundError, MomentIdentityError, LocalStatsError} <= seen


def _mutants(rows: list[int], seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [toggle(rows, rng) for _ in range(2)] + [two_switch(rows, rng) for _ in range(2)]


def _changed(rows: list[int], mutant: list[int]) -> list[int]:
    return [x for x in range(len(rows)) if rows[x] != mutant[x]]


def _is_moment_failure(outcome) -> bool:
    return outcome[0] == "raised" and outcome[1] is MomentIdentityError


def test_kernels_match_the_loops_on_gq35_mutants():
    fam = FamilyInfo.from_n_lam(2, 2)
    rows = gq35_rows()
    moment_failures = 0
    for mutant in _mutants(rows, seed=3):
        g = Graph(mutant)
        for u in range(g.nu):
            for v in range(g.nu):
                moment_failures += _is_moment_failure(_assert_kernels_agree(g, fam, u, v))
            assert _outcome(psi_partition, g, fam, u) == _outcome(oracles.psi_partition, g, fam, u)
        m0 = [
            len(oracles.m0_set(g, u, v))
            for u in range(g.nu)
            for v in range(u + 1, g.nu)
            if not g.adjacent(u, v)
        ]
        report = check_condition_con(g, fam)
        assert (report.details["m0_min"], report.details["m0_max"]) == (min(m0), max(m0))
        assert report.details["pairs"] == len(m0)
    assert moment_failures > 0


def test_kernels_match_the_loops_on_ovoid256_mutants():
    fam = FamilyInfo.from_n_lam(3, 2)
    rows = ovoid256_rows()
    moment_failures = 0
    for mutant in _mutants(rows, seed=5):
        g = Graph(mutant)
        # the mutation's endpoints and a few untouched vertices, against every v
        for u in _changed(rows, mutant) + [0, 77, 255]:
            for v in range(g.nu):
                moment_failures += _is_moment_failure(_assert_kernels_agree(g, fam, u, v))
            assert _outcome(psi_partition, g, fam, u) == _outcome(oracles.psi_partition, g, fam, u)
    assert moment_failures > 0
