"""Differential tests: the bitset kernels of srgpq.localstats against their references.

The references in tests/oracles.py test one outside vertex at a time, call
pair_stats once per triple, or build the dense product Y B Y^T.  The kernels
must give the same M_0 sets, counts, reports and witnesses, and raise the
same exception type with the same message, on random graphs and on
edge-toggle and 2-switch mutants of both witnesses.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import gq35_rows, ovoid256_rows, toggle, two_switch
from srgpq.graphcore import Graph, NeighborhoodStructureError, bits
from srgpq.localstats import (
    FamilyPreconditionError,
    LocalStatsError,
    MomentIdentityError,
    PairBoundError,
    _m0_mask,
    check_condition_con,
    m_spectrum,
    psi_partition,
    verify_eq_pq,
    verify_star,
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


# The resolvent checks: the closed-form star identity and the per-u eq-pq masks.
# The full eq-pq sweep of the unmutated n = 3 witness (5 300 736 triples) is
# compared through the CLI pin in tests/test_regime_n3.py, captured when
# verify_eq_pq was the pair_stats loop; the loop itself takes about a minute.


def _assert_resolvent_kernels_agree(g: Graph, fam: FamilyInfo, bases) -> list:
    outcomes = [_outcome(verify_eq_pq, g, fam)]
    assert outcomes[0] == _outcome(oracles.verify_eq_pq, g, fam)
    for u in bases:
        outcomes.append(_outcome(verify_star, g, fam, u))
        assert outcomes[-1] == _outcome(oracles.verify_star, g, fam, u)
    return outcomes


def _kind(outcome) -> object:
    if outcome[0] == "raised":
        return outcome[1]
    return outcome[1].name, outcome[1].passed


@settings(max_examples=200, deadline=None)
@given(graphs, st.sampled_from(FAMILIES), st.data())
def test_resolvent_kernels_match_the_oracles_on_random_graphs(g, fam, data):
    u = data.draw(st.integers(-1, g.nu), label="u")
    _assert_resolvent_kernels_agree(g, fam, [u])


def test_random_graphs_reach_every_resolvent_outcome():
    seen = set()
    for seed in range(40):
        g = _random_graph(6 + seed % 11, (0.1, 0.3, 0.5, 0.8)[seed % 4], seed)
        fam = FAMILIES[seed % len(FAMILIES)]
        outcomes = _assert_resolvent_kernels_agree(g, fam, range(-1, g.nu + 1))
        seen.update(_kind(outcome) for outcome in outcomes)
    assert {
        ("eq-pq", False),
        ("star-identity", False),
        FamilyPreconditionError,
        NeighborhoodStructureError,
    } <= seen


def test_resolvent_kernels_match_the_oracles_on_the_witnesses():
    gq35 = Graph(gq35_rows())
    outcomes = _assert_resolvent_kernels_agree(gq35, FamilyInfo.from_n_lam(2, 2), range(0, 64, 9))
    # lam = 1 asks for 2-cliques in the triangle-tiled neighbourhoods
    outcomes += _assert_resolvent_kernels_agree(gq35, FamilyInfo.from_n_lam(2, 1), [0])
    assert {_kind(outcome) for outcome in outcomes} == {
        ("eq-pq", True),
        ("star-identity", True),
        ("eq-pq", False),
        NeighborhoodStructureError,
    }
    ovoid = Graph(ovoid256_rows())
    for u in (0, 255):
        report = verify_star(ovoid, FamilyInfo.from_n_lam(3, 2), u)
        assert report.severity == "asserted-pass"
        assert report == oracles.verify_star(ovoid, FamilyInfo.from_n_lam(3, 2), u)


def test_resolvent_kernels_match_the_oracles_on_gq35_mutants():
    fam = FamilyInfo.from_n_lam(2, 2)
    rows = gq35_rows()
    kinds = set()
    for mutant in _mutants(rows, seed=11):
        g = Graph(mutant)
        outcomes = _assert_resolvent_kernels_agree(g, fam, _changed(rows, mutant) + [0, 40])
        assert _kind(outcomes[0]) == ("eq-pq", False)
        kinds.update(_kind(outcome) for outcome in outcomes[1:])
    assert {("star-identity", False), ("star-identity", True)} <= kinds


def _toggle_outside(rows: list[int], u: int, seed: int) -> tuple[list[int], int, int]:
    """Toggle one edge between two non-neighbours of u; N[u] and every N(u, v) stay as they were."""
    outside = [x for x in range(len(rows)) if x != u and not rows[u] >> x & 1]
    v, w = sorted(random.Random(seed).sample(outside, 2))
    mutant = list(rows)
    mutant[v] ^= 1 << w
    mutant[w] ^= 1 << v
    return mutant, v, w


def test_star_witness_names_a_toggled_pair_of_non_neighbours():
    fam = FamilyInfo.from_n_lam(3, 2)
    rows = ovoid256_rows()
    scalar = 48  # n (n+1)^2 (n-lam) at n = 3, lam = 2
    for u, seed in ((0, 1), (0, 2), (131, 3)):
        mutant, v, w = _toggle_outside(rows, u, seed)
        g = Graph(mutant)
        adjacent = mutant[v] >> w & 1
        report = verify_star(g, fam, u)
        assert report == oracles.verify_star(g, fam, u)
        # only the lhs entry of the toggled pair moves: -scalar * (v ~ w)
        assert report.severity == "asserted-fail"
        assert report.witness == {
            "entry": [v, w],
            "lhs": -scalar * adjacent,
            "rhs": -scalar * (1 - adjacent),
        }
        eq_pq = verify_eq_pq(g, fam)
        assert eq_pq == oracles.verify_eq_pq(g, fam)
        if u == 0:  # every triple at u = 0 before (v, w) is untouched
            assert (eq_pq.witness["u"], eq_pq.witness["v"], eq_pq.witness["w"]) == (u, v, w)
