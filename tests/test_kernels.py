"""Differential tests: the bitset kernels of srgpq.localstats against their references.

The references in tests/oracles.py test one outside vertex at a time, call
m_spectrum once per ordered pair or pair_stats once per triple, or build the
dense products B (nI - A_H) and Y B Y^T.  The kernels must give the same M_0
sets, counts, histograms, reports and witnesses, and raise the same
exception type with the same message, on random graphs and on edge-toggle
and 2-switch mutants of both witnesses.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from perfbench.inputs import gq35_rows, ovoid256_rows, relabel, toggle, two_switch
from srgpq import localstats
from srgpq.automorphism import vertex_orbits
from srgpq.graphcore import Graph, GraphError, NeighborhoodStructureError, bits
from srgpq.localstats import (
    FamilyPreconditionError,
    LocalStatsError,
    MomentIdentityError,
    PairBoundError,
    PartitionError,
    _m0_mask,
    check_condition_con,
    m_spectrum,
    m_spectrum_histogram,
    psi_partition,
    verify_eq_pq,
    verify_inv_formula,
    verify_psi_regularity,
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
    assert _outcome(psi_partition, g, fam, u) == _outcome(oracles.psi_partition, g, fam, u)


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
        report = check_condition_con(g, vertex_orbits(g, fam))
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
    outcomes = [_outcome(verify_eq_pq, g, fam, vertex_orbits(g, fam))]
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
        eq_pq = verify_eq_pq(g, fam, vertex_orbits(g, fam))
        assert eq_pq == oracles.verify_eq_pq(g, fam)
        if u == 0:  # every triple at u = 0 before (v, w) is untouched
            assert (eq_pq.witness["u"], eq_pq.witness["v"], eq_pq.witness["w"]) == (u, v, w)


# The local-stats sweep: each unordered pair computed once and checked for both
# of its rows, against the ordered m_spectrum loop.  On failing inputs the
# histogram of the pairs before the failure must agree too.

VALID_FAMILIES = [fam for fam in FAMILIES if fam.n > 0 and fam.lam <= fam.n]


def _assert_sweep_agrees(g: Graph, fam: FamilyInfo, vertex=None):
    sweep = m_spectrum_histogram(g, fam, vertex_orbits(g, fam) if vertex is None else ((vertex,),))
    histogram, failure = oracles.m_spectrum_histogram(g, fam, None if vertex is None else [vertex])
    assert (sweep.histogram, sweep.failure) == (histogram, failure)
    assert sweep.pairs_checked == sum(histogram.values())
    return sweep


def _shuffled(rows: list[int], seed: int) -> list[int]:
    images = list(range(len(rows)))
    random.Random(seed).shuffle(images)
    return relabel(rows, images)


def _first(rows: list[int], front: list[int]) -> list[int]:
    """rows relabelled so that the vertices of front come first, in order."""
    images = [0] * len(rows)
    order = front + [x for x in range(len(rows)) if x not in front]
    for label, x in enumerate(order):
        images[x] = label
    return relabel(rows, images)


@settings(max_examples=200, deadline=None)
@given(graphs, st.sampled_from(VALID_FAMILIES), st.data())
def test_sweep_matches_the_ordered_loop_on_random_graphs(g, fam, data):
    vertices = st.none() | st.integers(0, g.nu - 1) if g.nu else st.none()
    _assert_sweep_agrees(g, fam)
    _assert_sweep_agrees(g, fam, data.draw(vertices, label="vertex"))


def test_sweep_matches_the_ordered_loop_on_the_witnesses():
    fam = FamilyInfo.from_n_lam(2, 2)
    for rows in (gq35_rows(), _shuffled(gq35_rows(), 1)):
        sweep = _assert_sweep_agrees(Graph(rows), fam)
        assert sweep.histogram == {(2, 0, 24, 0, 6, 0, 0): 64 * 45}
        for u in (0, 31, 63):  # the rows of --vertex
            _assert_sweep_agrees(Graph(rows), fam, u)
    fam = FamilyInfo.from_n_lam(3, 2)
    for rows in (ovoid256_rows(), _shuffled(ovoid256_rows(), 2)):
        g = Graph(rows)
        # every pair has the same spectrum, so one row of the loop pins the full sweep
        v = next(x for x in range(1, 256) if not rows[0] >> x & 1)
        counts = oracles.m_spectrum(g, fam, 0, v).counts
        assert m_spectrum_histogram(g, fam, vertex_orbits(g, fam)).histogram == {counts: 256 * 204}
        for u in random.Random(3).sample(range(256), 6):
            _assert_sweep_agrees(g, fam, u)


def test_sweep_matches_the_ordered_loop_on_mutants():
    rng = random.Random(13)
    rows = gq35_rows()
    for trial in range(4):
        mutant = _shuffled(two_switch(rows, rng), trial)
        for fam in VALID_FAMILIES:  # n = 2, lam = 2 is the graph's own family
            sweep = _assert_sweep_agrees(Graph(mutant), fam)
            assert sweep.failure is not None
            for u in (trial, 40 + trial):
                _assert_sweep_agrees(Graph(mutant), fam, u)
    fam = FamilyInfo.from_n_lam(3, 2)
    mutant = two_switch(ovoid256_rows(), rng)
    sweeps = [_assert_sweep_agrees(Graph(mutant), fam, u) for u in rng.sample(range(256), 4)]
    assert any(isinstance(sweep.failure, dict) for sweep in sweeps)


def test_sweep_failure_in_a_late_row():
    # A toggled edge of GQ(3,5) leaves a few rows whose pairs all pass; listed
    # first, they push the first failure to row 6.
    fam = FamilyInfo.from_n_lam(2, 2)
    mutant = toggle(gq35_rows(), random.Random(1))
    g = Graph(mutant)
    passing = [u for u in range(64) if m_spectrum_histogram(g, fam, ((u,),)).failure is None]
    assert len(passing) == 6
    sweep = _assert_sweep_agrees(Graph(_first(mutant, passing)), fam)
    assert sweep.failure["u"] == 6 and sweep.pairs_checked > 5 * 45
    # C4 plus an isolated vertex z under n = 1, lam = 0: every row of C4 passes,
    # but its pairs with z fail z's own targets (k = 0), so the first failure
    # is the pair (z, 0) in the last row
    c4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    fam = FamilyInfo.from_n_lam(1, 0)
    sweep = _assert_sweep_agrees(c4, fam)
    assert sweep.failure == {"u": 4, "v": 0, "error": "sum m_i = 1, expected 5 at pair (4, 0)"}
    assert sweep.histogram == {(1, 0): 8}
    for images in ([4, 0, 1, 2, 3], [0, 1, 4, 2, 3]):
        _assert_sweep_agrees(Graph(relabel(list(c4.rows), images)), fam)


def test_sweep_checks_each_row_against_its_own_degree():
    # the path 1 - 0 - 2 - 3 under n = 1, lam = 0: the pair (0, 3) passes with
    # deg(0) = 2, and the new pair (1, 2) of row 1 has the same spectrum but
    # fails with deg(1) = 1, so a spectrum seen in another row is checked again
    path = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    sweep = _assert_sweep_agrees(path, FamilyInfo.from_n_lam(1, 0))
    assert sweep.histogram == {(0, 0): 1}
    assert sweep.failure == {"u": 1, "v": 2, "error": "sum m_i = 0, expected 2 at pair (1, 2)"}


def test_sweep_runs_the_pair_kernel_once_per_unordered_pair(monkeypatch):
    calls = []
    kernel = localstats._spectrum_masks

    def counted(*args):
        calls.append(args[-2:])
        return kernel(*args)

    monkeypatch.setattr(localstats, "_spectrum_masks", counted)
    g, singletons = Graph(gq35_rows()), tuple((v,) for v in range(64))
    assert m_spectrum_histogram(g, FamilyInfo.from_n_lam(2, 2), singletons).failure is None
    assert len(calls) == len({frozenset(pair) for pair in calls}) == 64 * 45 // 2


def test_sweep_runs_the_pair_kernel_once_per_pair_at_each_orbit_representative(monkeypatch):
    # gq35 is one orbit: one row, vertex 0 with its 45 non-neighbours
    calls = []
    kernel = localstats._spectrum_masks

    def counted(*args):
        calls.append(args[-2:])
        return kernel(*args)

    monkeypatch.setattr(localstats, "_spectrum_masks", counted)
    rows = gq35_rows()
    g, fam = Graph(rows), FamilyInfo.from_n_lam(2, 2)
    sweep = m_spectrum_histogram(g, fam, vertex_orbits(g, fam))
    assert sweep.failure is None and sweep.pairs_checked == 64 * 45
    assert calls == [(0, v) for v in range(1, 64) if not rows[0] >> v & 1]


def test_sweep_rejects_bad_rows():
    g, fam = Graph(gq35_rows()), FamilyInfo.from_n_lam(2, 2)
    with pytest.raises(GraphError):
        m_spectrum_histogram(g, fam, ((64,),))
    with pytest.raises(FamilyPreconditionError):
        m_spectrum_histogram(g, FamilyInfo.from_n_lam(1, 2), vertex_orbits(g, fam))


# verify_inv_formula: the clique cells and the two entries that depend on
# |N(u)|, against the dense product B (nI - A_H).


def _assert_inv_formula_agrees(g: Graph, fam: FamilyInfo, u: int):
    outcome = _outcome(verify_inv_formula, g, fam, u)
    assert outcome == _outcome(oracles.verify_inv_formula, g, fam, u)
    return outcome


def test_inv_formula_matches_the_dense_product_on_the_witnesses():
    gq35 = Graph(gq35_rows())
    kinds = set()
    for u in range(64):
        for fam in (FamilyInfo.from_n_lam(2, 2), FamilyInfo.from_n_lam(3, 2)):
            kinds.add(_kind(_assert_inv_formula_agrees(gq35, fam, u)))
    # a wrong family's scalar fails the product, the graph's own passes it
    assert kinds == {("inv-formula", True), ("inv-formula", False)}
    ovoid = Graph(ovoid256_rows())
    for u in random.Random(8).sample(range(256), 8):
        outcome = _assert_inv_formula_agrees(ovoid, FamilyInfo.from_n_lam(3, 2), u)
        assert outcome[1].severity == "asserted-pass"


def test_inv_formula_matches_the_dense_product_on_toggled_edges():
    rng = random.Random(6)
    kinds = set()
    for rows, fam in ((gq35_rows(), FamilyInfo.from_n_lam(2, 2)),
                      (ovoid256_rows(), FamilyInfo.from_n_lam(3, 2))):
        for _ in range(3):
            u = rng.randrange(len(rows))
            order = localstats._neighborhood_ordering(Graph(rows), u, fam.lam)
            # an edge inside N[u], so A_H itself changes
            a, b = rng.sample(order, 2)
            mutant = list(rows)
            mutant[a] ^= 1 << b
            mutant[b] ^= 1 << a
            kinds.add(_kind(_assert_inv_formula_agrees(Graph(mutant), fam, u)))
    # any edge toggled inside N[u] breaks the (lam+1)-cliques of N(u)
    assert kinds == {NeighborhoodStructureError}


@settings(max_examples=200, deadline=None)
@given(graphs, st.sampled_from(FAMILIES), st.data())
def test_inv_formula_matches_the_dense_product_on_random_graphs(g, fam, data):
    u = data.draw(st.integers(-1, g.nu), label="u")
    _assert_inv_formula_agrees(g, fam, u)


def _cone(cliques: int, width: int) -> Graph:
    """cliques disjoint K_width on 0 .. apex - 1, every vertex joined to apex = cliques * width."""
    apex = cliques * width
    edges = [(x, apex) for x in range(apex)]
    edges += [(x, y) for x in range(apex) for y in range(x + 1, x // width * width + width)]
    return Graph.from_edges(apex + 1, edges)


@pytest.mark.parametrize(
    "n", [n if n <= 5 else pytest.param(n, marks=pytest.mark.slow) for n in range(1, 9)]
)
def test_inv_formula_matches_the_dense_product_on_cones(n):
    # at the apex of a cone over m disjoint K_{lam+1} the clique cells hold, so
    # only k = m(lam+1) against the valency decides; the valency's own m passes
    kinds = set()
    for lam in range(n + 1):
        valency, width = n * (n * n + 3 * n - lam + 1), lam + 1
        sizes = set(range(5)) | ({valency // width} if valency % width == 0 else set())
        for cliques in sorted(sizes):
            apex, fam = cliques * width, FamilyInfo.from_n_lam(n, lam)
            report = _assert_inv_formula_agrees(_cone(cliques, width), fam, apex)[1]
            assert report.passed == (apex == valency or lam == n and cliques == 0)
            kinds.add("pass" if report.passed else ("corner" if cliques == 0 else "border"))
            if not report.passed:
                assert report.witness["entry"] == ([apex, apex] if cliques == 0 else [0, apex])
    assert kinds == {"pass", "border", "corner"}


# psi-regularity: one pass over all pairs of psi cells at once, against the
# per-pair loop.


def _assert_psi_regularity_agrees(g: Graph, fam: FamilyInfo, u: int):
    outcome = _outcome(verify_psi_regularity, g, fam, u)
    assert outcome == _outcome(oracles.verify_psi_regularity, g, fam, u)
    return outcome


PSI_WITNESSES = (
    (gq35_rows, FamilyInfo.from_n_lam(2, 2), None),
    (ovoid256_rows, FamilyInfo.from_n_lam(3, 2), 16),
)


def test_psi_regularity_matches_the_per_pair_loop_on_the_witnesses():
    for rows_of, fam, sample in PSI_WITNESSES:
        rows = rows_of()
        for labels in (rows, _shuffled(rows, 4)):
            g = Graph(labels)
            vertices = range(g.nu) if sample is None else random.Random(2).sample(range(g.nu), sample)
            for u in vertices:
                outcome = _assert_psi_regularity_agrees(g, fam, u)
                assert _kind(outcome) == ("psi-regularity", True)


def test_psi_regularity_matches_the_per_pair_loop_on_mutants():
    kinds = set()
    for rows_of, fam, sample in PSI_WITNESSES:
        rows = rows_of()
        for mutant in _mutants(rows, seed=9):
            g = Graph(mutant)
            vertices = range(g.nu) if sample is None else random.Random(3).sample(range(g.nu), sample)
            for u in sorted(set(vertices) | set(_changed(rows, mutant))):
                kinds.add(_kind(_assert_psi_regularity_agrees(g, fam, u)))
    assert kinds == {("psi-regularity", True), ("psi-regularity", False), PartitionError}
