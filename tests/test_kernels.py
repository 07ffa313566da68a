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
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from perfbench.inputs import gq35_rows, ovoid256_rows, relabel, toggle, two_switch
from srgpq import localstats
from srgpq.automorphism import build_sigma, verified_sigmas
from srgpq.geometry import build_rook4
from srgpq.graphcore import Graph, GraphError, NeighborhoodStructureError, _clique_masks, bits
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
        report = check_condition_con(g, verified_sigmas(g, fam)[0])
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


# The resolvent checks: the star identity and eq-pq, a row at a time on the
# frame at each base vertex.  The full eq-pq sweep of the unmutated n = 3
# witness (5 300 736 triples) is compared through the CLI pin in
# tests/test_regime_n3.py, captured when verify_eq_pq was the pair_stats loop;
# the loop itself takes about a minute.


def _assert_resolvent_kernels_agree(g: Graph, fam: FamilyInfo, bases) -> list:
    outcomes = [_outcome(verify_eq_pq, g, fam, verified_sigmas(g, fam)[0])]
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
@given(graphs, st.sampled_from(FAMILIES))
def test_resolvent_kernels_match_the_oracles_on_random_graphs(g, fam):
    # star at every vertex, and at the out-of-range -1 and nu
    _assert_resolvent_kernels_agree(g, fam, range(-1, g.nu + 1))


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


def test_eq_pq_matches_the_oracle_on_ovoid256_two_switches():
    # each seed's first failure is at u = 0, after thousands of passing triples
    fam, rows = FamilyInfo.from_n_lam(3, 2), ovoid256_rows()
    for seed, triples in ((0, 4273), (2, 4970), (6, 7169), (10, 10497)):
        g = Graph(two_switch(rows, random.Random(seed)))
        report = verify_eq_pq(g, fam, verified_sigmas(g, fam)[0])
        assert report == oracles.verify_eq_pq(g, fam)
        assert report.witness["u"] == 0 and report.details["triples_checked"] == triples


def _inner_edge_rows(cliques: bool) -> tuple[list[int], int, int]:
    """GQ(3,5) with its first two non-neighbours v, w of 0 joined to both ends of an edge x ~ y of N(0).

    A_v and A_w then share the edge {x, y} of a cell {x, y, z}, so (v, w),
    the first triple at 0, needs eq-pq's inner-edge correction.  Without
    cliques, y !~ z too, and <N(0)> is no disjoint union of cliques.
    """
    mutant = gq35_rows()
    v, w = [x for x in range(1, 64) if not mutant[0] >> x & 1][:2]
    x = next(bits(mutant[v] & mutant[0]))
    y, z = bits(mutant[x] & mutant[0])
    for a, b in ((v, x), (v, y), (w, x), (w, y)):
        mutant[a] |= 1 << b
        mutant[b] |= 1 << a
    if not cliques:
        mutant[y] ^= 1 << z
        mutant[z] ^= 1 << y
    return mutant, v, w


@pytest.mark.parametrize("cliques", [True, False])
def test_eq_pq_takes_the_edges_inside_a_v_off_on_both_frame_kinds(cliques):
    # a clique-cell frame with tables, where v's key takes two bits of one
    # cell and misses them, and a frame of singleton cells; the first triple
    # fails either way, so its value and the whole report pin the correction
    fam = FamilyInfo.from_n_lam(2, 2)
    mutant, v, w = _inner_edge_rows(cliques)
    g = Graph(mutant)
    frame = localstats._frame(g, 0)
    assert frame.cliques == cliques
    common = frame.local[v] & frame.local[w]  # A_v & A_w, which holds an edge of <N(0)>
    assert any(frame.local[frame.order[i]] & common for i in bits(common))
    if cliques:
        assert all(span != -1 for _, span, _ in frame.groups) and _has_direct_rows(g, 0)
    report = _assert_resolvent_kernels_agree(g, fam, [0])[0][1]
    assert report.witness == {"u": 0, "v": v, "w": w, "p": 3, "q": 5, "value": 8, "expected": 6}
    assert report.details["triples_checked"] == 1


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
        eq_pq = verify_eq_pq(g, fam, verified_sigmas(g, fam)[0])
        assert eq_pq == oracles.verify_eq_pq(g, fam)
        if u == 0:  # every triple at u = 0 before (v, w) is untouched
            assert (eq_pq.witness["u"], eq_pq.witness["v"], eq_pq.witness["w"]) == (u, v, w)


def _assert_star_agrees(g: Graph, fam: FamilyInfo, u: int):
    outcome = _outcome(verify_star, g, fam, u)
    assert outcome == _outcome(oracles.verify_star, g, fam, u)
    return outcome


def test_star_matches_the_dense_product_on_ovoid256_mutants():
    # whole reports, witness entry, lhs and rhs included, at the mutated rows, at
    # a neighbour of each and at 0 (eq-pq's oracle sweeps every vertex, so
    # its n = 3 mutants are those whose first failure is early)
    fam, rows, kinds = FamilyInfo.from_n_lam(3, 2), ovoid256_rows(), set()
    for mutant in _mutants(rows, seed=17):
        g = Graph(mutant)
        changed = _changed(rows, mutant)
        for u in changed + [next(bits(rows[x])) for x in changed] + [0]:
            kinds.add(_kind(_assert_star_agrees(g, fam, u)))
    assert kinds == {("star-identity", False), NeighborhoodStructureError}


def test_star_witness_on_the_diagonal():
    # toggling v ~ y, v the least non-neighbour of u and y in N(u), moves d_v
    # and so every entry of row v, which is the first row: the diagonal fails first
    fam = FamilyInfo.from_n_lam(3, 2)
    rows = ovoid256_rows()
    scalar = 48  # n (n+1)^2 (n-lam) at n = 3, lam = 2
    for u in (0, 200):
        v = next(x for x in range(len(rows)) if x != u and not rows[u] >> x & 1)
        for y in sorted(bits(rows[u]))[:2]:
            mutant = list(rows)
            mutant[v] ^= 1 << y
            mutant[y] ^= 1 << v
            report = _assert_star_agrees(Graph(mutant), fam, u)[1]
            assert report.severity == "asserted-fail"
            assert report.witness["entry"] == [v, v]
            assert report.witness["lhs"] == scalar * fam.n != report.witness["rhs"]


def test_star_width_holds_every_field_and_the_next_narrower_width_does_not():
    # (n, lam, k): a cone apex's neighbour, the n = 3 witness, the 625- and 14 641-vertex
    # elliptic-quadric members
    for n, lam, k, expected in ((1, 0, 1, 8), (3, 2, 51, 16), (4, 3, 104, 16), (10, 9, 1220, 24)):
        mu, scalar = n * (n + 1), n * (n + 1) ** 2 * (n - lam)
        top = max(mu * (n - lam) * k + mu * (lam + 1) * k + scalar, scalar * n + k * k)
        width = localstats._star_width(n, lam, k)
        assert width == expected and top < 1 << width
        assert width == 8 or top >= 1 << width - 8
    # on the n = 3 witness the diagonal itself, scalar n + d_v^2 = 144 + 144, needs 16 bits
    rows = ovoid256_rows()
    outside = [x for x in range(1, len(rows)) if not rows[0] >> x & 1]
    assert max(48 * 3 + (rows[0] & rows[v]).bit_count() ** 2 for v in outside) == 288


# The local-stats sweep: each unordered pair computed once and checked for both
# of its rows, against the ordered m_spectrum loop.  On failing inputs the
# histogram of the pairs before the failure must agree too.

VALID_FAMILIES = [fam for fam in FAMILIES if fam.n > 0 and fam.lam <= fam.n]


def _assert_sweep_agrees(g: Graph, fam: FamilyInfo, vertex=None):
    sweep = m_spectrum_histogram(g, fam, verified_sigmas(g, fam)[0] if vertex is None else ((vertex,),))
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
        assert m_spectrum_histogram(g, fam, verified_sigmas(g, fam)[0]).histogram == {counts: 256 * 204}
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
    sweep = m_spectrum_histogram(g, fam, verified_sigmas(g, fam)[0])
    assert sweep.failure is None and sweep.pairs_checked == 64 * 45
    assert calls == [(0, v) for v in range(1, 64) if not rows[0] >> v & 1]


def test_sweep_rejects_bad_rows():
    g, fam = Graph(gq35_rows()), FamilyInfo.from_n_lam(2, 2)
    with pytest.raises(GraphError):
        m_spectrum_histogram(g, fam, ((64,),))
    with pytest.raises(FamilyPreconditionError):
        m_spectrum_histogram(g, FamilyInfo.from_n_lam(1, 2), verified_sigmas(g, fam)[0])


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
            order = oracles._neighborhood_ordering(Graph(rows), u, fam.lam)
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


@pytest.mark.parametrize("n", range(1, 9))
def test_star_matches_the_dense_product_on_cones(n):
    # at vertex 0 of a cone with two or more cliques, N(0) is one (lam+1)-clique
    # and every outside w has A_w = {apex}: the diagonal of the first outside
    # vertex fails, so the dense product stops there and n = 6..8 need no slow
    # marker.  The widest field is 8 bits up to n = 2 and 16 from n = 3.
    widths = set()
    for lam in range(n + 1):
        valency, width = n * (n * n + 3 * n - lam + 1), lam + 1
        sizes = set(range(5)) | ({valency // width} if valency % width == 0 else set())
        fam = FamilyInfo.from_n_lam(n, lam)
        widths.add(localstats._star_width(n, lam, width))
        for cliques in sorted(sizes):
            g = _cone(cliques, width)
            assert _assert_star_agrees(g, fam, cliques * width)[1].passed  # nothing outside
            if cliques:
                report = _assert_star_agrees(g, fam, 0)[1]
                assert report.passed == (cliques == 1)
                if cliques > 1:
                    assert report.witness["entry"] == [width, width]
    assert max(widths) == (8 if n <= 2 else 16)


def _assert_star_terms_are_mu_eq_pq_terms(g: Graph, fam: FamilyInfo, u: int) -> bool:
    """Whether <N(u)> is a disjoint union of cliques, and there verify_star's T_y against mu T'_y.

    T_y = a S_y + mu sum_{y' in C(y)} S_y' is built here from the cliques,
    C(y) the clique of y and S_y the fields of N(y) & outside; T'_y comes
    from _row_terms, which verify_eq_pq sums and verify_star scales by mu.
    T_y = mu T'_y is an identity of integers, so any field width shows it.
    """
    cliques = _clique_masks(g.rows, u)
    if cliques is None:
        return False
    rows, n, lam, width = g.rows, fam.n, fam.lam, 8
    mu = n * (n + 1)
    outside = ((1 << g.nu) - 1) & ~(rows[u] | 1 << u)
    clique_of = {y: mask for mask in cliques for y in bits(mask)}

    def fields(y: int) -> int:
        return sum(1 << w * width for w in bits(rows[y] & outside))

    frame = localstats._Frame(g, u)
    terms = localstats._row_terms(frame, width, n - lam + 1)[1]
    assert [mu * term for term in terms] == [
        mu * (n - lam) * fields(y) + mu * sum(map(fields, bits(clique_of[y]))) for y in frame.order
    ]
    return True


def test_star_terms_are_mu_times_eq_pq_terms_on_the_witnesses_and_cones():
    for rows, fam, vertices in (
        (gq35_rows(), FamilyInfo.from_n_lam(2, 2), range(0, 64, 7)),
        (ovoid256_rows(), FamilyInfo.from_n_lam(3, 2), (0, 5, 101, 255)),
    ):
        g = Graph(rows)
        assert all(_assert_star_terms_are_mu_eq_pq_terms(g, fam, u) for u in vertices)
    for n in range(1, 9):  # the cone grid of the star and inv-formula tests
        for lam in range(n + 1):
            valency, width = n * (n * n + 3 * n - lam + 1), lam + 1
            fam = FamilyInfo.from_n_lam(n, lam)
            for cliques in set(range(5)) | ({valency // width} if valency % width == 0 else set()):
                g = _cone(cliques, width)
                for u in {0, cliques * width} & set(range(g.nu)):
                    assert _assert_star_terms_are_mu_eq_pq_terms(g, fam, u)


@settings(max_examples=200, deadline=None)
@given(graphs, st.sampled_from(VALID_FAMILIES))
def test_star_terms_are_mu_times_eq_pq_terms_on_random_graphs(g, fam):
    for u in range(g.nu):
        _assert_star_terms_are_mu_eq_pq_terms(g, fam, u)


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


# The cell frame: psi_partition, verify_psi_regularity, verify_star and
# check_condition_con read N(u, v) through the tables of one frame per base
# vertex, and each must give its oracle's result, or raise its exception.


def _assert_frame_kernels_agree(g: Graph, fam: FamilyInfo, u: int) -> list:
    outcomes = []
    for kernel, oracle in (
        (psi_partition, oracles.psi_partition),
        (verify_psi_regularity, oracles.verify_psi_regularity),
        (verify_star, oracles.verify_star),
    ):
        outcomes.append(_outcome(kernel, g, fam, u))
        assert outcomes[-1] == _outcome(oracle, g, fam, u)
    return outcomes


def _assert_con_agrees(g: Graph, fam: FamilyInfo):
    expected = oracles.check_condition_con(g, fam)
    assert check_condition_con(g, tuple((v,) for v in range(g.nu))) == expected
    assert check_condition_con(g, verified_sigmas(g, fam)[0]) == expected


def _has_direct_rows(g: Graph, u: int) -> bool:
    """Whether some non-neighbour of u meets a cell of the frame at u twice."""
    frame = localstats._frame(g, u)
    cells = [
        sum(1 << i for i in cell) << shift
        for shift, _, offsets in frame.groups
        for cell in offsets
    ]
    return any((frame.local[v] & cell).bit_count() > 1 for v in bits(frame.outside) for cell in cells)


def test_frame_takes_the_cheapest_table_option():
    # GQ(3,5) keeps 2 cells a group and the n = 3 witness 3; on rook4 the 9
    # rows hold 18 key bits, fewer additions than any table, so it has none
    assert localstats._group_size(6, 3, 18, 45, 270) == 2
    assert localstats._group_size(17, 3, 51, 204, 2448) == 3
    assert localstats._group_size(2, 3, 6, 9, 18) == 0
    for rows, per in ((gq35_rows(), 2), (ovoid256_rows(), 3)):
        frame = localstats._Frame(Graph(rows), 0)
        assert max(len(offsets) for _, _, offsets in frame.groups) == per
    rook, fam = build_rook4(), FamilyInfo.from_n_lam(-2, 2)
    for u in (0, 7):
        frame = localstats._Frame(rook, u)
        assert frame.tables(range(6), add)[2] == [(0, -1, {0: 0})]  # no tables: one empty group
        _assert_frame_kernels_agree(rook, fam, u)
    _assert_con_agrees(rook, fam)


def test_psi_regularity_then_build_sigma_transpose_the_psi_members_once(monkeypatch):
    g, fam = Graph(ovoid256_rows()), FamilyInfo.from_n_lam(3, 2)
    heights = []
    transpose = localstats.transpose_rows
    monkeypatch.setattr(
        localstats, "transpose_rows", lambda rows, nu: heights.append(len(rows)) or transpose(rows, nu)
    )
    assert verify_psi_regularity(g, fam, 5).passed
    build_sigma(g, fam, 5)
    assert heights == [51, 204]  # N(u) for the frame, then the members of the 68 psi cells
    build_sigma(g, fam, 6)  # a new base vertex, a new frame
    assert heights == [51, 204, 51, 204]


def test_frame_kernels_match_the_oracles_on_the_witnesses():
    for rows, fam, vertices in (
        (gq35_rows(), FamilyInfo.from_n_lam(2, 2), (0, 5, 37, 63)),
        (ovoid256_rows(), FamilyInfo.from_n_lam(3, 2), (0, 5, 101)),
    ):
        g = Graph(rows)
        for u in vertices:
            outcomes = _assert_frame_kernels_agree(g, fam, u)
            assert outcomes[0][0] == "returned"
            assert [_kind(outcome) for outcome in outcomes[1:]] == [
                ("psi-regularity", True), ("star-identity", True)]
            assert not _has_direct_rows(g, u)
    g, fam = Graph(gq35_rows()), FamilyInfo.from_n_lam(2, 2)
    _assert_con_agrees(g, fam)


def test_frame_m0_masks_match_the_oracle_on_ovoid256():
    # check-con's oracle takes every pair; here every row of three base vertices
    g = Graph(ovoid256_rows())
    for u in (0, 5, 101):
        frame = localstats._frame(g, u)
        masks = localstats._m0_masks(frame, frame.outside)
        assert {v: tuple(bits(mask)) for v, mask in masks.items()} == {
            v: oracles.m0_set(g, u, v) for v in bits(frame.outside)
        }


@pytest.mark.parametrize("n", range(1, 6))
def test_frame_kernels_match_the_oracles_on_cones(n):
    for lam in range(n + 1):
        fam, width = FamilyInfo.from_n_lam(n, lam), lam + 1
        for cliques in range(5):
            g = _cone(cliques, width)
            for u in {0, cliques * width} & set(range(g.nu)):
                _assert_frame_kernels_agree(g, fam, u)
            _assert_con_agrees(g, fam)


@settings(max_examples=300, deadline=None)
@given(graphs, st.sampled_from(FAMILIES), st.data())
def test_frame_kernels_match_the_oracles_on_random_graphs(g, fam, data):
    u = data.draw(st.integers(-1, g.nu), label="u")
    _assert_frame_kernels_agree(g, fam, u)
    _assert_con_agrees(g, fam)


def test_rows_that_meet_a_cell_twice_are_summed_directly():
    # v, a non-neighbour of u = 0 with a neighbour x in a cell C of N(0), is
    # joined to a second vertex of C: its key has two bits in one cell and is
    # in no table.  The real psi cells of the witness, passed in as the
    # partition, take the regularity check to that row too.
    fam, rows = FamilyInfo.from_n_lam(3, 2), ovoid256_rows()
    cells = localstats.neighborhood_clique_cells(Graph(rows), 0, 3)
    psi = psi_partition(Graph(rows), fam, 0)
    kinds = set()
    outside = [x for x in range(1, 256) if not rows[0] >> x & 1]
    for v in (outside[0], outside[-1]):
        x = next(bits(rows[v] & rows[0]))
        y = next(c for cell in cells if x in cell for c in cell if c != x)
        mutant = list(rows)
        mutant[v] |= 1 << y
        mutant[y] |= 1 << v
        g = Graph(mutant)
        assert _has_direct_rows(g, 0)
        kinds.update(_kind(outcome) for outcome in _assert_frame_kernels_agree(g, fam, 0)[1:])
        frame = localstats._frame(g, 0)  # check-con's rows at 0; its oracle takes every pair
        masks = localstats._m0_masks(frame, frame.outside)
        assert {v: tuple(bits(mask)) for v, mask in masks.items()} == {
            v: oracles.m0_set(g, 0, v) for v in outside
        }
        partition = lambda g, fam, u: psi  # noqa: E731
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(localstats, "psi_partition", partition)
            patch.setattr(oracles, "_psi_partition", partition)
            report = verify_psi_regularity(g, fam, 0)
            assert report == oracles.verify_psi_regularity(g, fam, 0)
            kinds.add(_kind(("returned", report)))
    assert ("star-identity", False) in kinds and ("psi-regularity", False) in kinds


def test_frame_kernels_match_the_oracles_at_the_failing_vertices_of_a_toggled_ovoid256():
    # toggle_edge(113, 242): vertex 0 fails psi-regularity by an irregular
    # pair of cells and vertex 8 by 48 wrong p-values; the violations, the
    # r_distribution and the witness must be the oracle's
    fam = FamilyInfo.from_n_lam(3, 2)
    g = Graph(ovoid256_rows()).toggle_edge(113, 242)
    reasons = {}
    for u in (0, 8, 113, 242):
        outcomes = _assert_frame_kernels_agree(g, fam, u)
        if outcomes[1][0] == "returned":
            reasons[u] = (outcomes[1][1].witness["reason"], outcomes[1][1].details["violations"])
    assert reasons[0] == ("not-regular", 1) and reasons[8] == ("p-value-mismatch", 48)
