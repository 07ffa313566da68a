"""Local statistics tests on the built witnesses.

The frozen numbers (m-spectrum (2,0,24,0,6), m_0 = 2 everywhere, 15 psi
cells, 90 one-regular matched pairs, r in {0,2} with distribution 60/45)
were each confirmed by independent brute-force enumeration before freezing.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from srgpq import localstats
from srgpq.automorphism import verified_sigmas
from srgpq.graphcore import Graph, TriplePartition, phi_partition
from srgpq.localstats import (
    FamilyPreconditionError,
    LocalStatsError,
    PartitionError,
    check_condition_con,
    m_spectrum,
    matched_pairs,
    pair_stats,
    psi_partition,
    verify_eq_pq,
    verify_inv_formula,
    verify_psi_regularity,
    verify_star,
)
from srgpq.params import FamilyInfo
from tests import oracles


def _outside(g, u):
    return [v for v in range(g.nu) if v != u and not g.adjacent(u, v)]


def _brute_force_spectrum(g, u, v):
    """Independent oracle: p-distribution by direct set intersection counts."""
    nu_set = set(g.neighbors(u))
    nv_set = set(g.neighbors(v))
    counts = {}
    for x in range(g.nu):
        if x in (u, v) or x in nu_set or x in nv_set:
            continue
        p = len(nu_set & nv_set & set(g.neighbors(x)))
        counts[p] = counts.get(p, 0) + 1
    return counts


def test_pair_stats_preconditions(gq35):
    with pytest.raises(LocalStatsError):
        pair_stats(gq35, 0, 1, 1)
    neighbor = gq35.neighbors(0)[0]
    outside = _outside(gq35, 0)
    with pytest.raises(LocalStatsError):
        pair_stats(gq35, 0, neighbor, outside[0])
    with pytest.raises(LocalStatsError):
        pair_stats(gq35, 0, 0, outside[0])


def test_pair_stats_empty_intersection():
    from srgpq.graphcore import Graph

    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    stats = pair_stats(g, 0, 2, 3)  # N(0,3) is empty
    assert stats.p == 0 and stats.q == 0


def test_pair_stats_m0_vertices_have_p_zero(gq35, fam_gq35):
    u = 0
    v = _outside(gq35, u)[0]
    spectrum = m_spectrum(gq35, fam_gq35, u, v)
    for x in spectrum.m0_witnesses:
        assert pair_stats(gq35, u, v, x).p == 0


def test_pair_stats_adjacent_branch_value(gq35):
    # v ~ w both outside N[u]: (n-lam+1) p + q = lam(n+1) = 6 at n = 2
    u = 0
    outside = _outside(gq35, u)
    found = False
    for v in outside:
        for w in outside:
            if w > v and gq35.adjacent(v, w):
                stats = pair_stats(gq35, u, v, w)
                assert stats.p + stats.q == 6
                found = True
                break
        if found:
            break
    assert found


def test_verify_eq_pq_passes_exhaustively(gq35, fam_gq35):
    report = verify_eq_pq(gq35, fam_gq35, verified_sigmas(gq35, fam_gq35)[0])
    assert report.passed
    assert report.details["triples_checked"] == 64 * (45 * 44 // 2)
    assert report.severity == "diagnostic"  # n = 2 is outside the proved range


def test_verify_eq_pq_detects_mutation(gq35, fam_gq35):
    mutated = gq35.toggle_edge(0, gq35.neighbors(0)[0])
    report = verify_eq_pq(mutated, fam_gq35, verified_sigmas(mutated, fam_gq35)[0])
    assert not report.passed
    assert report.witness is not None


def test_verify_eq_pq_rejects_rook_family(rook, fam_rook):
    with pytest.raises(FamilyPreconditionError):
        verify_eq_pq(rook, fam_rook, verified_sigmas(rook, fam_rook)[0])


def test_m_spectrum_distribution(gq35, fam_gq35):
    u = 0
    for v in _outside(gq35, u)[:8]:
        spectrum = m_spectrum(gq35, fam_gq35, u, v)
        assert spectrum.counts == (2, 0, 24, 0, 6, 0, 0)
        assert len(spectrum.m0_witnesses) == 2
        brute = _brute_force_spectrum(gq35, u, v)
        assert all(spectrum.counts[i] == brute.get(i, 0) for i in range(7))


def test_m_spectrum_moment_values(gq35, fam_gq35):
    spectrum = m_spectrum(gq35, fam_gq35, 0, _outside(gq35, 0)[0])
    counts = spectrum.counts
    assert sum(counts) == 32
    assert sum(i * c for i, c in enumerate(counts)) == 72
    assert sum(i * (i - 1) // 2 * c for i, c in enumerate(counts)) == 60


def test_m_spectrum_rejects_adjacent_pair(gq35, fam_gq35):
    with pytest.raises(LocalStatsError):
        m_spectrum(gq35, fam_gq35, 0, gq35.neighbors(0)[0])


def test_m_spectrum_rejects_negative_family(rook, fam_rook):
    with pytest.raises(FamilyPreconditionError):
        m_spectrum(rook, fam_rook, 0, _outside(rook, 0)[0])


def test_predicted_m_spectrum_formula():
    # n = 2 reproduces the measured witness distribution
    assert oracles.predicted_m_spectrum(FamilyInfo.from_n_lam(2, 2)) == {0: 2, 1: 0, 2: 24, 3: 0, 4: 6}
    # n = 3: m_3 = 3*5*8 = 120, m_4 = 2*3*5 = 30, m_5 = 12
    assert oracles.predicted_m_spectrum(FamilyInfo.from_n_lam(3, 2)) == {
        0: 2,
        1: 0,
        2: 0,
        3: 120,
        4: 30,
        5: 12,
    }
    # the totals match the first moment identity at n = 3: nu-2k+mu-2
    assert sum(oracles.predicted_m_spectrum(FamilyInfo.from_n_lam(3, 2)).values()) == 256 - 102 + 12 - 2


def test_m_spectrum_matches_prediction(gq35, fam_gq35):
    predicted = oracles.predicted_m_spectrum(fam_gq35)
    spectrum = m_spectrum(gq35, fam_gq35, 0, _outside(gq35, 0)[3])
    for i, count in predicted.items():
        assert spectrum.counts[i] == count


def test_check_condition_con_gq35(gq35, fam_gq35):
    report = check_condition_con(gq35, verified_sigmas(gq35, fam_gq35)[0])
    assert report.passed
    assert report.details["m0_min"] == report.details["m0_max"] == 2
    assert report.severity == "asserted-pass"


def test_check_condition_con_rook(rook, fam_rook):
    report = check_condition_con(rook, verified_sigmas(rook, fam_rook)[0])
    assert report.passed
    assert report.details["m0_min"] == 4  # the rook satisfies (con) with slack


def test_psi_partition_gq35(gq35, fam_gq35):
    psi = psi_partition(gq35, fam_gq35, 0)
    assert len(psi.cells) == 15
    assert psi.covered() == set(_outside(gq35, 0))
    for cell in psi.cells:
        for a, b in combinations(cell, 2):
            assert not gq35.adjacent(a, b)
            assert pair_stats(gq35, 0, a, b).p == 0


def test_psi_partition_fails_on_rook(rook, fam_rook):
    with pytest.raises(PartitionError):
        psi_partition(rook, fam_rook, 0)


def test_matched_pairs_gq35(gq35, fam_gq35):
    phi = phi_partition(gq35, 0)
    psi = psi_partition(gq35, fam_gq35, 0)
    matched, flips = matched_pairs(gq35, 0, phi, psi)
    # every one of the 6 phi cells is matched to all 15 psi cells: bit 3j for each j
    assert len(phi.cells) == 6 and len(psi.cells) == 15
    assert matched == [sum(1 << 3 * j for j in range(15))] * 6
    assert len(flips) == 6 and all(flip & ~row == 0 for flip, row in zip(flips, matched))


def test_matched_pairs_rejects_foreign_partition(gq35, fam_gq35):
    phi0 = phi_partition(gq35, 0)
    psi1 = psi_partition(gq35, fam_gq35, 1)
    with pytest.raises(LocalStatsError):
        matched_pairs(gq35, 0, phi0, psi1)


def test_verify_psi_regularity_gq35(gq35, fam_gq35):
    report = verify_psi_regularity(gq35, fam_gq35, 0)
    assert report.passed
    assert report.details["violations"] == 0
    assert report.details["r_distribution"] == {"0": 60, "2": 45}
    assert report.severity == "diagnostic"


# Cells A = (1, 2, 3), B = (4, 5, 6), C = (7, 8, 9) around an isolated base
# vertex 0, so every p_u is 0: A and B are joined as K_{3,3} (r = 3), A and C
# by a perfect matching (r = 1), and B and C not at all (r = 0).
A, B, C = (1, 2, 3), (4, 5, 6), (7, 8, 9)
CELL_GRAPH = Graph.from_edges(10, [(a, b) for a in A for b in B] + [(1, 7), (2, 8), (3, 9)])


def _regularity_on_cells(monkeypatch, cells):
    partition = TriplePartition(base_vertex=0, cells=cells, kind="psi")
    monkeypatch.setattr(localstats, "psi_partition", lambda g, fam, u: partition)
    return verify_psi_regularity(CELL_GRAPH, FamilyInfo.from_n_lam(3, 2), 0)


def test_verify_psi_regularity_r_out_of_range(monkeypatch):
    report = _regularity_on_cells(monkeypatch, (A, B, C))
    assert report.severity == "asserted-fail"
    assert report.witness == {"reason": "r-out-of-range", "cells": [A, B], "r": 3}
    # A-C: the 6 non-adjacent pairs have p = 0, not n + 1; B-C: 9 pairs, not n + 0
    assert report.details["violations"] == 1 + 6 + 9
    assert report.details["r_distribution"] == {"0": 1, "1": 1, "3": 1}


def test_verify_psi_regularity_p_value_mismatch(monkeypatch):
    report = _regularity_on_cells(monkeypatch, (A, C))
    assert report.severity == "asserted-fail"
    assert report.witness == {
        "reason": "p-value-mismatch", "pair": [1, 8], "r": 1, "p": 0, "expected": 4,
    }
    assert report.details["violations"] == 6


def _cells_graph(cells, edges, p_of) -> Graph:
    """Base vertex 0, the cells, and the edges between them, given as pairs.

    Each pair a, b from different cells gets p_of(a, b, a ~ b) private
    common neighbours of 0, a and b, so p_u(a, b) is exactly that.
    """
    nu = 1 + sum(map(len, cells))
    adjacent = set(edges)
    all_edges = list(edges)
    for i, cell_a in enumerate(cells):
        for cell_b in cells[i + 1 :]:
            for a in cell_a:
                for b in cell_b:
                    for _ in range(p_of(a, b, (a, b) in adjacent)):
                        all_edges += [(0, nu), (a, nu), (b, nu)]
                        nu += 1
    return Graph.from_edges(nu, all_edges)


# Each case fails in ways that the pass over all pairs at once must count
# and name.  (cells, edges, n, p_of, witness, violations)
CRAFTED_CELLS = {
    # A meets B by one edge each, but B meets A by degrees 2, 1, 0: only B's
    # view of A, below B in the cell order, shows the fault
    "seen-from-one-side": (
        (A, B), [(1, 4), (2, 4), (3, 5)], 1, lambda a, b, adj: 0 if adj else 2,
        {"reason": "not-regular", "cells": [A, B], "degrees": [1, 1, 1, 2, 1, 0]}, 1,
    ),
    # K_{3,3} with p = 1 on every pair: r = 3 is the only fault
    "r-three": (
        (A, B), [(a, b) for a in A for b in B], 3, lambda a, b, adj: 1,
        {"reason": "r-out-of-range", "cells": [A, B], "r": 3}, 1,
    ),
    # r = 0, so p = n = 1 is due; p = 5 agrees with it on the two low planes
    "p-past-the-planes": (
        (A, B), [], 1, lambda a, b, adj: 5 if (a, b) == (1, 4) else 1,
        {"reason": "p-value-mismatch", "pair": [1, 4], "r": 0, "p": 5, "expected": 1}, 1,
    ),
    # n < 0: n + r is negative, which no p can equal
    "negative-n": (
        (A, B), [], -2, lambda a, b, adj: 0,
        {"reason": "p-value-mismatch", "pair": [1, 4], "r": 0, "p": 0, "expected": -2}, 9,
    ),
    # A-B passes with r = 0; A-C is a matching (r = 1) with p = 0 at the
    # non-adjacent (1, 8) and p = 3 at (2, 9), where n + 1 = 2 is due; C meets B
    # by degrees 2, 1, 0, seen from the later cell only: 2 + 1 violations, and
    # the earlier faulting pair names the witness
    "two-pairs-two-ways": (
        (A, B, C), [(1, 7), (2, 8), (3, 9), (4, 7), (5, 7), (6, 8)], 1,
        lambda a, b, adj: {(1, 8): 0, (2, 9): 3}.get((a, b), 1 if b in B else 0 if adj else 2)
        if a in A else 0,
        {"reason": "p-value-mismatch", "pair": [1, 8], "r": 1, "p": 0, "expected": 2}, 3,
    ),
}


@pytest.mark.parametrize("case", sorted(CRAFTED_CELLS))
def test_verify_psi_regularity_matches_the_per_pair_loop_on_crafted_cells(case, monkeypatch):
    cells, edges, n, p_of, witness, violations = CRAFTED_CELLS[case]
    g = _cells_graph(cells, edges, p_of)
    fam = FamilyInfo.from_n_lam(n, 2)
    partition = TriplePartition(base_vertex=0, cells=cells, kind="psi")
    monkeypatch.setattr(localstats, "psi_partition", lambda g, fam, u: partition)
    monkeypatch.setattr(oracles, "_psi_partition", lambda g, fam, u: partition)
    report = verify_psi_regularity(g, fam, 0)
    assert report == oracles.verify_psi_regularity(g, fam, 0)
    assert (report.passed, report.witness, report.details["violations"]) == (False, witness, violations)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_psi_regularity_matches_the_per_pair_loop_on_random_cells(data):
    # each pair of cells is joined r-regularly (r = 0..3, a shifted matching
    # or its complement) or at random, and gets its due p-values or random ones
    count = data.draw(st.integers(2, 4), label="cells")
    n = data.draw(st.sampled_from([-3, -2, 1, 2, 3, 4]), label="n")  # no family has n = 0, -1
    cells = tuple(tuple(range(1 + 3 * j, 4 + 3 * j)) for j in range(count))
    edges, p = [], {}
    for j, cell_a in enumerate(cells):
        for cell_b in cells[j + 1 :]:
            kind = data.draw(st.integers(0, 4), label="r, or 4 for random edges")
            shift = data.draw(st.integers(0, 2))
            matching = {(cell_a[x], cell_b[(x + shift) % 3]) for x in range(3)}
            noisy = data.draw(st.booleans(), label="random p")
            for a in cell_a:
                for b in cell_b:
                    if kind == 4:
                        adjacent = data.draw(st.booleans())
                    else:
                        in_matching = (a, b) in matching
                        adjacent = (False, in_matching, not in_matching, True)[kind]
                    edges += [(a, b)] if adjacent else []
                    due = max(0, kind - 1) if adjacent else max(0, n + kind)
                    p[(a, b)] = data.draw(st.integers(0, 4)) if noisy else due
    g = _cells_graph(cells, edges, lambda a, b, adjacent: p[(a, b)])
    fam = FamilyInfo.from_n_lam(n, 2)
    partition = TriplePartition(base_vertex=0, cells=cells, kind="psi")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localstats, "psi_partition", lambda g, fam, u: partition)
        patch.setattr(oracles, "_psi_partition", lambda g, fam, u: partition)
        report = verify_psi_regularity(g, fam, 0)
        assert report == oracles.verify_psi_regularity(g, fam, 0)
    event(f"passed: {report.passed}")


def test_verify_inv_formula_gq35(gq35, fam_gq35):
    report = verify_inv_formula(gq35, fam_gq35, 0)
    assert report.passed
    assert report.details["dimension"] == 19
    assert report.details["degenerate"]  # scalar vanishes at lam = n = 2


def test_verify_inv_formula_rejects_rook(rook, fam_rook):
    with pytest.raises(FamilyPreconditionError):
        verify_inv_formula(rook, fam_rook, 0)


def test_verify_star_gq35(gq35, fam_gq35):
    for u in (0, 17):
        report = verify_star(gq35, fam_gq35, u)
        assert report.passed
        assert report.details["outside_block"] == 45
        assert report.details["neighborhood_block"] == 19


def test_verify_star_detects_toggled_edge(gq35, fam_gq35):
    # toggle an edge with one endpoint in N(u) and the other outside N[u]
    u = 0
    a = gq35.neighbors(u)[0]
    b = next(x for x in gq35.neighbors(a) if x != u and not gq35.adjacent(u, x))
    mutated = gq35.toggle_edge(a, b)
    report = verify_star(mutated, fam_gq35, u)
    assert not report.passed
    assert report.witness is not None


def test_verify_star_rejects_pseudo_latin_member(rook, fam_rook):
    with pytest.raises(FamilyPreconditionError):
        verify_star(rook, fam_rook, 0)


def _clebsch():
    """The n = 1, lam = 0 family member SRG(16, 5, 0, 2): folded 5-cube on GF(2)^4."""
    from srgpq.graphcore import Graph

    connection = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111]
    edges = [(x, x ^ d) for x in range(16) for d in connection if x < (x ^ d)]
    return Graph.from_edges(16, edges)


def test_psi_partition_fails_at_the_least_non_neighbour_before_the_tables(monkeypatch):
    # lam = 0 is outside the independent-triple regime: _m0_mask at the least
    # non-neighbour 3 raises the loop's message, with no union table built
    def refused(*args):
        raise AssertionError("the union tables were built")

    monkeypatch.setattr(localstats._Frame, "tables", refused)
    with pytest.raises(PartitionError) as failure:
        psi_partition(_clebsch(), FamilyInfo.from_n_lam(1, 0), 0)
    assert str(failure.value) == "m_0(0, 3) = 0, need exactly 2 for an independent-triple cell"


def test_nondegenerate_identities_on_clebsch():
    # lam <= n-1 genuinely holds here, so the identities are asserted and the
    # resolvent scalar n(n+1)^2(n-lam) = 4 is nonzero (invertible case)
    g = _clebsch()
    fam = FamilyInfo.from_n_lam(1, 0)
    report = verify_eq_pq(g, fam, verified_sigmas(g, fam)[0])
    assert report.passed and report.severity == "asserted-pass"
    for u in (0, 9):
        inv_report = verify_inv_formula(g, fam, u)
        assert inv_report.passed and inv_report.severity == "asserted-pass"
        assert inv_report.details["scalar"] == 4 and not inv_report.details["degenerate"]
        star_report = verify_star(g, fam, u)
        assert star_report.passed and star_report.severity == "asserted-pass"
