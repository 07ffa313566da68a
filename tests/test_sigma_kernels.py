"""Differential tests: the group closure and the sigma kernels against their references.

generate_gamma closes the nu sifted quotients q_u = sigma_u sigma_z^{-1};
its reference in tests/oracles.py closes all nu^2 quotients
sigma_u sigma_v^{-1}.  Both must give the same group and the same report,
and the same ClosureCapError at the same cap.  matched_pairs and
automorphism_witness must give the tables and the witness pairs of their
one-pair-at-a-time and bit-by-bit references, on the witnesses, on their
mutants, on broken permutations and on random graphs.  build_sigma, which carries one
orientation bit a cell, must succeed or fail as the propagation with one
mapping dict a cell does, with the same message, also on tampered tables
that reach its conflict and coverage checks.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import gq35_rows, ovoid256_rows, relabel, seeded_permutation
from srgpq.automorphism import (
    ClosureCapError,
    Permutation,
    SigmaAutomorphismError,
    SigmaConflictError,
    SigmaCoverageError,
    automorphism_witness,
    build_sigma,
    canonical_sigma_family,
    generate_gamma,
)
from srgpq.graphcore import Graph, phi_partition
from srgpq.localstats import matched_pairs, psi_partition
from srgpq.params import FamilyInfo
from tests import oracles
from tests.test_kernels import _mutants, _outcome

GQ35 = FamilyInfo.from_n_lam(2, 2)
OVOID = FamilyInfo.from_n_lam(3, 2)
# the smallest fixed-point bound among the family members: 6, so a transposition
# of 8 or more points breaks it
SMALL_BOUND = FamilyInfo.from_n_lam(1, 1)


def _summary(report) -> dict:
    """Every field of a GammaReport except the generators, which differ by design."""
    return {
        "elements": report.closure.elements,
        "orbits": report.closure.orbits,
        "order": report.order,
        "abelian": report.abelian,
        "transitive": report.transitive,
        "orbit_sizes": report.orbit_sizes,
        "element_order_histogram": report.element_order_histogram,
        "fixed_point_histogram": report.fixed_point_histogram,
        "max_nonidentity_fixed_points": report.max_nonidentity_fixed_points,
        "bound": report.bound,
        "bound_satisfied": report.bound_satisfied,
        "order_power_of_two": report.order_power_of_two,
    }


def _capped(function, family, fam, cap):
    try:
        return "returned", _summary(function(family, fam, cap=cap))
    except ClosureCapError as exc:
        return "raised", str(exc)


def _assert_same_gamma(family, fam=None):
    """Same report as the oracle; cap = order passes and cap = order - 1 raises alike."""
    report = generate_gamma(family, fam)
    assert _summary(report) == _summary(oracles.generate_gamma(family, fam))
    # each sifted generator lies outside the closure of the ones before it
    generators = report.closure.generators
    identity = report.closure.elements[0]
    for index, gen in enumerate(generators):
        earlier = generate_gamma(dict(enumerate((identity,) + generators[:index])))
        assert gen not in earlier.closure.elements
    order = report.order
    assert _summary(generate_gamma(family, fam, cap=order)) == _summary(report)
    outcome = _capped(generate_gamma, family, fam, order - 1)
    assert outcome == _capped(oracles.generate_gamma, family, fam, order - 1)
    if order > 1:
        assert outcome == ("raised", f"closure exceeded the cap of {order - 1} elements")
    return report


def test_gamma_matches_the_oracle_on_gq35(sigma_family):
    report = _assert_same_gamma(sigma_family, GQ35)
    assert report.order == 64 and len(report.closure.generators) == 6


def test_gamma_matches_the_oracle_on_a_relabelled_gq35():
    rows = gq35_rows()
    images = seeded_permutation(len(rows), random.Random(11))
    g = Graph(relabel(rows, images))
    family = canonical_sigma_family(g, GQ35, z=images[5])
    report = _assert_same_gamma(family, GQ35)
    assert report.transitive and report.abelian and report.order == 64


@pytest.mark.slow
def test_gamma_matches_the_oracle_at_n3(sigma_family_n3):
    # the oracle composes 65 536 quotients and closes over 256 generators: about 6 s
    report = _assert_same_gamma(sigma_family_n3, OVOID)
    assert report.order == 256 and len(report.closure.generators) == 8


def _moving(support: int, degree: int, cycles) -> Permutation:
    """A permutation of range(degree) that permutes range(support) by cycles and fixes the rest."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    assert sorted(images[:support]) == list(range(support))
    return Permutation(tuple(images))


# quotients through the first member that generate S_4 and S_5: non-abelian
# groups with non-trivial orbits next to fixed points
SYMMETRIC = [
    [_moving(4, 6, []), _moving(4, 6, [(0, 1)]), _moving(4, 6, [(0, 1, 2, 3)])],
    [_moving(5, 7, [(2, 3)]), _moving(5, 7, [(0, 1), (2, 3)]), _moving(5, 7, [(0, 1, 2, 3, 4)])],
    [_moving(5, 9, [(0, 1)]), _moving(5, 9, [(0, 1, 2)]), _moving(5, 9, [(1, 2, 3, 4)])],
]


@st.composite
def families(draw):
    """Up to six permutations moving at most five of up to nine points, relabelled, keyed."""
    if draw(st.booleans()):
        members = list(draw(st.sampled_from(SYMMETRIC)))
        degree = len(members[0])
    else:
        degree = draw(st.integers(1, 9))
        support = draw(st.integers(1, min(degree, 5)))
        members = [
            Permutation(tuple(draw(st.permutations(range(support)))) + tuple(range(support, degree)))
            for _ in range(draw(st.integers(1, 6)))
        ]
    labels = draw(st.permutations(range(degree)))
    inverse = [0] * degree
    for x, label in enumerate(labels):
        inverse[label] = x
    relabelled = [
        Permutation(tuple(labels[member.images[inverse[y]]] for y in range(degree)))
        for member in draw(st.permutations(members))
    ]
    keys = draw(st.lists(st.integers(-50, 50), min_size=len(relabelled),
                         max_size=len(relabelled), unique=True))
    return dict(zip(keys, relabelled))


@settings(max_examples=300, deadline=None)
@given(families(), st.sampled_from([None, SMALL_BOUND, GQ35]))
def test_gamma_matches_the_oracle_on_random_families(family, fam):
    _assert_same_gamma(family, fam)


def test_random_families_reach_every_outcome():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(families(), st.sampled_from([None, SMALL_BOUND]))
    def collect(family, fam):
        report = generate_gamma(family, fam)
        seen.add(("abelian", report.abelian))
        seen.add(("transitive", report.transitive))
        seen.add(("bound", report.bound_satisfied))
        seen.add(("symmetric", report.order in (24, 120) and not report.abelian))

    collect()
    assert seen == {(name, flag) for name in ("abelian", "transitive", "bound", "symmetric")
                    for flag in (False, True)}


def test_s5_from_its_quotients():
    family = dict(enumerate(SYMMETRIC[2]))
    report = _assert_same_gamma(family, SMALL_BOUND)
    assert report.order == 120 and not report.abelian
    assert report.orbit_sizes == (5, 1, 1, 1, 1)
    # a transposition fixes 7 of the 9 points, above the bound of 6
    assert report.max_nonidentity_fixed_points == 7 and not report.bound_satisfied


def test_generate_gamma_rejects_an_empty_family():
    for function in (generate_gamma, oracles.generate_gamma):
        with pytest.raises(ValueError, match="empty family"):
            function({})


# The sigma kernels: matched_pairs and automorphism_witness.


def _assert_matched_pairs_agree(g: Graph, u: int, phi, psi):
    table = matched_pairs(g, u, phi, psi)
    reference = oracles.matched_pairs(g, u, phi, psi)
    assert table.kinds == reference.kinds
    assert table.bijections == reference.bijections
    # build_sigma propagates in the order of the table
    assert list(table.bijections) == list(reference.bijections)
    return {kind for row in table.kinds for kind in row}


def _assert_witnesses_agree(g: Graph, perm: Permutation):
    witness = automorphism_witness(g, perm)
    assert witness == oracles.automorphism_witness(g, perm)
    return witness


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_automorphism_witness_matches_the_oracle_on_random_graphs(data):
    # empty and one-vertex graphs included, and any permutation, not only a
    # sigma with two images swapped
    nu = data.draw(st.integers(0, 12), label="nu")
    pairs = [(u, v) for u in range(nu) for v in range(u + 1, nu)]
    edges = [pair for pair in pairs if data.draw(st.booleans())]
    g = Graph.from_edges(nu, edges)
    perm = Permutation(tuple(data.draw(st.permutations(range(nu)), label="images")))
    _assert_witnesses_agree(g, perm)
    longer = Permutation(tuple(range(nu + 1)))
    assert _outcome(automorphism_witness, g, longer) == _outcome(
        oracles.automorphism_witness, g, longer
    )


def _transposed(perm: Permutation, a: int, b: int) -> Permutation:
    images = list(perm.images)
    images[a], images[b] = images[b], images[a]
    return Permutation(tuple(images))


def _assert_sigma_kernels_agree(g: Graph, fam: FamilyInfo, vertices, rng: random.Random, kinds):
    for u in vertices:
        phi, psi = phi_partition(g, u), psi_partition(g, fam, u)
        assert _assert_matched_pairs_agree(g, u, phi, psi) == kinds
        sigma = build_sigma(g, fam, u)
        assert _assert_witnesses_agree(g, sigma) is None
        a, b = rng.sample(range(g.nu), 2)
        assert _assert_witnesses_agree(g, _transposed(sigma, a, b)) is not None


def test_sigma_kernels_match_the_oracles_on_every_gq35_vertex(gq35):
    # at n = 2 every triangle cell is matched to every independent cell
    _assert_sigma_kernels_agree(gq35, GQ35, range(gq35.nu), random.Random(1), {"one-regular"})


def test_sigma_kernels_match_the_oracles_on_ovoid256():
    g = Graph(ovoid256_rows())
    rng = random.Random(2)
    kinds = {"edgeless", "one-regular"}
    _assert_sigma_kernels_agree(g, OVOID, rng.sample(range(g.nu), 8), rng, kinds)


@pytest.mark.parametrize(
    "rows, fam, seed, expected",
    [
        (gq35_rows, GQ35, 3, {"one-regular", "other"}),
        (ovoid256_rows, OVOID, 4, {"edgeless", "one-regular", "other"}),
    ],
)
def test_sigma_kernels_match_the_oracles_on_mutants(rows, fam, seed, expected):
    rows = rows()
    g = Graph(rows)
    rng = random.Random(seed)
    vertices = rng.sample(range(g.nu), 4)
    kinds = set()
    broken = 0
    for mutant in _mutants(rows, seed):
        h = Graph(mutant)
        changed = [x for x in range(len(rows)) if rows[x] != mutant[x]]
        for u in changed + vertices:
            # the unmutated partitions classify the mutant's rows: "other" pairs appear
            kinds |= _assert_matched_pairs_agree(h, u, phi_partition(g, u), psi_partition(g, fam, u))
            broken += _assert_witnesses_agree(h, build_sigma(g, fam, u)) is not None
    assert kinds == expected
    assert broken > 0


# The propagation: one orientation bit a cell against one mapping dict a cell.


@pytest.mark.parametrize("rows, fam, seed", [(gq35_rows, GQ35, 5), (ovoid256_rows, OVOID, 6)])
def test_build_sigma_matches_the_oracle_on_mutants(rows, fam, seed):
    rows = rows()
    rng = random.Random(seed)
    seen = set()
    for mutant in [rows] + _mutants(rows, seed):
        g = Graph(mutant)
        changed = [x for x in range(len(rows)) if rows[x] != mutant[x]]
        for u in changed + rng.sample(range(g.nu), 6):
            outcome = _outcome(build_sigma, g, fam, u)
            assert outcome == _outcome(oracles.build_sigma, g, fam, u)
            seen.add(outcome[1] if outcome[0] == "raised" else "returned")
    assert SigmaAutomorphismError in seen and "returned" in seen


def _tampered(tamper, reference=oracles.matched_pairs):
    """The reference table, then tamper(table): tables no graph gives reach the checks."""
    def table(g, u, phi, psi):
        return tamper(reference(g, u, phi, psi))

    return table


def _swap_images(index):
    def tamper(table):
        bijections = dict(table.bijections)
        key = list(bijections)[index % len(bijections)]
        (a, x), (b, y), (c, z) = bijections[key].items()
        bijections[key] = {a: y, b: x, c: z}
        return dataclasses.replace(table, bijections=bijections)

    return tamper


def _drop_psi_cell(j):
    def tamper(table):
        bijections = {key: value for key, value in table.bijections.items() if key[1] != j}
        return dataclasses.replace(table, bijections=bijections)

    return tamper


@pytest.mark.parametrize("graph, fam", [(gq35_rows, GQ35), (ovoid256_rows, OVOID)])
def test_build_sigma_reports_conflicts_and_gaps_like_the_oracle(graph, fam, monkeypatch):
    g = Graph(graph())
    seen = set()
    tampers = [_swap_images(index) for index in (0, 7, 40)] + [_drop_psi_cell(j) for j in (0, 3)]
    for tamper in tampers:
        monkeypatch.setattr("srgpq.automorphism.matched_pairs", _tampered(tamper))
        monkeypatch.setattr("tests.oracles.matched_pairs", _tampered(tamper))
        for u in (0, 9, 63):
            outcome = _outcome(build_sigma, g, fam, u)
            assert outcome == _outcome(oracles.build_sigma, g, fam, u)
            seen.add(outcome[1])
    assert seen == {SigmaConflictError, SigmaCoverageError}


def test_build_sigma_lists_the_undefined_cells_in_table_order(monkeypatch):
    # triangle cell 2 and independent cells 0 and 3 lose every matching, so
    # the coverage message must name all three, triangle cells first
    def tamper(table):
        bijections = {
            (i, j): value for (i, j), value in table.bijections.items() if i != 2 and j not in (0, 3)
        }
        return dataclasses.replace(table, bijections=bijections)

    monkeypatch.setattr("srgpq.automorphism.matched_pairs", _tampered(tamper))
    monkeypatch.setattr("tests.oracles.matched_pairs", _tampered(tamper))
    g = Graph(gq35_rows())
    message = "propagation left cells undefined: [('phi', 2), ('psi', 0), ('psi', 3)]"
    for u in (0, 9, 63):
        outcome = _outcome(build_sigma, g, GQ35, u)
        assert outcome == ("raised", SigmaCoverageError, message)
        assert outcome == _outcome(oracles.build_sigma, g, GQ35, u)
