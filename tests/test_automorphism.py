"""Automorphism machinery tests.

The analytic oracle for the 64-vertex witness lives here, independently of
the library: with vertices read as GF(4)^3 vectors (2 bits per coordinate),
scalar multiplication by w around u, x -> w(x - u) + u, is an automorphism of
order 3 fixing exactly u.  Every constructed permutation is compared against
that map or its inverse.
"""

from __future__ import annotations

import random

import pytest

from perfbench.inputs import relabel
from srgpq.automorphism import (
    ClosureCapError,
    Permutation,
    RelatedSetError,
    SigmaConstructionError,
    automorphism_witness,
    build_sigma,
    generate_gamma,
    related_set,
    verify_inverse_law,
    verify_involution_property,
)
from srgpq.graphcore import Graph, maximal_cliques_via_edges, phi_partition
from srgpq.localstats import LocalStatsError
from tests import oracles

# GF(4) multiplication on the 2-bit encoding 0, 1, w = 2, w^2 = 3
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def _scale_vector(scalar: int, vector_id: int) -> int:
    parts = (vector_id >> 4 & 3, vector_id >> 2 & 3, vector_id & 3)
    a, b, c = (_MUL[scalar][p] for p in parts)
    return a << 4 | b << 2 | c


def _oracle_sigma(u: int, scalar: int) -> Permutation:
    """x -> scalar*(x - u) + u on GF(4)^3; addition is xor on 2-bit fields."""
    return Permutation(tuple(_scale_vector(scalar, x ^ u) ^ u for x in range(64)))


def test_permutation_basics():
    p = Permutation((1, 2, 0, 3))
    assert p.order() == 3
    assert p.fixed_points() == (3,)
    assert p.compose(p.inverse()).is_identity()
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    # compose and inverse skip the bijection check, so compose checks the degrees
    with pytest.raises(ValueError, match="different degrees"):
        p.compose(Permutation((1, 0)))


def test_oracle_sigma_is_an_automorphism(gq35):
    sigma = _oracle_sigma(5, 2)
    assert automorphism_witness(gq35, sigma) is None
    assert sigma.order() == 3
    assert sigma.fixed_points() == (5,)


def test_build_sigma_matches_oracle(gq35, fam_gq35):
    for u in (0, 7, 33):
        forward = build_sigma(gq35, fam_gq35, u)
        backward = forward.inverse()
        oracle_pair = {_oracle_sigma(u, 2).images, _oracle_sigma(u, 3).images}
        assert forward.images in oracle_pair
        assert backward.images in oracle_pair
        assert backward != forward
        assert forward.order() == 3
        assert forward.fixed_points() == (u,)


def test_build_sigma_seed_independence(gq35, fam_gq35):
    # all 6 seeds land on one of two mutually inverse maps; relabelling the
    # seed cell to (0, 1, 2), in order, makes it the least cell, where
    # build_sigma seeds, and pulling the result back gives the map seeded there
    u = 0
    results = set()
    for seed in phi_partition(gq35, u):
        order = list(seed) + [x for x in range(gq35.nu) if x not in seed]
        label = Permutation(tuple(order)).inverse()
        relabelled = Graph(relabel(list(gq35.rows), list(label.images)))
        built = build_sigma(relabelled, fam_gq35, label(u))
        sigma = label.inverse().compose(built.compose(label))
        results.update((sigma.images, sigma.inverse().images))
    assert len(results) == 2
    first, second = (Permutation(images) for images in results)
    assert first == second.inverse()


def test_build_sigma_cycles_each_phi_cell(gq35, fam_gq35):
    u = 0
    sigma = build_sigma(gq35, fam_gq35, u)
    for cell in phi_partition(gq35, u):
        assert {sigma(x) for x in cell} == set(cell)
        assert all(sigma(x) != x for x in cell)


def test_build_sigma_fails_on_mutated_graph(gq35, fam_gq35):
    outside = [v for v in range(64) if v != 0 and not gq35.adjacent(0, v)]
    mutated = gq35.toggle_edge(outside[0], outside[1])
    with pytest.raises((SigmaConstructionError, LocalStatsError)):
        build_sigma(mutated, fam_gq35, 0)


def test_canonical_family_normalization(gq35, fam_gq35, sigma_family):
    sigma_z = sigma_family[0]
    assert sigma_z(0) == 0
    inverse_z = sigma_z.inverse()
    for u, sigma_u in sigma_family.items():
        assert sigma_u(0) == inverse_z(u)
        assert sigma_u.order() == 3
        assert sigma_u.fixed_points() == (u,)


def test_canonical_family_is_one_scalar_orbit(sigma_family):
    # normalization forces the whole family onto a single oracle scalar
    scalars = set()
    for u, sigma_u in sigma_family.items():
        for scalar in (2, 3):
            if sigma_u == _oracle_sigma(u, scalar):
                scalars.add(scalar)
                break
        else:
            pytest.fail(f"sigma_{u} matches neither oracle scalar")
    assert len(scalars) == 1


def test_inverse_law_exhaustive(sigma_family):
    report = verify_inverse_law(sigma_family)
    assert report.passed
    assert report.details["pairs_checked"] == 64 * 64


def test_inverse_law_detects_an_inverted_sigma(sigma_family):
    corrupted = dict(sigma_family)
    corrupted[5] = corrupted[5].inverse()
    report = verify_inverse_law(corrupted)
    assert report.severity == "asserted-fail"
    assert report.witness == {"u": 0, "v": 5, "sigma_u(v)": 10}
    assert report.details["pairs_checked"] == 6


def test_involution_property(sigma_family):
    report = verify_involution_property(sigma_family)
    assert report.passed
    assert report.details["pairs_checked"] == 64 * 64


def test_involution_property_detects_corruption(sigma_family):
    corrupted = dict(sigma_family)
    corrupted[3] = corrupted[3].inverse()
    report = verify_involution_property(corrupted)
    assert not report.passed
    assert report.witness is not None


def test_involution_property_matches_the_squared_quotients(sigma_family):
    # one sigma replaced by another bijection (a transposed pair of images),
    # in the family's own key order and in a shuffled one
    rng = random.Random(7)
    failures = 0
    for trial in range(24):
        family = dict(sigma_family)
        u = rng.randrange(64)
        images = list(family[u].images)
        a, b = rng.sample(range(64), 2)
        images[a], images[b] = images[b], images[a]
        family[u] = Permutation(tuple(images))
        if trial % 2:
            items = list(family.items())
            rng.shuffle(items)
            family = dict(items)
        report = verify_involution_property(family)
        assert report == oracles.verify_involution_property(family)
        failures += not report.passed
    assert failures == 24
    assert verify_involution_property(sigma_family) == oracles.verify_involution_property(
        sigma_family
    )


def test_related_set_adjacent_is_a_line(gq35, fam_gq35):
    cliques = {tuple(c) for c in maximal_cliques_via_edges(gq35)}
    neighbor = gq35.neighbors(0)[0]
    result = related_set(gq35, fam_gq35, 0, neighbor)
    assert result.kind == "clique"
    assert result.members in cliques


def test_related_set_nonadjacent_is_independent(gq35, fam_gq35):
    v = next(x for x in range(64) if x != 0 and not gq35.adjacent(0, x))
    result = related_set(gq35, fam_gq35, 0, v)
    assert result.kind == "independent-with-M0"
    members = result.members
    assert all(not gq35.adjacent(a, b) for a in members for b in members if a < b)


def test_related_set_rejects_equal_vertices(gq35, fam_gq35):
    with pytest.raises(ValueError):
        related_set(gq35, fam_gq35, 4, 4)


def test_related_sets_partition_all_pairs(gq35, fam_gq35):
    seen_pairs = set()
    kinds = {"clique": 0, "independent-with-M0": 0}
    sets = set()
    for x in range(64):
        for y in range(x + 1, 64):
            members = related_set(gq35, fam_gq35, x, y).members
            sets.add(members)
    for members in sets:
        kinds[related_set(gq35, fam_gq35, members[0], members[1]).kind] += 1
        for a in members:
            for b in members:
                if a < b:
                    assert (a, b) not in seen_pairs
                    seen_pairs.add((a, b))
    assert len(seen_pairs) == 64 * 63 // 2
    assert kinds == {"clique": 96, "independent-with-M0": 240}


def test_related_set_regeneration_failure_on_shrikhande(shrikhande, fam_rook):
    # some Shrikhande edge has non-adjacent common neighbors
    failed = False
    for u, v in shrikhande.edges():
        try:
            related_set(shrikhande, fam_rook, u, v)
        except RelatedSetError:
            failed = True
            break
    assert failed


def test_generate_gamma_on_witness(sigma_family, fam_gq35):
    report = generate_gamma(sigma_family, fam_gq35)
    assert report.order == 64
    assert report.abelian
    assert report.transitive
    assert report.orbit_sizes == (64,)
    assert report.element_order_histogram == {1: 1, 2: 63}
    assert report.fixed_point_histogram == {64: 1, 0: 63}
    assert report.max_nonidentity_fixed_points == 0
    assert report.bound == 24
    assert report.bound_satisfied
    assert report.order_power_of_two


def test_generate_gamma_elements_are_translations(sigma_family, fam_gq35):
    report = generate_gamma(sigma_family, fam_gq35)
    for element in report.elements:
        shift = element(0)
        assert element.images == tuple(x ^ shift for x in range(64))


def test_generate_gamma_degenerate_identity_family():
    family = {0: Permutation.identity(5)}
    report = generate_gamma(family)
    assert report.order == 1
    assert not report.transitive
    assert report.orbit_sizes == (1, 1, 1, 1, 1)


def test_generate_gamma_cap(sigma_family, fam_gq35):
    with pytest.raises(ClosureCapError):
        generate_gamma(sigma_family, fam_gq35, cap=10)
