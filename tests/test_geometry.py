"""Geometry tests: witness constructions, PQ axioms, round trips, file format."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import gq35_rows, ovoid256_rows
from srgpq.geometry import (
    GF4_MUL,
    GeometryError,
    IncidenceStructure,
    build_gq35,
    build_ovoid256,
    build_rook4,
    build_shrikhande,
    collinearity_graph,
    format_incidence,
    graph_to_pq,
    hyperoval_points,
    linear_representation,
    parse_incidence,
    verify_pq_axioms,
)
from srgpq.geometry import _incidence_masks, _off_line_witness
from srgpq.graphcore import Graph, is_diamond_free, is_srg
from srgpq.params import PqParams, SrgParams
from tests import oracles


def test_gf4_field_axioms():
    mul, w = GF4_MUL, 2  # addition is xor on the encoding 0, 1, w, w^2 = 3
    assert mul[w][w] == 3  # w^2
    assert mul[mul[w][w]][w] == 1  # w^3 = 1
    assert w ^ w == 0  # characteristic 2
    assert 3 ^ w == 1  # w^2 = w + 1
    elements = range(4)
    for x in elements:
        assert mul[x][1] == x and mul[x][0] == 0
        if x:
            assert sum(mul[x][y] == 1 for y in elements) == 1  # one inverse
        for y in elements:
            assert mul[x][y] == mul[y][x]
            for z in elements:
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
                assert mul[x][y ^ z] == mul[x][y] ^ mul[x][z]


def test_rook_witness(rook):
    assert is_srg(rook) == SrgParams(16, 6, 2, 2)
    assert is_diamond_free(rook)[0]
    assert rook.degree(0) == 6


def test_shrikhande_negative_control(shrikhande):
    assert shrikhande.nu == 16
    assert is_srg(shrikhande) == SrgParams(16, 6, 2, 2)
    assert not is_diamond_free(shrikhande)[0]


def test_gq35_witness(gq35):
    assert is_srg(gq35) == SrgParams(64, 18, 2, 6)
    assert is_diamond_free(gq35)[0]


def test_gq35_connection_set(gq35):
    connection = set(gq35.neighbors(0))  # x ~ y iff x xor y is in the connection set
    assert len(connection) == 18  # 6 directions x 3 nonzero scalars
    assert 0 not in connection

    def scaled(scale, vertex):
        a, b, c = vertex >> 4, vertex >> 2 & 3, vertex & 3
        return GF4_MUL[scale][a] << 4 | GF4_MUL[scale][b] << 2 | GF4_MUL[scale][c]

    # closed under nonzero scaling, hence Cayley symmetry in characteristic 2
    for vertex in connection:
        for scale in (1, 2, 3):
            assert scaled(scale, vertex) in connection
    assert all(set(gq35.neighbors(x)) == {x ^ d for d in connection} for x in range(64))


def test_hyperoval_size():
    assert len(hyperoval_points()) == 6


def test_witnesses_match_the_independent_builder():
    assert build_gq35() == Graph(gq35_rows())
    assert build_ovoid256() == Graph(ovoid256_rows())


def test_ovoid256_witness():
    g = build_ovoid256()
    assert is_srg(g) == SrgParams(256, 51, 2, 12)
    assert is_diamond_free(g)[0]


@pytest.mark.parametrize("removed", range(6))
def test_linear_representation_rejects_a_point_on_a_secant(removed):
    points = [p for i, p in enumerate(hyperoval_points()) if i != removed]
    # the third point of the secant through two kept points is off the hyperoval
    secant_point = tuple(a ^ b for a, b in zip(points[0], points[1]))
    assert secant_point not in hyperoval_points()
    with pytest.raises(GeometryError, match="not a cap"):
        linear_representation(points + [secant_point], 3)


def test_linear_representation_rejects_a_repeated_projective_point():
    points = list(hyperoval_points())
    w_multiple = tuple(GF4_MUL[2][x] for x in points[0])
    with pytest.raises(GeometryError, match="distinct"):
        linear_representation(points + [w_multiple], 3)
    with pytest.raises(GeometryError, match="distinct"):
        linear_representation(points + [(0, 0, 0)], 3)


def test_linear_representation_rejects_malformed_vectors():
    with pytest.raises(GeometryError):
        linear_representation([(1, 0)], 3)
    with pytest.raises(GeometryError):
        linear_representation([(1, 0, 4)], 3)


def test_gq35_incidence_round_trip(gq35):
    inc = graph_to_pq(gq35)
    assert len(inc.lines) == 96
    report = verify_pq_axioms(inc)
    assert report.ok
    assert report.params == PqParams(3, 5, 6)
    assert report.is_generalized_quadrangle
    assert collinearity_graph(inc) == gq35


def test_rook_incidence_round_trip(rook):
    inc = graph_to_pq(rook)
    assert len(inc.lines) == 8
    report = verify_pq_axioms(inc)
    assert report.params == PqParams(3, 1, 2)
    assert report.is_generalized_quadrangle  # mu = t+1: the rook is GQ(3,1)
    assert collinearity_graph(inc) == rook


def test_graph_to_pq_rejects_non_srg():
    k4 = Graph.from_edges(4, [(a, b) for a, b in combinations(range(4), 2)])
    with pytest.raises(GeometryError):
        graph_to_pq(k4)


def test_collinearity_graph_single_line():
    inc = IncidenceStructure.from_lines(4, [(0, 1, 2, 3)])
    g = collinearity_graph(inc)
    assert all(g.adjacent(a, b) for a, b in combinations(range(4), 2))


def test_axiom_ii_violation():
    # sizes and degrees are constant, but points 0, 1 share two lines
    inc = IncidenceStructure.from_lines(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])
    report = verify_pq_axioms(inc)
    assert not report.ok
    assert report.violated_axiom == "ii"
    assert report.witness["points"] == [0, 1]


def test_axiom_i_violation_ragged_lines():
    inc = IncidenceStructure.from_lines(5, [(0, 1, 2), (3, 4)])
    report = verify_pq_axioms(inc)
    assert report.violated_axiom == "i"


def test_axiom_iii_violation_fano():
    # In the Fano plane every point pair is collinear, so any point off a
    # line is collinear with all three of its points.
    lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    report = verify_pq_axioms(IncidenceStructure.from_lines(7, lines))
    assert report.violated_axiom == "iii"
    assert len(report.witness["collinear_points"]) == 3


AXIOM_III_VIOLATIONS = {
    "fano": (7, [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    # the affine plane of order 3: every point off a line sees all three of its points
    "affine-3": (9, [tuple(3 * x + (m * x + b) % 3 for x in range(3)) for m in range(3) for b in range(3)]
                 + [tuple(3 * c + y for y in range(3)) for c in range(3)]),
}


@pytest.mark.parametrize("case", sorted(AXIOM_III_VIOLATIONS))
def test_axiom_iii_witness_matches_the_point_loop(case):
    inc = IncidenceStructure.from_lines(*AXIOM_III_VIOLATIONS[case])
    report = verify_pq_axioms(inc)
    assert report.violated_axiom == "iii"
    assert report.witness == oracles.off_line_witness(inc)


incidences = st.integers(1, 9).flatmap(
    lambda points: st.builds(
        IncidenceStructure.from_lines,
        st.just(points),
        st.lists(
            st.frozensets(st.integers(0, points - 1), min_size=1, max_size=min(points, 4)),
            min_size=1,
            max_size=12,
            unique=True,
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(incidences)
def test_axiom_iii_witness_matches_the_point_loop_on_small_incidences(inc):
    line_masks, _, coll, _ = _incidence_masks(inc)
    assert _off_line_witness(line_masks, coll) == oracles.off_line_witness(inc)


@st.composite
def parallel_classes(draw):
    """Lines from random parallel classes, each line unsorted, the lines shuffled.

    Each class splits the points into lines of one size, so every line has
    that size and every point lies on one line of each class; a line that
    recurs in a later class is kept once, which lowers its points' degrees.
    """
    size, per_class = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    points = size * per_class
    lines: dict[frozenset, tuple[int, ...]] = {}
    for _ in range(draw(st.integers(2, 4))):
        order = draw(st.permutations(range(points)))
        for start in range(0, points, size):
            line = tuple(order[start:start + size])
            lines.setdefault(frozenset(line), line)
    return IncidenceStructure(points, tuple(draw(st.permutations(list(lines.values())))))


def _shuffled_incidence(inc: IncidenceStructure, seed: int) -> IncidenceStructure:
    """inc with its points relabelled and its lines, and the points of each, shuffled."""
    rng = random.Random(seed)
    labels = rng.sample(range(inc.num_points), inc.num_points)
    lines = [rng.sample([labels[p] for p in line], len(line)) for line in inc.lines]
    rng.shuffle(lines)
    return IncidenceStructure(inc.num_points, tuple(map(tuple, lines)))


def test_pq_axioms_match_the_pair_dict_and_lazy_mu_on_parallel_classes():
    verdicts = set()

    @settings(max_examples=600, deadline=None)
    @given(parallel_classes())
    def check(inc):
        report = verify_pq_axioms(inc)
        assert report == oracles.verify_pq_axioms(inc)
        assert collinearity_graph(inc) == Graph(oracles.collinearity_masks(inc))
        verdicts.add(report.violated_axiom)

    check()
    assert {"i", "ii", "iii", "iv", None} <= verdicts


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("builder", [build_rook4, build_gq35, build_ovoid256])
def test_pq_axioms_match_the_pair_dict_and_lazy_mu_on_the_witnesses(builder, seed):
    inc = graph_to_pq(builder())
    if seed is not None:
        inc = _shuffled_incidence(inc, seed)
    report = verify_pq_axioms(inc)
    assert report.ok and report == oracles.verify_pq_axioms(inc)
    broken = IncidenceStructure(inc.num_points, inc.lines[:-1])  # one point degree drops
    assert verify_pq_axioms(broken) == oracles.verify_pq_axioms(broken)
    assert verify_pq_axioms(broken).violated_axiom == "i"


def test_axiom_iv_violation_hexagon():
    lines = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    report = verify_pq_axioms(IncidenceStructure.from_lines(6, lines))
    assert report.violated_axiom == "iv"


def test_verify_pq_axioms_requires_a_line():
    with pytest.raises(GeometryError):
        verify_pq_axioms(IncidenceStructure.from_lines(3, []))


def test_verify_pq_axioms_without_points_is_degenerate():
    report = verify_pq_axioms(IncidenceStructure(0, ((),)))
    assert report.violated_axiom == "degenerate"
    assert report.witness == {"detail": "no non-collinear point pair; mu undefined"}


def test_incidence_validation():
    with pytest.raises(GeometryError):
        IncidenceStructure.from_lines(3, [(0, 5)])
    with pytest.raises(GeometryError):
        IncidenceStructure.from_lines(3, [(0, 0, 1)])
    with pytest.raises(GeometryError):
        IncidenceStructure.from_lines(3, [(0, 1), (1, 0)])


def test_incidence_text_round_trip(rook):
    inc = graph_to_pq(rook)
    text = format_incidence(inc)
    parsed = parse_incidence(text)
    assert parsed.num_points == inc.num_points
    assert sorted(parsed.lines) == sorted(inc.lines)


def test_parse_incidence_comments_and_errors():
    inc = parse_incidence("# comment\n3 2\n0 1\n\n1 2\n")
    assert inc.num_points == 3 and len(inc.lines) == 2
    with pytest.raises(GeometryError):
        parse_incidence("")
    with pytest.raises(GeometryError):
        parse_incidence("3\n0 1\n")
    with pytest.raises(GeometryError):
        parse_incidence("3 2\n0 1\n")  # line count mismatch
    with pytest.raises(GeometryError):
        parse_incidence("3 1\n0 x\n")


def test_builders_are_deterministic():
    assert build_rook4() == build_rook4()
    assert build_shrikhande() == build_shrikhande()
    assert build_gq35() == build_gq35()
    assert build_ovoid256() == build_ovoid256()
