"""Geometry tests: witness constructions, PQ axioms, round trips, file format."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import gq35_rows, ovoid256_rows, relabel, rook4_rows, seeded_permutation, toggle, two_switch
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
from srgpq.graphcore import (
    MAX_VERTICES,
    CliqueClosureError,
    Graph,
    GraphError,
    is_diamond_free,
    is_srg,
    line_sum_srg_report,
)
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


def _round_trip(to_pq, g):
    """to_pq(g), or the class and message of the GeometryError or GraphError it raised."""
    try:
        return to_pq(g)
    except (GeometryError, GraphError) as exc:
        return type(exc), str(exc)


def _srg_check_then_cliques(g: Graph) -> IncidenceStructure:
    """graph_to_pq as the SRG check over every pair, then the per-edge clique loop."""
    params, witness = oracles.is_srg_report(g)
    if params is None:
        raise GeometryError(f"input is not a nontrivial SRG: {witness}")
    return IncidenceStructure.from_lines(g.nu, oracles.maximal_cliques_via_edges(g))


def _assert_round_trip_agrees(g: Graph) -> str:
    """Assert graph_to_pq(g) equals the composition; name the path it took and its verdict."""
    outcome = _round_trip(graph_to_pq, g)
    assert outcome == _round_trip(_srg_check_then_cliques, g)
    try:
        cliques = oracles.maximal_cliques_via_edges(g)
    except CliqueClosureError:
        return f"fallback: {outcome[0].__name__}"
    params, witness = line_sum_srg_report(g, cliques)
    assert (params, witness) == oracles.is_srg_report(g)
    return "line sums: " + ("srg" if witness is None else witness["reason"])


def _circulant(nu: int, jumps) -> Graph:
    return Graph.from_edges(nu, [(u, v) for u, v in combinations(range(nu), 2) if min(v - u, nu - v + u) in jumps])


def _round_trip_inputs() -> dict[str, Graph]:
    """The witnesses and relabelled copies, seeded mutants of GQ(3,5) and the n = 3
    witness, Shrikhande, and small graphs: Petersen, whose lines have 2 points,
    the triangular prism, cycles, paths, K4, edgeless graphs and graphs on fewer than 4 vertices."""
    graphs = {}
    for name, rows in (("rook4", rook4_rows()), ("gq35", gq35_rows()), ("ovoid256", ovoid256_rows())):
        graphs[name] = Graph(rows)
        for seed in range(2):
            graphs[f"{name}/relabelled-{seed}"] = Graph(relabel(rows, seeded_permutation(len(rows), random.Random(seed))))
    for name, rows in (("gq35", gq35_rows()), ("ovoid256", ovoid256_rows())):
        for seed in range(4):
            graphs[f"{name}/2-switch-{seed}"] = Graph(two_switch(rows, random.Random(seed)))
            graphs[f"{name}/toggle-{seed}"] = Graph(toggle(rows, random.Random(seed)))
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    graphs["shrikhande"] = build_shrikhande()
    graphs["petersen"] = Graph.from_edges(10, petersen)
    graphs["prism"] = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    for nu in range(3, 10):
        graphs[f"cycle-{nu}"] = _circulant(nu, {1})
        graphs[f"path-{nu}"] = Graph.from_edges(nu, [(v, v + 1) for v in range(nu - 1)])
    graphs["k4"] = _circulant(4, {1, 2})
    for nu in range(6):
        graphs[f"edgeless-{nu}"] = Graph.from_edges(nu, [])
    return graphs


def test_graph_to_pq_matches_the_srg_check_then_the_clique_loop():
    paths = {name: _assert_round_trip_agrees(g) for name, g in _round_trip_inputs().items()}
    assert paths["shrikhande"] == "fallback: CliqueClosureError"
    assert paths["petersen"] == paths["ovoid256/relabelled-1"] == "line sums: srg"
    assert paths["prism"] == "line sums: adjacent-pair-mismatch"
    assert paths["cycle-6"] == "line sums: nonadjacent-pair-mismatch"
    assert paths["path-5"] == "line sums: not-regular"
    assert paths["ovoid256/2-switch-0"] == paths["gq35/toggle-0"] == "fallback: GeometryError"
    assert {paths["k4"], paths["edgeless-5"], paths["path-3"]} == {
        "line sums: complete-or-edgeless", "line sums: too-few-vertices"}


@st.composite
def round_trip_graphs(draw):
    """A graph on up to 9 vertices, or a relabelled circulant on up to 14."""
    nu = draw(st.integers(0, 14))
    if draw(st.booleans()):
        jumps = draw(st.sets(st.integers(1, max(1, nu // 2))))
        labels = draw(st.permutations(range(nu)))
        return Graph(relabel([*_circulant(nu, jumps).rows], labels))
    pairs = list(combinations(range(min(nu, 9)), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(min(nu, 9), [pair for pair, keep in zip(pairs, chosen) if keep])


def test_graph_to_pq_matches_the_srg_check_then_the_clique_loop_on_random_graphs():
    paths = set()

    @settings(max_examples=400, deadline=None)
    @given(round_trip_graphs())
    def check(g):
        paths.add(_assert_round_trip_agrees(g))

    check()
    assert {"fallback: GeometryError", "line sums: nonadjacent-pair-mismatch"} <= paths


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


# lines of one size, as axiom (i) asks of the lines; point degrees may
# differ and two points may share two lines, failing (i) or (ii)
incidences = st.integers(1, 9).flatmap(
    lambda points: st.integers(1, min(points, 4)).flatmap(
        lambda size: st.builds(
            IncidenceStructure.from_lines,
            st.just(points),
            st.lists(
                st.frozensets(st.integers(0, points - 1), min_size=size, max_size=size),
                min_size=1,
                max_size=12,
                unique=True,
            ),
        )
    )
)


def test_axiom_iii_witness_matches_the_point_loop_on_small_incidences():
    # the whole report, (iii)'s witness included, against the oracle's
    # point loop over every (line, point off it)
    verdicts = set()

    @settings(max_examples=300, deadline=None)
    @given(incidences)
    def check(inc):
        report = verify_pq_axioms(inc)
        assert report == oracles.verify_pq_axioms(inc)
        verdicts.add(report.violated_axiom)

    check()
    assert verdicts >= {"i", "ii", "iii"}


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


def test_parse_incidence_bounds_the_point_count_as_graph6_does():
    assert parse_incidence(f"{MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n").num_points == MAX_VERTICES
    for count in (MAX_VERTICES + 1, -1):
        with pytest.raises(GeometryError, match=f"point count {count} is outside 0..{MAX_VERTICES}"):
            parse_incidence(f"{count} 1\n0 1\n")


def test_builders_are_deterministic():
    assert build_rook4() == build_rook4()
    assert build_shrikhande() == build_shrikhande()
    assert build_gq35() == build_gq35()
    assert build_ovoid256() == build_ovoid256()
