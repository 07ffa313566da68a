"""Graph core tests, with exhaustive independent oracles for the predicates."""

from __future__ import annotations

import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.inputs import (
    gq35_rows,
    ovoid256_rows,
    relabel,
    seeded_permutation,
    toggle,
    two_switch,
)
from srgpq.graphcore import (
    CliqueClosureError,
    Graph,
    GraphError,
    NeighborhoodStructureError,
    _bit_field_rows,
    _nonzero_fields,
    is_diamond_free,
    is_srg,
    is_srg_report,
    maximal_cliques_via_edges,
    neighborhood_clique_cells,
    phi_partition,
    transpose_rows,
)
from srgpq.params import SrgParams
from tests import oracles


def _matrix_identity_holds(g, params):
    """Oracle: A^2 + (mu-lam)A + (mu-k)I == mu*J in exact integer arithmetic."""
    n = g.nu
    a = [[1 if g.adjacent(i, j) else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            square = sum(a[i][t] * a[t][j] for t in range(n))
            value = (
                square
                + (params.mu - params.lam) * a[i][j]
                + (params.mu - params.k) * (1 if i == j else 0)
            )
            if value != params.mu:
                return False
    return True


def _has_induced_diamond(g):
    """Oracle: exhaustive scan of all 4-subsets for exactly five edges."""
    for quad in combinations(range(g.nu), 4):
        edges = sum(1 for a, b in combinations(quad, 2) if g.adjacent(a, b))
        if edges == 5:
            return True
    return False


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph([0b10, 0b00])  # asymmetric
    with pytest.raises(GraphError):
        Graph([0b01, 0b10])  # self-loops
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.degree(1) == 2 and g.neighbors(1) == (0, 2)
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.edge_count == 2


def test_toggle_edge_round_trip():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    h = g.toggle_edge(0, 2)
    assert h.adjacent(0, 2) and not g.adjacent(0, 2)
    assert h.toggle_edge(0, 2) == g


# Vertex counts at and just past the powers of two that size the packed matrix.
VALIDATION_SIZES = [0, 1, 2, 7, 8, 9, 15, 16, 17, 33, 64, 65, 129, 257]
FAULTS = ["high-bit", "negative", "self-loop", "one-sided-add", "one-sided-remove"]


def _random_rows(nu: int, rng: random.Random) -> list[int]:
    density = rng.choice([0.0, 0.1, 0.5, 1.0])
    rows = [0] * nu
    for j in range(nu):
        for i in range(j):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _corrupt(rows: list[int], fault: str, rng: random.Random) -> None:
    nu = len(rows)
    if not nu or (fault.startswith("one-sided") and nu < 2):
        return
    v = rng.randrange(nu)
    if fault == "high-bit":  # past nu, inside or past the packed row
        rows[v] |= 1 << rng.randrange(nu, nu + 2 * max(nu, 8))
    elif fault == "negative":
        rows[v] = ~rows[v]
    elif fault == "self-loop":
        rows[v] |= 1 << v
    else:
        w = rng.choice([x for x in range(nu) if x != v])
        if fault == "one-sided-add":
            rows[v] |= 1 << w
        else:
            rows[v] &= ~(1 << w)


def _construction(rows):
    try:
        return Graph(rows).rows
    except GraphError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    nu=st.sampled_from(VALIDATION_SIZES),
    seed=st.integers(min_value=0, max_value=2**32),
    faults=st.lists(st.sampled_from(FAULTS), max_size=4),
)
def test_graph_validation_matches_the_loop_oracle(nu, seed, faults):
    rng = random.Random(seed)
    rows = _random_rows(nu, rng)
    for fault in faults:
        _corrupt(rows, fault, rng)
    expected = oracles.graph_rows_error(rows)
    assert _construction(rows) == (tuple(rows) if expected is None else expected)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=80),
    nu=st.integers(min_value=0, max_value=150),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(m=5, nu=0, seed=1)
@example(m=3, nu=1, seed=2)
@example(m=9, nu=7, seed=3)  # m > nu, and neither a multiple of 8
@example(m=8, nu=8, seed=4)
@example(m=80, nu=9, seed=5)
@example(m=0, nu=64, seed=6)
@example(m=17, nu=64, seed=7)
@example(m=65, nu=65, seed=8)
def test_transpose_rows_matches_the_bit_oracle(m, nu, seed):
    rng = random.Random(seed)
    rows = [rng.getrandbits(nu) for _ in range(m)]
    assert transpose_rows(rows, nu) == oracles.transpose_rows(rows, nu)


@pytest.mark.parametrize("m", [65, 204, 256, 300])
@pytest.mark.parametrize("nu", [9, 255, 257])
def test_transpose_rows_above_64_rows_matches_the_bit_oracle(m, nu):
    # more than 64 rows: columns of several bytes, each one slice of the transpose
    rng = random.Random(1000 * m + nu)
    rows = [rng.getrandbits(nu) for _ in range(m)]
    assert transpose_rows(rows, nu) == oracles.transpose_rows(rows, nu)


@settings(max_examples=100, deadline=None)
@given(nu=st.integers(min_value=0, max_value=150), seed=st.integers(min_value=0, max_value=2**32))
@example(nu=64, seed=1)
@example(nu=65, seed=2)
def test_from_lower_is_the_graph_of_its_lower_triangle(nu, seed):
    rng = random.Random(seed)
    lower = [rng.getrandbits(j) for j in range(nu)]
    upper = oracles.transpose_rows(lower, nu)
    g = Graph.from_lower(lower)
    assert g == Graph([row | column for row, column in zip(lower, upper)])
    assert g.nu == nu and g.rows == Graph(g.rows).rows


@pytest.mark.parametrize("nu", [1, 5, 64, 70])
def test_from_lower_rejects_a_row_outside_the_lower_triangle(nu):
    rng = random.Random(nu)
    lower = [rng.getrandbits(j) for j in range(nu)]
    for j in {0, 1, nu // 2, nu - 1} & set(range(nu)):
        for fault in (-1, ~lower[j], lower[j] | 1 << j, lower[j] | 1 << (j + 9)):
            bad = list(lower)
            bad[j] = fault
            message = f"lower-triangle row {j} is not in 0..2**{j} - 1"
            with pytest.raises(GraphError, match=re.escape(message)):
                Graph.from_lower(bad)
            bad[-1] = -1  # the first bad row is named
            with pytest.raises(GraphError, match=re.escape(f"lower-triangle row {j} ")):
                Graph.from_lower(bad)


@settings(max_examples=200, deadline=None)
@given(
    nu=st.integers(min_value=0, max_value=150),
    width=st.sampled_from([8, 16, 24, 32, 64]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(nu=0, width=8, seed=1)
@example(nu=1, width=8, seed=2)
@example(nu=1, width=64, seed=3)
@example(nu=13, width=16, seed=4)  # nu not a multiple of 8
@example(nu=64, width=32, seed=5)
@example(nu=150, width=64, seed=6)
def test_bit_fields_match_the_bit_oracle_and_round_trip(nu, width, seed):
    ones = (1 << width) - 1
    masks = (0, (1 << nu) - 1, random.Random(seed).getrandbits(nu))
    converted = _bit_field_rows(masks, nu, width)  # one buffer for all three
    for mask, fields in zip(masks, converted):
        assert fields == oracles.bit_fields(mask, nu, width)
        assert fields >> nu * width == 0
        # round trip: every field holds its bit and nothing else
        assert [fields >> x * width & ones for x in range(nu)] == [mask >> x & 1 for x in range(nu)]
        assert _nonzero_fields(fields * ones, nu, width) == mask
    dropped = _bit_field_rows([mask | 5 << nu for mask in masks], nu, width)
    assert dropped == converted  # bits from nu on are dropped


@pytest.mark.parametrize("nu", [nu for nu in VALIDATION_SIZES if nu >= 3])
def test_graph_validation_names_the_first_fault_in_row_order(nu):
    last = nu - 1
    cases = [
        [(0, 1 << nu)],  # a bit just past the vertex range
        [(last, 1 << (last + 9))],  # a bit past the padded row as well
        [(1, -1)],
        [(last, 1 << last)],  # self-loop
        [(2, 1 << 2), (1, 1 << nu)],  # the range fault comes first in row order
        [(1, 1 << 1), (2, 1 << nu)],  # the self-loop comes first
        [(last, 1 << 0)],  # one-sided, only the later row has it
        [(0, 1 << last), (1, 1 << 2)],  # two one-sided edges: the first row's
        [(2, 1 << 1), (last, 1 << last)],  # a self-loop beats an earlier asymmetry
    ]
    for faults in cases:
        rows = [0] * nu
        for v, value in faults:
            rows[v] = value if value < 0 else rows[v] | value
        assert _construction(rows) == oracles.graph_rows_error(rows), faults


@pytest.mark.parametrize("nu", VALIDATION_SIZES)
def test_from_edges_and_toggle_edge_match_the_loop_oracle(nu):
    rng = random.Random(nu)
    rows = _random_rows(nu, rng)
    g = Graph(rows)
    edges = list(g.edges())
    rng.shuffle(edges)
    twice = edges + [(v, u) for u, v in edges[: len(edges) // 2]]
    assert Graph.from_edges(nu, twice) == g
    assert oracles.graph_rows_error(Graph.from_edges(nu, twice).rows) is None
    for _ in range(min(nu * nu, 20)):
        if nu < 2:
            break
        u, v = rng.sample(range(nu), 2)
        toggled = g.toggle_edge(u, v)
        assert oracles.graph_rows_error(toggled.rows) is None
        assert toggled.adjacent(u, v) != g.adjacent(u, v)
        assert toggled.edge_count == g.edge_count + (1 if toggled.adjacent(u, v) else -1)
        assert toggled.toggle_edge(v, u) == g
    with pytest.raises(GraphError, match=f"edge \\(0, {nu}\\) out of range for nu={nu}"):
        Graph.from_edges(nu, [(0, nu)])
    if nu:
        with pytest.raises(GraphError, match=f"self-loop at vertex {nu - 1}"):
            Graph.from_edges(nu, [(nu - 1, nu - 1)])
        with pytest.raises(GraphError, match="cannot toggle a self-loop"):
            g.toggle_edge(nu - 1, nu - 1)
        with pytest.raises(GraphError, match=f"vertex {nu} out of range"):
            g.toggle_edge(0, nu)


def test_is_srg_witnesses(rook, shrikhande, gq35):
    assert is_srg(rook) == SrgParams(16, 6, 2, 2)
    assert is_srg(shrikhande) == SrgParams(16, 6, 2, 2)
    assert is_srg(gq35) == SrgParams(64, 18, 2, 6)


def test_is_srg_rejects_path():
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    params, witness = is_srg_report(path4)
    assert params is None and witness["reason"] == "not-regular"


def test_is_srg_rejects_complete():
    k4 = Graph.from_edges(4, [(a, b) for a, b in combinations(range(4), 2)])
    params, witness = is_srg_report(k4)
    assert params is None and witness["reason"] == "complete-or-edgeless"


def _circulant(nu: int, jumps, labels=None) -> Graph:
    """The circulant graph on Z_nu with the given jumps, vertex x relabelled labels[x]."""
    labels = labels or range(nu)
    pairs = [(u, v) for u, v in combinations(range(nu), 2) if min(v - u, nu - v + u) in jumps]
    return Graph.from_edges(nu, [(labels[u], labels[v]) for u, v in pairs])


@st.composite
def srg_check_graphs(draw):
    """A complete, edgeless, random (mostly irregular) or relabelled circulant graph on 0..14 vertices."""
    nu = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(["complete", "edgeless", "random", "circulant"]))
    pairs = list(combinations(range(nu), 2))
    if kind == "circulant":
        jumps = draw(st.sets(st.integers(1, max(1, nu // 2))))
        return _circulant(nu, jumps, draw(st.permutations(range(nu))))
    if kind == "random":
        chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        pairs = [pair for pair, keep in zip(pairs, chosen) if keep]
    return Graph.from_edges(nu, pairs if kind != "edgeless" else [])


@settings(max_examples=300, deadline=None)
@given(srg_check_graphs())
def test_is_srg_report_matches_the_lazy_loop(g):
    assert is_srg_report(g) == oracles.is_srg_report(g)


def test_is_srg_report_matches_the_lazy_loop_on_every_circulant():
    # every circulant on 0..14 vertices, complete and edgeless included, as
    # built and relabelled: they reach every verdict of a regular graph
    reasons = set()
    for nu in range(15):
        rng = random.Random(nu)
        for size in range(nu // 2 + 1):
            for jumps in combinations(range(1, nu // 2 + 1), size):
                for labels in (None, rng.sample(range(nu), nu)):
                    g = _circulant(nu, jumps, labels)
                    params, witness = is_srg_report(g)
                    assert (params, witness) == oracles.is_srg_report(g)
                    reasons.add("srg" if witness is None else witness["reason"])
    assert reasons == {"too-few-vertices", "complete-or-edgeless", "trivial-parameters",
                       "adjacent-pair-mismatch", "nonadjacent-pair-mismatch", "srg"}


def test_is_srg_agrees_with_matrix_identity(rook, shrikhande):
    for g in (rook, shrikhande):
        params = is_srg(g)
        assert params is not None
        assert _matrix_identity_holds(g, params)


def test_is_srg_matrix_identity_gq35(gq35):
    assert _matrix_identity_holds(gq35, is_srg(gq35))


def test_diamond_free_witnesses(rook, shrikhande):
    ok, witness = is_diamond_free(rook)
    assert ok and witness is None
    ok, witness = is_diamond_free(shrikhande)
    assert not ok
    a, b, c, d = witness
    edges = sum(1 for x, y in combinations(witness, 2) if shrikhande.adjacent(x, y))
    assert edges == 5  # the witness really induces a diamond


def test_diamond_free_edgeless():
    assert is_diamond_free(Graph([0, 0, 0])) == (True, None)


def test_diamond_free_agrees_with_exhaustive_scan(rook, shrikhande):
    for g in (rook, shrikhande):
        assert is_diamond_free(g)[0] == (not _has_induced_diamond(g))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=4, max_value=9))
def test_diamond_free_matches_scan_on_random_graphs(data, n):
    pair_count = n * (n - 1) // 2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << pair_count) - 1))
    edges = []
    position = 0
    for a in range(n):
        for b in range(a + 1, n):
            if mask >> position & 1:
                edges.append((a, b))
            position += 1
    g = Graph.from_edges(n, edges)
    assert is_diamond_free(g)[0] == (not _has_induced_diamond(g))


def _assert_diamond_free_agrees(g):
    """The verdict and the witness of the pair loop, and a witness that is a diamond."""
    outcome = is_diamond_free(g)
    assert outcome == oracles.is_diamond_free(g)
    ok, witness = outcome
    if not ok:
        assert sum(1 for a, b in combinations(witness, 2) if g.adjacent(a, b)) == 5
    return ok


def test_diamond_free_witnesses_match_the_pair_loop(rook, shrikhande):
    witnesses = [gq35_rows(), ovoid256_rows()]
    graphs = [rook, shrikhande] + [Graph(rows) for rows in witnesses]
    rng = random.Random(12)
    for rows in witnesses:
        graphs += [Graph(toggle(rows, rng)) for _ in range(6)]
        graphs += [Graph(two_switch(rows, rng)) for _ in range(2)]
        # a toggled relabelled copy, so the first failing vertex moves
        graphs.append(Graph(toggle(relabel(rows, seeded_permutation(len(rows), rng)), rng)))
    verdicts = [_assert_diamond_free_agrees(g) for g in graphs]
    assert verdicts[:4] == [True, False, True, True]
    assert False in verdicts[4:]


@st.composite
def clique_unions(draw):
    """A disjoint union of cliques on up to 12 vertices, with up to three edges toggled."""
    nu = draw(st.integers(0, 12))
    labels = draw(st.lists(st.integers(0, 4), min_size=nu, max_size=nu))
    rows = [sum(1 << y for y in range(nu) if y != x and labels[y] == labels[x]) for x in range(nu)]
    g = Graph(rows)
    if nu >= 2:
        for _ in range(draw(st.integers(0, 3))):
            u, v = draw(st.lists(st.integers(0, nu - 1), min_size=2, max_size=2, unique=True))
            g = g.toggle_edge(u, v)
    return g


def test_diamond_free_witnesses_match_the_pair_loop_on_random_graphs():
    verdicts = set()

    @settings(max_examples=400, deadline=None)
    @given(clique_unions())
    def check(g):
        verdicts.add(_assert_diamond_free_agrees(g))

    check()
    assert verdicts == {False, True}


def test_phi_partition_rook(rook):
    part = phi_partition(rook, 0)
    assert part.kind == "phi" and part.base_vertex == 0
    assert part.cells == ((1, 2, 3), (4, 8, 12))  # row triple, column triple


def test_phi_partition_gq35(gq35):
    for u in (0, 13, 63):
        part = phi_partition(gq35, u)
        assert len(part.cells) == 6
        assert part.covered() == set(gq35.neighbors(u))
        for cell in part.cells:
            assert all(gq35.adjacent(a, b) for a, b in combinations(cell, 2))


def test_phi_partition_single_triangle_apex():
    # apex 3 adjacent to a triangle {0,1,2}
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    assert phi_partition(g, 3).cells == ((0, 1, 2),)


def test_phi_partition_rejects_non_triangle_components(shrikhande):
    # Shrikhande neighborhoods are 6-cycles, not triangle unions
    message = "the neighborhood of 0 is not a disjoint union of cliques: (0, 1, 4, 5) induce a diamond"
    with pytest.raises(NeighborhoodStructureError, match=f"^{re.escape(message)}$"):
        phi_partition(shrikhande, 0)


def _cells_or_error(kernel, g, u, size):
    try:
        return "returned", kernel(g, u, size)
    except GraphError as exc:  # NeighborhoodStructureError among them
        return "raised", type(exc), str(exc)


def _clique_union_at(g, u):
    """Oracle: <N(u)> has no induced path x - y - z, so its components are cliques."""
    nbhd = set(g.neighbors(u))
    return all(
        g.adjacent(x, z)
        for y in nbhd
        for x, z in combinations(sorted(nbhd.intersection(g.neighbors(y))), 2)
    )


DIAMOND_MESSAGE = re.compile(
    r"the neighborhood of (\d+) is not a disjoint union of cliques: "
    r"\((\d+), (\d+), (\d+), (\d+)\) induce a diamond"
)


def _assert_cells_agree(g, u, size):
    """The cells or the exact error of the component search where <N(u)> is a
    union of cliques; elsewhere a diamond at u that g really induces.  Returns
    which of the three it was."""
    outcome = _cells_or_error(neighborhood_clique_cells, g, u, size)
    expected = _cells_or_error(oracles.neighborhood_clique_cells, g, u, size)
    if not 0 <= u < g.nu or _clique_union_at(g, u):
        assert outcome == expected
        return "cells" if outcome[0] == "returned" else "error"
    assert expected[:2] == ("raised", NeighborhoodStructureError)  # the search raised too
    assert outcome[:2] == ("raised", NeighborhoodStructureError)
    base, *diamond = map(int, DIAMOND_MESSAGE.fullmatch(outcome[2]).groups())
    assert base == u and u in diamond and diamond == sorted(set(diamond)) and len(diamond) == 4
    assert sum(1 for a, b in combinations(diamond, 2) if g.adjacent(a, b)) == 5
    return "diamond"


def test_clique_cells_match_the_component_search_on_the_witnesses(rook, shrikhande, gq35):
    seen = {}
    for name, g in (("rook", rook), ("shrikhande", shrikhande), ("gq35", gq35),
                    ("ovoid256", Graph(ovoid256_rows()))):
        for size in range(1, 5):
            for u in range(g.nu):
                seen.setdefault(name, set()).add(_assert_cells_agree(g, u, size))
    assert seen == {"rook": {"cells", "error"}, "shrikhande": {"diamond"},
                    "gq35": {"cells", "error"}, "ovoid256": {"cells", "error"}}


def test_clique_cells_match_the_component_search_on_random_graphs():
    seen = set()

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(small_graphs(), clique_unions(), gq35_diamond_mutants()),
           st.integers(1, 4), st.data())
    def check(g, size, data):
        u = data.draw(st.integers(-1, g.nu), label="u")
        seen.add(_assert_cells_agree(g, u, size))

    check()
    assert seen == {"cells", "error", "diamond"}


def test_maximal_cliques_counts(rook, gq35):
    rook_cliques = maximal_cliques_via_edges(rook)
    assert len(rook_cliques) == 8 and all(len(c) == 4 for c in rook_cliques)
    gq_cliques = maximal_cliques_via_edges(gq35)
    assert len(gq_cliques) == 96 and all(len(c) == 4 for c in gq_cliques)


def test_maximal_cliques_k4():
    k4 = Graph.from_edges(4, [(a, b) for a, b in combinations(range(4), 2)])
    assert maximal_cliques_via_edges(k4) == [(0, 1, 2, 3)]


def test_maximal_cliques_rejects_diamond(shrikhande):
    with pytest.raises(CliqueClosureError):
        maximal_cliques_via_edges(shrikhande)


def _cliques_or_error(kernel, g):
    try:
        return kernel(g)
    except CliqueClosureError as exc:
        return str(exc)


def _assert_cliques_agree(g):
    """The cliques of the per-edge loop, or its exact message; whether g raised."""
    outcome = _cliques_or_error(maximal_cliques_via_edges, g)
    assert outcome == _cliques_or_error(oracles.maximal_cliques_via_edges, g)
    return isinstance(outcome, str)


@st.composite
def small_graphs(draw):
    """Any graph on up to 9 vertices."""
    nu = draw(st.integers(0, 9))
    pairs = list(combinations(range(nu), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(nu, [pair for pair, keep in zip(pairs, chosen) if keep])


@st.composite
def gq35_diamond_mutants(draw):
    """GQ(3,5), seeded relabelled, with one to three pairs toggled."""
    rows = relabel(gq35_rows(), seeded_permutation(64, random.Random(draw(st.integers(0, 9)))))
    pairs = st.sampled_from(list(combinations(range(64), 2)))
    for u, v in draw(st.lists(pairs, min_size=1, max_size=3, unique=True)):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(rows)


def test_maximal_cliques_match_the_edge_loop_on_random_graphs():
    raised = set()

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(small_graphs(), clique_unions()))
    def check(g):
        raised.add(_assert_cliques_agree(g))

    check()
    assert raised == {False, True}


def test_maximal_cliques_match_the_edge_loop_on_gq35_diamond_mutants():
    raised = set()

    @settings(max_examples=60, deadline=None)
    @given(gq35_diamond_mutants())
    def check(g):
        raised.add(_assert_cliques_agree(g))

    check()
    assert True in raised


def test_maximal_cliques_match_the_edge_loop_on_the_witnesses(rook, shrikhande, gq35):
    graphs = [rook, shrikhande, gq35, Graph(ovoid256_rows())]
    assert [_assert_cliques_agree(g) for g in graphs] == [False, True, False, False]


def test_clique_cover_properties(gq35):
    cliques = maximal_cliques_via_edges(gq35)
    edge_cover = {}
    vertex_count = [0] * gq35.nu
    for clique in cliques:
        for v in clique:
            vertex_count[v] += 1
        for pair in combinations(clique, 2):
            assert pair not in edge_cover, "edge in two cliques"
            edge_cover[pair] = clique
    assert len(edge_cover) == gq35.edge_count  # every edge in exactly one clique
    assert all(c == 6 for c in vertex_count)  # k/3 cliques per vertex
