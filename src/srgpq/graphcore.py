"""Immutable bitset graphs and the combinatorial predicates built on them.

Adjacency rows are Python ints used as bitsets, so common-neighbor counting
is an AND plus a popcount.  Graphs are immutable after construction; every
operation here is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from srgpq.params import ParameterError, SrgParams


class GraphError(ValueError):
    """Malformed graph data or an out-of-range vertex."""


class NeighborhoodStructureError(GraphError):
    """A vertex neighborhood does not decompose into the required cliques."""


class CliqueClosureError(GraphError):
    """An edge closure is not a clique, so the graph is not diamond-free."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph on vertices 0..nu-1 with bitset adjacency rows."""

    __slots__ = ("nu", "_rows")

    def __init__(self, rows: Sequence[int]):
        nu = len(rows)
        rows = tuple(rows)
        full = (1 << nu) - 1
        for v, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise GraphError(f"row {v} has bits outside 0..{nu - 1}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for w in bits(row):
                if not rows[w] >> v & 1:
                    raise GraphError(f"adjacency not symmetric at ({v}, {w})")
        self.nu = nu
        self._rows = rows

    @classmethod
    def from_edges(cls, nu: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * nu
        for u, v in edges:
            if not (0 <= u < nu and 0 <= v < nu):
                raise GraphError(f"edge ({u}, {v}) out of range for nu={nu}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows)

    @property
    def rows(self) -> tuple[int, ...]:
        """All adjacency rows, for internal loops over vertices already checked."""
        return self._rows

    def check_vertex(self, v: int) -> None:
        if not self.nu:
            raise GraphError(f"vertex {v} requested, but the graph has no vertices")
        if not (0 <= v < self.nu):
            raise GraphError(f"vertex {v} out of range 0..{self.nu - 1}")

    def row(self, v: int) -> int:
        self.check_vertex(v)
        return self._rows[v]

    def adjacent(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        return self.row(v) >> u & 1 == 1

    def degree(self, v: int) -> int:
        return self.row(v).bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.row(v)))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.nu):
            for v in bits(self._rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows) // 2

    def toggle_edge(self, u: int, v: int) -> "Graph":
        """New graph with the edge (u, v) added or removed."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise GraphError("cannot toggle a self-loop")
        rows = list(self._rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Graph(nu={self.nu}, edges={self.edge_count})"


@dataclass(frozen=True)
class TriplePartition:
    """A partition of a vertex subset into labeled 3-sets around a base vertex.

    kind "phi" partitions the neighborhood of the base vertex into triangles;
    kind "psi" partitions the non-neighbors into independent triples.
    """

    base_vertex: int
    cells: tuple[tuple[int, int, int], ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("phi", "psi"):
            raise GraphError(f"unknown partition kind {self.kind!r}")
        seen: set[int] = set()
        for cell in self.cells:
            if len(cell) != 3 or len(set(cell)) != 3 or list(cell) != sorted(cell):
                raise GraphError(f"cell {cell} is not a sorted 3-set")
            if seen & set(cell):
                raise GraphError(f"cell {cell} overlaps another cell")
            seen.update(cell)

    def covered(self) -> frozenset[int]:
        return frozenset(v for cell in self.cells for v in cell)

    def cell_of(self, v: int) -> tuple[int, int, int]:
        for cell in self.cells:
            if v in cell:
                return cell
        raise GraphError(f"vertex {v} not covered by the partition")


def common_neighbors(g: Graph, vs: Sequence[int]) -> tuple[int, ...]:
    """Intersection of the open neighborhoods of vs, ascending."""
    if not vs:
        raise GraphError("need at least one vertex")
    mask = g.row(vs[0])
    for v in vs[1:]:
        mask &= g.row(v)
    return tuple(bits(mask))


def is_srg_report(g: Graph) -> tuple[Optional[SrgParams], Optional[dict]]:
    """(params, None) when g is a nontrivial SRG, else (None, witness dict)."""
    if g.nu < 4:
        return None, {"reason": "too-few-vertices", "nu": g.nu}
    rows = g.rows
    k = rows[0].bit_count()
    for v in range(1, g.nu):
        d = rows[v].bit_count()
        if d != k:
            return None, {"reason": "not-regular", "vertex": v, "degree": d, "expected": k}
    lam: Optional[int] = None
    mu: Optional[int] = None
    for u in range(g.nu):
        row_u = rows[u]
        for v in range(u + 1, g.nu):
            count = (row_u & rows[v]).bit_count()
            if row_u >> v & 1:
                if lam is None:
                    lam = count
                elif lam != count:
                    return None, {
                        "reason": "adjacent-pair-mismatch",
                        "pair": [u, v],
                        "common": count,
                        "expected": lam,
                    }
            else:
                if mu is None:
                    mu = count
                elif mu != count:
                    return None, {
                        "reason": "nonadjacent-pair-mismatch",
                        "pair": [u, v],
                        "common": count,
                        "expected": mu,
                    }
    if lam is None or mu is None:
        return None, {"reason": "complete-or-edgeless"}
    try:
        return SrgParams(g.nu, k, lam, mu), None
    except ParameterError as exc:
        return None, {"reason": "trivial-parameters", "detail": str(exc)}


def is_srg(g: Graph) -> Optional[SrgParams]:
    """SRG parameters of g, or None when g is not a nontrivial SRG."""
    return is_srg_report(g)[0]


def is_diamond_free(g: Graph) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """Neighborhood criterion: every <N(v)> must be a disjoint union of cliques.

    Returns (True, None) or (False, witness) where the witness induces a
    diamond (four vertices carrying five edges).
    """
    rows = g.rows
    for v in range(g.nu):
        nbhd = rows[v]
        for x in bits(nbhd):
            closed_x = (rows[x] & nbhd) | (1 << x)
            for y in bits(rows[x] & nbhd):
                if y < x:
                    continue
                closed_y = (rows[y] & nbhd) | (1 << y)
                if closed_x != closed_y:
                    z = next(bits(closed_x ^ closed_y))
                    return False, tuple(sorted((v, x, y, z)))
    return True, None


def neighborhood_clique_cells(g: Graph, u: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of <N(u)>, each required to be a clique of the given size.

    This is the diamond-free neighborhood shape: raises with a diagnostic
    naming the offending component otherwise.  Cells come back sorted.
    """
    nbhd = g.row(u)
    rows = g.rows
    remaining = nbhd
    cells = []
    while remaining:
        start = remaining & -remaining
        component = start
        frontier = start
        while frontier:
            grown = component
            for x in bits(frontier):
                grown |= rows[x] & nbhd
            frontier = grown & ~component
            component = grown
        members = tuple(bits(component))
        if len(members) != size or any(
            (rows[x] & component).bit_count() != size - 1 for x in members
        ):
            raise NeighborhoodStructureError(
                f"component {members} of the neighborhood of {u} is not a {size}-clique"
            )
        cells.append(members)
        remaining &= ~component
    return tuple(sorted(cells))


def phi_partition(g: Graph, u: int) -> TriplePartition:
    """The unique partition of N(u) into triangles, cells in canonical order.

    Fails when some component of <N(u)> is not a triangle, i.e. the graph is
    outside the diamond-free lambda=2 regime at u.
    """
    cells = neighborhood_clique_cells(g, u, 3)
    return TriplePartition(base_vertex=u, cells=cells, kind="phi")


def maximal_cliques_via_edges(g: Graph) -> list[tuple[int, ...]]:
    """Edge closures {u, v} + common_neighbors(u, v), deduplicated and sorted.

    On a diamond-free SRG these are exactly the maximal cliques; a closure
    that is not a clique witnesses a diamond and raises.
    """
    rows = g.rows
    cliques: set[tuple[int, ...]] = set()
    for u, v in g.edges():
        mask = (rows[u] & rows[v]) | (1 << u) | (1 << v)
        for x in bits(mask):
            if (rows[x] | (1 << x)) & mask != mask:
                raise CliqueClosureError(
                    f"closure of edge ({u}, {v}) is not a clique "
                    f"(vertex {x} misses a member); graph is not diamond-free"
                )
        cliques.add(tuple(bits(mask)))
    return sorted(cliques)
