"""Immutable bitset graphs and the combinatorial predicates built on them.

Adjacency rows are Python ints used as bitsets, so common-neighbor counting
is an AND plus a popcount.  Graphs are immutable after construction; every
operation here is read-only.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass
from operator import or_, rshift
from typing import Callable, Iterable, Iterator, Optional, Sequence

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

    # _frame: localstats' cell frame at the last base vertex asked for, a
    # cache of values of the rows, so the graph stays immutable
    __slots__ = ("nu", "_rows", "_frame")

    def __init__(self, rows: Sequence[int]):
        rows = tuple(rows)
        nu = len(rows)
        if rows and (min(rows) < 0 or max(rows) >> nu):
            _raise_row_fault(rows)
        width = (nu + 7) >> 3
        data = pack_rows(rows, width)
        if _has_self_loop(data, width):
            _raise_row_fault(rows)
        transposed = transpose_packed(data, width)
        if transposed != data:
            # the first (v, w) in row order with w in row v but v not in row w
            one_sided = (rows[v] & ~unpack_row(transposed, width, v) for v in range(nu))
            v, extra = next((v, extra) for v, extra in enumerate(one_sided) if extra)
            raise GraphError(f"adjacency not symmetric at ({v}, {next(bits(extra))})")
        self.nu = nu
        self._rows = rows
        self._frame = None

    @classmethod
    def from_lower(cls, lower: Sequence[int]) -> "Graph":
        """The graph whose row j below the diagonal is lower[j], each 0 <= lower[j] < 2**j.

        Its rows are L | L^T from one transpose.  They are symmetric: bit x
        of row v is bit x of L[v] or bit v of L[x], and so is bit v of row
        x.  They are loop-free: bit v of L[v] is zero, since L[v] < 2**v,
        and so is bit v of L^T[v], which is bit v of L[v].  Each is below
        2**nu, since L^T has nu columns and L[v] < 2**v.  So __init__'s
        pack, transpose and compare would prove nothing more.
        """
        lower = tuple(lower)
        nu = len(lower)
        if any(map(rshift, lower, range(nu))):  # a negative row shifts to -1
            j = next(j for j, row in enumerate(lower) if row >> j)
            raise GraphError(f"lower-triangle row {j} is not in 0..2**{j} - 1")
        graph = cls.__new__(cls)
        graph.nu = nu
        graph._rows = tuple(map(or_, lower, transpose_rows(lower, nu)))
        graph._frame = None
        return graph

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
        return sum(map(int.bit_count, self._rows)) // 2

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


def _raise_row_fault(rows: tuple[int, ...]) -> None:
    """Raise for the first row, in order, with bits outside 0..nu-1 or a self-loop."""
    full = (1 << len(rows)) - 1
    for v, row in enumerate(rows):
        if row < 0 or row & ~full:
            raise GraphError(f"row {v} has bits outside 0..{len(rows) - 1}")
        if row >> v & 1:
            raise GraphError(f"self-loop at vertex {v}")


# A bit matrix is packed row by row into bytes: width bytes a row, byte k
# holding columns 8k..8k+7, and zero rows up to a multiple of 8.  Its
# transpose is then two C-level steps: transpose each 8 x 8 bit block in place
# with three delta swaps on an int, a chunk of about _CHUNK_BYTES at a time,
# and read row 8k + s of the result, byte q of which is byte k of packed row
# 8q + s, as one strided byte slice.  Only this module knows the format.
_CHUNK_BYTES = 1 << 16
_BIT_OF = tuple(bytes(x >> low & 1 for x in range(256)) for low in range(8))


def pack_rows(rows: Sequence[int], width: int) -> bytes:
    """The rows, each below 2**(8 * width), packed width bytes a row."""
    data = b"".join([row.to_bytes(width, "little") for row in rows])
    return data + bytes(-len(rows) % 8 * width)


def transpose_packed(data: bytes, width: int) -> bytes:
    """The transpose of a packed bit matrix of any shape.

    data holds 8h rows of width bytes, as pack_rows pads them.  The result
    holds 8 * width rows of h bytes: row c is column c of data.  A square
    matrix (h = width) comes back packed the same way.
    """
    data = _transpose_blocks(data, width)
    stride = 8 * width
    return b"".join([data[(c & 7) * width + (c >> 3)::stride] for c in range(8 * width)])


def unpack_row(data: bytes, width: int, v: int) -> int:
    """Row v of a packed bit matrix."""
    return int.from_bytes(data[v * width:(v + 1) * width], "little")


def transpose_rows(rows: Sequence[int], nu: int) -> list[int]:
    """The transpose of the rows, each below 2**nu: nu columns of len(rows) bits.

    Bit i of column x is bit x of rows[i].  Given the adjacency rows of an
    ordered vertex list, column x is N(x) on that list, renumbered into bits
    by list position.  Up to 64 rows are padded to 64, so that every column
    is one 8-byte word and one array conversion reads them all; more rows
    give columns of height bytes, each read from one slice of the transpose.
    """
    width = (nu + 7) >> 3
    data = pack_rows(rows, width)
    if len(rows) <= 64:
        data += bytes(64 * width - len(data))  # zero rows up to 64
        words = array("Q", transpose_packed(data, width))
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()[:nu]
    data = transpose_packed(data, width)
    height = (len(rows) + 7) >> 3
    return [int.from_bytes(data[start:start + height], "little") for start in range(0, nu * height, height)]


def _bit_field_rows(masks: Sequence[int], nu: int, width: int) -> list[int]:
    """Bits 0..nu-1 of each mask, bit x moved to bit x * width: one field of width bits each.

    width is a positive multiple of 8.  The masks, cut to nu bits, are laid
    one after another in a byte string, and for each bit position t of a
    byte one C-level translate gives bit t of every byte as a byte 0 or 1,
    which a strided slice assignment lays width bits apart into a zero
    little-endian buffer of the fields of all the masks.
    """
    step = width >> 3
    length = (nu + 7) >> 3
    if not length:
        return [0] * len(masks)
    full = (1 << nu) - 1
    data = b"".join([(mask & full).to_bytes(length, "little") for mask in masks])
    fields = bytearray(8 * step * len(data))
    for t in range(8):
        fields[t * step::8 * step] = data.translate(_BIT_OF[t])
    size = 8 * step * length
    view = memoryview(fields)
    return [int.from_bytes(view[start:start + size], "little") for start in range(0, len(fields), size)]


_NONZERO_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


def _nonzero_fields(value: int, count: int, width: int) -> int:
    """The mask of the fields of value, a sum of count fields of width bits, that are not zero.

    The inverse of _bit_field_rows on values whose fields are 0 or 1.  Each
    field is folded into its lowest byte, and those bytes become the
    binary digits 0 and 1, highest field first.
    """
    if not value:
        return 0
    step = width >> 3
    folded = value
    for shift in range(1, step):
        folded |= value >> 8 * shift
    lowest = folded.to_bytes(count * step, "little")[::step]
    return int(lowest.translate(_NONZERO_DIGITS)[::-1], 2)


def _has_self_loop(data: bytes, width: int) -> bool:
    """Whether a packed square bit matrix has a diagonal bit set."""
    # diagonal bit r = 8q + low lies in byte q * (8 width + 1) + low * width
    stride = 8 * width + 1
    return any(b"\x01" in data[low * width::stride].translate(_BIT_OF[low]) for low in range(8))


def _transpose_blocks(data: bytes, width: int) -> bytes:
    """The packed matrix with every 8 x 8 bit block transposed in place."""
    if not data:
        return data
    band = 8 * width  # the bytes of 8 rows, which divide len(data)
    chunk = band * max(1, min(_CHUNK_BYTES, len(data)) // band)
    masks = _block_swap_masks(width, chunk)
    parts = []
    for start in range(0, len(data), chunk):
        part = int.from_bytes(data[start:start + chunk], "little")
        for shift, mask in masks:
            swap = (part ^ part >> shift) & mask
            part ^= swap | swap << shift
        parts.append(part.to_bytes(min(chunk, len(data) - start), "little"))
    return b"".join(parts)


@functools.lru_cache(maxsize=8)
def _block_swap_masks(width: int, chunk: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of the delta swaps that transpose the 8 x 8 blocks of a chunk.

    The swap at b = 4, 2, 1 exchanges bit b of the row index with bit b of
    the column index: (r, c) with r & b == 0 < c & b trades places with
    (r + b, c - b), b * (8 width - 1) bits higher.
    """
    masks = []
    for block, pattern in ((4, 0xF0), (2, 0xCC), (1, 0xAA)):
        row = bytes([pattern]) * width  # the columns c with c & block set
        rows = (row * block + bytes(width * block)) * (chunk // (2 * block * width))
        masks.append((block * (8 * width - 1), int.from_bytes(rows, "little")))
    return tuple(masks)


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


def row_zero_counts(rows: Sequence[int]) -> tuple[Optional[int], Optional[int]]:
    """Common neighbours of vertex 0 with its least neighbour and with its least non-neighbour.

    None where 0 has no such vertex.  These are the first adjacent and the
    first non-adjacent pair of the u < v loop: on a strongly regular graph
    the counts are lam and mu, and on the collinearity masks of a partial
    quadrangle s - 1 and mu.
    """
    row = rows[0] if rows else 0

    def count(mask: int) -> Optional[int]:
        return (row & rows[(mask & -mask).bit_length() - 1]).bit_count() if mask else None

    return count(row), count((1 << len(rows)) - 1 & ~(row | 1))


def _srg_report(
    g: Graph, first_mismatch: Callable[[int, int, int], Optional[dict]]
) -> tuple[Optional[SrgParams], Optional[dict]]:
    """The SRG verdict around a pair test: (params, None), or (None, witness dict).

    Rejects fewer than 4 vertices, then the first vertex whose degree is
    not k, the degree of vertex 0, then a graph without an adjacent or a
    non-adjacent pair; reads lam and mu off row_zero_counts; asks
    first_mismatch(k, lam, mu) for the witness of the first failing pair;
    and last rejects trivial parameters.
    """
    if g.nu < 4:
        return None, {"reason": "too-few-vertices", "nu": g.nu}
    rows = g.rows
    k = rows[0].bit_count()
    for v in range(1, g.nu):
        d = rows[v].bit_count()
        if d != k:
            return None, {"reason": "not-regular", "vertex": v, "degree": d, "expected": k}
    lam, mu = row_zero_counts(rows)
    if lam is None or mu is None:
        return None, {"reason": "complete-or-edgeless"}
    witness = first_mismatch(k, lam, mu)
    if witness is not None:
        return None, witness
    try:
        return SrgParams(g.nu, k, lam, mu), None
    except ParameterError as exc:
        return None, {"reason": "trivial-parameters", "detail": str(exc)}


def _pair_mismatch(rows: Sequence[int], u: int, v: int, lam: int, mu: int) -> dict:
    """The witness dict of a pair whose common neighbours are not lam or mu as adjacency asks."""
    count = (rows[u] & rows[v]).bit_count()
    if rows[u] >> v & 1:
        return {"reason": "adjacent-pair-mismatch", "pair": [u, v], "common": count, "expected": lam}
    return {"reason": "nonadjacent-pair-mismatch", "pair": [u, v], "common": count, "expected": mu}


def orbit_rows(nu: int, orbits: Optional[Sequence[Sequence[int]]]) -> Iterator[tuple[int, int, int]]:
    """(r, |O_r|, earlier) for the least vertex r of each orbit O_r, ascending.

    earlier masks the least vertices up to and including r.  Every sweep
    that takes orbits visits them here, under this contract: orbits are the
    vertex orbits of a group G of automorphisms of the graph on 0..nu-1,
    each sorted, listed by least vertex, and None stands for the
    singletons, the plain loop.  On other orbits the verdict is
    unspecified.  The sweeps check what every a in G carries, verdict and
    witness, from a vertex or an unordered pair to its image.

    Lemma 1.  The first failing vertex u is the least of its orbit, else
    a(u) < u fails first.  So the rows meet the same first failure after
    the same passing vertices, and r counts for the |O_r| of its orbit.

    Lemma 2.  The rows r, each with the v outside earlier, cover every
    orbit of pairs and meet the u < v loop's first failing pair first.
    * Cover: with r the least vertex of x's orbit, no later than y's, and
      a(x) = r, {x, y} maps to {r, a(y)}, a(y) no least vertex before r.
    * Order: the loop's first failing row u is the least of its orbit, else
      a(u) < u maps its failing pair into the earlier row min(a(u), a(v)).
      Every pair met before row u, or in it with v < u, has an end below u,
      which the loop passed; row u's v > u are its own, in order.
    * Count: (r, v) over all v != r stands for the ordered pairs (x, y),
      x in O_r, |O_r| each, by an a_x with a_x(r) = x for each x.  A row
      skips (r, v) with v an earlier least vertex, met as (v, r), which a
      symmetric count weights |O_r| more.
    """
    earlier = 0
    for orbit in ((v,) for v in range(nu)) if orbits is None else orbits:
        r = orbit[0]
        earlier |= 1 << r
        yield r, len(orbit), earlier


def is_srg_report(
    g: Graph, orbits: Optional[Sequence[Sequence[int]]] = None
) -> tuple[Optional[SrgParams], Optional[dict]]:
    """(params, None) when g is a nontrivial SRG, else (None, witness dict).

    Regularity is checked on every row, and the pairs in the rows of
    orbit_rows against the lam and mu of row_zero_counts, the counts of the
    u < v loop's first adjacent and first non-adjacent pair; a regular graph
    without both is complete or edgeless.  orbits keep orbit_rows'
    contract, and by its Lemma 2 the witness is that loop's.
    """
    rows = g.rows

    def first_mismatch(k: int, lam: int, mu: int) -> Optional[dict]:
        rest = list(range(g.nu))  # the vertices outside earlier: a list iterates faster than bits()
        for u, _, _ in orbit_rows(g.nu, orbits):
            rest.remove(u)
            row_u = rows[u]
            for v in rest:
                if (row_u & rows[v]).bit_count() != (lam if row_u >> v & 1 else mu):
                    return _pair_mismatch(rows, u, v, lam, mu)
        return None

    return _srg_report(g, first_mismatch)


def line_sum_srg_report(
    g: Graph, lines: Sequence[Sequence[int]]
) -> tuple[Optional[SrgParams], Optional[dict]]:
    """is_srg_report(g), read off lines, the maximal cliques of g that
    maximal_cliques_via_edges returns, a vertex at a time.

    The lines through a, less a, partition N(a): each is a clique of
    <N(a)> plus a.  Give each vertex b its own field of width
    bits, and let F(M) put bit b of a mask M into field b.  The line sum
    S_L is the sum of F(N(x)) over the points x of L, and T_a the sum of
    S_L over the d_a lines through a.  Then
        T_a = d_a F(N(a)) + sum of F(N(x)) over x in N(a),
    so field b of T_a is |N(a) & N(b)|, plus d_a when a ~ b, and field a
    is k, as a is not in N(a).  A field is at most k + d_a, and so is
    every value it is compared with (lam < k and mu <= k); each line
    through a holds a vertex of N(a) of its own, so d_a <= k and a width
    holding 2k keeps every field from carrying into the next.  Vertex a
    passes iff T_a equals its expected value, k in field a, lam + d_a in
    the fields of N(a) and mu elsewhere: one integer comparison.

    The witness is that of the u < v loop.  Vertex a fails iff some pair
    {a, b} fails, as the count is symmetric, so the first failing vertex u
    is the least vertex of any failing pair, and the lowest differing
    field of T_u is the least v with {u, v} failing; v > u, since no pair
    {v, u} with v < u fails.  That is the loop's first failing pair.
    """
    rows = g.rows
    nu = g.nu

    def first_mismatch(k: int, lam: int, mu: int) -> Optional[dict]:
        width = 8 * -(-(2 * k).bit_length() // 8)
        fields = _bit_field_rows(rows, nu, width)
        sums = [0] * nu  # per vertex a, T_a
        through = [0] * nu  # per vertex a, d_a
        for line in lines:
            line_sum = sum([fields[x] for x in line])
            for x in line:
                sums[x] += line_sum
                through[x] += 1
        field = (1 << width) - 1
        base = mu * (((1 << nu * width) - 1) // field)  # mu in every field
        for a, total in enumerate(sums):
            expected = base + (lam + through[a] - mu) * fields[a] + (k - mu << a * width)
            if total != expected:
                differ = total ^ expected
                return _pair_mismatch(rows, a, ((differ & -differ).bit_length() - 1) // width, lam, mu)
        return None

    return _srg_report(g, first_mismatch)


def is_srg(g: Graph) -> Optional[SrgParams]:
    """SRG parameters of g, or None when g is not a nontrivial SRG.

    Kept as public API on purpose, the one-call check for library users;
    the analyses call is_srg_report, which also names a witness.
    """
    return is_srg_report(g)[0]


def _clique_masks(
    rows: Sequence[int], u: int, closed: Optional[Sequence[int]] = None
) -> Optional[set[int]]:
    """The cliques of <N(u)> as masks, or None when it is no disjoint union of cliques.

    Lemma: <N(u)> is a disjoint union of cliques iff the closed sets
    N[x] & N(u), x in N(u), partition N(u), that is iff the distinct ones
    have |N(u)| members together; they are then its cliques.  (Each x lies
    in its own set, and an edge x ~ y puts x in the sets of both.)  The
    closed rows N[x] = N(x) + x are closed[x]; a pass over all vertices
    builds them once with closed_rows, and a single call without them
    closes the rows of N(u) as it reads them.
    """
    nbhd = rows[u]
    if closed is None:
        cells = {(rows[x] & nbhd) | 1 << x for x in bits(nbhd)}
    else:
        cells = {closed[x] & nbhd for x in bits(nbhd)}
    return cells if sum(map(int.bit_count, cells)) == nbhd.bit_count() else None


def closed_rows(rows: Sequence[int]) -> list[int]:
    """The closed rows N[x] = N(x) + x of every vertex x."""
    return [row | 1 << x for x, row in enumerate(rows)]


def _diamond_at(rows: Sequence[int], v: int) -> tuple[int, int, int, int]:
    """A diamond at v, sorted, where _clique_masks(rows, v) is None: v, the first
    adjacent x < y in N(v) whose closed sets differ, and the least z of their
    difference, which is adjacent to v and to just one of x and y."""
    nbhd = rows[v]
    for x in bits(nbhd):
        closed_x = (rows[x] & nbhd) | (1 << x)
        for y in bits(rows[x] & nbhd & ~((2 << x) - 1)):
            closed_y = (rows[y] & nbhd) | (1 << y)
            if closed_x != closed_y:
                return tuple(sorted((v, x, y, next(bits(closed_x ^ closed_y)))))


def is_diamond_free(
    g: Graph, orbits: Optional[Sequence[Sequence[int]]] = None
) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """Neighborhood criterion: every <N(v)> must be a disjoint union of cliques.

    Returns (True, None) or (False, witness) where the witness induces a
    diamond (four vertices carrying five edges), found at the first vertex
    v that fails.  orbits keep orbit_rows' contract: only its rows are
    tested, and by its Lemma 1 the first of them that fails is that vertex.
    """
    rows = g.rows
    closed = closed_rows(rows)
    for v, _, _ in orbit_rows(g.nu, orbits):
        if _clique_masks(rows, v, closed) is None:
            return False, _diamond_at(rows, v)
    return True, None


def neighborhood_clique_cells(g: Graph, u: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The cliques of <N(u)>, sorted, each required to have the given size.

    This is the diamond-free neighborhood shape: raises with a diagnostic
    naming a diamond at u when <N(u)> is no disjoint union of cliques, else
    the first clique, by least vertex, of another size.
    """
    g.check_vertex(u)
    masks = _clique_masks(g.rows, u)
    if masks is None:
        raise NeighborhoodStructureError(
            f"the neighborhood of {u} is not a disjoint union of cliques: "
            f"{_diamond_at(g.rows, u)} induce a diamond"
        )
    cells = sorted(tuple(bits(mask)) for mask in masks)
    for cell in cells:
        if len(cell) != size:
            raise NeighborhoodStructureError(
                f"component {cell} of the neighborhood of {u} is not a {size}-clique"
            )
    return tuple(cells)


def phi_partition(g: Graph, u: int) -> TriplePartition:
    """The unique partition of N(u) into triangles, cells in canonical order.

    Fails when some component of <N(u)> is not a triangle, i.e. the graph is
    outside the diamond-free lambda=2 regime at u.
    """
    cells = neighborhood_clique_cells(g, u, 3)
    return TriplePartition(base_vertex=u, cells=cells, kind="phi")


def maximal_cliques_via_edges(g: Graph) -> list[tuple[int, ...]]:
    """Edge closures {u, v} + (N(u) & N(v)), deduplicated and sorted.

    On a diamond-free SRG these are exactly the maximal cliques; a closure
    that is not a clique witnesses a diamond and raises.  Each vertex u is
    decided at once: the closures of the edges at u are the closed sets
    N[x] & N(u), x in N(u), plus u, and they are all cliques iff
    _clique_masks finds the cliques of <N(u)>.  Each clique is added at its
    least vertex: from the cliques of <N(u)> with no member below u, so
    the list is sorted when each vertex's few cliques are.  An edge whose
    closure is no clique fails at both its ends, and a failing vertex u
    has such an edge (u, y); at the first failing vertex y > u, so the
    first such edge in edges() order lies in that vertex's row, and only
    the row's edges are walked to name it.
    """
    rows = g.rows
    closed = closed_rows(rows)
    cliques = []
    for u in range(g.nu):
        cells = _clique_masks(rows, u, closed)
        if cells is None:
            for v in bits(rows[u] >> (u + 1) << (u + 1)):
                mask = (rows[u] & rows[v]) | (1 << u) | (1 << v)
                for x in bits(mask):
                    if closed[x] & mask != mask:
                        raise CliqueClosureError(
                            f"closure of edge ({u}, {v}) is not a clique "
                            f"(vertex {x} misses a member); graph is not diamond-free"
                        )
        below = (1 << u) - 1
        cliques.extend(sorted(tuple(bits(c | 1 << u)) for c in cells if not c & below))
    return cliques
