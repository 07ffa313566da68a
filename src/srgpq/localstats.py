"""Local pair/triple statistics on diamond-free family members.

This module measures, on a concrete graph, the quantities that drive the
family's feasibility analysis: the triple counts p and cross-adjacency counts
q, the distribution of p-values over the non-neighborhood of a pair, the
partition of non-neighbors into independent triples, the one-regular
matchings between triangle cells and independent cells (as the masks that
automorphism.build_sigma propagates over), and the two exact block-matrix
identities tying the neighborhood of a vertex to the rest of the graph.

Checks distinguish asserted results from diagnostics measured outside the
proofs' hypotheses: the resolvent/rank identities and the p/q identity are
derived for lam <= n-1, the independent-triple machinery for lam = 2 members
with n >= 3.  On the 64-vertex witness (n = lam = 2) everything is measured
diagnostically; the identities still hold there, in degenerate form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import comb
from operator import add, or_
from typing import Callable, Iterator, Optional, Sequence

from srgpq.graphcore import (
    Graph,
    TriplePartition,
    _bit_field_rows,
    _clique_masks,
    _nonzero_fields,
    bits,
    neighborhood_clique_cells,
    orbit_rows,
    transpose_rows,
)
from srgpq.params import FamilyInfo
from srgpq.reports import CheckReport


class LocalStatsError(ValueError):
    """Base class for local-statistics failures."""


class FamilyPreconditionError(LocalStatsError):
    """The family parameters do not satisfy the operation's hypotheses."""


class PartitionError(LocalStatsError):
    """The non-neighborhood does not partition into independent triples."""


class MomentIdentityError(LocalStatsError):
    """A counting identity that holds on every diamond-free SRG failed."""


class PairBoundError(LocalStatsError):
    """A triple count exceeded the bound forced by the p/q identity."""


@dataclass(frozen=True)
class PairStats:
    """p = |N(u,v,w)| and q = number of adjacent cross-pairs between N(u,v) and N(u,w)."""

    u: int
    v: int
    w: int
    p: int
    q: int


@dataclass(frozen=True)
class MSpectrum:
    """Counts m_i of vertices outside N[u] u N[v] with p_u(v, x) = i, 0 <= i <= t_cap."""

    u: int
    v: int
    counts: tuple[int, ...]
    m0_witnesses: tuple[int, ...]

    @property
    def t_cap(self) -> int:
        return len(self.counts) - 1


def _require_positive_slope(fam: FamilyInfo) -> int:
    """n - lam + 1, validated positive (g = k side of the family, lam <= n)."""
    slope = fam.n - fam.lam + 1
    if fam.n <= 0 or slope <= 0:
        raise FamilyPreconditionError(
            f"need a family member with n > 0 and lam <= n, got n={fam.n}, lam={fam.lam}"
        )
    return slope


def pair_stats(g: Graph, u: int, v: int, w: int) -> PairStats:
    """Exact p and q for vertices v, w outside the closed neighborhood of u.

    q counts unordered adjacent pairs {x, y} with one endpoint in N(u, v) and
    the other in N(u, w); vertices in the intersection may serve as either
    endpoint but each pair is counted once.
    """
    if v == w:
        raise LocalStatsError("need v != w")
    for x in (v, w):
        if x == u or g.adjacent(u, x):
            raise LocalStatsError(f"vertex {x} is in the closed neighborhood of {u}")
    rows = g.rows
    row_u = rows[u]
    a_mask = row_u & rows[v]
    b_mask = row_u & rows[w]
    p = (a_mask & b_mask).bit_count()
    q = 0
    for x in bits(a_mask):
        q += (rows[x] & b_mask).bit_count()
    # unordered correction: pairs with both endpoints in the intersection were counted twice
    both = a_mask & b_mask
    overlap_edges = sum((rows[x] & both).bit_count() for x in bits(both)) // 2
    q -= overlap_edges
    return PairStats(u=u, v=v, w=w, p=p, q=q)


def verify_eq_pq(g: Graph, fam: FamilyInfo, orbits: Sequence[Sequence[int]]) -> CheckReport:
    """Check (n-lam+1) p + q over all triples: lam(n+1) if v ~ w, else mu.

    Scans every base vertex u and every pair v < w of non-neighbors of u;
    reports the first counterexample, with p and q as pair_stats gives them.
    orbits keep graphcore.orbit_rows' contract, and only its rows are
    scanned: by its Lemma 1 the first failing row is the first failing
    vertex, and triples_checked counts the triples of every vertex before it.

    A row v at a time, on the frame at u.  With A_v = N(u, v), S_x the
    fields of N(x) & outside and T'_x from _row_terms, field w of the sum
    of T'_x over A_v is slope p + q', q' = sum_{x in A_v} |N(x) & A_w| the
    adjacent pairs of A_v x A_w in order.  q' counts an edge inside
    A_v & A_w twice and every other pair of q once, so q = q' - e, and e
    is field w of E_v, the sum of S_x & S_y over the edges {x, y} inside
    A_v.  With gap = mu - lam (n + 1) = (n + 1)(n - lam) and X_v the
    fields of N(v) & outside, field w of

        L_v = sum_{x in A_v} T'_x - E_v + gap X_v

    is slope p + q + gap [v ~ w], which is mu iff the identity holds at
    (v, w), on any graph.  Row v holds iff the fields above v of L_v and
    of mu O agree, O the fields of outside.

    No field carries or borrows: slope > 0 and lam <= n make gap >= 0
    and n > 0 makes mu > 0, so a field of L_v is 0 off outside and
    between 0 and k (slope + depth) + gap on it, with k = |N(u)|, depth
    the most neighbours an x of N(u) has in N(u), p <= k and
    q <= q' <= k depth; the width holds that and mu.  So the integers
    above bit (v + 1) width are equal iff every w > v is right, and the
    lowest field where they differ is the first failing w of row v: the
    (v, w) loop's first failure, as the rows before passed.  Its value is
    that field less gap [v ~ w], and triples_checked adds the pairs of the
    rows before v and those of row v up to w.

    E_v is 0 unless A_v holds an edge of <N(u)>, so only the rows of
    inner compute it: on a frame of clique cells the rows that meet a
    cell twice, which miss the tables, and on singleton cells any row.

    Under the driver's preconditions (a diamond-free SRG in the family,
    n > 0) the identity holds at u iff verify_star's does: every
    off-diagonal entry of the star identity at u is mu times this one
    less its target, and the diagonal holds identically (derived in
    verify_star).
    """
    slope = _require_positive_slope(fam)
    mu = fam.n * (fam.n + 1)
    adjacent_target = fam.lam * (fam.n + 1)
    gap = mu - adjacent_target
    rows = g.rows
    per_vertex = [comb(g.nu - 1 - row.bit_count(), 2) for row in rows]  # triples at each u
    for u, _, _ in orbit_rows(g.nu, orbits):
        frame = _frame(g, u)
        local, order, outside = frame.local, frame.order, frame.outside
        depth = max((local[x].bit_count() for x in order), default=0)
        width = _width(max(len(order) * (slope + depth) + gap, mu))
        fields, terms = _row_terms(frame, width, slope)
        tables = frame.tables(terms, add)
        inner = 0  # the v whose A_v holds an edge {x, y} of <N(u)>
        for i, x in enumerate(order):
            for j in bits(local[x] & ~((2 << i) - 1)):
                inner |= rows[x] & rows[order[j]]
        target = mu * _bit_field_rows([outside], g.nu, width)[0]
        for v, x_v in frame.outside_fields(width):
            key = local[v]
            left = frame.fold(tables, key) + gap * x_v
            if inner >> v & 1:
                for i in bits(key):
                    for j in bits(local[order[i]] & key & ~((2 << i) - 1)):
                        left -= fields[i] & fields[j]
            low = (v + 1) * width
            if left >> low == target >> low:
                continue
            differ = (left ^ target) >> low
            w = v + 1 + ((differ & -differ).bit_length() - 1) // width
            adjacent = rows[v] >> w & 1
            p = (rows[u] & rows[v] & rows[w]).bit_count()
            value = (left >> w * width & ((1 << width) - 1)) - gap * adjacent
            m, before = outside.bit_count(), (outside & ((1 << v) - 1)).bit_count()
            triples = comb(m, 2) - comb(m - before, 2) + (outside & ((2 << w) - (2 << v))).bit_count()
            return CheckReport(
                name="eq-pq",
                passed=False,
                asserted=fam.in_resolvent_regime,
                details={"triples_checked": sum(per_vertex[:u]) + triples},
                witness={
                    "u": u,
                    "v": v,
                    "w": w,
                    "p": p,
                    "q": value - slope * p,
                    "value": value,
                    "expected": adjacent_target if adjacent else mu,
                },
            )
    return CheckReport(
        name="eq-pq",
        passed=True,
        asserted=fam.in_resolvent_regime,
        details={
            "triples_checked": sum(per_vertex),
            "adjacent_target": adjacent_target,
            "nonadjacent_target": mu,
        },
    )


def _m0_mask(g: Graph, u: int, v: int) -> int:
    """M_0(u, v) as a bitset: the vertices outside N[u] u N[v] adjacent to no common neighbor.

    The complement of the union of the closed neighborhoods and the rows of
    the common neighbors: one OR per common neighbor, no per-vertex test.
    u and v must be vertices of g; callers check them at their own boundary.
    """
    rows = g.rows
    row_u, row_v = rows[u], rows[v]
    covered = row_u | row_v | (1 << u) | (1 << v)
    for c in bits(row_u & row_v):
        covered |= rows[c]
    return ((1 << g.nu) - 1) & ~covered


class _Frame:
    """One base vertex u: N(u) ordered by cells, N(u, x) as local masks, and cell groups.

    The cells are the cliques of <N(u)> when it is a disjoint union of
    cliques, sorted by least vertex as neighborhood_clique_cells sorts
    them, and cliques says so; otherwise they are singletons.  order lists
    N(u) cell by cell, and local[x] is N(x) & N(u) with bit i for order[i],
    from one transpose.

    Per row the kernels at u want a sum or a union, over the y of
    N(u, v), of a value of y.  A non-neighbour v of u meets a cell in at
    most one vertex unless the graph has a diamond through u: two, x and
    y, with x ~ y would make u, v, x, y one.  So, as in the method of
    Arlazarov, Dinic, Kronrod and Faradzev, tables serve groups of
    consecutive cells: a group's table holds the sum or union for every
    key that takes at most one bit from each of its cells, and a row costs
    one lookup per group.  A row whose key is not in a table is summed
    over its bits, which is the same sum; so is every row of a frame
    without tables, where that costs less than the tables.  fold is that
    lookup.

    The kernels at one u share the frame through _frame.
    """

    __slots__ = ("rows", "u", "outside", "cells", "cliques", "order", "local", "groups", "m0", "members")

    def __init__(self, g: Graph, u: int):
        g.check_vertex(u)
        rows = g.rows
        row_u = rows[u]
        cliques = _clique_masks(rows, u)
        if cliques is None:
            cells = [(y,) for y in bits(row_u)]
        else:
            cells = sorted(tuple(bits(mask)) for mask in cliques)
        self.rows, self.u, self.cells, self.cliques = rows, u, cells, cliques is not None
        self.outside = ((1 << g.nu) - 1) & ~(row_u | 1 << u)
        self.order = [y for cell in cells for y in cell]
        self.local = transpose_rows([rows[y] for y in self.order], g.nu)
        size = max(map(len, cells), default=1)
        keys = sum((rows[y] & self.outside).bit_count() for y in self.order)  # bits of the rows' keys
        per = _group_size(len(cells), size, len(self.order), self.outside.bit_count(), keys)
        self.groups = []  # (shift, span, the local bits of each cell above shift)
        if not per:  # no tables: one group of no cells, whose table misses every key but 0
            self.groups.append((0, -1, []))
        else:
            shift = 0
            for start in range(0, len(cells), per):
                offsets, low = [], 0
                for cell in cells[start:start + per]:
                    offsets.append(range(low, low + len(cell)))
                    low += len(cell)
                self.groups.append((shift, (1 << low) - 1, offsets))
                shift += low
        self.m0: Optional[dict[int, int]] = None  # psi_partition's M_0 masks
        self.members: Optional[tuple] = None  # (psi cells, the transpose of their members' rows)

    def member_columns(self, cells: Sequence[tuple[int, ...]]) -> list[int]:
        """transpose_rows of the cells' member rows, cell by cell, kept for the last cells asked for."""
        if self.members is None or self.members[0] != cells:
            rows = self.rows
            self.members = (cells, transpose_rows([rows[x] for cell in cells for x in cell], len(rows)))
        return self.members[1]

    def tables(self, values: Sequence[int], combine: Callable[[int, int], int]) -> tuple:
        """(values, combine, tables) for fold, one (shift, span, table) in tables per group.

        table[key] combines values[shift + i] over the bits i of key.
        """
        tables = []
        for shift, span, offsets in self.groups:
            table = {0: 0}
            for cell in offsets:
                table.update([
                    (key | 1 << i, combine(total, values[shift + i]))
                    for key, total in list(table.items())
                    for i in cell
                ])
            tables.append((shift, span, table))
        return values, combine, tables

    def fold(self, tables: tuple, key: int) -> int:
        """The values of the local bits of key combined, from the tables of tables(values, combine)."""
        values, combine, groups = tables
        total = 0
        try:
            for shift, span, table in groups:
                total = combine(total, table[key >> shift & span])
        except KeyError:  # two bits in one cell of N(u), or no tables
            return reduce(combine, [values[i] for i in bits(key)], 0)
        return total

    def outside_fields(self, width: int) -> Iterator[tuple[int, int]]:
        """(v, X_v) for every non-neighbour v of u, ascending: X_v is N(v) & outside as fields of width bits.

        The rows are converted a batch of about 2**18 bits at a time.
        """
        rows, outside, nu = self.rows, list(bits(self.outside)), len(self.rows)
        batch = max(1, (1 << 18) // (nu * width + 1))
        for start in range(0, len(outside), batch):
            vertices = outside[start:start + batch]
            yield from zip(vertices, _bit_field_rows([rows[v] & self.outside for v in vertices], nu, width))


def _group_size(cells: int, size: int, k: int, rows: int, keys: int) -> int:
    """Cells per table group, or 0 for no tables: the option with the fewest additions.

    A group of g cells of `size` members has (size + 1)^g keys and the rows
    cost one lookup a group, so g costs ceil(cells / g) ((size + 1)^g + rows),
    among the g whose tables hold at most 8k values together, k = |N(u)|.
    Without tables each row is summed over its bits, which costs keys, the
    bits of all the rows' keys.  On the n = 3 witness (17 cells of 3, 204
    rows, 2448 key bits) that is 3, on GQ(3,5) (6 cells of 3, 45 rows, 270)
    2, and on rook4 (2 cells of 3, 9 rows, 18) 0.
    """
    best, least = 0, keys
    for g in range(1, cells + 1):
        groups = -(-cells // g)
        if g > 1 and groups * (size + 1) ** g > 8 * k:
            break
        cost = groups * ((size + 1) ** g + rows)
        if cost < least:
            best, least = g, cost
    return best


def _frame(g: Graph, u: int) -> _Frame:
    """The frame of g at u, kept on g until a frame at another vertex is asked for.

    So the kernels run at one u in turn, such as star, psi-regularity with
    its partition and then build_sigma's partition and matched pairs, build
    it, the M_0 masks and the psi members' columns once.
    """
    frame = g._frame
    if frame is None or frame.u != u:
        frame = g._frame = _Frame(g, u)
    return frame


def _clique_frame(g: Graph, u: int, size: int) -> _Frame:
    """The frame at u, whose cells must be the size-cliques of <N(u)>.

    Raises as neighborhood_clique_cells does, naming a diamond at u or the
    first cell of another size.
    """
    frame = _frame(g, u)
    if not frame.cliques or any(len(cell) != size for cell in frame.cells):
        neighborhood_clique_cells(g, u, size)  # raises
    return frame


def _m0_masks(frame: _Frame, targets: int) -> dict[int, int]:
    """M_0(u, v) for every v of targets, non-neighbours of u, from union tables.

    With outside the non-neighbours of u, M_0(u, v) is outside less N[v]
    and the N(c) & outside of the c in N(u, v), as in _m0_mask.
    """
    rows, outside = frame.rows, frame.outside
    tables = frame.tables([rows[y] & outside for y in frame.order], or_)
    return {v: outside & ~(rows[v] | 1 << v | frame.fold(tables, frame.local[v])) for v in bits(targets)}


def _bit_slices(sources: Sequence[int], common: int) -> list[int]:
    """planes[b] holds bit b of the number of c in common with bit x set in sources[c], for every x.

    Each source is added with a ripple carry; enough planes hold |common|,
    so no carry is ever lost.
    """
    planes = [0] * common.bit_count().bit_length()
    for c in bits(common):
        carry = sources[c]
        for b, plane in enumerate(planes):
            planes[b] = plane ^ carry
            carry &= plane
            if not carry:
                break
    return planes


def _spectrum_masks(
    sources: Sequence[int], common: int, outside: int, t_cap: int, u: int, v: int
) -> list[int]:
    """equals[i]: the vertices x of outside with p_u(v, x) = |N(x) & common| = i, i <= t_cap.

    sources[c], for each c in common, is the row of c or that row restricted
    to any superset of outside.  Raises PairBoundError at the lowest x of
    outside with a larger p.
    """
    planes = _bit_slices(sources, common)
    # Split outside plane by plane from the top: level[h] holds the x whose
    # high bits of p read h.  A part whose least value exceeds t_cap is not
    # kept; it is always the last, so after the last plane level[i] holds the
    # x with p = i for every i <= min(t_cap, 2^len(planes) - 1).
    level, uncounted = [outside], 0
    for b in range(len(planes) - 1, -1, -1):
        plane, split = planes[b], []
        for high, part in enumerate(level):
            ones = part & plane
            split.append(part ^ ones)
            if (2 * high + 1) << b <= t_cap:
                split.append(ones)
            else:
                uncounted |= ones
        level = split
    equals = level + [0] * (t_cap + 1 - len(level))
    if uncounted:
        x = (uncounted & -uncounted).bit_length() - 1
        p = sum((plane >> x & 1) << b for b, plane in enumerate(planes))
        raise PairBoundError(
            f"p_u(v, x) = {p} exceeds the cap {t_cap} at (u, v, x) = ({u}, {v}, {x})"
        )
    return equals


def _check_moments(counts: tuple[int, ...], nu: int, k: int, fam: FamilyInfo, u: int, v: int):
    """The three double-counting identities on the spectrum of (u, v), with k = deg(u)."""
    mu, lam = fam.n * (fam.n + 1), fam.lam
    checks = [
        (sum(counts), nu - 2 * k + mu - 2, "sum m_i"),
        (sum(i * c for i, c in enumerate(counts)), mu * (k - 2 * lam - 2), "sum i m_i"),
        (
            sum(i * (i - 1) // 2 * c for i, c in enumerate(counts)),
            (mu - 2) * mu * (mu - 1) // 2,
            "sum C(i,2) m_i",
        ),
    ]
    for got, want, label in checks:
        if got != want:
            raise MomentIdentityError(
                f"{label} = {got}, expected {want} at pair ({u}, {v})"
            )


def m_spectrum(g: Graph, fam: FamilyInfo, u: int, v: int) -> MSpectrum:
    """Full distribution of p_u(v, x) over x outside N[u] u N[v].

    The index is capped at t = floor(mu/(n-lam+1)); a larger p-value is
    impossible when the p/q identity holds and raises PairBoundError.  The
    three double-counting identities are asserted on the result, with the
    targets of k = deg(u).  The same kernel serves m_spectrum_histogram.
    """
    if u == v or g.adjacent(u, v):
        raise LocalStatsError(f"need a non-adjacent pair, got ({u}, {v})")
    t_cap = fam.n * (fam.n + 1) // _require_positive_slope(fam)
    rows = g.rows
    row_u, row_v = rows[u], rows[v]
    outside = ((1 << g.nu) - 1) & ~(row_u | row_v | (1 << u) | (1 << v))
    equals = _spectrum_masks(rows, row_u & row_v, outside, t_cap, u, v)
    counts = tuple(map(int.bit_count, equals))
    _check_moments(counts, g.nu, row_u.bit_count(), fam, u, v)
    return MSpectrum(u=u, v=v, counts=counts, m0_witnesses=tuple(bits(equals[0])))


@dataclass(frozen=True)
class SpectrumHistogram:
    """The m-spectra of a sweep: how many ordered pairs have each counts tuple.

    failure is None when every pair passed, else {"u", "v", "error"} for the
    first failing pair, and histogram then holds the pairs before it.
    """

    histogram: dict[tuple[int, ...], int]
    failure: Optional[dict]

    @property
    def pairs_checked(self) -> int:
        return sum(self.histogram.values())


def m_spectrum_histogram(
    g: Graph, fam: FamilyInfo, orbits: Sequence[Sequence[int]]
) -> SpectrumHistogram:
    """m_spectrum over every non-adjacent (u, v), u a vertex of the orbits, v ascending.

    orbits keep graphcore.orbit_rows' contract: the driver's for the full
    sweep, or ((u,),) for the pairs at u alone.  The result is
    that of the ordered loop which calls m_spectrum on each pair, u over
    the sorted vertices of the orbits, and stops at the first
    LocalStatsError: the same failure, message included, and the same
    histogram of the pairs before it.  When every pair passes, the
    histogram does not depend on the order of the pairs, so a cheaper pass
    computes it:

    * (u, v) and (v, u) count the same vertices, x outside N[u] u N[v], by
      the same |N(x) & N(u) & N(v)|, and an automorphism maps (u, v) to a
      pair with the same counts and degrees.  So the pairs are the rows of
      orbit_rows with the v outside earlier, weighted as its Lemma 2 counts
      them.  A pair whose v is a row stands for (v, u) too, and is checked
      against the moment targets of both, which differ through k = deg(u).
    * Per row u, the rows of the neighbours c of u are restricted to the
      outside of N[u] once, not once per v.
    * A (counts, degree) that has passed the moment checks is not checked
      again.

    When the pass meets a LocalStatsError, the ordered loop runs instead.
    The pass has weighted its pairs by orbit and counted pairs beyond the
    first failure, so only the loop rebuilds the histogram before it, which
    the failing report prints, and names that failure.
    """
    t_cap = fam.n * (fam.n + 1) // _require_positive_slope(fam)
    nu, rows = g.nu, g.rows
    sweep = list(orbit_rows(nu, orbits))
    size = {u: weight for u, weight, _ in sweep}
    for u in size:
        g.check_vertex(u)
    full = (1 << nu) - 1
    degrees = [row.bit_count() for row in rows]
    histogram: dict[tuple[int, ...], int] = {}
    passed = set()  # the (counts, degree) that passed the moment checks
    sources = [0] * nu  # sources[c] = rows[c] & outside(u), for c in N(u)
    try:
        for u, weight, earlier in sweep:
            row_u = rows[u]
            outside_u = full & ~(row_u | (1 << u))
            for c in bits(row_u):
                sources[c] = rows[c] & outside_u
            for v in bits(outside_u & ~earlier):
                row_v = rows[v]
                outside = outside_u & ~(row_v | (1 << v))
                equals = _spectrum_masks(sources, row_u & row_v, outside, t_cap, u, v)
                counts = tuple(map(int.bit_count, equals))
                other = size.get(v, 0)
                for x in (u, v) if other else (u,):
                    if (counts, degrees[x]) not in passed:
                        _check_moments(counts, nu, degrees[x], fam, u, v)
                        passed.add((counts, degrees[x]))
                histogram[counts] = histogram.get(counts, 0) + weight + other
    except LocalStatsError:
        histogram = {}
        for u in sorted(chain.from_iterable(orbits)):
            for v in bits(full & ~(rows[u] | (1 << u))):
                try:
                    counts = m_spectrum(g, fam, u, v).counts
                except LocalStatsError as exc:
                    return SpectrumHistogram(histogram, {"u": u, "v": v, "error": str(exc)})
                histogram[counts] = histogram.get(counts, 0) + 1
    return SpectrumHistogram(histogram, None)


def check_condition_con(g: Graph, orbits: Sequence[Sequence[int]]) -> CheckReport:
    """m_0(u, v) >= 1 for every non-adjacent pair, with the min/max recorded.

    orbits keep graphcore.orbit_rows' contract.  m_0 is the same on a pair
    and on its image under an automorphism, so only the rows of orbit_rows
    are computed, each with its non-neighbours outside earlier: by its
    Lemma 2 they cover every non-adjacent pair, and the first with m_0 = 0
    is the witness of the u < v loop.
    """
    m0_min: Optional[int] = None
    m0_max: Optional[int] = None
    witness = None
    for u, _, earlier in orbit_rows(g.nu, orbits):
        frame = _frame(g, u)
        for v, mask in _m0_masks(frame, frame.outside & ~earlier).items():
            m0 = mask.bit_count()
            m0_min = m0 if m0_min is None else min(m0_min, m0)
            m0_max = m0 if m0_max is None else max(m0_max, m0)
            if m0 == 0 and witness is None:
                witness = {"u": u, "v": v}
    pairs = sum(g.nu - 1 - row.bit_count() for row in g.rows) // 2
    passed = witness is None and pairs > 0
    return CheckReport(
        name="condition-con",
        passed=passed,
        asserted=True,  # the condition is definitional, no hypotheses needed
        details={"pairs": pairs, "m0_min": m0_min, "m0_max": m0_max},
        witness=witness,
    )


def psi_partition(g: Graph, fam: FamilyInfo, u: int) -> TriplePartition:
    """Partition of the non-neighbors of u into cells {v} + M_0(u, v).

    Requires m_0 = 2 with mutual membership, which makes each cell independent
    with pairwise p_u = 0 and the cells a partition: a member w of an earlier
    cell has M_0(u, w) equal to the rest of that cell, so no later cell
    through w passes the mutual check.

    The M_0(u, v) come from the union tables of the frame at u, once, unless
    _m0_mask fails the first cell, at the least non-neighbour, without them.
    """
    frame = _frame(g, u)
    m0_of = frame.m0
    if m0_of is None:
        v0 = next(bits(frame.outside), None)
        m0_of = {} if v0 is None else {v0: _m0_mask(g, u, v0)}
        if v0 is None or m0_of[v0].bit_count() == 2:  # else the loop raises at v0
            m0_of = frame.m0 = _m0_masks(frame, frame.outside)
    placed = 0
    cells = []
    for v in bits(frame.outside):
        if placed >> v & 1:
            continue
        m0 = m0_of[v]
        if m0.bit_count() != 2:
            raise PartitionError(
                f"m_0({u}, {v}) = {m0.bit_count()}, need exactly 2 for an independent-triple cell"
            )
        cell_mask = m0 | (1 << v)
        cell = tuple(bits(cell_mask))
        for member in cell:
            # M_0(u, v) is m0 itself; the other two members are checked for mutuality
            if member != v and m0_of[member] != cell_mask ^ (1 << member):
                other = tuple(bits(cell_mask ^ (1 << member)))
                raise PartitionError(
                    f"not a partition: vertex {member} of cell {cell} has "
                    f"M_0({u}, {member}) != {other}"
                )
        # b in M_0(u, a) puts b outside N[a] with no neighbor in N(u, a): the
        # cell is independent and p_u(a, b) = 0 for each of its pairs
        placed |= cell_mask
        cells.append(cell)
    return TriplePartition(base_vertex=u, cells=tuple(sorted(cells)), kind="psi")


def matched_pairs(
    g: Graph, u: int, phi: TriplePartition, psi: TriplePartition
) -> tuple[list[int], list[int]]:
    """For each phi cell, masks of its one-regular psi cells and of the reflected ones among them.

    Psi cell j is local bits 3j..3j+2, so local[a] is N(a) on the psi cells,
    and bit 3j of each mask.  The frame at u keeps local, which
    _psi_regularity reads too.  A phi cell (a0, a1, a2) is one-regular to psi
    cell j iff each of its three rows has one bit in field j and together
    they have all three.  The bijection then keeps the cell order, rotated,
    iff a1's bit is a0's bit moved up one place, cyclically; otherwise it
    reflects it, and carrying an orientation across it flips it.
    """
    if phi.base_vertex != u or psi.base_vertex != u:
        raise LocalStatsError("partitions built at a different base vertex")
    if phi.kind != "phi" or psi.kind != "psi":
        raise LocalStatsError("need a phi partition and a psi partition")
    local = _frame(g, u).member_columns(psi.cells)
    ones = ((1 << 3 * len(psi.cells)) - 1) // 7  # bit 3j for every psi cell j
    matched, flips = [], []
    for a0, a1, a2 in phi.cells:
        l0, l1, l2 = local[a0], local[a1], local[a2]
        union = l0 | l1 | l2
        onereg = union & union >> 1 & union >> 2 & ones
        for row in (l0, l1, l2):
            count = (row & ones) + (row >> 1 & ones) + (row >> 2 & ones)
            onereg &= count & ~(count >> 1)  # a count of 1
        rotated = ((l0 & ones * 3) << 1 | l0 >> 2 & ones) & l1
        matched.append(onereg)
        flips.append(onereg & ~(rotated | rotated >> 1 | rotated >> 2))
    return matched, flips


def _psi_regularity(
    g: Graph, n: int, u: int, cells: Sequence[tuple[int, int, int]]
) -> tuple[dict[int, int], int, Optional[dict]]:
    """The r_distribution, the violations and the first witness of the cells.

    Cell j is member bits 3j..3j+2, so packed[x] is N(x) on the cells and
    the sum of its three bit fields holds deg(x -> cell j) in field j.  Two
    cells induce a regular bipartite graph iff each side's members agree on
    the other's field (the edge count then makes both degrees r), so a pair
    is irregular where a member of either cell disagrees with the others.
    r = 3 is a field with both low bits set.  Each irregular pair, each
    r = 3 and each wrong p is one violation.  The witness comes from the
    first pair with a fault: its irregularity, else its r = 3, else its
    first wrong (a, b) in cell order.

    The p-values a row at a time.  Give every member b its own field of
    width bits, let F_x be the fields of packed[x] and P_a the sum of F_c
    over c in N(u) & N(a), summed by the tables of the frame at u: field b
    of P_a is p_u(a, b).  For a member a of cell j, the checked fields C
    are the members of the later cells k whose pair with j is regular with
    r <= 2.  r = 0 leaves a no neighbour in cell k, so p = max(0, r - 1)
    where a ~ b and p = n + r elsewhere is one rule,
    p + (n + 1) [a ~ b] == n + r, and row a is right iff

        (P_a & C) + (n + 1) (F_a & C) == n C + R_j

    with P_a & C the fields C keeps of P_a, and R_j the fields C keeps of
    r, each cell's three sums of F_a0, a0 the first member of j, repeated
    over its members.  Add K C, K = max(0, -n), to both sides.  A field of
    the left is then p + (n + 1) [a ~ b] + K, between 0 and k + |n| + 1
    with k = |N(u)| since p <= k, and one of the right is n + r + K,
    between 0 and |n| + 2; _width picks width above both.  So no field
    carries into the next, the two integers are equal iff every checked
    field is right, and the fields where they differ are the wrong b of
    row a, which n + r < 0 makes every non-adjacent b.
    """
    rows = g.rows
    row_u = rows[u]
    frame = _frame(g, u)
    packed = frame.member_columns(cells)
    count = len(cells)
    ones = ((1 << 3 * count) - 1) // 7  # bit 3j for every cell j
    degrees = [
        [(packed[a] & ones) + (packed[a] >> 1 & ones) + (packed[a] >> 2 & ones) for a in cell]
        for cell in cells
    ]
    irregular = [0] * count  # bit 3k of irregular[j]: the pair (j, k), j < k, is not regular
    for j, (d0, d1, d2) in enumerate(degrees):
        if d0 == d1 == d2:
            continue
        differ = (d0 ^ d1) | (d0 ^ d2)
        for field in bits((differ | differ >> 1) & ones & ~(1 << 3 * j)):
            k = field // 3
            irregular[min(j, k)] |= 1 << 3 * max(j, k)
    r_counts = [0, 0, 0, 0]
    violations = 0
    checked_cells, out_of_range = [], []  # per cell j: bits 3k of later regular cells, r <= 2 and r = 3
    for j in range(count):
        later = (1 << 3 * count) - (8 << 3 * j)  # the member bits of the cells after j
        regular = later & ones & ~irregular[j]
        low, high = degrees[j][0] & regular, degrees[j][0] >> 1 & regular
        by_r = (regular & ~(low | high), low & ~high, high & ~low, low & high)
        for r, fields in enumerate(by_r):
            r_counts[r] += fields.bit_count()
        violations += irregular[j].bit_count() + by_r[3].bit_count()
        checked_cells.append(by_r[0] | by_r[1] | by_r[2])
        out_of_range.append(by_r[3])

    degree, size = len(frame.order), 3 * count
    width = _width(degree + abs(n) + 2)
    converted = _bit_field_rows(
        [packed[y] for y in frame.order]
        + [packed[a] for cell in cells for a in cell]
        + [cells_j * 7 for cells_j in checked_cells],
        size,
        width,
    )
    values, adjacent, checks = converted[:degree], converted[degree:degree + size], converted[degree + size:]
    tables = frame.tables(values, add)
    full = (1 << width) - 1
    firsts = sum(full << 3 * j * width for j in range(count))  # the field of each first member
    repeat = 1 | 1 << width | 1 << 2 * width
    lift = max(0, -n)
    witness = None
    for j, cell in enumerate(cells):
        checked = checks[j]
        keep = checked * full
        first = adjacent[3 * j]
        r_fields = ((first + (first >> width) + (first >> 2 * width)) & firsts) * repeat
        right = n * checked + (r_fields & keep)
        wrong = []  # per member a, the b with a wrong p_u(a, b)
        for a, f_a in zip(cell, adjacent[3 * j:3 * j + 3]):
            left = (frame.fold(tables, frame.local[a]) & keep) + (n + 1) * (f_a & checked)
            wrong_a = 0
            if left != right:
                wrong_a = _nonzero_fields((left + lift * checked) ^ (right + lift * checked), size, width)
            violations += wrong_a.bit_count()
            wrong.append(wrong_a)
        members = wrong[0] | wrong[1] | wrong[2]
        faults = irregular[j] | out_of_range[j] | (members | members >> 1 | members >> 2) & ones
        if witness is not None or not faults:
            continue
        field = (faults & -faults).bit_length() - 1  # the first faulting pair (j, k)
        k, r = field // 3, degrees[j][0] >> field & 7
        pair = [cell, cells[k]]
        if irregular[j] >> field & 1:
            ends = [d >> field & 7 for d in degrees[j]] + [d >> 3 * j & 7 for d in degrees[k]]
            witness = {"reason": "not-regular", "cells": pair, "degrees": ends}
        elif r == 3:
            witness = {"reason": "r-out-of-range", "cells": pair, "r": r}
        else:
            a, wrong_a = next((a, w >> field & 7) for a, w in zip(cell, wrong) if w >> field & 7)
            b = cells[k][(wrong_a & -wrong_a).bit_length() - 1]
            p = (row_u & rows[a] & rows[b]).bit_count()
            expected = max(0, r - 1) if rows[a] >> b & 1 else n + r
            witness = {
                "reason": "p-value-mismatch", "pair": [a, b], "r": r, "p": p, "expected": expected,
            }
    return {r: c for r, c in enumerate(r_counts) if c}, violations, witness


def _width(top: int) -> int:
    """Bits per field of a row kernel: the least multiple of 8 with top < 2**width."""
    return 8 * max(1, -(-top.bit_length() // 8))


def verify_psi_regularity(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Every pair of distinct psi cells must induce an r-regular bipartite graph.

    r must lie in {0, 1, 2} and the triple counts must follow: adjacent pairs
    p = max(0, r-1), non-adjacent pairs p = n + r.  Proved for n >= 3; on
    smaller members the outcome is a diagnostic.

    One pass over all pairs of cells at once counts every violation and
    names the first.
    """
    psi = psi_partition(g, fam, u)
    r_distribution, violations, witness = _psi_regularity(g, fam.n, u, psi.cells)
    return CheckReport(
        name="psi-regularity",
        passed=violations == 0,
        asserted=fam.in_triple_regime,
        details={
            "base_vertex": u,
            "r_distribution": {str(r): c for r, c in sorted(r_distribution.items())},
            "violations": violations,
        },
        witness=witness,
    )


def verify_inv_formula(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Check the closed form of the neighborhood resolvent exactly.

    Multiplies the block matrix B by (nI - A_H) over the closed neighborhood
    H = <N[u]> and compares with n(n+1)^2(n-lam) I entrywise.  When lam = n
    the scalar vanishes and the identity is checked in its degenerate product
    form (nI - A_H is then singular); that case is a diagnostic.  The cells
    of N(u) are checked to be (lam+1)-cliques first, so A_H is the cone over
    m disjoint K_{lam+1} and the verdict depends only on (n, lam, k), k = |N(u)|.

    B is never built.  In the order of the frame at u (the cells of N(u),
    then u at position k), with d = n - lam, mu = n(n+1) and a = mu d,
    B is mu - 1 + a [i = j] inside a cell, -1 between cells, -d on the
    border and -d^2 at the corner.  An entry of the product is n B[i][j]
    less the sum of B[i][t] over the neighbours t of position j in H:

        diagonal, i = j < k:   n(mu - 1 + a) - lam(mu - 1) + d = (n + 1) a = scalar
        same cell, i != j:     n(mu - 1) - lam(mu - 1) - a + d = d mu - a = 0
        other cells:           -n + lam + d = 0
        (k, j), j < k:         -n d + lam d + d^2 = 0
        (i, k), i < k:         k - n d - (lam + 1) mu - a = k - n(n^2+3n-lam+1) = gap
        (k, k):                k d - n d^2 = scalar + d gap

    The first four are identities in (n, lam), so only the last two are
    computed.  In row-major order the first mismatch is (0, k) when k > 0
    and gap != 0, else (k, k) when d gap != 0.
    """
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    frame = _clique_frame(g, u, lam + 1)
    k = len(frame.order)
    scalar = n * (n + 1) ** 2 * (n - lam)
    gap = k - n * (n * n + 3 * n - lam + 1)  # |N(u)| less the family valency
    witness = None
    if k and gap:
        witness = {"entry": [frame.order[0], u], "value": gap, "expected": 0}
    elif (n - lam) * gap:
        witness = {"entry": [u, u], "value": scalar + (n - lam) * gap, "expected": scalar}
    return CheckReport(
        name="inv-formula",
        passed=witness is None,
        asserted=fam.in_resolvent_regime,
        details={"dimension": k + 1, "scalar": scalar, "degenerate": scalar == 0},
        witness=witness,
    )


def _star_width(n: int, lam: int, k: int) -> int:
    """Bits per field of verify_star's row sums: the least multiple of 8 with top < 2**width.

    top bounds every field: with mu = n(n+1), a = mu(n - lam) and
    k = |N(u)|, a left field is at most a k + mu (lam+1) k + scalar and a
    right one at most scalar n + k^2 (see verify_star).
    """
    mu = n * (n + 1)
    scalar = n * (n + 1) ** 2 * (n - lam)
    top = max(mu * (n - lam) * k + mu * (lam + 1) * k + scalar, scalar * n + k * k)
    return _width(top)


def _row_terms(frame: _Frame, width: int, slope: int) -> tuple[list[int], list[int]]:
    """S and T' by local bit of the frame: verify_star's and verify_eq_pq's row terms.

    S_x is N(x) & outside as fields of width bits and
    T'_x = slope S_x + sum_{y in N(x) & N(u)} S_y, for x in N(u).
    """
    fields = _bit_field_rows([frame.rows[y] & frame.outside for y in frame.order], len(frame.rows), width)
    local = frame.local
    terms = [sum([fields[j] for j in bits(local[x])], slope * s_x) for x, s_x in zip(frame.order, fields)]
    return fields, terms


def verify_star(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Check the rank identity in Schur-complement form, exactly.

    With the adjacency matrix split over (non-neighbors | closed neighborhood)
    as [[X, Y], [Y^T, A_H]], verifies scalar*(nI - X) == Y B Y^T entrywise,
    where B is the closed-form block matrix for scalar*(nI - A_H)^{-1}.  For
    lam = n the scalar is zero and the right side must vanish identically.

    B is never built.  No non-neighbor v of u is adjacent to u, so the row
    y_v of Y is zero in u's column, and the border b and corner c of B, which
    live only in that row and column, drop out.  What is left of B is
    a I + mu J on each (lam+1)-clique cell C of N(u), minus J, so

        (Y B Y^T)[v][w] = a |A_v & A_w| + mu sum_C |A_v & C| |A_w & C| - d_v d_w

    with A_v = N(u, v), d_v = |A_v|, mu = n(n+1) and a = mu(n - lam).

    A row at a time.  Give every vertex w its own field of width bits in
    one integer, e_w = 1 << w * width, and let S_y be the fields of
    N(y) & outside for y in N(u), T_y = a S_y + mu sum_{y' in C(y)} S_y'
    and D = sum_{y in N(u)} S_y = sum_w d_w e_w.  N(y) & N(u) is C(y)
    less y, so T_y = mu T'_y, T'_y = (n - lam + 1) S_y + sum of S_y' over
    y' in N(y) & N(u) as _row_terms gives it.  The clique sum is
    sum over y in A_v of |C(y) & A_w|, so row v of Y B Y^T is
    sum_{y in A_v} T_y - d_v D, and row v of the identity holds iff

        sum_{y in A_v} T_y + scalar X_v == scalar n e_v + d_v D

    with X_v the fields of N(v) & outside.  Both sides are sums of
    non-negative fields: a, mu and scalar are non-negative since
    0 < n and lam <= n.  A left field is at most a k + mu (lam+1) k + scalar
    and a right one at most scalar n + k^2, k = |N(u)|, since
    |A_v & A_w| <= k and the cells have lam + 1 members; _star_width picks
    width above both.  So no field carries into the next, and the two
    integers are equal iff every entry of row v is.

    The frame at u, whose cells are checked to be these cliques, sums
    T_y - D over A_v with its tables, so a row costs one lookup per group
    of cells and X_v comes from one conversion for a batch of rows: the
    row holds iff sum_{y in A_v} (T_y - D) + scalar X_v == scalar n e_v,
    the identity above less d_v D on both sides.

    The rows are scanned in ascending v.  Both sides of the identity are
    symmetric, so at the first failing row v every entry (v, w) with w < v
    in outside equals (w, v), which passed in row w, and the fields of the
    vertices not in outside are zero on both sides.  The lowest differing
    field is then the first mismatch of row v, at some w >= v, and no
    earlier row holds one: it is the first mismatch in row-major order.
    Its entry's own sides are recovered by taking scalar X_vw + d_v d_w
    off both fields.

    Star and eq-pq.  Under the driver's preconditions, a diamond-free SRG
    in the family with n > 0, star holds at u iff verify_eq_pq's identity
    holds at every pair of non-neighbours of u.  There d_v = mu for every
    v outside, and A_v meets each cell at most once (two members would
    make a diamond with u and v), so with p = |A_v & A_w| and q the
    adjacent pairs of A_v x A_w, which lie in one cell,
    sum_C |A_v & C| |A_w & C| = p + q.  For v != w, entry (v, w) is then

        a p + mu (p + q) - mu^2 = mu ((n - lam + 1) p + q - mu),

    and it must be -scalar [v ~ w] = -mu (n + 1)(n - lam) [v ~ w].  As
    mu > 0, that is (n - lam + 1) p + q = mu where v !~ w and
    mu - (n + 1)(n - lam) = lam (n + 1) where v ~ w: eq-pq's two targets.
    The diagonal holds identically: a mu + mu mu - mu^2 = a mu = scalar n.
    check-star adds the inv-formula at u.
    """
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    frame = _clique_frame(g, u, lam + 1)
    rows = g.rows
    row_u = rows[u]
    mu = n * (n + 1)
    scalar = n * (n + 1) ** 2 * (n - lam)
    k = row_u.bit_count()
    width = _star_width(n, lam, k)

    fields, terms = _row_terms(frame, width, n - lam + 1)
    total = sum(fields)  # D
    tables = frame.tables([mu * term - total for term in terms], add)  # T_y - D by local bit

    witness = None
    diagonal = scalar * n
    for v, x_v in frame.outside_fields(width):
        key = frame.local[v]
        left = frame.fold(tables, key) + scalar * x_v
        if left != diagonal << v * width:
            d_v = key.bit_count()
            left += d_v * total
            right = (diagonal << v * width) + d_v * total
            differ = left ^ right
            w = ((differ & -differ).bit_length() - 1) // width
            ones = (1 << width) - 1
            shared = scalar * (rows[v] >> w & 1) + d_v * (row_u & rows[w]).bit_count()
            witness = {
                "entry": [v, w],
                "lhs": (right >> w * width & ones) - shared,
                "rhs": (left >> w * width & ones) - shared,
            }
            break
    return CheckReport(
        name="star-identity",
        passed=witness is None,
        asserted=fam.in_resolvent_regime,
        details={
            "base_vertex": u,
            "outside_block": frame.outside.bit_count(),
            "neighborhood_block": k + 1,
            "scalar": scalar,
            "degenerate": scalar == 0,
        },
        witness=witness,
    )
