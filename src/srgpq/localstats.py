"""Local pair/triple statistics on diamond-free family members.

This module measures, on a concrete graph, the quantities that drive the
family's feasibility analysis: the triple counts p and cross-adjacency counts
q, the distribution of p-values over the non-neighborhood of a pair, the
partition of non-neighbors into independent triples, matchings between
triangle cells and independent cells, and the two exact block-matrix
identities tying the neighborhood of a vertex to the rest of the graph.

Checks distinguish asserted results from diagnostics measured outside the
proofs' hypotheses: the resolvent/rank identities and the p/q identity are
derived for lam <= n-1, the independent-triple machinery for lam = 2 members
with n >= 3.  On the 64-vertex witness (n = lam = 2) everything is measured
diagnostically; the identities still hold there, in degenerate form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from srgpq.graphcore import Graph, TriplePartition, bits, neighborhood_clique_cells, transpose_rows
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


@dataclass(frozen=True)
class MatchedPairTable:
    """Classification of every (triangle cell, independent cell) pair at a vertex.

    kinds[i][j] is "edgeless", "one-regular", or "other"; for one-regular
    pairs, bijections[(i, j)] maps each triangle vertex to its unique neighbor
    in the independent cell.
    """

    base_vertex: int
    phi_cells: tuple[tuple[int, int, int], ...]
    psi_cells: tuple[tuple[int, int, int], ...]
    kinds: tuple[tuple[str, ...], ...]
    bijections: dict[tuple[int, int], dict[int, int]]

    def matched_degree(self, j: int) -> int:
        """Number of triangle cells matched to independent cell j."""
        return sum(1 for i in range(len(self.phi_cells)) if self.kinds[i][j] == "one-regular")


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


def _spread(width: int, copies: int) -> int:
    """The multiplier that lays copies side-by-side copies of a mask narrower than width bits."""
    return sum(1 << (s * width) for s in range(copies))


def verify_eq_pq(g: Graph, fam: FamilyInfo, orbits: Sequence[Sequence[int]]) -> CheckReport:
    """Check (n-lam+1) p + q over all triples: lam(n+1) if v ~ w, else mu.

    Scans every base vertex u and every pair v < w of non-neighbors of u;
    reports the first counterexample, with p and q as pair_stats gives them.
    orbits are the vertex orbits of a group of automorphisms, each sorted,
    by least vertex, such as vertex_orbits returns; singletons scan every
    vertex.  The verdict at u and its first counterexample are those at any
    image of u, so only the least vertex of each orbit is scanned: the first
    failing vertex is the least of its orbit, and triples_checked counts the
    triples of every vertex before it.

    Per base vertex, with A_v = N(u, v) in bits local to N(u):
    * slope * p is the popcount of slope copies of A_v & A_w;
    * the ordered count q' = sum over x in A_v of |N(x) & A_w| is
      sum over y in A_w of m_v(y), m_v(y) = |N(y) & A_v|, so it is the
      popcount of A_w against the levels {y : m_v(y) > t}, t < max |N(y) & N(u)|;
    * q = q' - e, where e counts the edges of <N(u)> inside A_v & A_w: with
      E_v the edges of <N(u)> with both ends in A_v, e = |E_v & E_w| and
      |E_v| - e = |E_v & ~E_w|.
    So one mask z_v per v and one mask w_w per w, built once per u, give
    slope * p + q + |E_v| as the single popcount of z_v & w_w.
    """
    slope = _require_positive_slope(fam)
    mu = fam.n * (fam.n + 1)
    adjacent_target = fam.lam * (fam.n + 1)
    full = (1 << g.nu) - 1
    rows = g.rows
    per_vertex = [comb(g.nu - 1 - row.bit_count(), 2) for row in rows]  # triples at each u
    index = [0] * g.nu
    for orbit in orbits:
        u = orbit[0]
        row_u = rows[u]
        triples = sum(per_vertex[:u])
        outside_mask = full & ~(row_u | (1 << u))
        outside = tuple(bits(outside_mask))
        local = tuple(bits(row_u))
        k = len(local)
        packed = transpose_rows([rows[y] for y in local], g.nu)  # N(x) & N(u), local bits
        local_rows = [packed[x] for x in local]
        # number the edges of <N(u)>; low[i] / high[i]: edges whose lower / higher end is i
        low, high = [0] * k, [0] * k
        edges = 0
        for i, row in enumerate(local_rows):
            for j in bits(row & ~((2 << i) - 1)):
                low[i] |= 1 << edges
                high[j] |= 1 << edges
                edges += 1
        depth = max((row.bit_count() for row in local_rows), default=0)  # bounds m_v(y)
        copies = slope + depth
        spread_z, spread_w = _spread(k, slope), _spread(k, copies)
        z_masks, w_masks, e_counts = [], [], []
        for i, v in enumerate(outside):
            index[v] = i
            a = packed[v]
            reach = lows = highs = 0
            for x in bits(a):
                reach |= local_rows[x]
                lows |= low[x]
                highs |= high[x]
            inner = lows & highs  # E_v
            z = a * spread_z | inner << (copies * k)
            for y in bits(reach):  # the level t of m_v sits in copy slope + t
                for t in range((local_rows[y] & a).bit_count()):
                    z |= 1 << ((slope + t) * k + y)
            z_masks.append(z)
            w_masks.append(a * spread_w | (((1 << edges) - 1) & ~inner) << (copies * k))
            e_counts.append(inner.bit_count())
        for i, v in enumerate(outside):
            z = z_masks[i]
            counts = [(z & w).bit_count() for w in w_masks[i + 1 :]]
            expected = [mu + e_counts[i]] * len(counts)
            for w in bits(rows[v] & outside_mask & ~((2 << v) - 1)):
                expected[index[w] - i - 1] = adjacent_target + e_counts[i]
            if counts == expected:
                triples += len(counts)
                continue
            j = next(j for j, (got, want) in enumerate(zip(counts, expected)) if got != want)
            w = outside[i + 1 + j]
            p = (row_u & rows[v] & rows[w]).bit_count()
            value = counts[j] - e_counts[i]
            return CheckReport(
                name="eq-pq",
                passed=False,
                asserted=fam.in_resolvent_regime,
                details={"triples_checked": triples + j + 1},
                witness={
                    "u": u,
                    "v": v,
                    "w": w,
                    "p": p,
                    "q": value - slope * p,
                    "value": value,
                    "expected": expected[j] - e_counts[i],
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

    orbits are vertex orbits of a group of automorphisms, each sorted, by
    least vertex: vertex_orbits' for the full sweep, or ((u,),) for the
    pairs at u alone.  The result is that of the ordered loop which calls
    m_spectrum on each pair, u over the sorted vertices of the orbits, and
    stops at the first LocalStatsError: the same failure, message included,
    and the same histogram of the pairs before it.  When every pair passes,
    the histogram does not depend on the order of the pairs, so a cheaper
    pass computes it:

    * (u, v) and (v, u) count the same vertices, x outside N[u] u N[v], by
      the same |N(x) & N(u) & N(v)|.  So over all rows each unordered pair
      is computed once, at v > u, and checked against the moment targets
      of both rows, which differ through k = deg(u).
    * Per row u, the rows of the neighbours c of u are restricted to the
      outside of N[u] once, not once per v.
    * A (counts, degree) that has passed the moment checks is not checked
      again.
    * An automorphism maps (u, v) to a pair with the same counts and the
      same degrees, so only the least vertex r of each orbit is a row.
      Each pair (r, v) stands for |O_r| ordered pairs, and for |O_v| more
      when v is the least of its orbit O_v, in which case it is checked at
      both ends and the row of v skips r.  With every orbit a singleton
      this is the pass above.

    When the pass meets a LocalStatsError, the ordered loop runs instead:
    the failing pair fails there too, and the loop names the first failure
    and the histogram before it exactly.
    """
    t_cap = fam.n * (fam.n + 1) // _require_positive_slope(fam)
    nu, rows = g.nu, g.rows
    size = {orbit[0]: len(orbit) for orbit in orbits}  # the rows, with their orbit sizes
    for u in size:
        g.check_vertex(u)
    full = (1 << nu) - 1
    degrees = [row.bit_count() for row in rows]
    histogram: dict[tuple[int, ...], int] = {}
    passed = set()  # the (counts, degree) that passed the moment checks
    sources = [0] * nu  # sources[c] = rows[c] & outside(u), for c in N(u)
    skipped = 0  # the rows before u
    try:
        for u, weight in size.items():
            row_u = rows[u]
            outside_u = full & ~(row_u | (1 << u))
            for c in bits(row_u):
                sources[c] = rows[c] & outside_u
            for v in bits(outside_u & ~skipped):
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
            skipped |= 1 << u
    except LocalStatsError:
        histogram = {}
        for u in sorted(x for orbit in orbits for x in orbit):
            for v in bits(full & ~(rows[u] | (1 << u))):
                try:
                    counts = m_spectrum(g, fam, u, v).counts
                except LocalStatsError as exc:
                    return SpectrumHistogram(histogram, {"u": u, "v": v, "error": str(exc)})
                histogram[counts] = histogram.get(counts, 0) + 1
    return SpectrumHistogram(histogram, None)


def check_condition_con(g: Graph, orbits: Sequence[Sequence[int]]) -> CheckReport:
    """m_0(u, v) >= 1 for every non-adjacent pair, with the min/max recorded.

    orbits are the vertex orbits of a group of automorphisms, each sorted,
    by least vertex, such as vertex_orbits returns.  m_0 is the same on a
    pair and on its image under an automorphism, so only the pairs at the
    least vertex r of each orbit are computed: r with every non-neighbour
    v, except the least vertices of the orbits before r's, whose pairs with
    r were computed in their own rows.  Every non-adjacent pair is the
    image of one of these, and the first vertex in a pair with m_0 = 0,
    which the witness names with its least such partner, is the least of
    its orbit.
    """
    m0_min: Optional[int] = None
    m0_max: Optional[int] = None
    witness = None
    full = (1 << g.nu) - 1
    skipped = 0  # the least vertices of the orbits before u's
    for orbit in orbits:
        u = orbit[0]
        for v in bits(full & ~(g.rows[u] | skipped | (1 << u))):
            m0 = _m0_mask(g, u, v).bit_count()
            m0_min = m0 if m0_min is None else min(m0_min, m0)
            m0_max = m0 if m0_max is None else max(m0_max, m0)
            if m0 == 0 and witness is None:
                witness = {"u": u, "v": v}
        skipped |= 1 << u
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
    """
    row_u = g.row(u)
    outside = ((1 << g.nu) - 1) & ~(row_u | (1 << u))
    placed = 0
    cells = []
    for v in bits(outside):
        if placed >> v & 1:
            continue
        m0 = _m0_mask(g, u, v)
        if m0.bit_count() != 2:
            raise PartitionError(
                f"m_0({u}, {v}) = {m0.bit_count()}, need exactly 2 for an independent-triple cell"
            )
        cell_mask = m0 | (1 << v)
        cell = tuple(bits(cell_mask))
        for member in cell:
            # M_0(u, v) is m0 itself; the other two members are checked for mutuality
            if member != v and _m0_mask(g, u, member) != cell_mask ^ (1 << member):
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
) -> MatchedPairTable:
    """Classify every (phi cell, psi cell) pair as edgeless, one-regular, or other.

    Each psi cell is one mask, and each phi vertex's row is restricted once
    to the union of the psi cells.  A psi cell that no row of a phi cell
    touches is edgeless; only the touched ones are classified.
    """
    if phi.base_vertex != u or psi.base_vertex != u:
        raise LocalStatsError("partitions built at a different base vertex")
    if phi.kind != "phi" or psi.kind != "psi":
        raise LocalStatsError("need a phi partition and a psi partition")
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in psi.cells]
    covered = sum(masks)
    kinds = []
    bijections: dict[tuple[int, int], dict[int, int]] = {}
    for i, phi_cell in enumerate(phi.cells):
        a0, a1, a2 = phi_cell
        r0, r1, r2 = (g.row(a) & covered for a in phi_cell)
        touched = r0 | r1 | r2
        row_kinds = []
        for j, mask in enumerate(masks):
            if not touched & mask:
                row_kinds.append("edgeless")
                continue
            m0, m1, m2 = r0 & mask, r1 & mask, r2 & mask
            # one neighbour each, and together all three: a bijection
            if m0 | m1 | m2 == mask and m0.bit_count() == m1.bit_count() == m2.bit_count() == 1:
                row_kinds.append("one-regular")
                bijections[(i, j)] = {
                    a0: m0.bit_length() - 1,
                    a1: m1.bit_length() - 1,
                    a2: m2.bit_length() - 1,
                }
            else:
                row_kinds.append("other")
        kinds.append(tuple(row_kinds))
    return MatchedPairTable(
        base_vertex=u,
        phi_cells=phi.cells,
        psi_cells=psi.cells,
        kinds=tuple(kinds),
        bijections=bijections,
    )


def _psi_regularity(
    g: Graph, n: int, u: int, cells: Sequence[tuple[int, int, int]]
) -> tuple[dict[int, int], int, Optional[dict]]:
    """The r_distribution, the violations and the first witness of the cells.

    Cell j is local bits 3j..3j+2, so packed[x] is N(x) on the cells and the
    sum of its three bit fields holds deg(x -> cell j) in field j.  Two cells
    induce a regular bipartite graph iff each side's members agree on the
    other's field (the edge count then makes both degrees r), so a pair is
    irregular where a member of either cell disagrees with the others.  r = 3
    is a field with both low bits set.  For a member a, p_u(a, b) for every b
    at once is the bit-sliced sum of packed[c] over c in N(u) & N(a); over the
    later cells it must equal max(0, r - 1) where a ~ b and n + r elsewhere,
    plane by plane, with r replicated from field to member bits by * 7; where
    n + r < 0 every non-adjacent p is wrong.  Each irregular pair, each r = 3
    and each wrong p is one violation.  The witness comes from the first pair
    with a fault: its irregularity, else its r = 3, else its first wrong
    (a, b) in cell order.
    """
    rows = g.rows
    row_u = rows[u]
    packed = transpose_rows([rows[x] for cell in cells for x in cell], g.nu)
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
    width = max(1, n + 2).bit_length()  # the planes of the largest expected p
    due = [(max(0, r - 1), n + r) for r in range(3)]  # the expected p where a ~ b, and where not
    r_counts = [0, 0, 0, 0]
    violations = 0
    witness = None
    for j, cell in enumerate(cells):
        later = (1 << 3 * count) - (8 << 3 * j)  # the member bits of the cells after j
        regular = later & ones & ~irregular[j]
        low, high = degrees[j][0] & regular, degrees[j][0] >> 1 & regular
        by_r = (regular & ~(low | high), low & ~high, high & ~low, low & high)
        for r, fields in enumerate(by_r):
            r_counts[r] += fields.bit_count()
        violations += irregular[j].bit_count() + by_r[3].bit_count()
        # the expected p in planes over the member bits; never: the fields where n + r < 0
        together, apart = [0] * width, [0] * width
        never = 0
        for (p_adjacent, p_apart), fields in zip(due, by_r):
            mask = fields * 7
            if p_apart < 0:
                never |= mask
            for t in range(width):
                together[t] |= mask if p_adjacent >> t & 1 else 0
                apart[t] |= mask if p_apart >= 0 and p_apart >> t & 1 else 0
        checked = (by_r[0] | by_r[1] | by_r[2]) * 7
        wrong = []  # per member a, the b with a wrong p_u(a, b)
        for a in cell:
            planes = _bit_slices(packed, row_u & rows[a])  # p_u(a, b) at every b
            adjacent = packed[a]
            wrong_a = never & ~adjacent
            for t in range(max(width, len(planes))):  # a p past the expected planes is wrong too
                got = planes[t] & checked if t < len(planes) else 0
                want = apart[t] ^ (adjacent & (apart[t] ^ together[t])) if t < width else 0
                if got != want:
                    wrong_a |= got ^ want
            violations += wrong_a.bit_count()
            wrong.append(wrong_a)
        members = wrong[0] | wrong[1] | wrong[2]
        faults = irregular[j] | by_r[3] | (members | members >> 1 | members >> 2) & ones
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


def _neighborhood_ordering(g: Graph, u: int, lam: int) -> list[int]:
    """N[u] ordered by the size-(lam+1) clique cells of the neighborhood, u last."""
    cells = neighborhood_clique_cells(g, u, lam + 1)
    return [x for cell in cells for x in cell] + [u]


def verify_inv_formula(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Check the closed form of the neighborhood resolvent exactly.

    Multiplies the block matrix B by (nI - A_H) over the closed neighborhood
    H = <N[u]> and compares with n(n+1)^2(n-lam) I entrywise.  When lam = n
    the scalar vanishes and the identity is checked in its degenerate product
    form (nI - A_H is then singular); that case is a diagnostic.  The cells
    of N(u) are checked to be (lam+1)-cliques first, so A_H is the cone over
    m disjoint K_{lam+1} and the verdict depends only on (n, lam, k), k = |N(u)|.

    B is never built.  In the order of _neighborhood_ordering (the cells of
    N(u), then u at position k), with d = n - lam, mu = n(n+1) and a = mu d,
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
    order = _neighborhood_ordering(g, u, lam)
    k = len(order) - 1
    scalar = n * (n + 1) ** 2 * (n - lam)
    gap = k - n * (n * n + 3 * n - lam + 1)  # |N(u)| less the family valency
    witness = None
    if k and gap:
        witness = {"entry": [order[0], u], "value": gap, "expected": 0}
    elif (n - lam) * gap:
        witness = {"entry": [u, u], "value": scalar + (n - lam) * gap, "expected": scalar}
    return CheckReport(
        name="inv-formula",
        passed=witness is None,
        asserted=fam.in_resolvent_regime,
        details={"dimension": k + 1, "scalar": scalar, "degenerate": scalar == 0},
        witness=witness,
    )


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

        (Y B Y^T)[v][w] = a |A_v & A_w| + mu sum_C |A_v & C| |A_w & C| - |A_v| |A_w|

    with A_v = N(u, v) and a = mu(n - lam).  The clique sum is
    sum over x in A_v of |A_w & C(x)|, the popcount of A_v against the levels
    {cells C : |A_w & C| > t}, t <= lam.  Per v, (n+1) copies of A_v; per w,
    (n-lam) copies of A_w and the lam+1 levels: one popcount per entry.  Both
    sides are symmetric, so the first mismatch in row-major order lies on or
    above the diagonal, and only those entries are scanned.
    """
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    local = _neighborhood_ordering(g, u, lam)[:-1]
    rows = g.rows
    outside_mask = ((1 << g.nu) - 1) & ~(rows[u] | (1 << u))
    outside = tuple(bits(outside_mask))
    mu = n * (n + 1)
    scalar = n * (n + 1) ** 2 * (n - lam)

    # local bits follow the cells, so cell c is the bit range [c(lam+1), (c+1)(lam+1))
    k, width = len(local), lam + 1
    packed = transpose_rows([rows[y] for y in local], g.nu)  # N(x) & N(u), local bits
    cell_mask = (1 << width) - 1
    spread_v, spread_w = _spread(k, n + 1), _spread(k, n - lam)
    index = [0] * g.nu
    v_masks, w_masks, degrees = [], [], []
    for i, v in enumerate(outside):
        index[v] = i
        a = packed[v]
        w = a * spread_w
        for c in {x // width for x in bits(a)}:  # the level t sits in copy n - lam + t
            mask = cell_mask << (c * width)
            for t in range((a & mask).bit_count()):
                w |= mask << ((n - lam + t) * k)
        v_masks.append(a * spread_v)
        w_masks.append(w)
        degrees.append(a.bit_count())

    witness = None
    for i, v in enumerate(outside):
        y, d = v_masks[i], degrees[i]
        rhs = [mu * (y & w).bit_count() - d * e for w, e in zip(w_masks[i:], degrees[i:])]
        lhs = [0] * len(rhs)
        lhs[0] = scalar * n
        for w in bits(rows[v] & outside_mask & ~((2 << v) - 1)):
            lhs[index[w] - i] = -scalar
        if lhs != rhs:
            j = next(j for j, (want, got) in enumerate(zip(lhs, rhs)) if want != got)
            witness = {"entry": [v, outside[i + j]], "lhs": lhs[j], "rhs": rhs[j]}
            break
    return CheckReport(
        name="star-identity",
        passed=witness is None,
        asserted=fam.in_resolvent_regime,
        details={
            "base_vertex": u,
            "outside_block": len(outside),
            "neighborhood_block": k + 1,
            "scalar": scalar,
            "degenerate": scalar == 0,
        },
        witness=witness,
    )
