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
from itertools import combinations
from typing import Optional, Sequence

from srgpq.graphcore import Graph, TriplePartition, bits, neighborhood_clique_cells
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


def verify_eq_pq(g: Graph, fam: FamilyInfo) -> CheckReport:
    """Check (n-lam+1) p + q over all triples: lam(n+1) if v ~ w, else mu.

    Scans every base vertex u and every pair v, w of non-neighbors of u;
    reports the first counterexample.
    """
    slope = _require_positive_slope(fam)
    mu = fam.n * (fam.n + 1)
    adjacent_target = fam.lam * (fam.n + 1)
    triples = 0
    witness = None
    full = (1 << g.nu) - 1
    rows = g.rows
    for u in range(g.nu):
        outside = tuple(bits(full & ~(rows[u] | (1 << u))))
        for i, v in enumerate(outside):
            for w in outside[i + 1 :]:
                stats = pair_stats(g, u, v, w)
                expected = adjacent_target if rows[v] >> w & 1 else mu
                triples += 1
                if slope * stats.p + stats.q != expected:
                    witness = {
                        "u": u,
                        "v": v,
                        "w": w,
                        "p": stats.p,
                        "q": stats.q,
                        "value": slope * stats.p + stats.q,
                        "expected": expected,
                    }
                    return CheckReport(
                        name="eq-pq",
                        passed=False,
                        asserted=fam.in_resolvent_regime,
                        details={"triples_checked": triples},
                        witness=witness,
                    )
    return CheckReport(
        name="eq-pq",
        passed=True,
        asserted=fam.in_resolvent_regime,
        details={
            "triples_checked": triples,
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


def m_spectrum(g: Graph, fam: FamilyInfo, u: int, v: int) -> MSpectrum:
    """Full distribution of p_u(v, x) over x outside N[u] u N[v].

    The index is capped at t = floor(mu/(n-lam+1)); a larger p-value is
    impossible when the p/q identity holds and raises PairBoundError.  The
    three double-counting identities are asserted on the result.
    """
    if u == v or g.adjacent(u, v):
        raise LocalStatsError(f"need a non-adjacent pair, got ({u}, {v})")
    slope = _require_positive_slope(fam)
    mu = fam.n * (fam.n + 1)
    t_cap = mu // slope
    rows = g.rows
    row_u, row_v = rows[u], rows[v]
    common = row_u & row_v
    outside = ((1 << g.nu) - 1) & ~(row_u | row_v | (1 << u) | (1 << v))
    # Bit-sliced counter: planes[b] holds bit b of p_u(v, x) = |N(x) & common|
    # for every outside x at once.  Each common neighbor's row is added with a
    # ripple carry; enough planes hold |common|, so no carry is ever lost.
    planes = [0] * common.bit_count().bit_length()
    for c in bits(common):
        carry = rows[c] & outside
        for b, plane in enumerate(planes):
            planes[b] = plane ^ carry
            carry &= plane
            if not carry:
                break
    equals = []  # equals[i]: the outside vertices with p_u(v, x) = i
    uncounted = outside
    for i in range(t_cap + 1):
        equal = 0 if i >> len(planes) else outside
        for b, plane in enumerate(planes):
            equal &= plane if i >> b & 1 else ~plane
        equals.append(equal)
        uncounted ^= equal
    if uncounted:
        x = (uncounted & -uncounted).bit_length() - 1
        p = (common & rows[x]).bit_count()
        raise PairBoundError(
            f"p_u(v, x) = {p} exceeds the cap {t_cap} at (u, v, x) = ({u}, {v}, {x})"
        )
    counts = tuple(equal.bit_count() for equal in equals)

    nu, k, lam = g.nu, row_u.bit_count(), fam.lam
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
    return MSpectrum(u=u, v=v, counts=counts, m0_witnesses=tuple(bits(equals[0])))


def predicted_m_spectrum(fam: FamilyInfo) -> dict[int, int]:
    """The unique solution of the counting system for a lam = 2 family member.

    m_0 = 2, m_n = n(n+2)(n^2-1), m_{n+1} = 2n(n^2-4), m_{n+2} = n(n+1),
    all other indices zero.
    """
    if fam.lam != 2:
        raise FamilyPreconditionError("the closed-form solution is for lam = 2 members")
    n = fam.n
    if n <= 0:
        raise FamilyPreconditionError("the closed-form solution needs n > 0")
    solution = {0: 2, n: n * (n + 2) * (n * n - 1), n + 1: 2 * n * (n * n - 4), n + 2: n * (n + 1)}
    return {i: solution.get(i, 0) for i in range(n + 3)}


def check_condition_con(g: Graph, fam: FamilyInfo) -> CheckReport:
    """m_0(u, v) >= 1 for every non-adjacent pair, with the min/max recorded."""
    m0_min: Optional[int] = None
    m0_max: Optional[int] = None
    witness = None
    pairs = 0
    full = (1 << g.nu) - 1
    for u, row_u in enumerate(g.rows):
        later = full ^ ((2 << u) - 1)
        for v in bits(later & ~row_u):
            pairs += 1
            m0 = _m0_mask(g, u, v).bit_count()
            m0_min = m0 if m0_min is None else min(m0_min, m0)
            m0_max = m0 if m0_max is None else max(m0_max, m0)
            if m0 == 0 and witness is None:
                witness = {"u": u, "v": v}
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

    Requires m_0 = 2 with mutual membership; validates disjointness, coverage,
    independence, and pairwise p_u = 0 before returning.
    """
    row_u = g.row(u)
    rows = g.rows
    outside = ((1 << g.nu) - 1) & ~(row_u | (1 << u))
    cell_of: dict[int, tuple[int, int, int]] = {}
    cells = []
    for v in bits(outside):
        if v in cell_of:
            continue
        m0 = _m0_mask(g, u, v)
        if m0.bit_count() != 2:
            raise PartitionError(
                f"m_0({u}, {v}) = {m0.bit_count()}, need exactly 2 for an independent-triple cell"
            )
        cell_mask = m0 | (1 << v)
        cell = tuple(bits(cell_mask))
        for member in cell:
            if _m0_mask(g, u, member) != cell_mask ^ (1 << member):
                other = tuple(bits(cell_mask ^ (1 << member)))
                raise PartitionError(
                    f"not a partition: vertex {member} of cell {cell} has "
                    f"M_0({u}, {member}) != {other}"
                )
            if member in cell_of:
                raise PartitionError(f"not a partition: vertex {member} in two cells")
        # cells lie outside N[u], so p_u(a, b) is a single three-row popcount
        for a, b in combinations(cell, 2):
            if rows[a] >> b & 1:
                raise PartitionError(f"cell {cell} is not independent at ({a}, {b})")
            if row_u & rows[a] & rows[b]:
                raise PartitionError(f"cell {cell} has p_u({a}, {b}) != 0")
        for member in cell:
            cell_of[member] = cell
        cells.append(cell)
    if len(cell_of) != outside.bit_count():
        raise PartitionError("cells do not cover the non-neighborhood")
    return TriplePartition(base_vertex=u, cells=tuple(sorted(cells)), kind="psi")


def matched_pairs(
    g: Graph, u: int, phi: TriplePartition, psi: TriplePartition
) -> MatchedPairTable:
    """Classify every (phi cell, psi cell) pair as edgeless, one-regular, or other."""
    if phi.base_vertex != u or psi.base_vertex != u:
        raise LocalStatsError("partitions built at a different base vertex")
    if phi.kind != "phi" or psi.kind != "psi":
        raise LocalStatsError("need a phi partition and a psi partition")
    kinds = []
    bijections: dict[tuple[int, int], dict[int, int]] = {}
    for i, phi_cell in enumerate(phi.cells):
        row_kinds = []
        for j, psi_cell in enumerate(psi.cells):
            psi_mask = 0
            for b in psi_cell:
                psi_mask |= 1 << b
            degrees = [(g.row(a) & psi_mask).bit_count() for a in phi_cell]
            total = sum(degrees)
            if total == 0:
                row_kinds.append("edgeless")
            elif degrees == [1, 1, 1]:
                mapping = {a: next(bits(g.row(a) & psi_mask)) for a in phi_cell}
                if len(set(mapping.values())) == 3:
                    row_kinds.append("one-regular")
                    bijections[(i, j)] = mapping
                else:
                    row_kinds.append("other")
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


def verify_psi_regularity(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Every pair of distinct psi cells must induce an r-regular bipartite graph.

    r must lie in {0, 1, 2} and the triple counts must follow: adjacent pairs
    p = max(0, r-1), non-adjacent pairs p = n + r.  Proved for n >= 3; on
    smaller members the outcome is a diagnostic.
    """
    psi = psi_partition(g, fam, u)
    rows = g.rows
    row_u = rows[u]
    masks = [sum(1 << x for x in cell) for cell in psi.cells]
    n = fam.n
    r_distribution: dict[int, int] = {}
    violations = 0
    witness = None

    def record(reason: str, data: dict):
        nonlocal violations, witness
        violations += 1
        if witness is None:
            witness = {"reason": reason, **data}

    for j1 in range(len(psi.cells)):
        for j2 in range(j1 + 1, len(psi.cells)):
            cell_a, cell_b = psi.cells[j1], psi.cells[j2]
            mask_a, mask_b = masks[j1], masks[j2]
            degrees = [(rows[a] & mask_b).bit_count() for a in cell_a]
            degrees += [(rows[b] & mask_a).bit_count() for b in cell_b]
            if len(set(degrees)) != 1:
                record("not-regular", {"cells": [cell_a, cell_b], "degrees": degrees})
                continue
            r = degrees[0]
            r_distribution[r] = r_distribution.get(r, 0) + 1
            if r not in (0, 1, 2):
                record("r-out-of-range", {"cells": [cell_a, cell_b], "r": r})
                continue
            # psi cells lie outside N[u]: p_u(a, b) is a three-row popcount
            for a in cell_a:
                row_ua = row_u & rows[a]
                for b in cell_b:
                    p = (row_ua & rows[b]).bit_count()
                    expected = max(0, r - 1) if rows[a] >> b & 1 else n + r
                    if p != expected:
                        record(
                            "p-value-mismatch",
                            {"pair": [a, b], "r": r, "p": p, "expected": expected},
                        )
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


def _inverse_block_matrix(n: int, lam: int, cliques: int) -> list[list[int]]:
    """The closed-form block matrix equal to n(n+1)^2(n-lam) (nI - A_H)^{-1}.

    Rows/columns follow the clique-grouped ordering with the cone vertex last:
    block-diagonal a I + mu J per clique, a border of b, corner c, minus the
    all-ones matrix.
    """
    mu = n * (n + 1)
    a = mu * (n - lam)
    b = lam + 1 - n
    c = (lam + 1 - n) * (n + 1 - lam)
    size = cliques * (lam + 1) + 1
    k = size - 1
    matrix = [[-1] * size for _ in range(size)]
    for block in range(cliques):
        base = block * (lam + 1)
        for i in range(lam + 1):
            for j in range(lam + 1):
                matrix[base + i][base + j] += mu + (a if i == j else 0)
    for t in range(k):
        matrix[t][k] += b
        matrix[k][t] += b
    matrix[k][k] += c
    return matrix


def verify_inv_formula(
    g: Graph, fam: FamilyInfo, u: int, ordering: Optional[Sequence[int]] = None
) -> CheckReport:
    """Check the closed form of the neighborhood resolvent exactly.

    Multiplies the block matrix by (nI - A_H) over the closed neighborhood
    H = <N[u]> and compares with n(n+1)^2(n-lam) I entrywise.  When lam = n
    the scalar vanishes and the identity is checked in its degenerate product
    form (nI - A_H is then singular); that case is a diagnostic.
    """
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    if ordering is None:
        order = _neighborhood_ordering(g, u, lam)
    else:
        order = list(ordering)
        closed = sorted(bits(g.row(u) | (1 << u)))
        if sorted(order) != closed:
            raise LocalStatsError("ordering must enumerate the closed neighborhood of u")
    size = len(order)
    cliques, remainder = divmod(size - 1, lam + 1)
    if remainder:
        raise LocalStatsError(f"|N(u)| = {size - 1} is not a multiple of lam+1 = {lam + 1}")
    block = _inverse_block_matrix(n, lam, cliques)
    scalar = n * (n + 1) ** 2 * (n - lam)
    rows = g.rows  # order is N[u], checked above
    resolvent = [
        [n * (i == j) - (rows[order[i]] >> order[j] & 1) for j in range(size)]
        for i in range(size)
    ]
    witness = None
    for i in range(size):
        row = block[i]
        for j in range(size):
            value = sum(row[t] * resolvent[t][j] for t in range(size))
            expected = scalar if i == j else 0
            if value != expected:
                witness = {
                    "entry": [order[i], order[j]],
                    "value": value,
                    "expected": expected,
                }
                break
        if witness:
            break
    return CheckReport(
        name="inv-formula",
        passed=witness is None,
        asserted=fam.in_resolvent_regime,
        details={"dimension": size, "scalar": scalar, "degenerate": scalar == 0},
        witness=witness,
    )


def verify_star(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Check the rank identity in Schur-complement form, exactly.

    With the adjacency matrix split over (non-neighbors | closed neighborhood)
    as [[X, Y], [Y^T, A_H]], verifies scalar*(nI - X) == Y B Y^T entrywise,
    where B is the closed-form block matrix for scalar*(nI - A_H)^{-1}.  For
    lam = n the scalar is zero and the right side must vanish identically.
    """
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    order = _neighborhood_ordering(g, u, lam)
    size = len(order)
    cliques = (size - 1) // (lam + 1)
    full = (1 << g.nu) - 1
    rows = g.rows
    outside = tuple(bits(full & ~(rows[u] | (1 << u))))
    block = _inverse_block_matrix(n, lam, cliques)
    scalar = n * (n + 1) ** 2 * (n - lam)

    y_rows = [[rows[v] >> h & 1 for h in order] for v in outside]
    yb = [
        [sum(y_row[t] * block[t][j] for t in range(size)) for j in range(size)]
        for y_row in y_rows
    ]
    witness = None
    for i, v in enumerate(outside):
        for j, w in enumerate(outside):
            rhs = sum(yb[i][t] * y_rows[j][t] for t in range(size))
            lhs = scalar * ((n if i == j else 0) - (rows[v] >> w & 1))
            if lhs != rhs:
                witness = {"entry": [v, w], "lhs": lhs, "rhs": rhs}
                break
        if witness:
            break
    return CheckReport(
        name="star-identity",
        passed=witness is None,
        asserted=fam.in_resolvent_regime,
        details={
            "base_vertex": u,
            "outside_block": len(outside),
            "neighborhood_block": size,
            "scalar": scalar,
            "degenerate": scalar == 0,
        },
        witness=witness,
    )
