"""Per-vertex and dense reference computations for the kernels of srgpq.

These are the direct definitions that the mask-level kernels replaced: one
outside vertex at a time through the bounds-checked Graph.row, one
m_spectrum call per ordered pair, one pair_stats call per triple, the dense
products B (nI - A_H) and Y B Y^T, and the squared quotients of the sigma
family.  They live here only so the differential tests can demand equal
results, equal exception types and equal messages from the kernels.
"""

from __future__ import annotations

from typing import Optional, Sequence

from srgpq.automorphism import Permutation
from srgpq.graphcore import Graph, TriplePartition, bits
from srgpq.localstats import (
    LocalStatsError,
    MomentIdentityError,
    MSpectrum,
    PairBoundError,
    PartitionError,
    _neighborhood_ordering,
    _require_positive_slope,
    pair_stats,
)
from srgpq.params import FamilyInfo
from srgpq.reports import CheckReport


def m0_set(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """Vertices outside N[u] u N[v] adjacent to no common neighbor of u and v."""
    row_u = g.row(u)
    common = row_u & g.row(v)
    full = (1 << g.nu) - 1
    outside = full & ~(row_u | g.row(v) | (1 << u) | (1 << v))
    return tuple(x for x in bits(outside) if g.row(x) & common == 0)


def m_spectrum(g: Graph, fam: FamilyInfo, u: int, v: int) -> MSpectrum:
    """The p_u(v, x) distribution by testing each outside x, with the moment identities."""
    if u == v or g.adjacent(u, v):
        raise LocalStatsError(f"need a non-adjacent pair, got ({u}, {v})")
    slope = _require_positive_slope(fam)
    mu = fam.n * (fam.n + 1)
    t_cap = mu // slope
    row_u = g.row(u)
    common = row_u & g.row(v)
    full = (1 << g.nu) - 1
    outside = full & ~(row_u | g.row(v) | (1 << u) | (1 << v))
    counts = [0] * (t_cap + 1)
    m0 = []
    for x in bits(outside):
        p = (common & g.row(x)).bit_count()
        if p > t_cap:
            raise PairBoundError(
                f"p_u(v, x) = {p} exceeds the cap {t_cap} at (u, v, x) = ({u}, {v}, {x})"
            )
        counts[p] += 1
        if p == 0:
            m0.append(x)

    nu, k, lam = g.nu, g.degree(u), fam.lam
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
    return MSpectrum(u=u, v=v, counts=tuple(counts), m0_witnesses=tuple(m0))


def m_spectrum_histogram(
    g: Graph, fam: FamilyInfo, vertices: Optional[Sequence[int]] = None
) -> tuple[dict[tuple[int, ...], int], Optional[dict]]:
    """m_spectrum on each ordered pair, u in vertices, v ascending, up to the first failure."""
    histogram: dict[tuple[int, ...], int] = {}
    full = (1 << g.nu) - 1
    for u in range(g.nu) if vertices is None else vertices:
        for v in bits(full & ~(g.row(u) | (1 << u))):
            try:
                counts = m_spectrum(g, fam, u, v).counts
            except LocalStatsError as exc:
                return histogram, {"u": u, "v": v, "error": str(exc)}
            histogram[counts] = histogram.get(counts, 0) + 1
    return histogram, None


def psi_partition(g: Graph, fam: FamilyInfo, u: int) -> TriplePartition:
    """Cells {v} + M_0(u, v) from the per-vertex M_0, with p_u from pair_stats."""
    full = (1 << g.nu) - 1
    outside = tuple(bits(full & ~(g.row(u) | (1 << u))))
    cell_of: dict[int, tuple[int, int, int]] = {}
    cells = []
    for v in outside:
        if v in cell_of:
            continue
        m0 = m0_set(g, u, v)
        if len(m0) != 2:
            raise PartitionError(
                f"m_0({u}, {v}) = {len(m0)}, need exactly 2 for an independent-triple cell"
            )
        cell = tuple(sorted((v,) + m0))
        for member in cell:
            other = tuple(sorted(set(cell) - {member}))
            if tuple(sorted(m0_set(g, u, member))) != other:
                raise PartitionError(
                    f"not a partition: vertex {member} of cell {cell} has "
                    f"M_0({u}, {member}) != {other}"
                )
            if member in cell_of:
                raise PartitionError(f"not a partition: vertex {member} in two cells")
        for a in cell:
            for b in cell:
                if a < b:
                    if g.adjacent(a, b):
                        raise PartitionError(f"cell {cell} is not independent at ({a}, {b})")
                    if pair_stats(g, u, a, b).p != 0:
                        raise PartitionError(f"cell {cell} has p_u({a}, {b}) != 0")
        for member in cell:
            cell_of[member] = cell
        cells.append(cell)
    if len(cell_of) != len(outside):
        raise PartitionError("cells do not cover the non-neighborhood")
    return TriplePartition(base_vertex=u, cells=tuple(sorted(cells)), kind="psi")


def verify_eq_pq(g: Graph, fam: FamilyInfo) -> CheckReport:
    """The p/q identity over all triples, one pair_stats call per triple."""
    slope = _require_positive_slope(fam)
    mu = fam.n * (fam.n + 1)
    adjacent_target = fam.lam * (fam.n + 1)
    triples = 0
    full = (1 << g.nu) - 1
    for u in range(g.nu):
        outside = tuple(bits(full & ~(g.row(u) | (1 << u))))
        for i, v in enumerate(outside):
            for w in outside[i + 1 :]:
                stats = pair_stats(g, u, v, w)
                expected = adjacent_target if g.adjacent(v, w) else mu
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
    """B (nI - A_H) == n(n+1)^2(n-lam) I entrywise, from the dense product."""
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
    resolvent = [
        [n * (i == j) - int(g.adjacent(order[i], order[j])) for j in range(size)]
        for i in range(size)
    ]
    witness = None
    for i in range(size):
        for j in range(size):
            value = sum(block[i][t] * resolvent[t][j] for t in range(size))
            expected = scalar if i == j else 0
            if value != expected:
                witness = {"entry": [order[i], order[j]], "value": value, "expected": expected}
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
    """scalar*(nI - X) == Y B Y^T entrywise, from the dense block matrix B."""
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    order = _neighborhood_ordering(g, u, lam)
    size = len(order)
    cliques = (size - 1) // (lam + 1)
    full = (1 << g.nu) - 1
    outside = tuple(bits(full & ~(g.row(u) | (1 << u))))
    block = _inverse_block_matrix(n, lam, cliques)
    scalar = n * (n + 1) ** 2 * (n - lam)

    y_rows = [[int(g.adjacent(v, h)) for h in order] for v in outside]
    yb = [
        [sum(y_row[t] * block[t][j] for t in range(size)) for j in range(size)]
        for y_row in y_rows
    ]
    witness = None
    for i, v in enumerate(outside):
        for j, w in enumerate(outside):
            rhs = sum(yb[i][t] * y_rows[j][t] for t in range(size))
            lhs = scalar * ((n if i == j else 0) - int(g.adjacent(v, w)))
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


def verify_involution_property(
    family: dict[int, Permutation], asserted: bool = True
) -> CheckReport:
    """(sigma_u sigma_v^{-1})^2 is the identity, composed and squared for every ordered pair."""
    inverses = {v: sigma.inverse() for v, sigma in family.items()}
    witness = None
    checked = 0
    for u, sigma_u in family.items():
        for v, inverse_v in inverses.items():
            quotient = sigma_u.compose(inverse_v)
            checked += 1
            if not quotient.compose(quotient).is_identity():
                witness = {"u": u, "v": v}
                break
        if witness:
            break
    return CheckReport(
        name="involution-property",
        passed=witness is None,
        asserted=asserted,
        details={"pairs_checked": checked},
        witness=witness,
    )
