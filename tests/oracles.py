"""Per-vertex reference loops for the bitset kernels of srgpq.localstats.

These are the direct definitions, one outside vertex at a time through the
bounds-checked Graph.row, that the mask-level kernels replaced.  They live
here only so the differential tests can demand equal results, equal
exception types and equal messages from the kernels.
"""

from __future__ import annotations

from srgpq.graphcore import Graph, TriplePartition, bits
from srgpq.localstats import (
    LocalStatsError,
    MomentIdentityError,
    MSpectrum,
    PairBoundError,
    PartitionError,
    _require_positive_slope,
    pair_stats,
)
from srgpq.params import FamilyInfo


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
