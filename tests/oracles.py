"""Per-vertex and dense reference computations for the kernels of srgpq.

These are the direct definitions that the mask-level kernels replaced: one
outside vertex at a time through the bounds-checked Graph.row, one
m_spectrum call per ordered pair, one pair_stats call per triple, the dense
products B (nI - A_H) and Y B Y^T, the sigma family built at every vertex,
the squared quotients of the sigma family, the closure of all nu^2
quotients, one (phi cell, psi cell) pair at a time, one pair of psi cells
at a time, the sigma propagation with one mapping dict a cell, one
adjacency row bit by bit, the Diophantine search over every n, the graph6
codec, the bit-matrix transpose and the bit fields one bit at a time, the row-order range,
self-loop and symmetry checks of a Graph, check-con's m_0 from the M_0 set
of each pair, the SRG check with lam and mu set by the first adjacent and
the first non-adjacent pair it meets, the PQ axioms with a dict of every
collinear pair for (ii) and mu set by the first non-collinear pair of (iv),
and the PQ axiom (iii) one line and one point at a time,
the diamond-free check one adjacent pair of every neighbourhood at a time,
the cliques of a neighbourhood by breadth-first search over its components,
the maximal cliques one edge closure at a time, the related 4-sets
from every pair in order, and the closed-form m-spectrum of a lam = 2
member.
They live here only so the differential tests can demand equal results,
equal exception types and equal messages from the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from srgpq.automorphism import (
    ClosureCapError,
    GammaReport,
    Permutation,
    RelatedSetError,
    SigmaAutomorphismError,
    SigmaConflictError,
    SigmaCoverageError,
    SigmaNormalizationError,
    build_sigma as _build_sigma,
    related_set,
)
from srgpq.cli import GRAPH6_HEADER, MAX_GRAPH6_VERTICES, Graph6Error, _size_prefix
from srgpq.geometry import IncidenceStructure, PqAxiomReport
from srgpq.graphcore import (
    CliqueClosureError,
    Graph,
    NeighborhoodStructureError,
    bits,
    neighborhood_clique_cells as _clique_cells,
    phi_partition,
)
from srgpq.localstats import (
    FamilyPreconditionError,
    LocalStatsError,
    MomentIdentityError,
    MSpectrum,
    PairBoundError,
    PartitionError,
    _require_positive_slope,
    pair_stats,
    psi_partition as _psi_partition,
)
from srgpq.params import FamilyInfo, ParameterError, PqParams, SrgParams, fixed_point_bound
from srgpq.reports import CheckReport


def m0_set(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """Vertices outside N[u] u N[v] adjacent to no common neighbor of u and v."""
    row_u = g.row(u)
    common = row_u & g.row(v)
    full = (1 << g.nu) - 1
    outside = full & ~(row_u | g.row(v) | (1 << u) | (1 << v))
    return tuple(x for x in bits(outside) if g.row(x) & common == 0)


def check_condition_con(g: Graph, fam: FamilyInfo) -> CheckReport:
    """m_0 of every non-adjacent pair u < v from its M_0 set, in row order."""
    m0 = {
        (u, v): len(m0_set(g, u, v))
        for u in range(g.nu)
        for v in range(u + 1, g.nu)
        if not g.adjacent(u, v)
    }
    witness = next(({"u": u, "v": v} for (u, v), size in m0.items() if size == 0), None)
    return CheckReport(
        name="condition-con",
        passed=witness is None and bool(m0),
        asserted=True,
        details={
            "pairs": len(m0),
            "m0_min": min(m0.values(), default=None),
            "m0_max": max(m0.values(), default=None),
        },
        witness=witness,
    )


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


def predicted_m_spectrum(fam: FamilyInfo) -> dict[int, int]:
    """The unique solution of the counting system for a lam = 2 family member.

    m_0 = 2, m_n = n(n+2)(n^2-1), m_{n+1} = 2n(n^2-4), m_{n+2} = n(n+1),
    all other indices zero.  It holds at lam = 2 only: the n = 4, lam = 3
    member on 625 vertices has m_4 = 300, where n(n+2)(n^2-1) = 360.
    """
    if fam.lam != 2:
        raise FamilyPreconditionError("the closed-form solution is for lam = 2 members")
    n = fam.n
    if n <= 0:
        raise FamilyPreconditionError("the closed-form solution needs n > 0")
    solution = {0: 2, n: n * (n + 2) * (n * n - 1), n + 1: 2 * n * (n * n - 4), n + 2: n * (n + 1)}
    return {i: solution.get(i, 0) for i in range(n + 3)}


def psi_partition(g: Graph, fam: FamilyInfo, u: int) -> tuple[tuple[int, ...], ...]:
    """Cells {v} + M_0(u, v), sorted, from the per-vertex M_0, with p_u from pair_stats."""
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
    return tuple(sorted(cells))


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


def _neighborhood_ordering(g: Graph, u: int, lam: int) -> list[int]:
    """N[u] ordered by the size-(lam+1) clique cells of the neighborhood, u last."""
    return [x for cell in _clique_cells(g, u, lam + 1) for x in cell] + [u]


def verify_inv_formula(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """B (nI - A_H) == n(n+1)^2(n-lam) I entrywise, from the dense product."""
    _require_positive_slope(fam)
    n, lam = fam.n, fam.lam
    order = _neighborhood_ordering(g, u, lam)
    size = len(order)
    cliques = (size - 1) // (lam + 1)
    block = _inverse_block_matrix(n, lam, cliques)
    scalar = n * (n + 1) ** 2 * (n - lam)
    resolvent = [
        [n * (i == j) - int(g.adjacent(order[i], order[j])) for j in range(size)]
        for i in range(size)
    ]
    # each column of nI - A_H by its nonzero entries: n at j, -1 at the neighbours of j
    columns = [[(t, x) for t, x in enumerate(column) if x] for column in zip(*resolvent)]
    witness = None
    for i in range(size):
        for j in range(size):
            value = sum(block[i][t] * x for t, x in columns[j])
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


def canonical_sigma_family(g: Graph, fam: FamilyInfo, z: int = 0) -> dict[int, Permutation]:
    """The normalized family with srgpq's build_sigma run at every vertex: z, then 0..nu-1."""
    g.check_vertex(z)
    sigma_z = _build_sigma(g, fam, z)
    inverse_z = sigma_z.inverse()
    family = {z: sigma_z}
    for u in range(g.nu):
        if u == z:
            continue
        sigma_u = _build_sigma(g, fam, u)
        target = inverse_z(u)
        if sigma_u(z) != target:
            sigma_u = sigma_u.inverse()
            if sigma_u(z) != target:
                raise SigmaNormalizationError(
                    f"no orientation at {u} satisfies sigma_u({z}) = sigma_{z}^-1({u})"
                )
        family[u] = sigma_u
    return family


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


def generate_gamma(
    family: dict[int, Permutation], fam: Optional[FamilyInfo] = None, cap: int = 1 << 16
) -> GammaReport:
    """The closure of all nu^2 quotients sigma_u sigma_v^{-1}, every one a generator."""
    if not family:
        raise ValueError("empty family")
    degree = len(next(iter(family.values())))
    inverses = {v: sigma.inverse() for v, sigma in family.items()}
    generator_images = set()
    for sigma_u in family.values():
        for inverse_v in inverses.values():
            generator_images.add(sigma_u.compose(inverse_v).images)
    generators = tuple(Permutation(images) for images in sorted(generator_images))

    elements: set[tuple[int, ...]] = {Permutation.identity(degree).images}
    frontier = []
    for images in generator_images:
        if images not in elements:
            if len(elements) >= cap:
                raise ClosureCapError(f"closure exceeded the cap of {cap} elements")
            elements.add(images)
            frontier.append(images)
    while frontier:
        next_frontier = []
        for images in frontier:
            for gen in generators:
                product = tuple(gen.images[i] for i in images)
                if product not in elements:
                    if len(elements) >= cap:
                        raise ClosureCapError(f"closure exceeded the cap of {cap} elements")
                    elements.add(product)
                    next_frontier.append(product)
        frontier = next_frontier

    closure_elements = tuple(Permutation(images) for images in sorted(elements))
    abelian = all(
        a.compose(b).images == b.compose(a).images
        for index, a in enumerate(generators)
        for b in generators[index + 1 :]
    )

    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for gen in generators:
                y = gen(x)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        for x in orbit:
            seen[x] = True
        orbits.append(tuple(sorted(orbit)))
    orbits_sorted = tuple(sorted(orbits))

    order_histogram: dict[int, int] = {}
    fixed_histogram: dict[int, int] = {}
    max_fixed = 0
    for element in closure_elements:
        order = element.order()
        order_histogram[order] = order_histogram.get(order, 0) + 1
        fixed = len(element.fixed_points())
        fixed_histogram[fixed] = fixed_histogram.get(fixed, 0) + 1
        if order > 1:
            max_fixed = max(max_fixed, fixed)

    if fam is not None:
        bound = fixed_point_bound(fam.srg_params()).value
    else:
        bound = Fraction(degree)
    bound_satisfied = all(
        len(element.fixed_points()) <= bound
        for element in closure_elements
        if not element.is_identity()
    )
    order = len(closure_elements)
    return GammaReport(
        elements=closure_elements,
        generators=generators,
        orbits=orbits_sorted,
        order=order,
        abelian=abelian,
        transitive=len(orbits_sorted) == 1,
        orbit_sizes=tuple(len(orbit) for orbit in orbits_sorted),
        element_order_histogram=order_histogram,
        fixed_point_histogram=fixed_histogram,
        max_nonidentity_fixed_points=max_fixed,
        bound=bound,
        bound_satisfied=bound_satisfied,
        order_power_of_two=order & (order - 1) == 0,
    )


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


def matched_pairs(
    g: Graph, u: int, phi: Sequence[tuple[int, ...]], psi: Sequence[tuple[int, ...]]
) -> MatchedPairTable:
    """Every (phi cell, psi cell) pair classified by its three rows through Graph.row."""
    kinds = []
    bijections: dict[tuple[int, int], dict[int, int]] = {}
    for i, phi_cell in enumerate(phi):
        row_kinds = []
        for j, psi_cell in enumerate(psi):
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
        phi_cells=tuple(phi),
        psi_cells=tuple(psi),
        kinds=tuple(kinds),
        bijections=bijections,
    )


def verify_psi_regularity(g: Graph, fam: FamilyInfo, u: int) -> CheckReport:
    """Each pair of psi cells in turn: its degrees, its r and its nine p-values."""
    psi = _psi_partition(g, fam, u)
    rows = g.rows
    row_u = rows[u]
    masks = [sum(1 << x for x in cell) for cell in psi]
    n = fam.n
    r_distribution: dict[int, int] = {}
    violations = 0
    witness = None

    def record(reason: str, data: dict):
        nonlocal violations, witness
        violations += 1
        if witness is None:
            witness = {"reason": reason, **data}

    for j1 in range(len(psi)):
        for j2 in range(j1 + 1, len(psi)):
            cell_a, cell_b = psi[j1], psi[j2]
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


def is_srg_report(
    g: Graph, orbits: Optional[Sequence[Sequence[int]]] = None
) -> tuple[Optional[SrgParams], Optional[dict]]:
    """The SRG check with lam and mu set by the first adjacent and non-adjacent pair it meets."""
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
    rest = list(range(g.nu))
    for u in range(g.nu) if orbits is None else (orbit[0] for orbit in orbits):
        rest.remove(u)
        for v in rest:
            count = (rows[u] & rows[v]).bit_count()
            if rows[u] >> v & 1:
                if lam is None:
                    lam = count
                elif lam != count:
                    return None, {"reason": "adjacent-pair-mismatch", "pair": [u, v],
                                  "common": count, "expected": lam}
            elif mu is None:
                mu = count
            elif mu != count:
                return None, {"reason": "nonadjacent-pair-mismatch", "pair": [u, v],
                              "common": count, "expected": mu}
    if lam is None or mu is None:
        return None, {"reason": "complete-or-edgeless"}
    try:
        return SrgParams(g.nu, k, lam, mu), None
    except ParameterError as exc:
        return None, {"reason": "trivial-parameters", "detail": str(exc)}


def verify_pq_axioms(inc: IncidenceStructure) -> PqAxiomReport:
    """The PQ axioms with a dict of every collinear pair for (ii) and mu set by (iv)'s first pair."""

    def violation(axiom: str, witness: dict) -> PqAxiomReport:
        return PqAxiomReport(None, False, axiom, witness)

    s_plus_one = len(inc.lines[0])
    for index, line in enumerate(inc.lines):
        if len(line) != s_plus_one:
            return violation("i", {"line": index, "size": len(line), "expected": s_plus_one})
    degree = [0] * inc.num_points
    for line in inc.lines:
        for p in line:
            degree[p] += 1
    t_plus_one = degree[0] if degree else 0
    for p, d in enumerate(degree):
        if d != t_plus_one:
            return violation("i", {"point": p, "degree": d, "expected": t_plus_one})
    pair_line: dict[tuple[int, int], int] = {}
    for index, line in enumerate(inc.lines):
        for a, b in combinations(sorted(line), 2):
            if (a, b) in pair_line:
                return violation("ii", {"points": [a, b], "lines": [pair_line[(a, b)], index]})
            pair_line[(a, b)] = index
    witness = off_line_witness(inc)
    if witness is not None:
        return violation("iii", witness)
    coll = collinearity_masks(inc)
    mu: Optional[int] = None
    for a in range(inc.num_points):
        for b in range(a + 1, inc.num_points):
            if coll[a] >> b & 1:
                continue
            count = (coll[a] & coll[b]).bit_count()
            if mu is None:
                mu = count
            elif mu != count:
                return violation("iv", {"points": [a, b], "common": count, "expected": mu})
    if mu is None:
        return violation("degenerate", {"detail": "no non-collinear point pair; mu undefined"})
    try:
        params = PqParams(s_plus_one - 1, t_plus_one - 1, mu)
    except ParameterError as exc:
        return violation("degenerate", {"detail": str(exc)})
    return PqAxiomReport(params, params.is_generalized_quadrangle, None, None)


def collinearity_masks(inc: IncidenceStructure) -> list[int]:
    """The points collinear with each point, one pair of points of a line at a time."""
    coll = [0] * inc.num_points
    for line in inc.lines:
        for p in line:
            for q in line:
                if q != p:
                    coll[p] |= 1 << q
    return coll


def off_line_witness(inc: IncidenceStructure) -> Optional[dict]:
    """PQ axiom (iii) at every (line, point off it), collinearity read off the lines."""
    coll = collinearity_masks(inc)
    for index, line in enumerate(inc.lines):
        mask = sum(1 << q for q in line)
        for p in range(inc.num_points):
            if mask >> p & 1:
                continue
            hits = coll[p] & mask
            if hits.bit_count() > 1:
                return {"point": p, "line": index, "collinear_points": list(bits(hits))}
    return None


def build_sigma(g: Graph, fam: FamilyInfo, u: int) -> Permutation:
    """The propagation with one mapping dict a cell, on the reference table and witness."""
    phi = phi_partition(g, u)
    psi = _psi_partition(g, fam, u)
    table = matched_pairs(g, u, phi, psi)  # this module's

    partners_of_phi: dict[int, list[int]] = {i: [] for i in range(len(phi))}
    partners_of_psi: dict[int, list[int]] = {j: [] for j in range(len(psi))}
    for (i, j) in table.bijections:
        partners_of_phi[i].append(j)
        partners_of_psi[j].append(i)

    defined: dict[tuple[str, int], dict[int, int]] = {}
    seed_key = ("phi", 0)
    a, b, c = phi[0]
    defined[seed_key] = {a: b, b: c, c: a}
    worklist = [seed_key]

    def transfer(key: tuple[str, int], mapping: dict[int, int], source: tuple[str, int]):
        if key in defined:
            if defined[key] != mapping:
                raise SigmaConflictError(
                    f"conflicting definitions on cell {key} propagated from {source}"
                )
            return
        defined[key] = mapping
        worklist.append(key)

    while worklist:
        kind, index = worklist.pop()
        mapping = defined[(kind, index)]
        if kind == "phi":
            for j in partners_of_phi[index]:
                bijection = table.bijections[(index, j)]
                transferred = {bijection[a]: bijection[mapping[a]] for a in bijection}
                transfer(("psi", j), transferred, ("phi", index))
        else:
            for i in partners_of_psi[index]:
                bijection = table.bijections[(i, index)]
                inverse = {b: a for a, b in bijection.items()}
                transferred = {inverse[b]: inverse[mapping[b]] for b in inverse}
                transfer(("phi", i), transferred, ("psi", index))

    expected_cells = len(phi) + len(psi)
    if len(defined) != expected_cells:
        missing = [
            (kind, index)
            for kind in ("phi", "psi")
            for index in range(len(phi) if kind == "phi" else len(psi))
            if (kind, index) not in defined
        ]
        raise SigmaCoverageError(f"propagation left cells undefined: {missing}")

    images = list(range(g.nu))
    for mapping in defined.values():
        for source, target in mapping.items():
            images[source] = target
    sigma = Permutation(tuple(images))
    witness = automorphism_witness(g, sigma)  # this module's
    if witness is not None:
        raise SigmaAutomorphismError(f"adjacency not preserved at pair {witness}")
    if sigma.order() != 3:
        raise SigmaAutomorphismError(f"constructed permutation has order {sigma.order()}, not 3")
    return sigma



def automorphism_witness(g: Graph, perm: Permutation) -> Optional[tuple[int, int]]:
    """The first row whose image is not the row of its image vertex, bit by bit."""
    if len(perm) != g.nu:
        raise ValueError("permutation length does not match the graph")
    rows, images = g.rows, perm.images
    for x, row in enumerate(rows):
        image_row = 0
        for y in bits(row):
            image_row |= 1 << images[y]
        if image_row != rows[images[x]]:
            difference = image_row ^ rows[images[x]]
            return (images[x], next(bits(difference)))
    return None


def is_diamond_free(g: Graph) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """Closed neighbourhoods of every adjacent pair in every <N(v)>, until two differ."""
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
    """The components of <N(u)> by breadth-first search, each required to be a size-clique."""
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


def maximal_cliques_via_edges(g: Graph) -> list[tuple[int, ...]]:
    """The closure {u, v} + N(u) & N(v) of each edge in edges() order, checked to be a clique."""
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


def related(g: Graph, fam: FamilyInfo) -> tuple[list[CheckReport], dict]:
    """The related analysis as one related_set call per pair in combinations order.

    A pair inside a set already verified is skipped: related_set has
    regenerated that set from each of its pairs.
    """
    kinds = {"clique": 0, "independent-with-M0": 0}
    covered = [0] * g.nu
    witness = None
    for x, y in combinations(range(g.nu), 2):
        if covered[x] >> y & 1:
            continue
        try:
            result = related_set(g, fam, x, y)
        except RelatedSetError as exc:
            witness = {"pair": [x, y], "error": str(exc)}
            break
        kinds[result.kind] += 1
        mask = sum(1 << m for m in result.members)
        for m in result.members:
            covered[m] |= mask
    sets = sum(kinds.values())
    check = CheckReport(
        name="related-partition",
        passed=witness is None,
        asserted=fam.in_triple_regime,
        details={"sets": sets, "by_kind": kinds},
        witness=witness,
    )
    return [check], {"related_sets": sets, "by_kind": kinds}


def solve_diophantine_17(n_max: int) -> list[tuple[int, int]]:
    """(2n+3)^2 - 17 tested for a power of two at every n up to n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    solutions = []
    for n in range(1, n_max + 1):
        value = (2 * n + 3) ** 2 - 17
        if value & (value - 1) == 0:
            solutions.append((n, value.bit_length() - 3))
    return solutions


def graph_rows_error(rows: Sequence[int]) -> Optional[str]:
    """The message of the first GraphError the row checks raise, bit by bit, or None."""
    nu = len(rows)
    rows = tuple(rows)
    full = (1 << nu) - 1
    for v, row in enumerate(rows):
        if row < 0 or row & ~full:
            return f"row {v} has bits outside 0..{nu - 1}"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
    for v, row in enumerate(rows):
        for w in bits(row):
            if not rows[w] >> v & 1:
                return f"adjacency not symmetric at ({v}, {w})"
    return None


def transpose_rows(rows: Sequence[int], nu: int) -> list[int]:
    """The transpose of rows of nu bits, one bit at a time."""
    return [sum((row >> x & 1) << i for i, row in enumerate(rows)) for x in range(nu)]


def bit_fields(mask: int, nu: int, width: int) -> int:
    """Bits 0..nu-1 of mask, each moved to its own field of width bits, one bit at a time."""
    return sum((mask >> x & 1) << x * width for x in range(nu))


def parse_graph6(text: str) -> Graph:
    """Decode graph6 one character and one bit at a time."""
    raw = text.strip()
    offset = 0
    if raw.startswith(GRAPH6_HEADER):
        offset = len(GRAPH6_HEADER)
        raw = raw[offset:]
    if not raw:
        raise Graph6Error("empty graph6 string", offset)
    values = []
    for index, char in enumerate(raw):
        code = ord(char)
        if not 63 <= code <= 126:
            raise Graph6Error(f"invalid graph6 character {char!r}", offset + index)
        values.append(code - 63)

    def bigendian(chunk):
        number = 0
        for value in chunk:
            number = number << 6 | value
        return number

    if values[0] <= 62:
        nu = values[0]
        position = 1
    elif len(values) >= 2 and values[1] == 63:
        if len(values) < 8:
            raise Graph6Error("truncated 8-byte vertex count", offset + len(values))
        nu = bigendian(values[2:8])
        position = 8
    else:
        if len(values) < 4:
            raise Graph6Error("truncated 4-byte vertex count", offset + len(values))
        nu = bigendian(values[1:4])
        position = 4
    if nu > MAX_GRAPH6_VERTICES:
        raise Graph6Error(f"vertex count {nu} exceeds the supported {MAX_GRAPH6_VERTICES}", offset)

    bit_count = nu * (nu - 1) // 2
    needed = (bit_count + 5) // 6
    have = len(values) - position
    if have != needed:
        raise Graph6Error(
            f"expected {needed} data characters for {nu} vertices, found {have}",
            offset + position,
        )
    rows = [0] * nu
    bit_index = 0
    for j in range(1, nu):
        for i in range(j):
            value = values[position + bit_index // 6]
            if value >> (5 - bit_index % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit_index += 1
    if bit_count % 6:
        tail = values[-1] & ((1 << (6 - bit_count % 6)) - 1)
        if tail:
            raise Graph6Error("nonzero padding bits", offset + len(values) - 1)
    return Graph(rows)


def serialize_graph6(g: Graph) -> str:
    """Encode graph6 one bit at a time."""
    chunks = []
    accumulator = 0
    filled = 0
    for j, row_j in enumerate(g.rows[1:], start=1):
        for i in range(j):
            accumulator = accumulator << 1 | (row_j >> i & 1)
            filled += 1
            if filled == 6:
                chunks.append(accumulator)
                accumulator = 0
                filled = 0
    if filled:
        chunks.append(accumulator << (6 - filled))
    return "".join(chr(63 + value) for value in _size_prefix(g.nu) + chunks)
