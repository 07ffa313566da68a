"""Order-3 automorphism construction by matched-cell propagation.

For a diamond-free lam = 2 family member, each base vertex u carries a
candidate automorphism fixing u: seed a 3-cycle on one triangle cell of the
neighborhood and propagate the index permutation across every one-regular
(triangle cell, independent cell) matching until all of the vertex set is
covered.  The final permutation is always re-checked as a graph
automorphism, and that check decides: the construction must also run (and
fail loudly) on inputs outside the proofs' hypotheses.

Both steps run in bulk on the renumbering of graphcore.transpose_rows.  The
matchings come from localstats.matched_pairs as masks over one cell-ordered
transpose, the propagation carries the orientations of all cells over
them, and the automorphism check compares perm(N(x)) with N(perm(x)) for
every x from one transpose of the permuted rows.  The masks name the cells
a gap leaves undefined, and the automorphism check names a witness pair for
everything else, two matchings that force different orientations on one
cell among it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Optional, Sequence

from srgpq.graphcore import Graph, GraphError, bits, transpose_rows
from srgpq.localstats import LocalStatsError, _clique_frame, _m0_mask, matched_pairs, psi_partition
from srgpq.params import FamilyInfo, fixed_point_bound
from srgpq.reports import CheckReport


class SigmaConstructionError(ValueError):
    """Base class for failures of the propagation construction."""


class SigmaSeedError(SigmaConstructionError):
    """The base vertex has no triangle cell to seed the 3-cycle on."""


class SigmaCoverageError(SigmaConstructionError):
    """Propagation stalled before covering the whole vertex set."""


class SigmaAutomorphismError(SigmaConstructionError):
    """The propagated permutation is not a graph automorphism."""


class SigmaNormalizationError(SigmaConstructionError):
    """Neither orientation satisfies the family normalization."""


# What build_sigma raises on an input outside its hypotheses.
SIGMA_ERRORS = (SigmaConstructionError, LocalStatsError, GraphError)


class RelatedSetError(ValueError):
    """The unique related 4-set through a pair failed its regeneration check."""


class ClosureCapError(ValueError):
    """Group closure exceeded the configured element cap."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..nu-1 stored as its image array.

    The constructor checks that the images define a bijection.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images do not define a bijection")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __len__(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if len(other.images) != len(self.images):
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, image in enumerate(self.images):
            inv[image] = i
        return Permutation(tuple(inv))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, image in enumerate(self.images) if image == i)

    def order(self) -> int:
        result = 1
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.images[x]
                length += 1
            result = lcm(result, length)
        return result

    def is_identity(self) -> bool:
        return all(image == i for i, image in enumerate(self.images))


@dataclass(frozen=True)
class RelatedSet:
    """The unique 4-set through a vertex pair: a clique, or independent with M_0."""

    members: tuple[int, int, int, int]
    kind: str  # "clique" or "independent-with-M0"


@dataclass(frozen=True)
class GammaReport:
    """The group Gamma: its elements, generators and orbits, with its group properties.

    generate_gamma fills generators with the sifted quotients q_u, an
    irredundant generating set, not every quotient sigma_u sigma_v^{-1}.
    """

    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...]
    orbits: tuple[tuple[int, ...], ...]
    order: int
    abelian: bool
    transitive: bool
    orbit_sizes: tuple[int, ...]
    element_order_histogram: dict[int, int]
    fixed_point_histogram: dict[int, int]
    max_nonidentity_fixed_points: int
    bound: Fraction
    bound_satisfied: bool
    order_power_of_two: bool


def automorphism_witness(g: Graph, perm: Permutation) -> Optional[tuple[int, int]]:
    """First pair whose adjacency is not preserved, or None.

    One transpose gives perm(N(x)) for every x: with row i of a matrix the
    row of perm^-1(i), bit i of its column x is set iff perm^-1(i) ~ x, that
    is iff i is in perm(N(x)).  perm is an automorphism iff that equals
    N(perm(x)) for every x.  The witness is (perm(x), z) for the first x
    where they differ, with z the least vertex in exactly one of the two.
    """
    if len(perm) != g.nu:
        raise ValueError("permutation length does not match the graph")
    rows, images = g.rows, perm.images
    moved = transpose_rows([rows[x] for x in perm.inverse().images], g.nu)
    targets = [rows[image] for image in images]
    if moved == targets:
        return None
    x = next(x for x, (row, target) in enumerate(zip(moved, targets)) if row != target)
    difference = moved[x] ^ targets[x]
    return (images[x], (difference & -difference).bit_length() - 1)


def build_sigma(g: Graph, fam: FamilyInfo, u: int) -> Permutation:
    """Propagate a 3-cycle from one triangle cell to a full candidate automorphism.

    The seed is the ascending 3-cycle (a b c) on the lexicographically least
    cell of the triangle partition at u.  Seeding the descending cycle
    instead would propagate through the same matchings in the same order,
    every transferred map inverted, so it yields exactly the inverse
    permutation; callers take ``.inverse()``.

    The orientations of all cells propagate at once over the masks of
    localstats.matched_pairs.  Raises as phi_partition does, from the cells
    of the frame at u that psi_partition reuses, and on incomplete
    propagation or a final permutation that fails the unconditional
    automorphism check.

    That check also decides where two matchings force different
    orientations on one cell.  The permutation P built fixes u and maps
    each cell onto itself.  Were P an automorphism, then for a one-regular
    pair (A, B) whose bijection f sends a to its one neighbour in B,
    P(a) ~ P(f(a)) would force P(f(a)) = f(P(a)): P's orientation on B is
    A's carried across f, and P meets every constraint of the propagation.
    Conflicting constraints admit no such P, so the check names a pair.
    """
    phi = _clique_frame(g, u, 3).cells
    if not phi:
        raise SigmaSeedError(f"vertex {u} has no neighbours, so no triangle cell to seed")
    psi = psi_partition(g, fam, u)
    sigma = _sigma_from_masks(g, phi, psi, *matched_pairs(g, u, phi, psi))
    witness = automorphism_witness(g, sigma)
    if witness is not None:
        raise SigmaAutomorphismError(f"adjacency not preserved at pair {witness}")
    return sigma


# Every definition is a 3-cycle on a sorted cell (c0, c1, c2), so it is one
# orientation bit: 0 for c0 -> c1 -> c2 -> c0, 1 for the reverse.  Carrying a
# 3-cycle across a bijection keeps its orientation when the bijection lists
# the target cell in rotated order and flips it when the order is reflected,
# in either direction.


def _sigma_from_masks(
    g: Graph,
    phi_cells: Sequence[tuple[int, int, int]],
    psi_cells: Sequence[tuple[int, int, int]],
    matched: Sequence[int],
    flips: Sequence[int],
) -> Permutation:
    """The propagation over all cells at once, raising at a gap.

    The orientations are bit i of one mask for phi cell i and bit 3j of
    another for psi cell j, as in the masks matched and flips of
    localstats.matched_pairs.  A phi cell is visited once, after one of its
    psi cells is defined: it takes its orientation from its defined psi
    cells and defines the others.  Where those cells disagree, the
    matchings conflict and build_sigma's automorphism check rejects
    whatever orientation is taken; without a conflict every orientation in
    the seed's component is forced, whatever the order of the visits.
    """
    ones = ((1 << 3 * len(psi_cells)) - 1) // 7
    phi_turned = 0  # the seed's ascending 3-cycle on phi cell 0
    psi_defined, psi_turned = matched[0], flips[0]
    waiting = range(1, len(phi_cells))
    while waiting:
        stalled = []
        for i in waiting:
            seen = matched[i] & psi_defined
            if not seen:
                stalled.append(i)
                continue
            turned = (psi_turned ^ flips[i]) & seen
            new = matched[i] & ~psi_defined
            psi_turned |= (flips[i] ^ (ones if turned else 0)) & new
            psi_defined |= new
            phi_turned |= bool(turned) << i
        if len(stalled) == len(waiting):
            break
        waiting = stalled
    missing = [("phi", i) for i in waiting] + [("psi", x // 3) for x in bits(ones & ~psi_defined)]
    if missing:
        raise SigmaCoverageError(f"propagation left cells undefined: {missing}")
    return _three_cycles(
        g.nu,
        [(cell, phi_turned >> i & 1) for i, cell in enumerate(phi_cells)]
        + [(cell, psi_turned >> 3 * j & 1) for j, cell in enumerate(psi_cells)],
    )


def _three_cycles(nu: int, oriented: Sequence[tuple[tuple[int, int, int], int]]) -> Permutation:
    """The product of the 3-cycles on disjoint sorted cells, each with its orientation bit.

    With the seed's cell among them, a permutation of order 3.
    """
    images = list(range(nu))
    for (c0, c1, c2), orientation in oriented:
        if orientation:
            images[c0], images[c1], images[c2] = c2, c0, c1
        else:
            images[c0], images[c1], images[c2] = c1, c2, c0
    return Permutation(tuple(images))


def canonical_sigma_family(
    g: Graph, fam: FamilyInfo, kept: dict[int, Permutation], z: int = 0
) -> dict[int, Permutation]:
    """One automorphism per vertex, normalized by sigma_u(z) = sigma_z^{-1}(u).

    sigma_z is build_sigma's permutation at z; for every other u it is
    build_sigma's permutation at u or its inverse, whichever satisfies the
    normalization.  At most one can, and SigmaNormalizationError is raised
    when neither does.

    kept maps base vertices to build_sigma's permutations there, such as
    the sigmas that verified_sigmas keeps.  build_sigma runs only at z and
    at the least vertex r of each orbit of the kept sigmas, and the kept
    builds are reused.  The other vertices u of the orbit are reached
    breadth-first from r over the kept sigmas, a Schreier transversal:
    t_u = s t_x for the kept sigma s with s(x) = u.  Before the
    normalization u gets t_u sigma_r t_u^{-1}, which is s conjugating the
    permutation at x.

    Lemma: an automorphism t with t(r) = u maps the phi and psi cells at r
    onto those at u.  So t sigma_r t^{-1} turns every cell at u as a
    3-cycle, and it is an automorphism, being a product of automorphisms
    that build_sigma verified.  So it commutes with the bijection of every
    matched pair of cells at u and meets every definition that the
    propagation at u forces from the seed's 3-cycle: it is build_sigma's
    permutation at u or its inverse, and the normalization picks the same
    one.  Vertices are visited as by a build at every vertex, z and then
    0..nu-1, each r built when first reached, so by Lemma 1 of
    graphcore.orbit_rows the first error is the same.  With singleton
    orbits, every vertex is built.
    """
    g.check_vertex(z)
    built = dict(kept)
    generators = [(sigma.images, sigma.inverse().images) for sigma in built.values()]
    if z not in built:
        built[z] = build_sigma(g, fam, z)
    sigma_z = built[z]
    inverse_z = sigma_z.inverse()
    transported: dict[int, tuple[int, ...]] = {}
    family = {z: sigma_z}
    for u in range(g.nu):
        if u not in transported:  # the least vertex of its orbit
            transported[u] = (built[u] if u in built else build_sigma(g, fam, u)).images
            orbit = [u]
            for x in orbit:
                for gen, inverse in generators:
                    y = gen[x]
                    if y not in transported:
                        transported[y] = _compose(_compose(gen, transported[x]), inverse)
                        orbit.append(y)
        if u == z:
            continue
        sigma_u = Permutation(transported[u])
        target = inverse_z(u)
        # At most one orientation passes: sigma_u(z) = sigma_u^-1(z) with sigma_u of
        # order 3 makes z a fixed point, so the target sigma_z^-1(u) is z and
        # u = sigma_z(z) = z, which the loop skips.
        if sigma_u(z) != target:
            sigma_u = sigma_u.inverse()
            if sigma_u(z) != target:
                raise SigmaNormalizationError(
                    f"no orientation at {u} satisfies sigma_u({z}) = sigma_{z}^-1({u})"
                )
        family[u] = sigma_u
    return family


def related_set(g: Graph, fam: FamilyInfo, x: int, y: int) -> RelatedSet:
    """The unique related 4-set through x, y: their clique or {x, y} + M_0(x, y).

    Cross-checks that every pair inside the set regenerates the same set, and
    raises RelatedSetError on any mismatch (a hypothesis violation).
    """
    members = _related_members(g, x, y)
    result = RelatedSet(
        members=members,
        kind="clique" if g.adjacent(x, y) else "independent-with-M0",
    )
    for a in members:
        for b in members:
            if a < b and _related_members(g, a, b) != members:
                raise RelatedSetError(
                    f"related set {members} is not regenerated by its pair ({a}, {b})"
                )
    return result


def _related_members(g: Graph, x: int, y: int) -> tuple[int, int, int, int]:
    if x == y:
        raise ValueError("need two distinct vertices")
    if g.adjacent(x, y):
        common = g.row(x) & g.row(y)
        if common.bit_count() != 2:
            raise RelatedSetError(
                f"edge ({x}, {y}) has {common.bit_count()} common neighbors, need 2"
            )
        a, b = bits(common)
        if not g.adjacent(a, b):
            raise RelatedSetError(
                f"common neighbors {a}, {b} of edge ({x}, {y}) are not adjacent"
            )
        return tuple(sorted((x, y, a, b)))
    m0 = _m0_mask(g, x, y)
    if m0.bit_count() != 2:
        raise RelatedSetError(f"M_0({x}, {y}) has size {m0.bit_count()}, need 2")
    return tuple(bits(m0 | (1 << x) | (1 << y)))


def verify_involution_property(
    family: dict[int, Permutation], asserted: bool = True
) -> CheckReport:
    """(sigma_u sigma_v^{-1})^2 must be the identity for every ordered pair.

    With z the first key and q_u = sigma_u sigma_z^{-1}, every quotient
    sigma_u sigma_v^{-1} is q_u q_v^{-1}.  The property holds iff the q_u
    are commuting involutions: (q_u q_v)^2 = q_u^2 q_v^2 for commuting ones,
    and conversely the pair (u, z) makes q_u an involution, and the pair
    (u, v) then makes q_u q_v one, so that q_u q_v = q_v q_u.  So a pass is
    proved from the q_u in key order: each outside the span of those kept
    so far must square to the identity and commute with every kept one,
    and is then kept.  Holding the span as a set is capped at nu elements.
    When a check fails or the cap is hit, the pair loop of
    _first_non_involution names the witness and counts the pairs.
    """
    witness, checked = None, len(family) ** 2
    if not _commuting_involutions(list(family.values())):
        witness, checked = _first_non_involution(family)
    return CheckReport(
        name="involution-property",
        passed=witness is None,
        asserted=asserted,
        details={"pairs_checked": checked},
        witness=witness,
    )


def _commuting_involutions(sigmas: list[Permutation]) -> bool:
    """Whether the q = sigma sigma_z^{-1}, sigma_z first, are commuting involutions.

    False also when the span of the kept q would exceed the degree.
    """
    if not sigmas:
        return True
    inverse_z = sigmas[0].inverse().images
    identity = tuple(range(len(inverse_z)))
    span = {identity}
    kept: list[tuple[int, ...]] = []
    for sigma in sigmas:
        q = _compose(sigma.images, inverse_z)
        if q in span:
            continue
        if _compose(q, q) != identity or any(_compose(q, k) != _compose(k, q) for k in kept):
            return False
        if 2 * len(span) > len(identity):
            return False
        span.update([_compose(q, element) for element in span])
        kept.append(q)
    return True


def _first_non_involution(family: dict[int, Permutation]) -> tuple[Optional[dict], int]:
    """The first ordered pair whose quotient does not square to the identity, and the pairs checked.

    The square of q = sigma_u sigma_v^{-1} is the identity iff q equals its
    inverse sigma_v sigma_u^{-1}: one comparison of two image tuples, with
    no Permutation built.  That condition is symmetric in u and v, and
    holds for u = v, so the first failing ordered pair (in the order of the
    family's keys) has v after u: only those pairs are compared, and the
    count is of the ordered pairs up to the failure.
    """
    keys = list(family)
    images = [family[u].images for u in keys]
    inverses = [family[u].inverse().images for u in keys]
    size = len(keys)
    for i, u in enumerate(keys):
        images_u, inverse_u = images[i], inverses[i]
        for j in range(i + 1, size):
            if _compose(images_u, inverses[j]) != _compose(images[j], inverse_u):
                return {"u": u, "v": keys[j]}, i * size + j + 1
    return None, size * size


def verify_inverse_law(family: dict[int, Permutation], asserted: bool = True) -> CheckReport:
    """sigma_u(v) = sigma_v^{-1}(u), exhaustively over ordered pairs."""
    members = [(u, sigma.images) for u, sigma in family.items()]
    witness = None
    checked = len(members) ** 2
    for i, (u, images_u) in enumerate(members):
        for j, (v, images_v) in enumerate(members):
            if images_v[images_u[v]] != u:
                witness = {"u": u, "v": v, "sigma_u(v)": images_u[v]}
                checked = i * len(members) + j + 1
                break
        if witness:
            break
    return CheckReport(
        name="inverse-law",
        passed=witness is None,
        asserted=asserted,
        details={"pairs_checked": checked},
        witness=witness,
    )


def generate_gamma(
    family: dict[int, Permutation], fam: Optional[FamilyInfo] = None, cap: int = 1 << 16
) -> GammaReport:
    """The group Gamma generated by the quotients sigma_u sigma_v^{-1}, with its properties.

    With z the family's first key and q_u = sigma_u sigma_z^{-1}, every
    quotient is sigma_u sigma_v^{-1} = q_u q_v^{-1}, and each q_u is one of
    them, so the nu quotients q_u generate Gamma.  They are sifted in key
    order: q_u is kept as a generator only when it is not yet in the
    closure of the generators kept before it, and the closure is extended
    breadth-first over the kept generators.  The report's generators are that
    sifted set, in key order.  A group is abelian iff a generating set
    commutes, so commutativity, like the orbits, is read off the sifted set.
    ClosureCapError is raised exactly when the order exceeds a cap of at
    least 1.  Fixed-point counts are checked against the spectral
    fixed-point bound when family data is available.
    """
    if not family:
        raise ValueError("empty family")
    sigma_z = next(iter(family.values()))
    inverse_z = sigma_z.inverse()
    degree = len(sigma_z)
    elements: set[tuple[int, ...]] = {tuple(range(degree))}
    generators: list[tuple[int, ...]] = []
    for sigma in family.values():
        quotient = sigma.compose(inverse_z).images
        if quotient in elements:
            continue
        generators.append(quotient)
        frontier = list(elements)
        while frontier:
            next_frontier = []
            for images in frontier:
                for gen in generators:
                    product = _compose(gen, images)
                    if product not in elements:
                        if len(elements) >= cap:
                            raise ClosureCapError(f"closure exceeded the cap of {cap} elements")
                        elements.add(product)
                        next_frontier.append(product)
            frontier = next_frontier

    abelian = all(
        _compose(a, b) == _compose(b, a)
        for index, a in enumerate(generators)
        for b in generators[index + 1 :]
    )

    orbits = _orbits(generators, degree)
    closure_elements = tuple(Permutation(images) for images in sorted(elements))
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
        bound = Fraction(degree)  # no family data: the trivial bound
    order = len(closure_elements)
    return GammaReport(
        elements=closure_elements,
        generators=tuple(Permutation(images) for images in generators),
        orbits=orbits,
        order=order,
        abelian=abelian,
        transitive=len(orbits) == 1,
        orbit_sizes=tuple(len(orbit) for orbit in orbits),
        element_order_histogram=order_histogram,
        fixed_point_histogram=fixed_histogram,
        max_nonidentity_fixed_points=max_fixed,
        bound=bound,
        bound_satisfied=order == 1 or max_fixed <= bound,
        order_power_of_two=order & (order - 1) == 0,
    )


def verified_sigmas(
    g: Graph, fam: FamilyInfo
) -> tuple[tuple[tuple[int, ...], ...], dict[int, Permutation]]:
    """The vertex orbits of a group generated by verified sigmas, and the sigmas kept.

    The orbits are each sorted, by least vertex; the sigmas are keyed by
    the vertex each was built at.  Only lam = 2 members have sigmas; for
    any other family every orbit is a singleton.  The first sigma is built
    at vertex 0 and each next one at the least vertex outside the orbit of
    0.  Building stops at one orbit, at a build that raises one of
    SIGMA_ERRORS or does not merge two orbits, or after nu.bit_length()
    builds, and the orbits of the sigmas kept so far are returned.
    build_sigma returns only permutations that pass its automorphism
    check, so these orbits keep graphcore.orbit_rows' contract.
    """
    orbits = tuple((v,) for v in range(g.nu))
    kept: dict[int, Permutation] = {}
    if fam.lam != 2:
        return orbits, kept
    generators: list[tuple[int, ...]] = []
    while len(orbits) > 1 and len(kept) < g.nu.bit_length():
        u = orbits[1][0] if kept else 0
        try:
            sigma = build_sigma(g, fam, u)
        except SIGMA_ERRORS:
            break
        merged = _orbits(generators + [sigma.images], g.nu)
        if len(merged) == len(orbits):
            break
        generators.append(sigma.images)
        kept[u] = sigma
        orbits = merged
    return orbits, kept


def _orbits(generators: list[tuple[int, ...]], degree: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of 0..degree-1 under the image arrays, each sorted, by least vertex."""
    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for gen in generators:
                y = gen[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """The images of outer after inner, gathered in C by one itemgetter."""
    if len(inner) < 2:  # itemgetter returns a bare item for one index and fails on none
        return tuple(outer[i] for i in inner)
    return itemgetter(*inner)(outer)
