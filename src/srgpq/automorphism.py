"""Order-3 automorphism construction by matched-cell propagation.

For a diamond-free lam = 2 family member, each base vertex u carries a
candidate automorphism fixing u: seed a 3-cycle on one triangle cell of the
neighborhood and propagate the index permutation across every one-regular
(triangle cell, independent cell) matching until all of the vertex set is
covered.  Definitions are write-once with conflict detection, and the final
permutation is always re-checked as a graph automorphism: the construction
must also run (and fail loudly) on inputs outside the proofs' hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Optional

from srgpq.graphcore import Graph, GraphError, bits, phi_partition
from srgpq.localstats import LocalStatsError, _m0_mask, matched_pairs, psi_partition
from srgpq.params import FamilyInfo, fixed_point_bound
from srgpq.reports import CheckReport


class SigmaConstructionError(ValueError):
    """Base class for failures of the propagation construction."""


class SigmaSeedError(SigmaConstructionError):
    """The base vertex has no triangle cell to seed the 3-cycle on."""


class SigmaConflictError(SigmaConstructionError):
    """Two propagation routes forced different definitions on one cell."""


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

    Character y of row x's reversed binary string is its bit y, so gathering
    row perm(x)'s string at perm's images gives at position y whether
    perm(x) ~ perm(y): perm preserves row x iff that gives row x's string
    back, one C-level gather a row.  The witness is (perm(x), z) for the
    first row x that differs, with z the least perm(y) over its differing
    positions y: the least vertex in exactly one of N(perm(x)) and perm(N(x)).
    """
    if len(perm) != g.nu:
        raise ValueError("permutation length does not match the graph")
    rows, images = g.rows, perm.images
    if not rows:  # itemgetter needs at least one index
        return None
    width = f"0{g.nu}b"
    strings = [format(row, width)[::-1] for row in rows]
    gather = itemgetter(*images)
    for image, string in zip(images, strings):
        gathered = gather(strings[image])
        if "".join(gathered) != string:
            return (image, min(images[y] for y, bit in enumerate(gathered) if bit != string[y]))
    return None


def build_sigma(g: Graph, fam: FamilyInfo, u: int) -> Permutation:
    """Propagate a 3-cycle from one triangle cell to a full candidate automorphism.

    The seed is the ascending 3-cycle (a b c) on the lexicographically least
    cell of the triangle partition at u.  Seeding the descending cycle
    instead would propagate through the same table in the same order, every
    transferred map inverted, so it yields exactly the inverse permutation;
    callers take ``.inverse()``.
    Raises on conflicting definitions, incomplete propagation, or a final
    permutation that fails the unconditional automorphism check.
    """
    phi = phi_partition(g, u)
    if not phi.cells:
        raise SigmaSeedError(f"vertex {u} has no neighbours, so no triangle cell to seed")
    psi = psi_partition(g, fam, u)
    table = matched_pairs(g, u, phi, psi)

    # Every definition is a 3-cycle on a sorted cell (c0, c1, c2), so it is
    # one orientation bit: 0 for c0 -> c1 -> c2 -> c0, 1 for the reverse.
    # Carrying a 3-cycle across a bijection keeps its orientation when the
    # bijection lists the target cell in rotated order and flips it when
    # the order is reflected, in either direction.
    partners: dict[tuple[str, int], list[tuple[tuple[str, int], int]]] = {
        **{("phi", i): [] for i in range(len(phi.cells))},
        **{("psi", j): [] for j in range(len(psi.cells))},
    }
    for (i, j), bijection in table.bijections.items():
        x, y, z = bijection.values()
        flip = ((x > y) + (x > z) + (y > z)) & 1
        partners[("phi", i)].append((("psi", j), flip))
        partners[("psi", j)].append((("phi", i), flip))

    seed_key = ("phi", 0)
    defined = {seed_key: 0}  # the ascending 3-cycle (a b c)
    worklist = [seed_key]
    while worklist:
        source = worklist.pop()
        for key, flip in partners[source]:
            orientation = defined[source] ^ flip
            if key not in defined:
                defined[key] = orientation
                worklist.append(key)
            elif defined[key] != orientation:
                raise SigmaConflictError(
                    f"conflicting definitions on cell {key} propagated from {source}"
                )

    if len(defined) != len(partners):
        missing = [key for key in partners if key not in defined]
        raise SigmaCoverageError(f"propagation left cells undefined: {missing}")

    # The cells are disjoint, so the images are a product of 3-cycles, the seed's
    # among them: a permutation of order 3.
    images = list(range(g.nu))
    for (kind, index), orientation in defined.items():
        c0, c1, c2 = (phi if kind == "phi" else psi).cells[index]
        if orientation:
            images[c0], images[c1], images[c2] = c2, c0, c1
        else:
            images[c0], images[c1], images[c2] = c1, c2, c0
    sigma = Permutation(tuple(images))
    witness = automorphism_witness(g, sigma)
    if witness is not None:
        raise SigmaAutomorphismError(f"adjacency not preserved at pair {witness}")
    return sigma


def canonical_sigma_family(g: Graph, fam: FamilyInfo, z: int = 0) -> dict[int, Permutation]:
    """One automorphism per vertex, normalized by sigma_u(z) = sigma_z^{-1}(u).

    sigma_z is build_sigma's permutation at z; for every other u it is
    build_sigma's permutation at u or its inverse, whichever satisfies the
    normalization.  At most one can, and SigmaNormalizationError is raised
    when neither does.
    """
    g.check_vertex(z)
    sigma_z = build_sigma(g, fam, z)
    inverse_z = sigma_z.inverse()
    family = {z: sigma_z}
    for u in range(g.nu):
        if u == z:
            continue
        sigma_u = build_sigma(g, fam, u)
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

    The square of q = sigma_u sigma_v^{-1} is the identity iff q equals its
    inverse sigma_v sigma_u^{-1}: one comparison of two image tuples, with
    no Permutation built.  That condition is symmetric in u and v, and
    holds for u = v, so the first failing ordered pair (in the order of the
    family's keys) has v after u: only those pairs are compared, and
    pairs_checked counts the ordered pairs up to the failure as before.
    """
    keys = list(family)
    images = [family[u].images for u in keys]
    inverses = [family[u].inverse().images for u in keys]
    size = len(keys)
    witness = None
    checked = size * size
    for i, u in enumerate(keys):
        images_u, inverse_u = images[i], inverses[i]
        for j in range(i + 1, size):
            images_v = images[j]
            if _compose(images_u, inverses[j]) != _compose(images_v, inverse_u):
                witness = {"u": u, "v": keys[j]}
                checked = i * size + j + 1
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


def verify_inverse_law(family: dict[int, Permutation], asserted: bool = True) -> CheckReport:
    """sigma_u(v) = sigma_v^{-1}(u), exhaustively over ordered pairs."""
    witness = None
    checked = 0
    for u, sigma_u in family.items():
        for v, sigma_v in family.items():
            checked += 1
            if sigma_v(sigma_u(v)) != u:
                witness = {"u": u, "v": v, "sigma_u(v)": sigma_u(v)}
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


def vertex_orbits(g: Graph, fam: FamilyInfo) -> tuple[tuple[int, ...], ...]:
    """The vertex orbits of a group generated by verified sigmas, each sorted, by least vertex.

    A per-base-vertex check gives the same verdict at every vertex of an
    orbit of an automorphism group, so a sweep may visit the least vertex
    of each orbit and count it once per vertex of the orbit.  Only lam = 2
    members have sigmas; for any other family every orbit is a singleton.
    The first sigma is built at vertex 0 and each next one at the least
    vertex outside the orbit of 0.  Building stops at one orbit, at a build
    that raises one of SIGMA_ERRORS or does not merge two orbits, or after
    nu.bit_length() builds, and the orbits of the sigmas kept so far are
    returned.  build_sigma returns only permutations that pass its
    automorphism check, so these are always orbits of automorphisms.
    """
    orbits = tuple((v,) for v in range(g.nu))
    if fam.lam != 2:
        return orbits
    generators: list[tuple[int, ...]] = []
    while len(orbits) > 1 and len(generators) < g.nu.bit_length():
        try:
            sigma = build_sigma(g, fam, orbits[1][0] if generators else 0)
        except SIGMA_ERRORS:
            break
        merged = _orbits(generators + [sigma.images], g.nu)
        if len(merged) == len(orbits):
            break
        generators.append(sigma.images)
        orbits = merged
    return orbits


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
