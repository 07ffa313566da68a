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
from typing import Optional

from srgpq.graphcore import Graph, bits, phi_partition
from srgpq.localstats import _m0_mask, matched_pairs, psi_partition
from srgpq.params import FamilyInfo, fixed_point_bound
from srgpq.reports import CheckReport


class SigmaConstructionError(ValueError):
    """Base class for failures of the propagation construction."""


class SigmaConflictError(SigmaConstructionError):
    """Two propagation routes forced different definitions on one cell."""


class SigmaCoverageError(SigmaConstructionError):
    """Propagation stalled before covering the whole vertex set."""


class SigmaAutomorphismError(SigmaConstructionError):
    """The propagated permutation is not a graph automorphism."""


class SigmaNormalizationError(SigmaConstructionError):
    """Neither orientation satisfies the family normalization."""


class RelatedSetError(ValueError):
    """The unique related 4-set through a pair failed its regeneration check."""


class ClosureCapError(ValueError):
    """Group closure exceeded the configured element cap."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..nu-1 stored as its image array."""

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
        return Permutation(tuple(self.images[i] for i in other.images))

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
class GroupClosure:
    """A finite permutation group with generator list and orbit partition."""

    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...]
    orbits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GammaReport:
    """Closure of the sigma-quotient generators together with its group properties."""

    closure: GroupClosure
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
    """First pair whose adjacency is not preserved, or None."""
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


def build_sigma(
    g: Graph,
    fam: FamilyInfo,
    u: int,
    seed_cell: Optional[tuple[int, int, int]] = None,
) -> Permutation:
    """Propagate a 3-cycle from one triangle cell to a full candidate automorphism.

    seed_cell defaults to the lexicographically least cell of the triangle
    partition at u, and the seed is the ascending 3-cycle (a b c) on it.
    Seeding the descending cycle instead would propagate through the same
    table in the same order, every transferred map inverted, so it yields
    exactly the inverse permutation; callers take ``.inverse()``.
    Raises on conflicting definitions, incomplete propagation, or a final
    permutation that fails the unconditional automorphism check.
    """
    phi = phi_partition(g, u)
    psi = psi_partition(g, fam, u)
    table = matched_pairs(g, u, phi, psi)
    if seed_cell is None:
        seed_cell = phi.cells[0]
    else:
        seed_cell = tuple(sorted(seed_cell))
        if seed_cell not in phi.cells:
            raise ValueError(f"seed cell {seed_cell} is not a cell of the triangle partition")

    phi_index = {cell: i for i, cell in enumerate(phi.cells)}
    partners_of_phi: dict[int, list[int]] = {i: [] for i in range(len(phi.cells))}
    partners_of_psi: dict[int, list[int]] = {j: [] for j in range(len(psi.cells))}
    for (i, j) in table.bijections:
        partners_of_phi[i].append(j)
        partners_of_psi[j].append(i)

    defined: dict[tuple[str, int], dict[int, int]] = {}
    seed_key = ("phi", phi_index[seed_cell])
    a, b, c = seed_cell
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

    expected_cells = len(phi.cells) + len(psi.cells)
    if len(defined) != expected_cells:
        missing = [
            (kind, index)
            for kind in ("phi", "psi")
            for index in range(len(phi.cells) if kind == "phi" else len(psi.cells))
            if (kind, index) not in defined
        ]
        raise SigmaCoverageError(f"propagation left cells undefined: {missing}")

    images = list(range(g.nu))
    for mapping in defined.values():
        for source, target in mapping.items():
            images[source] = target
    sigma = Permutation(tuple(images))
    witness = automorphism_witness(g, sigma)
    if witness is not None:
        raise SigmaAutomorphismError(f"adjacency not preserved at pair {witness}")
    if sigma.order() != 3:
        raise SigmaAutomorphismError(f"constructed permutation has order {sigma.order()}, not 3")
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
            if [images_u[x] for x in inverses[j]] != [images_v[x] for x in inverse_u]:
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
    """Closure of all quotients sigma_u sigma_v^{-1} with its group properties.

    Breadth-first multiplication over hash-consed image tuples, aborting past
    the element cap.  Reports order, commutativity of the generators,
    transitivity, orbit sizes, element orders, and fixed-point counts checked
    against the spectral fixed-point bound when family data is available.
    """
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
        bound = Fraction(degree)  # no family data: the trivial bound
    bound_satisfied = all(
        len(element.fixed_points()) <= bound
        for element in closure_elements
        if not element.is_identity()
    )
    order = len(closure_elements)
    return GammaReport(
        closure=GroupClosure(elements=closure_elements, generators=generators, orbits=orbits_sorted),
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
