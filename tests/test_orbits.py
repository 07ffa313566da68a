"""Orbit reduction: orbit_rows, verified_sigmas, the sweeps that visit one vertex per orbit, and the family.

The driver builds the verified sigmas of the member proposed at row 0 once
per call, before the preconditions.  is_srg_report and is_diamond_free must
give, with the driver's orbits, what they give with singleton orbits, the
loops over every pair and every vertex: on the witnesses, relabelled
copies, mutants and random graphs with a known automorphism.  On the two
mutants that keep sigma_0 the orbit pass must name the loop's first failing
pair by itself.  Every analysis must build the sigmas it built before, each
once.

check-con, local-stats, eq-pq, check-star and check-psi must give the
report of their full pass, which they run when every build_sigma raises and
every orbit is a singleton, and the report built from the references in
tests/oracles.py.  They must do so with the whole group, with the partial
groups of the first one and two sigmas, on relabelled witnesses and on
mutants.  A mutant that toggles a whole sigma_0-orbit of vertex pairs keeps
sigma_0 as an automorphism, so its orbits are the 3-cycles of sigma_0 and
its failures are spread over orbits of sizes 1 and 3.

canonical_sigma_family builds only at z and at the least vertex of each
orbit, and transports those sigmas to the rest of the orbit.  It must give
the family, or the exception type and message, of the build at every
vertex in tests/oracles.py: with the whole group, with the partial groups
of none, one and two kept sigmas, on relabelled witnesses and on mutants.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srgpq.cli
from perfbench.inputs import gq35_rows, ovoid256_rows, toggle, two_switch
from srgpq import automorphism
from srgpq.automorphism import (
    Permutation,
    SigmaAutomorphismError,
    SigmaConstructionError,
    SigmaSeedError,
    automorphism_witness,
    build_sigma,
    canonical_sigma_family,
    verified_sigmas,
)
from srgpq.cli import FamilyContext, _check_psi, _check_star, serialize_graph6
from srgpq.geometry import build_gq35, build_ovoid256, build_rook4, build_shrikhande
from srgpq.graphcore import Graph, is_diamond_free, is_srg_report, orbit_rows
from srgpq.localstats import check_condition_con, m_spectrum_histogram, verify_eq_pq
from srgpq.params import FamilyInfo
from tests import oracles
from tests.test_kernels import _outcome, _shuffled

GQ35 = FamilyInfo.from_n_lam(2, 2)
OVOID = FamilyInfo.from_n_lam(3, 2)


def _histogram(g: Graph, fam: FamilyInfo):
    sweep = m_spectrum_histogram(g, fam, verified_sigmas(g, fam)[0])
    return sweep.histogram, sweep.failure


SWEEPS = {
    "check-con": lambda g, fam: check_condition_con(g, verified_sigmas(g, fam)[0]),
    "local-stats": _histogram,
    "eq-pq": lambda g, fam: verify_eq_pq(g, fam, verified_sigmas(g, fam)[0]),
    "check-star": lambda g, fam: _check_star(None, g, FamilyContext(fam, *verified_sigmas(g, fam))),
    "check-psi": lambda g, fam: _check_psi(None, g, FamilyContext(fam, *verified_sigmas(g, fam))),
}


def _limited(builds, made: list):
    """build_sigma that raises from build number builds + 1 of each verified_sigmas call on."""

    def limited(g, fam, u):
        if u == 0:  # verified_sigmas builds at 0 first, and never again
            made.clear()
        if builds is not None and len(made) >= builds:
            raise SigmaConstructionError(f"build {len(made) + 1} refused")
        made.append(u)
        return build_sigma(g, fam, u)

    return limited


def _sweeps(g: Graph, fam: FamilyInfo, monkeypatch, builds=None):
    """The orbits and the outcome of every sweep, with at most builds sigmas built (None: any)."""
    made: list = []
    with monkeypatch.context() as patch:
        patch.setattr(automorphism, "build_sigma", _limited(builds, made))
        orbits = verified_sigmas(g, fam)[0]
        return orbits, {name: _outcome(sweep, g, fam) for name, sweep in SWEEPS.items()}


def _oracle_sweeps(g: Graph, fam: FamilyInfo, monkeypatch) -> dict:
    """Every sweep from the references: whole-graph loops, and per-vertex ones at every vertex."""
    with monkeypatch.context() as patch:
        patch.setattr(automorphism, "build_sigma", _limited(0, []))
        for name in ("verify_inv_formula", "verify_star", "verify_psi_regularity"):
            patch.setattr(f"srgpq.cli.{name}", getattr(oracles, name))
        return {
            "check-con": _outcome(oracles.check_condition_con, g, fam),
            "local-stats": _outcome(oracles.m_spectrum_histogram, g, fam),
            "eq-pq": _outcome(oracles.verify_eq_pq, g, fam),
            "check-star": _outcome(SWEEPS["check-star"], g, fam),
            "check-psi": _outcome(SWEEPS["check-psi"], g, fam),
        }


def _cycles(perm: Permutation) -> tuple[tuple[int, ...], ...]:
    """The cycles of perm, each sorted, by least vertex."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm(cycle[-1]) != start:
                cycle.append(perm(cycle[-1]))
            seen.update(cycle)
            cycles.append(tuple(sorted(cycle)))
    return tuple(cycles)


def _sigma_0_mutant(rows: list[int], fam: FamilyInfo, seed: int) -> list[int]:
    """rows with the sigma_0-orbit of one pair of non-neighbours of 0 toggled."""
    sigma = build_sigma(Graph(rows), fam, 0)
    outside = [x for x in range(1, len(rows)) if not rows[0] >> x & 1]
    a, b = random.Random(seed).sample(outside, 2)
    mutant = list(rows)
    for _ in range(3):
        mutant[a] ^= 1 << b
        mutant[b] ^= 1 << a
        a, b = sigma(a), sigma(b)
    return mutant


def test_orbit_rows_gives_each_least_vertex_its_orbit_size_and_the_earlier_mask():
    assert list(orbit_rows(4, None)) == [(0, 1, 0b1), (1, 1, 0b11), (2, 1, 0b111), (3, 1, 0b1111)]
    assert list(orbit_rows(0, None)) == []
    assert list(orbit_rows(6, ((0, 3), (1, 2, 5), (4,)))) == [(0, 2, 0b1), (1, 3, 0b11), (4, 1, 0b10011)]
    assert list(orbit_rows(64, ((9,),))) == [(9, 1, 1 << 9)]
    # the 22 orbits of sigma_0 on GQ(3,5): 0 fixed and 21 3-cycles
    sigma = build_sigma(build_gq35(), GQ35, 0)
    least = [x for x in range(64) if x == min(x, sigma(x), sigma(sigma(x)))]
    rows = list(orbit_rows(64, _cycles(sigma)))
    assert [r for r, _, _ in rows] == least and len(least) == 22
    assert [size for _, size, _ in rows] == [1 if sigma(r) == r else 3 for r in least] == [1] + [3] * 21
    assert [earlier for _, _, earlier in rows] == [sum(1 << x for x in least[:i + 1]) for i in range(22)]


def test_vertex_orbits_are_transitive_on_the_witnesses(monkeypatch):
    # 4 builds at n = 2 and 5 at n = 3, on the witnesses and relabelled copies
    for rows, fam, builds in ((gq35_rows(), GQ35, 4), (ovoid256_rows(), OVOID, 5)):
        for copy in (rows, _shuffled(rows, 7)):
            made: list = []
            monkeypatch.setattr(automorphism, "build_sigma", _limited(None, made))
            assert verified_sigmas(Graph(copy), fam)[0] == (tuple(range(len(rows))),)
            assert made[0] == 0 and len(made) == builds


def test_vertex_orbits_build_the_next_sigma_outside_the_orbit_of_0(monkeypatch):
    made: list = []
    monkeypatch.setattr(automorphism, "build_sigma", _limited(None, made))
    g = Graph(gq35_rows())
    verified_sigmas(g, GQ35)
    for k in range(1, len(made)):
        orbits = automorphism._orbits([build_sigma(g, GQ35, u).images for u in made[:k]], g.nu)
        assert made[k] == orbits[1][0]


def test_vertex_orbits_are_singletons_without_sigmas(monkeypatch):
    made = []

    def recorded(g, fam, u):
        made.append(u)
        return build_sigma(g, fam, u)

    monkeypatch.setattr(automorphism, "build_sigma", recorded)
    # only lam = 2 members have sigmas: nothing is built for any other family
    assert verified_sigmas(Graph(gq35_rows()), FamilyInfo.from_n_lam(2, 1))[0] == tuple(
        (v,) for v in range(64)
    )
    assert made == []
    # a first build that raises: rook4, the n = -2 member, and a vertex with no neighbours
    assert verified_sigmas(build_rook4(), FamilyInfo.from_n_lam(-2, 2))[0] == tuple(
        (v,) for v in range(16)
    )
    assert verified_sigmas(Graph([0, 0, 0, 0]), GQ35)[0] == ((0,), (1,), (2,), (3,))
    assert made == [0, 0]
    # one vertex is one orbit, and no vertex none: nothing to build
    assert verified_sigmas(Graph([0]), GQ35)[0] == ((0,),)
    assert verified_sigmas(Graph([]), GQ35)[0] == ()
    assert made == [0, 0]


def test_a_failed_automorphism_check_leaves_the_orbits_of_sigma_0(monkeypatch):
    # the soundness argument: only sigmas that passed build_sigma's check merge orbits
    g = Graph(gq35_rows())
    sigma_0 = build_sigma(g, GQ35, 0)
    made = []

    def second_fails(graph, fam, u):
        made.append(u)
        if len(made) == 2:
            raise SigmaAutomorphismError("adjacency not preserved at pair (0, 1)")
        return build_sigma(graph, fam, u)

    monkeypatch.setattr(automorphism, "build_sigma", second_fails)
    orbits = verified_sigmas(g, GQ35)[0]
    assert orbits == _cycles(sigma_0)
    assert len(orbits) == 22 and len(made) == 2


def test_vertex_orbits_stop_at_a_build_that_merges_nothing_and_after_bit_length_builds(monkeypatch):
    # on an edgeless graph every permutation is an automorphism; a stand-in
    # sigma at u > 0 swaps u - 1 and u, joining u to the orbit of 0
    def swap(g, fam, u):
        images = list(range(g.nu))
        a = max(u - 1, 0)
        images[a], images[a + 1] = a + 1, a
        return Permutation(tuple(images))

    monkeypatch.setattr(automorphism, "build_sigma", swap)
    orbits = verified_sigmas(Graph([0] * 8), GQ35)[0]
    assert orbits == ((0, 1, 2, 3, 4),) + tuple((v,) for v in range(5, 8))  # 8.bit_length() builds

    def identity_after_0(g, fam, u):
        return swap(g, fam, u) if u == 0 else Permutation.identity(g.nu)

    monkeypatch.setattr(automorphism, "build_sigma", identity_after_0)
    assert verified_sigmas(Graph([0] * 8), GQ35)[0] == ((0, 1),) + tuple((v,) for v in range(2, 8))


def test_build_sigma_names_a_vertex_without_neighbours():
    for rows in ([0], [0, 0, 0, 0]):
        with pytest.raises(SigmaSeedError, match="vertex 0 has no neighbours"):
            build_sigma(Graph(rows), GQ35, 0)
    # vertex 3 of a triangle plus an isolated vertex
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(SigmaSeedError, match="vertex 3 has no neighbours"):
        build_sigma(g, GQ35, 3)


def _gq35_inputs() -> dict:
    rows = gq35_rows()
    rng = random.Random(17)
    return {
        "gq35": rows,
        "relabelled": _shuffled(rows, 3),
        "sigma_0-mutant": _sigma_0_mutant(rows, GQ35, 1),
        "relabelled-sigma_0-mutant": _sigma_0_mutant(_shuffled(rows, 4), GQ35, 2),
        "toggle": toggle(rows, rng),
        "two-switch": two_switch(rows, rng),
    }


@pytest.mark.parametrize("name", list(_gq35_inputs()))
def test_sweeps_match_the_full_pass_and_the_oracles_at_n2(name, monkeypatch):
    g = Graph(_gq35_inputs()[name])
    orbits, reduced = _sweeps(g, GQ35, monkeypatch)
    assert reduced == _oracle_sweeps(g, GQ35, monkeypatch)
    sizes = set()
    for builds in (0, 1, 2):
        partial, outcomes = _sweeps(g, GQ35, monkeypatch, builds)
        assert outcomes == reduced, f"{builds} builds"
        sizes.add(len(partial))
    if name in ("gq35", "relabelled"):
        assert len(orbits) == 1 and sizes >= {64, 22}  # 1 build: the 3-cycles of sigma_0
        assert all(outcome[0] == "returned" for outcome in reduced.values())
    elif "sigma_0" in name:
        assert len(orbits) == 22  # the 3-cycles of sigma_0, which the mutant keeps
        (partition, _), _ = reduced["check-psi"][1]
        assert not partition.passed and partition.details["failures"] > 3
    else:
        assert len(orbits) == 64  # a mutant keeps no sigma


def test_an_orbit_invariant_star_fault_is_counted_once_a_vertex(monkeypatch):
    g = Graph(gq35_rows())
    kernel = srgpq.cli.verify_star
    witness = {"entry": [1, 2], "lhs": 0, "rhs": 4}
    cycles = [x for cycle in _cycles(build_sigma(g, GQ35, 0)) if {5, 9} & set(cycle) for x in cycle]
    # a fault on every vertex, with the whole group and without, and on the
    # two 3-cycles of sigma_0 through 5 and 9, with sigma_0 alone and without
    for builds, failing in ((None, range(64)), (0, range(64)), (1, cycles), (0, cycles)):

        def failing_kernel(graph, fam, u):
            report = kernel(graph, fam, u)
            failed = dataclasses.replace(report, passed=False, witness=witness)
            return failed if u in failing else report

        monkeypatch.setattr("srgpq.cli.verify_star", failing_kernel)
        _, outcomes = _sweeps(g, GQ35, monkeypatch, builds)
        checks, results = outcomes["check-star"][1]
        star = {check.name: check for check in checks}["star-identity"]
        assert star.details == {"vertices_checked": 64, "failures": len(failing)}
        assert star.witness == {"u": min(failing), "witness": witness}
        assert results == {"vertices_checked": 64}


def test_sweeps_at_n3_give_the_reports_of_the_witness_on_a_relabelled_copy(monkeypatch):
    # passing reports at n = 3 name no vertex, so a relabelled copy must give
    # them unchanged; the witness's own are pinned in tests/test_regime_n3.py
    _, reduced = _sweeps(Graph(ovoid256_rows()), OVOID, monkeypatch)
    orbits, relabelled = _sweeps(Graph(_shuffled(ovoid256_rows(), 5)), OVOID, monkeypatch)
    assert len(orbits) == 1
    assert relabelled == reduced
    assert all(outcome[0] == "returned" for outcome in reduced.values())


@pytest.mark.slow
def test_sweeps_match_the_full_pass_at_n3(monkeypatch):
    # a relabelled witness is one orbit, a sigma_0-mutant the 86 cycles of sigma_0
    rows = ovoid256_rows()
    for copy, count in ((_shuffled(rows, 6), 1), (_sigma_0_mutant(rows, OVOID, 3), 86)):
        g = Graph(copy)
        orbits, reduced = _sweeps(g, OVOID, monkeypatch)
        assert len(orbits) == count
        for builds in (0, 1):
            assert _sweeps(g, OVOID, monkeypatch, builds)[1] == reduced


# The sigma family by transport, against the build at every vertex.


def _family(function, *args):
    """The family's items in key order, or the type and message of what it raised."""
    outcome = _outcome(function, *args)
    return ("returned", list(outcome[1].items())) if outcome[0] == "returned" else outcome


def _transported(g: Graph, fam: FamilyInfo, z: int, monkeypatch, builds=None):
    """canonical_sigma_family with at most builds sigmas kept as generators (None: any)."""
    with monkeypatch.context() as patch:
        patch.setattr(automorphism, "build_sigma", _limited(builds, []))
        _, kept = verified_sigmas(g, fam)
    return _family(canonical_sigma_family, g, fam, kept, z)


@pytest.mark.parametrize("name", list(_gq35_inputs()))
def test_the_family_by_transport_is_the_build_at_every_vertex_at_n2(name, monkeypatch):
    g = Graph(_gq35_inputs()[name])
    for z in (0, 5):
        expected = _family(oracles.canonical_sigma_family, g, GQ35, z)
        for builds in (None, 0, 1, 2):
            assert _transported(g, GQ35, z, monkeypatch, builds) == expected, f"{builds} builds"
        assert expected[0] == ("returned" if name in ("gq35", "relabelled") else "raised")


@pytest.fixture(scope="module")
def ovoid_families():
    """The witness and a relabelled copy, each with the oracle's families at z = 0 and 5."""
    rows = ovoid256_rows()
    graphs = {"ovoid256": Graph(rows), "relabelled": Graph(_shuffled(rows, 8))}
    return {
        (name, z): (g, _family(oracles.canonical_sigma_family, g, OVOID, z))
        for name, g in graphs.items()
        for z in (0, 5)
    }


def test_the_family_by_transport_is_the_build_at_every_vertex_at_n3(ovoid_families, monkeypatch):
    for (name, z), (g, expected) in ovoid_families.items():
        assert expected[0] == "returned"
        assert _transported(g, OVOID, z, monkeypatch) == expected, (name, z)
    g, expected = ovoid_families["ovoid256", 5]
    for builds in (1, 2):
        assert _transported(g, OVOID, 5, monkeypatch, builds) == expected, f"{builds} builds"


def test_the_family_raises_as_the_build_at_every_vertex(monkeypatch):
    # rook4 fails its first build; a sigma_0-mutant keeps sigma_0 and fails at
    # vertex 1, a representative, or at z = 5, where it is mutated
    cases = [
        (build_rook4(), FamilyInfo.from_n_lam(-2, 2)),
        (Graph(_sigma_0_mutant(gq35_rows(), GQ35, 1)), GQ35),
        (Graph(_sigma_0_mutant(ovoid256_rows(), OVOID, 1)), OVOID),
    ]
    for g, fam in cases:
        for z in (0, 5):
            outcome = _transported(g, fam, z, monkeypatch)
            assert outcome[0] == "raised"
            assert outcome == _family(oracles.canonical_sigma_family, g, fam, z)


def test_the_family_builds_at_z_and_at_the_representatives_only(monkeypatch):
    # verified_sigmas' builds at 0, 1, 4, 16 (and 64 at n = 3) are reused; z = 5 is one more
    cases = ((gq35_rows(), GQ35, [0, 1, 4, 16]), (ovoid256_rows(), OVOID, [0, 1, 4, 16, 64]))
    for rows, fam, kept in cases:
        g = Graph(rows)
        for z, builds in ((0, kept), (1, kept), (5, kept + [5])):
            made: list = []
            monkeypatch.setattr(automorphism, "build_sigma", _limited(None, made))
            canonical_sigma_family(g, fam, verified_sigmas(g, fam)[1], z)
            assert made == builds


# The preconditions by orbit, against the loops over every pair and every vertex.


def _sigma_0_switch(rows: list[int], fam: FamilyInfo, seed: int) -> list[int]:
    """rows with a 2-switch ab, cd -> ac, bd and its images under sigma_0: regular, sigma_0 kept."""
    sigma = build_sigma(Graph(rows), fam, 0)
    nu = len(rows)
    edges = [(u, v) for u in range(1, nu) for v in range(u + 1, nu) if rows[u] >> v & 1]
    rng = random.Random(seed)
    while True:
        quad = sum(rng.sample(edges, 2), ())
        mutant = list(rows)
        for _ in range(3):
            a, b, c, d = quad
            switchable = mutant[a] >> b & mutant[c] >> d & 1 and not mutant[a] >> c & 1
            if len(set(quad)) < 4 or not switchable or mutant[b] >> d & 1:
                break
            for x, y in ((a, b), (c, d), (a, c), (b, d)):
                mutant[x] ^= 1 << y
                mutant[y] ^= 1 << x
            quad = tuple(sigma(x) for x in quad)
        else:
            return mutant


def _precondition_inputs() -> dict:
    """Rows by name: four witnesses, a relabelled copy, a toggle and a 2-switch of each."""
    rng = random.Random(23)
    witnesses = {
        "gq35": gq35_rows(),
        "ovoid256": ovoid256_rows(),
        "rook4": list(build_rook4().rows),
        "shrikhande": list(build_shrikhande().rows),
    }
    graphs = {}
    for seed, (name, rows) in enumerate(witnesses.items()):
        graphs[name] = rows
        graphs[f"{name}-relabelled"] = _shuffled(rows, seed)
        graphs[f"{name}-toggle"] = toggle(rows, rng)
        graphs[f"{name}-two-switch"] = two_switch(rows, rng)
    graphs["gq35-sigma_0-switch"] = _sigma_0_switch(gq35_rows(), GQ35, 0)
    graphs["ovoid256-sigma_0-switch"] = _sigma_0_switch(ovoid256_rows(), OVOID, 2)
    return graphs


def _driver_orbits(g: Graph):
    """The orbits that the driver's preconditions check g with, and their check."""
    seen = []
    kernel = srgpq.cli.is_srg_report
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(srgpq.cli, "is_srg_report",
                      lambda graph, orbits: seen.append(orbits) or kernel(graph, orbits))
        check, _ = srgpq.cli._family_context(g)
    return seen[0], check


def _singletons(graph: Graph, fam: FamilyInfo):
    """A stand-in for the driver's verified sigmas that keeps no sigma and records no error."""
    return tuple((v,) for v in range(graph.nu)), {}, None


def _all_pairs_check(g: Graph):
    """The driver's preconditions check with singleton orbits."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(srgpq.cli, "_verified_sigmas", _singletons)
        return srgpq.cli._family_context(g)[0]


def _assert_preconditions_agree(g: Graph, orbits) -> None:
    singletons = tuple((v,) for v in range(g.nu))
    assert is_srg_report(g, orbits) == is_srg_report(g, singletons) == is_srg_report(g)
    assert is_srg_report(g, orbits) == oracles.is_srg_report(g, orbits) == oracles.is_srg_report(g)
    assert is_diamond_free(g, orbits) == is_diamond_free(g, singletons) == is_diamond_free(g)
    assert is_diamond_free(g) == oracles.is_diamond_free(g)


# orbits of the driver: one for a witness or a relabelled copy with sigmas,
# the 3-cycles of sigma_0 for a mutant that keeps it, else singletons
DRIVER_ORBITS = {"gq35": 1, "ovoid256": 1, "gq35-sigma_0-switch": 22, "ovoid256-sigma_0-switch": 86}
# The u < v loop first fails at these pairs, in row 1, the least vertex of a
# 3-cycle of sigma_0.  The orbit pass names the same pair from its own rows,
# as is_srg_report's docstring proves for the orbits of any automorphisms.
FIRST_FAILING_PAIRS = {"gq35-sigma_0-switch": ([1, 28], GQ35), "ovoid256-sigma_0-switch": ([1, 51], OVOID)}


@pytest.mark.parametrize("name", list(_precondition_inputs()))
def test_preconditions_by_the_driver_orbits_match_the_loops(name):
    rows = _precondition_inputs()[name]
    g = Graph(rows)
    orbits, check = _driver_orbits(g)
    _assert_preconditions_agree(g, orbits)
    assert check == _all_pairs_check(g)
    expected = DRIVER_ORBITS.get(name.removesuffix("-relabelled"), len(rows))
    assert (len(rows) if orbits is None else len(orbits)) == expected
    if name in FIRST_FAILING_PAIRS:
        pair, fam = FIRST_FAILING_PAIRS[name]
        assert is_srg_report(g, orbits)[1]["pair"] == pair
        orbit = next(orbit for orbit in orbits if 1 in orbit)
        assert len(orbit) == 3 and orbit in _cycles(build_sigma(g, fam, 0))


def _invariant_graph(data) -> tuple[Graph, tuple]:
    """A random graph made of whole orbits of vertex pairs under a random permutation.

    Returns the graph and the cycles of the permutation, its vertex orbits.
    A rotation of all vertices gives a circulant, which is regular, and one
    of each of c blocks of vertices gives c orbits.
    """
    nu = data.draw(st.integers(min_value=4, max_value=14), label="nu")
    blocks = data.draw(st.sampled_from([c for c in (1, 2, 3) if nu % c == 0] + [None]), label="blocks")
    if blocks is None:
        images = tuple(data.draw(st.permutations(range(nu)), label="images"))
    else:
        size = nu // blocks
        images = tuple(v - v % size + (v + 1) % size for v in range(nu))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, nu - 1), st.integers(0, nu - 1)), max_size=2 * nu))
    rows = [0] * nu
    for a, b in pairs:
        start = (a, b)
        while a != b:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            a, b = images[a], images[b]
            if (a, b) == start:
                break
    g = Graph(rows)
    assert automorphism_witness(g, Permutation(images)) is None
    return g, automorphism._orbits([images], nu)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_preconditions_by_orbit_match_the_loops_on_random_graphs(data):
    g, orbits = _invariant_graph(data)
    _assert_preconditions_agree(g, orbits)
    driver_orbits, check = _driver_orbits(g)
    _assert_preconditions_agree(g, driver_orbits)
    assert check == _all_pairs_check(g)


def _recorded(made: list):
    """build_sigma that appends each base vertex to made."""

    def recorded(g, fam, u):
        made.append(u)
        return build_sigma(g, fam, u)

    return recorded


FAMILY_COMMANDS = ("check-con", "check-eq-pq", "check-star", "check-psi", "related", "local-stats",
                   "sigma", "group")


@pytest.mark.parametrize("builder, builds", [(build_gq35, [0, 1, 4, 16]),
                                             (build_ovoid256, [0, 1, 4, 16, 64])],
                         ids=["gq35", "ovoid256"])
def test_each_family_call_builds_each_sigma_once(builder, builds, capsys, tmp_path, monkeypatch):
    made: list = []
    monkeypatch.setattr(automorphism, "build_sigma", _recorded(made))
    path = tmp_path / "witness.g6"
    path.write_text(serialize_graph6(builder()) + "\n")
    for command in ("check-srg", "check-diamond-free") + FAMILY_COMMANDS:
        made.clear()
        extra = ["--base", "0"] if command in ("sigma", "group") else []
        assert srgpq.cli.run([command, str(path), *extra]) == 0, command
        assert made == (builds if command in FAMILY_COMMANDS else []), command
    capsys.readouterr()


def test_rook4_builds_at_vertex_0_in_the_context(capsys, tmp_path, monkeypatch):
    # The first build, at 0, raises on rook4, so every orbit is a singleton
    # and no sigma is kept.  The context keeps that build's error, so sigma
    # and group at base 0 report it without building at 0 again.
    made: list = []
    monkeypatch.setattr(automorphism, "build_sigma", _recorded(made))
    path = tmp_path / "rook4.g6"
    path.write_text(serialize_graph6(build_rook4()) + "\n")
    for command in FAMILY_COMMANDS:
        made.clear()
        assert srgpq.cli.run([command, str(path)]) == 0, command
        assert made == [0], command
    capsys.readouterr()
