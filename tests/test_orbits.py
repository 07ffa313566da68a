"""Orbit reduction: vertex_orbits, the sweeps that visit one vertex per orbit, and the family.

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

import srgpq.cli
from perfbench.inputs import gq35_rows, ovoid256_rows, toggle, two_switch
from srgpq import automorphism
from srgpq.automorphism import (
    Permutation,
    SigmaAutomorphismError,
    SigmaConstructionError,
    SigmaSeedError,
    build_sigma,
    canonical_sigma_family,
    vertex_orbits,
)
from srgpq.cli import _check_psi, _check_star
from srgpq.geometry import build_rook4
from srgpq.graphcore import Graph
from srgpq.localstats import check_condition_con, m_spectrum_histogram, verify_eq_pq
from srgpq.params import FamilyInfo
from tests import oracles
from tests.test_kernels import _outcome, _shuffled

GQ35 = FamilyInfo.from_n_lam(2, 2)
OVOID = FamilyInfo.from_n_lam(3, 2)


def _histogram(g: Graph, fam: FamilyInfo):
    sweep = m_spectrum_histogram(g, fam, vertex_orbits(g, fam))
    return sweep.histogram, sweep.failure


SWEEPS = {
    "check-con": lambda g, fam: check_condition_con(g, vertex_orbits(g, fam)),
    "local-stats": _histogram,
    "eq-pq": lambda g, fam: verify_eq_pq(g, fam, vertex_orbits(g, fam)),
    "check-star": lambda g, fam: _check_star(None, g, fam),
    "check-psi": lambda g, fam: _check_psi(None, g, fam),
}


def _limited(builds, made: list):
    """build_sigma that raises from build number builds + 1 of each vertex_orbits call on."""

    def limited(g, fam, u):
        if u == 0:  # vertex_orbits builds at 0 first, and never again
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
        orbits = vertex_orbits(g, fam)
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


def test_vertex_orbits_are_transitive_on_the_witnesses(monkeypatch):
    # 4 builds at n = 2 and 5 at n = 3, on the witnesses and relabelled copies
    for rows, fam, builds in ((gq35_rows(), GQ35, 4), (ovoid256_rows(), OVOID, 5)):
        for copy in (rows, _shuffled(rows, 7)):
            made: list = []
            monkeypatch.setattr(automorphism, "build_sigma", _limited(None, made))
            assert vertex_orbits(Graph(copy), fam) == (tuple(range(len(rows))),)
            assert made[0] == 0 and len(made) == builds


def test_vertex_orbits_build_the_next_sigma_outside_the_orbit_of_0(monkeypatch):
    made: list = []
    monkeypatch.setattr(automorphism, "build_sigma", _limited(None, made))
    g = Graph(gq35_rows())
    vertex_orbits(g, GQ35)
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
    assert vertex_orbits(Graph(gq35_rows()), FamilyInfo.from_n_lam(2, 1)) == tuple(
        (v,) for v in range(64)
    )
    assert made == []
    # a first build that raises: rook4, the n = -2 member, and a vertex with no neighbours
    assert vertex_orbits(build_rook4(), FamilyInfo.from_n_lam(-2, 2)) == tuple(
        (v,) for v in range(16)
    )
    assert vertex_orbits(Graph([0, 0, 0, 0]), GQ35) == ((0,), (1,), (2,), (3,))
    assert made == [0, 0]
    # one vertex is one orbit, and no vertex none: nothing to build
    assert vertex_orbits(Graph([0]), GQ35) == ((0,),)
    assert vertex_orbits(Graph([]), GQ35) == ()
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
    orbits = vertex_orbits(g, GQ35)
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
    orbits = vertex_orbits(Graph([0] * 8), GQ35)
    assert orbits == ((0, 1, 2, 3, 4),) + tuple((v,) for v in range(5, 8))  # 8.bit_length() builds

    def identity_after_0(g, fam, u):
        return swap(g, fam, u) if u == 0 else Permutation.identity(g.nu)

    monkeypatch.setattr(automorphism, "build_sigma", identity_after_0)
    assert vertex_orbits(Graph([0] * 8), GQ35) == ((0, 1),) + tuple((v,) for v in range(2, 8))


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


def _family(function, g: Graph, fam: FamilyInfo, z: int):
    """The family's items in key order, or the type and message of what it raised."""
    outcome = _outcome(function, g, fam, z)
    return ("returned", list(outcome[1].items())) if outcome[0] == "returned" else outcome


def _transported(g: Graph, fam: FamilyInfo, z: int, monkeypatch, builds=None):
    """canonical_sigma_family with at most builds sigmas kept as generators (None: any)."""
    verified = automorphism._verified_sigmas

    def partial(graph, family):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(automorphism, "build_sigma", _limited(builds, []))
            return verified(graph, family)

    with monkeypatch.context() as patch:
        patch.setattr(automorphism, "_verified_sigmas", partial)
        return _family(canonical_sigma_family, g, fam, z)


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


def test_the_family_raises_as_the_build_at_every_vertex():
    # rook4 fails its first build; a sigma_0-mutant keeps sigma_0 and fails at
    # vertex 1, a representative, or at z = 5, where it is mutated
    cases = [
        (build_rook4(), FamilyInfo.from_n_lam(-2, 2)),
        (Graph(_sigma_0_mutant(gq35_rows(), GQ35, 1)), GQ35),
        (Graph(_sigma_0_mutant(ovoid256_rows(), OVOID, 1)), OVOID),
    ]
    for g, fam in cases:
        for z in (0, 5):
            outcome = _family(canonical_sigma_family, g, fam, z)
            assert outcome[0] == "raised"
            assert outcome == _family(oracles.canonical_sigma_family, g, fam, z)


def test_the_family_builds_at_z_and_at_the_representatives_only(monkeypatch):
    # vertex_orbits' builds at 0, 1, 4, 16 (and 64 at n = 3) are reused; z = 5 is one more
    cases = ((gq35_rows(), GQ35, [0, 1, 4, 16]), (ovoid256_rows(), OVOID, [0, 1, 4, 16, 64]))
    for rows, fam, kept in cases:
        g = Graph(rows)
        for z, builds in ((0, kept), (1, kept), (5, kept + [5])):
            made: list = []
            monkeypatch.setattr(automorphism, "build_sigma", _limited(None, made))
            canonical_sigma_family(g, fam, z)
            assert made == builds
