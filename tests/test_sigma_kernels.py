"""Differential tests: the group closure and the sigma kernels against their references.

generate_gamma closes the nu sifted quotients q_u = sigma_u sigma_z^{-1};
its reference in tests/oracles.py closes all nu^2 quotients
sigma_u sigma_v^{-1}.  Both must give the same group and the same report,
and the same ClosureCapError at the same cap.  verify_involution_property,
which proves a pass from the quotients q_u, must give the report of its
reference, which squares every quotient sigma_u sigma_v^{-1}.
matched_pairs must give the masks read off the table of its
one-pair-at-a-time reference, and automorphism_witness the witness pairs of
its bit-by-bit reference, on the witnesses, on their mutants, on broken
permutations and on random graphs.  build_sigma, which carries the
orientations of all cells over the masks of matched_pairs, must succeed or
fail as the propagation with one mapping dict a cell does, with the same
message: also on the masks of tampered tables, which reach its conflict and
coverage checks, and on tampered partitions.  On the witnesses no conflict
is ever named.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import gq35_rows, ovoid256_rows, relabel, seeded_permutation
from perfbench.tracing import Tracer
from srgpq import automorphism
from srgpq.automorphism import (
    ClosureCapError,
    Permutation,
    SigmaAutomorphismError,
    SigmaConflictError,
    SigmaCoverageError,
    automorphism_witness,
    build_sigma,
    canonical_sigma_family,
    verified_sigmas,
    generate_gamma,
    verify_involution_property,
)
from srgpq.graphcore import Graph, phi_partition
from srgpq.localstats import matched_pairs, psi_partition
from srgpq.params import FamilyInfo
from tests import oracles
from tests.test_kernels import _mutants, _outcome

GQ35 = FamilyInfo.from_n_lam(2, 2)
OVOID = FamilyInfo.from_n_lam(3, 2)
# the smallest fixed-point bound among the family members: 6, so a transposition
# of 8 or more points breaks it
SMALL_BOUND = FamilyInfo.from_n_lam(1, 1)


def _summary(report) -> dict:
    """Every field of a GammaReport except the generators, which differ by design."""
    return {
        "elements": report.elements,
        "orbits": report.orbits,
        "order": report.order,
        "abelian": report.abelian,
        "transitive": report.transitive,
        "orbit_sizes": report.orbit_sizes,
        "element_order_histogram": report.element_order_histogram,
        "fixed_point_histogram": report.fixed_point_histogram,
        "max_nonidentity_fixed_points": report.max_nonidentity_fixed_points,
        "bound": report.bound,
        "bound_satisfied": report.bound_satisfied,
        "order_power_of_two": report.order_power_of_two,
    }


def _capped(function, family, fam, cap):
    try:
        return "returned", _summary(function(family, fam, cap=cap))
    except ClosureCapError as exc:
        return "raised", str(exc)


def _assert_same_gamma(family, fam=None):
    """Same report as the oracle; cap = order passes and cap = order - 1 raises alike."""
    report = generate_gamma(family, fam)
    assert _summary(report) == _summary(oracles.generate_gamma(family, fam))
    # each sifted generator lies outside the closure of the ones before it
    generators = report.generators
    identity = report.elements[0]
    for index, gen in enumerate(generators):
        earlier = generate_gamma(dict(enumerate((identity,) + generators[:index])))
        assert gen not in earlier.elements
    order = report.order
    assert _summary(generate_gamma(family, fam, cap=order)) == _summary(report)
    outcome = _capped(generate_gamma, family, fam, order - 1)
    assert outcome == _capped(oracles.generate_gamma, family, fam, order - 1)
    if order > 1:
        assert outcome == ("raised", f"closure exceeded the cap of {order - 1} elements")
    return report


def test_gamma_matches_the_oracle_on_gq35(sigma_family):
    report = _assert_same_gamma(sigma_family, GQ35)
    assert report.order == 64 and len(report.generators) == 6


def _relabelled_gq35_family():
    rows = gq35_rows()
    images = seeded_permutation(len(rows), random.Random(11))
    g = Graph(relabel(rows, images))
    return canonical_sigma_family(g, GQ35, verified_sigmas(g, GQ35)[1], z=images[5])


def test_gamma_matches_the_oracle_on_a_relabelled_gq35():
    report = _assert_same_gamma(_relabelled_gq35_family(), GQ35)
    assert report.transitive and report.abelian and report.order == 64


@pytest.mark.slow
def test_gamma_matches_the_oracle_at_n3(sigma_family_n3):
    # the oracle composes 65 536 quotients and closes over 256 generators: about 6 s
    report = _assert_same_gamma(sigma_family_n3, OVOID)
    assert report.order == 256 and len(report.generators) == 8


def _moving(support: int, degree: int, cycles) -> Permutation:
    """A permutation of range(degree) that permutes range(support) by cycles and fixes the rest."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    assert sorted(images[:support]) == list(range(support))
    return Permutation(tuple(images))


# quotients through the first member that generate S_4 and S_5: non-abelian
# groups with non-trivial orbits next to fixed points
SYMMETRIC = [
    [_moving(4, 6, []), _moving(4, 6, [(0, 1)]), _moving(4, 6, [(0, 1, 2, 3)])],
    [_moving(5, 7, [(2, 3)]), _moving(5, 7, [(0, 1), (2, 3)]), _moving(5, 7, [(0, 1, 2, 3, 4)])],
    [_moving(5, 9, [(0, 1)]), _moving(5, 9, [(0, 1, 2)]), _moving(5, 9, [(1, 2, 3, 4)])],
]


@st.composite
def families(draw):
    """Up to six permutations moving at most five of up to nine points, relabelled, keyed."""
    if draw(st.booleans()):
        members = list(draw(st.sampled_from(SYMMETRIC)))
        degree = len(members[0])
    else:
        degree = draw(st.integers(1, 9))
        support = draw(st.integers(1, min(degree, 5)))
        members = [
            Permutation(tuple(draw(st.permutations(range(support)))) + tuple(range(support, degree)))
            for _ in range(draw(st.integers(1, 6)))
        ]
    labels = draw(st.permutations(range(degree)))
    inverse = [0] * degree
    for x, label in enumerate(labels):
        inverse[label] = x
    relabelled = [
        Permutation(tuple(labels[member.images[inverse[y]]] for y in range(degree)))
        for member in draw(st.permutations(members))
    ]
    keys = draw(st.lists(st.integers(-50, 50), min_size=len(relabelled),
                         max_size=len(relabelled), unique=True))
    return dict(zip(keys, relabelled))


@settings(max_examples=300, deadline=None)
@given(families(), st.sampled_from([None, SMALL_BOUND, GQ35]))
def test_gamma_matches_the_oracle_on_random_families(family, fam):
    _assert_same_gamma(family, fam)


def test_random_families_reach_every_outcome():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(families(), st.sampled_from([None, SMALL_BOUND]))
    def collect(family, fam):
        report = generate_gamma(family, fam)
        seen.add(("abelian", report.abelian))
        seen.add(("transitive", report.transitive))
        seen.add(("bound", report.bound_satisfied))
        seen.add(("symmetric", report.order in (24, 120) and not report.abelian))

    collect()
    assert seen == {(name, flag) for name in ("abelian", "transitive", "bound", "symmetric")
                    for flag in (False, True)}


def test_s5_from_its_quotients():
    family = dict(enumerate(SYMMETRIC[2]))
    report = _assert_same_gamma(family, SMALL_BOUND)
    assert report.order == 120 and not report.abelian
    assert report.orbit_sizes == (5, 1, 1, 1, 1)
    # a transposition fixes 7 of the 9 points, above the bound of 6
    assert report.max_nonidentity_fixed_points == 7 and not report.bound_satisfied


# The involution law: proved from the quotients q_u, the pair loop naming a failure.


def _assert_same_involution_report(family):
    report = verify_involution_property(family)
    assert report == oracles.verify_involution_property(family)
    return report


def test_the_involution_law_is_proved_without_the_pair_loop(
    sigma_family, sigma_family_n3, monkeypatch
):
    def refuse(family):
        raise AssertionError("the pair loop ran on a passing family")

    monkeypatch.setattr(automorphism, "_first_non_involution", refuse)
    for family in (sigma_family, _relabelled_gq35_family()):
        assert _assert_same_involution_report(family).passed
    # the reference squares 65 536 quotients at n = 3; its report on a pass is this
    report = verify_involution_property(sigma_family_n3)
    assert report.passed and report.witness is None
    assert report.details == {"pairs_checked": 256 * 256}


def test_the_involution_law_on_corrupted_families_is_the_reference_report(sigma_family):
    keys = list(sigma_family)
    for u in (keys[0], 5, keys[-1]):
        inverted = dict(sigma_family)
        inverted[u] = inverted[u].inverse()
        assert not _assert_same_involution_report(inverted).passed
    # swapping two members permutes the pairs: the law still holds
    for a, b in ((keys[0], 9), (3, 40)):
        swapped = dict(sigma_family)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        assert _assert_same_involution_report(swapped).passed


def test_the_involution_law_on_the_symmetric_groups_is_the_reference_report():
    for members in SYMMETRIC:
        assert not _assert_same_involution_report(dict(enumerate(members))).passed


def test_commuting_involutions_past_the_cap_go_to_the_pair_loop(monkeypatch):
    # the identity and the transpositions (0 1), (2 3), (4 5), (6 7) of 8
    # points: commuting involutions, whose span of 16 exceeds the cap of 8
    family = {0: Permutation.identity(8)}
    for k in range(4):
        family[k + 1] = _moving(8, 8, [(2 * k, 2 * k + 1)])
    calls = []
    pair_loop = automorphism._first_non_involution

    def counted(members):
        calls.append(len(members))
        return pair_loop(members)

    monkeypatch.setattr(automorphism, "_first_non_involution", counted)
    report = _assert_same_involution_report(family)
    assert report.passed and report.details == {"pairs_checked": 25}
    assert calls == [5]
    # three transpositions span exactly 8: proved without the pair loop
    del family[4]
    assert _assert_same_involution_report(family).passed
    assert calls == [5]


@settings(max_examples=300, deadline=None)
@given(families())
def test_the_involution_law_matches_the_reference_on_random_families(family):
    _assert_same_involution_report(family)


def test_generate_gamma_rejects_an_empty_family():
    for function in (generate_gamma, oracles.generate_gamma):
        with pytest.raises(ValueError, match="empty family"):
            function({})


# The sigma kernels: matched_pairs and automorphism_witness.


def _masks(table) -> tuple[list[int], list[int]]:
    """The masks of matched_pairs read off a table's bijections.

    Bit 3j of matched[i] for each bijection (i, j), and of flips[i] where it
    reflects the cell order.
    """
    matched, flips = [0] * len(table.phi_cells), [0] * len(table.phi_cells)
    for (i, j), bijection in table.bijections.items():
        x, y, z = bijection.values()
        matched[i] |= 1 << 3 * j
        flips[i] |= ((x > y) + (x > z) + (y > z)) % 2 << 3 * j
    return matched, flips


def _assert_matched_pairs_agree(g: Graph, u: int, phi, psi):
    """The kernel's masks against the reference table's, and the kinds of pair the table holds."""
    reference = oracles.matched_pairs(g, u, phi, psi)
    assert matched_pairs(g, u, phi, psi) == _masks(reference)
    return {kind for row in reference.kinds for kind in row}


def _assert_witnesses_agree(g: Graph, perm: Permutation):
    witness = automorphism_witness(g, perm)
    assert witness == oracles.automorphism_witness(g, perm)
    return witness


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_automorphism_witness_matches_the_oracle_on_random_graphs(data):
    # empty and one-vertex graphs included, and any permutation, not only a
    # sigma with two images swapped
    nu = data.draw(st.integers(0, 12), label="nu")
    pairs = [(u, v) for u in range(nu) for v in range(u + 1, nu)]
    edges = [pair for pair in pairs if data.draw(st.booleans())]
    g = Graph.from_edges(nu, edges)
    perm = Permutation(tuple(data.draw(st.permutations(range(nu)), label="images")))
    _assert_witnesses_agree(g, perm)
    longer = Permutation(tuple(range(nu + 1)))
    assert _outcome(automorphism_witness, g, longer) == _outcome(
        oracles.automorphism_witness, g, longer
    )


def _transposed(perm: Permutation, a: int, b: int) -> Permutation:
    images = list(perm.images)
    images[a], images[b] = images[b], images[a]
    return Permutation(tuple(images))


def _assert_sigma_kernels_agree(g: Graph, fam: FamilyInfo, vertices, rng: random.Random, kinds):
    for u in vertices:
        phi, psi = phi_partition(g, u), psi_partition(g, fam, u)
        assert _assert_matched_pairs_agree(g, u, phi, psi) == kinds
        sigma = build_sigma(g, fam, u)
        assert _assert_witnesses_agree(g, sigma) is None
        a, b = rng.sample(range(g.nu), 2)
        assert _assert_witnesses_agree(g, _transposed(sigma, a, b)) is not None


def test_sigma_kernels_match_the_oracles_on_every_gq35_vertex(gq35):
    # at n = 2 every triangle cell is matched to every independent cell
    _assert_sigma_kernels_agree(gq35, GQ35, range(gq35.nu), random.Random(1), {"one-regular"})


def test_sigma_kernels_match_the_oracles_on_ovoid256():
    g = Graph(ovoid256_rows())
    rng = random.Random(2)
    kinds = {"edgeless", "one-regular"}
    _assert_sigma_kernels_agree(g, OVOID, rng.sample(range(g.nu), 8), rng, kinds)


@pytest.mark.parametrize(
    "rows, fam, seed, expected",
    [
        (gq35_rows, GQ35, 3, {"one-regular", "other"}),
        (ovoid256_rows, OVOID, 4, {"edgeless", "one-regular", "other"}),
    ],
)
def test_sigma_kernels_match_the_oracles_on_mutants(rows, fam, seed, expected):
    rows = rows()
    g = Graph(rows)
    rng = random.Random(seed)
    vertices = rng.sample(range(g.nu), 4)
    kinds = set()
    broken = 0
    for mutant in _mutants(rows, seed):
        h = Graph(mutant)
        changed = [x for x in range(len(rows)) if rows[x] != mutant[x]]
        for u in changed + vertices:
            # the unmutated partitions classify the mutant's rows: "other" pairs appear
            kinds |= _assert_matched_pairs_agree(h, u, phi_partition(g, u), psi_partition(g, fam, u))
            broken += _assert_witnesses_agree(h, build_sigma(g, fam, u)) is not None
    assert kinds == expected
    assert broken > 0


# The propagation: one orientation bit a cell against one mapping dict a cell.


@pytest.mark.parametrize("rows, fam, seed", [(gq35_rows, GQ35, 5), (ovoid256_rows, OVOID, 6)])
def test_build_sigma_matches_the_oracle_on_mutants(rows, fam, seed):
    rows = rows()
    rng = random.Random(seed)
    seen = set()
    for mutant in [rows] + _mutants(rows, seed):
        g = Graph(mutant)
        changed = [x for x in range(len(rows)) if rows[x] != mutant[x]]
        for u in changed + rng.sample(range(g.nu), 6):
            outcome = _outcome(build_sigma, g, fam, u)
            assert outcome == _outcome(oracles.build_sigma, g, fam, u)
            seen.add(outcome[1] if outcome[0] == "raised" else "returned")
    assert SigmaAutomorphismError in seen and "returned" in seen


def _tampered(tamper, reference=oracles.matched_pairs):
    """The reference table, then tamper(table): tables no graph gives reach the checks."""
    def table(g, u, phi, psi):
        return tamper(reference(g, u, phi, psi))

    return table


def _swap_images(index):
    def tamper(table):
        bijections = dict(table.bijections)
        key = list(bijections)[index % len(bijections)]
        (a, x), (b, y), (c, z) = bijections[key].items()
        bijections[key] = {a: y, b: x, c: z}
        return dataclasses.replace(table, bijections=bijections)

    return tamper


def _keep(keep):
    """Keep the bijections (i, j) with keep(i, j): a tamper that can stall the propagation."""
    def tamper(table):
        bijections = {key: value for key, value in table.bijections.items() if keep(*key)}
        return dataclasses.replace(table, bijections=bijections)

    return tamper


def _drop_psi_cell(j):
    return _keep(lambda i, k: k != j)


def _outcomes_on_tampered_masks(monkeypatch, g: Graph, fam: FamilyInfo, tamper, vertices):
    """build_sigma on the masks of the tampered table, and the oracle on that table, at each u."""
    table = _tampered(tamper)
    monkeypatch.setattr("tests.oracles.matched_pairs", table)
    monkeypatch.setattr("srgpq.automorphism.matched_pairs", lambda *args: _masks(table(*args)))
    outcomes = []
    for u in vertices:
        outcome = _outcome(build_sigma, g, fam, u)
        assert outcome == _outcome(oracles.build_sigma, g, fam, u)
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("graph, fam", [(gq35_rows, GQ35), (ovoid256_rows, OVOID)])
def test_build_sigma_reports_conflicts_and_gaps_like_the_oracle(graph, fam, monkeypatch):
    g = Graph(graph())
    seen = set()
    tampers = [_swap_images(index) for index in (0, 7, 40)] + [_drop_psi_cell(j) for j in (0, 3)]
    for tamper in tampers:
        for outcome in _outcomes_on_tampered_masks(monkeypatch, g, fam, tamper, (0, 9, 63)):
            seen.add(outcome[1])
    assert seen == {SigmaConflictError, SigmaCoverageError}


def test_build_sigma_lists_the_undefined_cells_in_table_order(monkeypatch):
    # triangle cell 2 and independent cells 0 and 3 lose every matching, so
    # the coverage message must name all three, triangle cells first
    tamper = _keep(lambda i, j: i != 2 and j not in (0, 3))
    message = "propagation left cells undefined: [('phi', 2), ('psi', 0), ('psi', 3)]"
    g = Graph(gq35_rows())
    outcomes = _outcomes_on_tampered_masks(monkeypatch, g, GQ35, tamper, (0, 9, 63))
    assert outcomes == [("raised", SigmaCoverageError, message)] * 3


@pytest.mark.parametrize("graph, fam", [(gq35_rows, GQ35), (ovoid256_rows, OVOID)])
def test_build_sigma_names_a_conflict_before_a_gap(graph, fam, monkeypatch):
    # one matching reflected and every matching of independent cell 3 dropped
    def tamper(table):
        return _swap_images(0)(_drop_psi_cell(3)(table))

    g = Graph(graph())
    outcomes = _outcomes_on_tampered_masks(monkeypatch, g, fam, tamper, (0, 9, 63))
    assert {outcome[1] for outcome in outcomes} == {SigmaConflictError}


@pytest.mark.parametrize("graph, fam", [(gq35_rows, GQ35), (ovoid256_rows, OVOID)])
def test_build_sigma_lists_stalled_and_unreached_cells_like_the_oracle(graph, fam, monkeypatch):
    # the first three triangle cells keep only the even independent cells and
    # the others only the odd ones: two components, the seed's the first
    tamper = _keep(lambda i, j: (i < 3) == (j % 2 == 0))
    g = Graph(graph())
    for outcome in _outcomes_on_tampered_masks(monkeypatch, g, fam, tamper, (0, 9, 63)):
        assert outcome[1] is SigmaCoverageError
        assert "('phi', 3), ('phi', 4)" in outcome[2] and "('psi', 1)" in outcome[2]


def _swap_members(partition_of, first: int, second: int):
    """partition_of, then its least member of cell first traded for the largest of cell second."""
    def tampered(*args):
        partition = partition_of(*args)
        cells = [list(cell) for cell in partition.cells]
        one, other = cells[first % len(cells)], cells[second % len(cells)]
        one[0], other[2] = other[2], one[0]
        return dataclasses.replace(partition, cells=tuple(sorted(tuple(sorted(c)) for c in cells)))

    return tampered


def _with_base_vertex(partition_of, index: int):
    """partition_of, then the least member of cell index replaced by the base vertex: a gap."""
    def tampered(*args):
        partition = partition_of(*args)
        cells = list(partition.cells)
        cell = cells[index % len(cells)]
        cells[index % len(cells)] = tuple(sorted((partition.base_vertex,) + cell[1:]))
        return dataclasses.replace(partition, cells=tuple(sorted(cells)))

    return tampered


def _frame_with_cells(partition_of):
    """A stand-in for _clique_frame(g, u, 3) whose cells are those of partition_of(g, u)."""
    def frame(g, u, size):
        return types.SimpleNamespace(cells=partition_of(g, u).cells)

    return frame


def _reflected_matching(rows: list[int], fam: FamilyInfo, u: int, index: int) -> Graph:
    """rows with one matching at u reflected by a 2-switch: its two cells' orientations conflict."""
    g = Graph(rows)
    phi = phi_partition(g, u)
    table = oracles.matched_pairs(g, u, phi, psi_partition(g, fam, u))
    i, j = list(table.bijections)[index]
    t0, t1, _ = phi.cells[i]
    a0, a1 = table.bijections[(i, j)][t0], table.bijections[(i, j)][t1]
    switched = list(rows)
    for x, y in ((t0, a0), (t1, a1), (t0, a1), (t1, a0)):
        switched[x] ^= 1 << y
        switched[y] ^= 1 << x
    return Graph(switched)


@pytest.mark.parametrize("graph, fam", [(gq35_rows, GQ35), (ovoid256_rows, OVOID)])
def test_build_sigma_matches_the_oracle_on_tampered_inputs(graph, fam, monkeypatch):
    rows = graph()
    tampers = [
        lambda partition_of: _swap_members(partition_of, 0, 1),
        lambda partition_of: _swap_members(partition_of, 3, 40),
        lambda partition_of: _with_base_vertex(partition_of, 0),
        lambda partition_of: _with_base_vertex(partition_of, 5),
    ]
    # (graph, vertex, the names build_sigma and the oracle call with their tampered values);
    # build_sigma reads its triangle cells off the frame of _clique_frame
    cases = [
        (_reflected_matching(rows, fam, u, index), u, {}) for u in (0, 9) for index in (0, 7)
    ]
    for tamper in tampers:
        psi, phi = tamper(psi_partition), tamper(phi_partition)
        for patches in (
            {"srgpq.automorphism.psi_partition": psi, "tests.oracles._psi_partition": psi},
            {"srgpq.automorphism._clique_frame": _frame_with_cells(phi), "tests.oracles.phi_partition": phi},
        ):
            cases += [(Graph(rows), u, patches) for u in (0, 63)]
    seen = set()
    for g, u, patches in cases:
        with monkeypatch.context() as patch:
            for name, tampered in patches.items():
                patch.setattr(name, tampered)
            outcome = _outcome(build_sigma, g, fam, u)
            assert outcome == _outcome(oracles.build_sigma, g, fam, u)
        seen.add(outcome[1] if outcome[0] == "raised" else "returned")
    assert seen == {SigmaConflictError, SigmaCoverageError, SigmaAutomorphismError}


def test_the_masks_decline_a_cell_that_no_matching_reaches(gq35):
    phi, psi = phi_partition(gq35, 0), psi_partition(gq35, GQ35, 0)

    def sigma(phi, psi):
        masks = matched_pairs(gq35, 0, phi, psi)
        return automorphism._sigma_from_masks(gq35, phi.cells, psi.cells, *masks)

    assert sigma(phi, psi) == build_sigma(gq35, GQ35, 0)
    # a triangle cell as an extra independent cell: its own rows meet it twice, the others never
    with pytest.raises(SigmaCoverageError) as gap:
        sigma(phi, dataclasses.replace(psi, cells=psi.cells + (phi.cells[1],)))
    assert str(gap.value) == "propagation left cells undefined: [('psi', 15)]"
    # an extra triangle cell holding the base vertex, whose row misses every independent cell
    extra = (0,) + psi.cells[0][1:]
    with pytest.raises(SigmaCoverageError) as gap:
        sigma(dataclasses.replace(phi, cells=phi.cells + (extra,)), psi)
    assert str(gap.value) == "propagation left cells undefined: [('phi', 6)]"


def test_the_trace_books_matched_pairs_under_build_sigma(gq35, tmp_path):
    # the per-layer metric localstats.matched_pairs.* counts the kernel build_sigma runs
    with Tracer() as tracer:
        automorphism.build_sigma(gq35, GQ35, 0)
    tracer.write(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt", encoding="ascii") as handle:
        document = json.load(handle)
    names = [document["names"][span[0]] for span in document["spans"]]
    parents = [span[3] for span in document["spans"]]
    (kernel,) = [index for index, name in enumerate(names) if name == "localstats.matched_pairs"]
    assert names.count("automorphism.build_sigma") == 1
    assert names[parents[kernel]] == "automorphism.build_sigma"


WITNESSES = ((gq35_rows, GQ35, None), (ovoid256_rows, OVOID, 16))


def test_the_bulk_pass_alone_builds_every_sigma_of_the_witnesses(monkeypatch):
    def refuse(matched, flips):
        raise AssertionError("build_sigma looked for a conflict")

    monkeypatch.setattr("srgpq.automorphism._first_conflict", refuse)
    for rows_of, fam, sample in WITNESSES:
        rows = rows_of()
        images = seeded_permutation(len(rows), random.Random(8))
        for labels in (rows, relabel(rows, images)):
            g = Graph(labels)
            vertices = range(g.nu)
            if sample is not None:
                vertices = random.Random(9).sample(vertices, sample)
            for u in vertices:
                sigma = build_sigma(g, fam, u)
                assert sigma.fixed_points() == (u,) and sigma.order() == 3
                if sample is None or u in vertices[:4]:
                    assert sigma == oracles.build_sigma(g, fam, u)


@pytest.mark.parametrize("rows_of, fam", [(gq35_rows, GQ35), (ovoid256_rows, OVOID)])
def test_automorphism_witness_matches_the_oracle_on_near_automorphisms(rows_of, fam):
    # a verified sigma composed with one transposition, on either side: no
    # transposition is an automorphism of an SRG with k != mu
    g = Graph(rows_of())
    rng = random.Random(13)
    sigma = build_sigma(g, fam, rng.randrange(g.nu))
    witnesses = set()
    for _ in range(24):
        swap = _transposed(Permutation.identity(g.nu), *rng.sample(range(g.nu), 2))
        for perm in (sigma.compose(swap), swap.compose(sigma)):
            witnesses.add(_assert_witnesses_agree(g, perm))
    assert None not in witnesses and len(witnesses) > 24


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 7, 8, 9, 15, 17])
def test_automorphism_witness_matches_the_oracle_where_rows_are_padded(nu):
    # pack_rows pads to whole bytes and to a multiple of 8 rows
    rng = random.Random(nu)
    path = Graph.from_edges(nu, [(x, x + 1) for x in range(nu - 1)])
    reversal = Permutation(tuple(range(nu - 1, -1, -1)))
    assert _assert_witnesses_agree(path, reversal) is None
    outcomes = set()
    for _ in range(20):
        edges = [(x, y) for x in range(nu) for y in range(x + 1, nu) if rng.random() < 0.4]
        g = Graph.from_edges(nu, edges)
        for perm in (Permutation(tuple(rng.sample(range(nu), nu))), Permutation.identity(nu)):
            outcomes.add(_assert_witnesses_agree(g, perm) is None)
    assert outcomes == ({True} if nu < 3 else {False, True})
    for length in {nu + 1, max(nu - 1, 0)} - {nu}:
        longer_or_shorter = Permutation.identity(length)
        for function in (automorphism_witness, oracles.automorphism_witness):
            with pytest.raises(ValueError, match="permutation length does not match the graph"):
                function(path, longer_or_shorter)
