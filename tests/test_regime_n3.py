"""Asserted checks at n = 3, where their hypotheses hold.

The witness is the diamond-free SRG(256, 51, 2, 12): the cone over the
elliptic quadric of PG(3, 4) as a Cayley graph on GF(4)^4, built by
perfbench.inputs independently of srgpq (the sigma and group sweeps read it
from `srgpq build ovoid256`, which test_geometry holds to the same rows).  Every
check below is asserted there (n >= 3, lam = 2), unlike on the n = 2
witness GQ(3,5).
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from perfbench.inputs import graph6, ovoid256_rows
from srgpq.automorphism import (
    ClosureCapError,
    Permutation,
    RelatedSetError,
    generate_gamma,
    related_set,
    verified_sigmas,
)
from srgpq.cli import FamilyContext, _check_psi, _related, run
from srgpq.graphcore import Graph
from srgpq.localstats import (
    psi_partition,
    verify_inv_formula,
    verify_psi_regularity,
    verify_star,
)
from srgpq.params import FamilyInfo
from tests import oracles

FAMILY = FamilyInfo.from_n_lam(3, 2)


@pytest.fixture(scope="module")
def ovoid_rows():
    return ovoid256_rows()


def _report(argv, rows, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6(rows) + "\n"))
    code = run(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report, {check["name"]: check for check in report["checks"]}


def test_check_con_is_an_asserted_pass(ovoid_rows, capsys, monkeypatch):
    code, report, checks = _report(["check-con"], ovoid_rows, capsys, monkeypatch)
    assert code == 0
    assert checks["preconditions"]["severity"] == "asserted-pass"
    assert checks["condition-con"]["severity"] == "asserted-pass"
    assert checks["condition-con"]["details"]["pairs"] == 256 * 204 // 2
    assert (report["results"]["m0_min"], report["results"]["m0_max"]) == (2, 2)


def test_local_stats_is_an_asserted_pass_with_the_predicted_spectrum(
    ovoid_rows, capsys, monkeypatch
):
    code, report, checks = _report(["local-stats"], ovoid_rows, capsys, monkeypatch)
    assert code == 0
    assert checks["m-spectrum"]["severity"] == "asserted-pass"
    histogram = report["results"]["m_spectrum_histogram"]
    assert histogram == {"2 0 0 120 30 12 0": 256 * 204}
    # the spectrum runs to t = mu / (n - lam + 1) = 6; the closed form stops at n + 2 = 5
    predicted = oracles.predicted_m_spectrum(FAMILY)
    assert list(histogram) == [" ".join(str(predicted.get(i, 0)) for i in range(7))]
    assert report["results"]["m0_range"] == [2, 2]


def test_related_is_an_asserted_pass(ovoid_rows, capsys, monkeypatch):
    code, report, checks = _report(["related"], ovoid_rows, capsys, monkeypatch)
    assert code == 0
    assert checks["related-partition"]["severity"] == "asserted-pass"
    # 1088 lines of PQ(3, 16, 12) and 256 * 204 / 12 independent 4-sets {u, v} + M_0(u, v)
    by_kind = {"clique": 1088, "independent-with-M0": 4352}
    assert checks["related-partition"]["details"] == {"sets": 5440, "by_kind": by_kind}
    assert report["results"] == {"related_sets": 5440, "by_kind": by_kind}


def test_related_builds_the_sets_through_one_vertex_per_orbit(
    ovoid_rows, capsys, monkeypatch
):
    # the witness is one orbit: the 17 lines and the 68 independent sets through vertex 0
    calls = []

    def counted(g, fam, x, y):
        calls.append((x, y))
        return related_set(g, fam, x, y)

    monkeypatch.setattr("srgpq.cli.related_set", counted)
    code, report, _ = _report(["related"], ovoid_rows, capsys, monkeypatch)
    assert code == 0 and report["results"]["related_sets"] == 5440
    assert len(calls) == 85 and {x for x, _ in calls} == {0}


def test_group_is_an_asserted_pass(capsys, monkeypatch):
    assert run(["build", "ovoid256"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    code = run(["group", "-"])
    out = capsys.readouterr().out
    report = json.loads(out)
    checks = {check["name"]: check for check in report["checks"]}
    assert checks["gamma-properties"]["severity"] == "asserted-pass"
    assert checks["gamma-properties"]["details"] == {"order": 256}
    assert checks["fixed-point-bound"]["severity"] == "asserted-pass"
    results = report["results"]
    # Gamma is the translation group of GF(4)^4: elementary abelian, regular on the vertices
    assert results["order"] == 256
    assert results["abelian"] is True
    assert results["transitive"] is True
    assert results["orbit_sizes"] == [256]
    assert results["element_order_histogram"] == {"1": 1, "2": 255}
    assert results["fixed_point_histogram"] == {"0": 255, "256": 1}
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SWEEP_PINS["group"]


def test_group_fails_when_one_sigma_is_broken(ovoid_rows, sigma_family_n3, capsys, monkeypatch):
    family = dict(sigma_family_n3)
    assert generate_gamma(family, FAMILY).order == 256
    # sigma_77 followed by the transposition (0 1): no longer an automorphism, and
    # its quotients generate far more than the 256 translations
    swap = list(range(256))
    swap[0], swap[1] = 1, 0
    family[77] = family[77].compose(Permutation(tuple(swap)))
    with pytest.raises(ClosureCapError, match="closure exceeded the cap of 4096 elements"):
        generate_gamma(family, FAMILY, cap=4096)
    # through the group analysis, the closure error is an asserted fail with a witness
    monkeypatch.setattr("srgpq.cli.canonical_sigma_family", lambda *args, **kwargs: family)
    code, _, checks = _report(["group", "--cap", "4096"], ovoid_rows, capsys, monkeypatch)
    assert code == 1
    assert checks["gamma-closure"]["severity"] == "asserted-fail"
    assert checks["gamma-closure"]["witness"] == {
        "error_type": "ClosureCapError",
        "error": "closure exceeded the cap of 4096 elements",
    }


def test_related_fails_on_a_toggled_edge(ovoid_rows):
    # the toggled graph is no SRG, so the analysis runs with the unmutated family
    v = next(x for x in range(1, 256) if not ovoid_rows[0] >> x & 1)
    mutant = Graph(ovoid_rows).toggle_edge(0, v)
    checks, _ = _related(None, mutant, FamilyContext(FAMILY, *verified_sigmas(mutant, FAMILY)))
    assert checks[0].severity == "asserted-fail"
    x, y = checks[0].witness["pair"]
    with pytest.raises(RelatedSetError) as raised:
        related_set(mutant, FAMILY, x, y)
    assert checks[0].witness["error"] == str(raised.value)


def test_psi_regularity_is_an_asserted_pass(ovoid_rows):
    report = verify_psi_regularity(Graph(ovoid_rows), FAMILY, 0)
    assert report.severity == "asserted-pass"
    assert report.details["r_distribution"] == {"0": 1360, "1": 510, "2": 408}
    assert report.details["violations"] == 0


def test_psi_regularity_fails_on_a_toggled_edge(ovoid_rows):
    # the toggle leaves every M_0 at vertex 0 intact, so the psi cells still
    # form, but two of them now induce a bipartite graph that is not regular
    g = Graph(ovoid_rows).toggle_edge(113, 242)
    assert len(psi_partition(g, FAMILY, 0)) == 68
    report = verify_psi_regularity(g, FAMILY, 0)
    assert report.severity == "asserted-fail"
    assert report.details["violations"] == 1
    assert report.witness == {
        "reason": "not-regular",
        "cells": [(83, 161, 242), (113, 146, 227)],
        "degrees": [0, 0, 1, 1, 0, 0],
    }


def test_check_psi_sweep_is_an_asserted_pass(ovoid_rows, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6(ovoid_rows) + "\n"))
    code = run(["check-psi"])
    out = capsys.readouterr().out
    report = json.loads(out)
    checks = {check["name"]: check for check in report["checks"]}
    for name in ("psi-partition", "psi-regularity"):
        assert checks[name]["severity"] == "asserted-pass"
        assert checks[name]["details"] == {"failures": 0, "vertices_checked": 256}
    # 256 times the histogram of one vertex, 1360 / 510 / 408
    assert report["results"] == {"r_distribution": {"0": 348160, "1": 130560, "2": 104448}}
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SWEEP_PINS["check-psi"]


def test_check_psi_fails_on_a_toggled_edge(ovoid_rows):
    # the toggled graph is no SRG, so the analysis runs with the unmutated family
    mutant = Graph(ovoid_rows).toggle_edge(113, 242)
    checks, _ = _check_psi(None, mutant, FamilyContext(FAMILY, *verified_sigmas(mutant, FAMILY)))
    regularity = {check.name: check for check in checks}["psi-regularity"]
    assert regularity.severity == "asserted-fail"
    u = regularity.witness["u"]
    assert regularity.witness == {"u": u, "witness": verify_psi_regularity(mutant, FAMILY, u).witness}
    assert u == 0


def test_inv_formula_and_star_identity_are_asserted_passes(ovoid_rows):
    g = Graph(ovoid_rows)
    inv = verify_inv_formula(g, FAMILY, 0)
    assert inv.severity == "asserted-pass"
    assert inv.details == {"dimension": 52, "scalar": 48, "degenerate": False}
    star = verify_star(g, FAMILY, 0)
    assert star.severity == "asserted-pass"
    assert star.details == {
        "base_vertex": 0,
        "outside_block": 204,
        "neighborhood_block": 52,
        "scalar": 48,
        "degenerate": False,
    }


def test_star_identity_fails_on_a_toggled_edge_among_non_neighbours(ovoid_rows):
    # vertex 0's first two non-neighbours: N[0] and every N(0, v) are untouched
    v, w = [x for x in range(1, 256) if not ovoid_rows[0] >> x & 1][:2]
    mutant = list(ovoid_rows)
    mutant[v] ^= 1 << w
    mutant[w] ^= 1 << v
    report = verify_star(Graph(mutant), FAMILY, 0)
    assert report.severity == "asserted-fail"
    assert report.witness["entry"] == [v, w]
    assert {report.witness["lhs"], report.witness["rhs"]} == {0, -48}


# Exit code and stdout SHA-256 of the full sweeps, captured when check-star
# built the dense products and check-eq-pq called pair_stats per triple
# (about two minutes for the pair), when sigma propagated both orientations
# at every vertex (about 10 s), when group closed all 65 536 quotients
# sigma_u sigma_v^-1 (about 10 s), and when check-psi ran every pair of psi
# cells one at a time (about 4 s).
SWEEP_PINS = {
    "check-star": (0, "aa07fcb1748e41a810c77c1a327916c368feb5540a851547fd028627a7beac99"),
    "check-eq-pq": (0, "0fb039e59c302decb7e7f2435107451aeebadbb4681633ea52c6fec55e4f896b"),
    "sigma": (0, "825d77c16790678bf3f5c6165b764499ec06bddd0f1132950c3906dcce5cf294"),
    "group": (0, "a11db8b7e1326b1ee0dd2f1846bc706fd7fef0c231bc43d25276a9af9ef12a97"),
    "check-psi": (0, "0cab6ed745c7266faee259465d09da0fa0929b14f2655b1375beaaf69490a4fe"),
}


# The sweeps visit one vertex per orbit of the sigmas, one vertex in all at
# n = 3; the slow copies switch that off and visit all 256 vertices.


def _assert_check_star_sweep(rows, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6(rows) + "\n"))
    code = run(["check-star"])
    out = capsys.readouterr().out
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    assert checks["inv-formula"]["severity"] == "asserted-pass"
    assert checks["star-identity"]["severity"] == "asserted-pass"
    assert checks["star-identity"]["details"] == {"failures": 0, "vertices_checked": 256}
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SWEEP_PINS["check-star"]


def _assert_check_eq_pq_sweep(rows, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6(rows) + "\n"))
    code = run(["check-eq-pq"])
    out = capsys.readouterr().out
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    assert checks["eq-pq"]["severity"] == "asserted-pass"
    assert checks["eq-pq"]["details"]["triples_checked"] == 5300736
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SWEEP_PINS["check-eq-pq"]


def test_check_star_sweep_is_an_asserted_pass(ovoid_rows, capsys, monkeypatch):
    _assert_check_star_sweep(ovoid_rows, capsys, monkeypatch)


@pytest.mark.slow
def test_check_star_sweep_at_every_vertex_is_an_asserted_pass(
    ovoid_rows, capsys, monkeypatch, trivial_orbits
):
    _assert_check_star_sweep(ovoid_rows, capsys, monkeypatch)


def test_check_eq_pq_sweep_is_an_asserted_pass(ovoid_rows, capsys, monkeypatch):
    _assert_check_eq_pq_sweep(ovoid_rows, capsys, monkeypatch)


@pytest.mark.slow
def test_check_eq_pq_sweep_at_every_vertex_is_an_asserted_pass(
    ovoid_rows, capsys, monkeypatch, trivial_orbits
):
    _assert_check_eq_pq_sweep(ovoid_rows, capsys, monkeypatch)


def _scale(scalar: int, vertex: int) -> int:
    """scalar * x on GF(4)^4, two bits a coordinate (addition is xor)."""
    mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    return sum(mul[scalar][vertex >> shift & 3] << shift for shift in (0, 2, 4, 6))


def test_sigma_family_is_an_asserted_pass_with_the_analytic_oracle(capsys, monkeypatch):
    assert run(["build", "ovoid256"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    code = run(["sigma", "-"])
    out = capsys.readouterr().out
    report = json.loads(out)
    checks = {check["name"]: check for check in report["checks"]}
    for name in ("sigma-family", "inverse-law", "involution-property"):
        assert checks[name]["severity"] == "asserted-pass"
    for name in ("inverse-law", "involution-property"):
        assert checks[name]["details"] == {"pairs_checked": 256 * 256}
    # sigma_u is x -> u + c (x - u), with one scalar c in {w, w^2} for the family
    scalars = set()
    for u, line in enumerate(report["results"]["sigma_images"]):
        images = [int(x) for x in line.split()]
        matches = {c for c in (2, 3) if images == [_scale(c, x ^ u) ^ u for x in range(256)]}
        assert len(matches) == 1, f"sigma_{u} is not u + c (x - u)"
        scalars |= matches
    assert len(scalars) == 1
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SWEEP_PINS["sigma"]
