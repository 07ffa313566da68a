"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import json
import time

from srgpq.automorphism import (
    SigmaConstructionError,
    build_sigma,
    generate_gamma,
    verify_inverse_law,
    verify_involution_property,
    vertex_orbits,
)
from srgpq.certificates import pq_3_35_20_certificate
from srgpq.cli import parse_graph6, run, serialize_graph6
from srgpq.geometry import collinearity_graph, graph_to_pq, verify_pq_axioms
from srgpq.graphcore import GraphError, is_diamond_free, is_srg
from srgpq.localstats import (
    LocalStatsError,
    check_condition_con,
    m_spectrum,
    verify_eq_pq,
    verify_inv_formula,
    verify_star,
)
from srgpq.params import (
    FamilyInfo,
    PqParams,
    SrgParams,
    detect_family,
    solve_diophantine_17,
    spectrum_of,
)

_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def _oracle_sigma_images(u: int, scalar: int) -> tuple[int, ...]:
    def scale(vector_id: int) -> int:
        parts = (vector_id >> 4 & 3, vector_id >> 2 & 3, vector_id & 3)
        a, b, c = (_MUL[scalar][p] for p in parts)
        return a << 4 | b << 2 | c

    return tuple(scale(x ^ u) ^ u for x in range(64))


def _record(criterion: int, passed: bool, note: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {note}")
    assert passed, f"criterion {criterion}: {note}"


def _outside(g, u):
    return [v for v in range(g.nu) if v != u and not g.adjacent(u, v)]


def test_criterion_1_witness_verification(rook, gq35, shrikhande, capsys):
    ok = (
        is_srg(rook) == SrgParams(16, 6, 2, 2)
        and is_diamond_free(rook)[0]
        and is_srg(gq35) == SrgParams(64, 18, 2, 6)
        and is_diamond_free(gq35)[0]
        and is_srg(shrikhande) == SrgParams(16, 6, 2, 2)
        and not is_diamond_free(shrikhande)[0]
    )
    # the CLI build|check pipeline agrees with exit code 0
    code = run(["build", "rook4"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and is_srg(parse_graph6(out.strip())) == SrgParams(16, 6, 2, 2)
    _record(1, ok, "rook4/gq35 SRG + diamond-free, shrikhande SRG but not diamond-free")


def test_criterion_2_geometry_round_trip(gq35):
    incidence = graph_to_pq(gq35)
    report = verify_pq_axioms(incidence)
    ok = (
        len(incidence.lines) == 96
        and report.ok
        and report.params == PqParams(3, 5, 6)
        and report.is_generalized_quadrangle
        and collinearity_graph(incidence) == gq35
    )
    _record(2, ok, "graph_to_pq(gq35) is GQ(3,5) with 96 lines and reproduces the graph")


def test_criterion_3_eq_pq_exhaustive(gq35, fam_gq35):
    report = verify_eq_pq(gq35, fam_gq35, vertex_orbits(gq35, fam_gq35))
    ok = (
        report.passed
        and report.details["triples_checked"] == 64 * (45 * 44 // 2)
        and report.details["adjacent_target"] == 6
        and report.details["nonadjacent_target"] == 6
    )
    _record(3, ok, "(n-lam+1)p+q = 6 on all 63360 triples of gq35")


def test_criterion_4_moment_system(gq35, fam_gq35):
    ok = True
    expected = (2, 0, 24, 0, 6, 0, 0)
    for u in range(gq35.nu):
        for v in _outside(gq35, u):
            if v < u:
                continue
            spectrum = m_spectrum(gq35, fam_gq35, u, v)  # asserts the three identities
            counts = spectrum.counts
            ok = ok and counts == expected
            ok = ok and sum(counts) == 32
            ok = ok and sum(i * c for i, c in enumerate(counts)) == 72
            ok = ok and sum(i * (i - 1) // 2 * c for i, c in enumerate(counts)) == 60
    # independent brute-force oracle on a sample of pairs
    for u, v in [(0, _outside(gq35, 0)[0]), (5, _outside(gq35, 5)[7])]:
        nu_set, nv_set = set(gq35.neighbors(u)), set(gq35.neighbors(v))
        brute = {}
        for x in range(64):
            if x in (u, v) or x in nu_set or x in nv_set:
                continue
            p = len(nu_set & nv_set & set(gq35.neighbors(x)))
            brute[p] = brute.get(p, 0) + 1
        ok = ok and all(expected[i] == brute.get(i, 0) for i in range(7))
    con = check_condition_con(gq35, vertex_orbits(gq35, fam_gq35))
    ok = ok and con.passed and con.details["m0_min"] == 2 and con.details["m0_max"] == 2
    _record(4, ok, "m-spectrum (2,0,24,0,6) with exact moments 32/72/60 and m_0 = 2 everywhere")


def test_criterion_5_inv_star_all_vertices(gq35, fam_gq35):
    ok = True
    for u in range(gq35.nu):
        ok = ok and verify_inv_formula(gq35, fam_gq35, u).passed
        ok = ok and verify_star(gq35, fam_gq35, u).passed
    # a single edge toggle must be detected somewhere
    a = gq35.neighbors(0)[0]
    b = next(x for x in gq35.neighbors(a) if x != 0 and not gq35.adjacent(0, x))
    mutated = gq35.toggle_edge(a, b)
    detected = False
    for u in range(mutated.nu):
        try:
            if not verify_inv_formula(mutated, fam_gq35, u).passed:
                detected = True
            if not verify_star(mutated, fam_gq35, u).passed:
                detected = True
        except (LocalStatsError, ValueError):
            detected = True
        if detected:
            break
    ok = ok and detected
    _record(5, ok, "inv/star identities exact for all 64 base vertices; mutation detected")


def test_criterion_6_sigma_machinery(gq35, fam_gq35, sigma_family):
    ok = True
    for u, sigma in sigma_family.items():
        ok = ok and sigma.order() == 3 and sigma.fixed_points() == (u,)
        oracle = {_oracle_sigma_images(u, 2), _oracle_sigma_images(u, 3)}
        ok = ok and sigma.images in oracle
    ok = ok and verify_inverse_law(sigma_family).passed
    ok = ok and verify_involution_property(sigma_family).passed
    gamma = generate_gamma(sigma_family, fam_gq35)
    ok = ok and gamma.order == 64 and gamma.abelian and gamma.transitive
    ok = ok and gamma.element_order_histogram == {1: 1, 2: 63}
    ok = ok and gamma.max_nonidentity_fixed_points == 0
    ok = ok and gamma.bound == 24 and gamma.bound_satisfied
    # the group elements are exactly the oracle translations
    translations = {tuple(x ^ shift for x in range(64)) for shift in range(64)}
    ok = ok and {element.images for element in gamma.elements} == translations
    _record(6, ok, "sigma family matches the oracle; Gamma is the 64 translations, bound 24")


def test_criterion_7_diophantine():
    started = time.perf_counter()
    solutions = solve_diophantine_17(10**6)
    elapsed = time.perf_counter() - started
    ok = solutions == [(1, 1), (2, 3), (3, 4), (10, 7)] and elapsed < 5.0
    _record(7, ok, f"(2n+3)^2 = 2^(t+2)+17 solved to 10^6 in {elapsed:.2f}s")


def test_criterion_8_certificate():
    system = pq_3_35_20_certificate()
    s0 = system.parametric_solution["s_0"]
    ok = (
        system.feasible is False
        and s0.render() == "-1 - s_3"
        and system.substitution_is_identical()
    )
    _record(8, ok, "counting system forces s_0 = -1 - s_3 < 0: no PQ(3,35,20)")


def test_criterion_9_parameter_calculus():
    expectations = [
        (SrgParams(64, 18, 2, 6), 2),
        (SrgParams(256, 51, 2, 12), 3),
        (SrgParams(676, 108, 2, 20), 4),
        (SrgParams(16384, 1290, 2, 110), 10),
    ]
    ok = True
    for params, n in expectations:
        report = spectrum_of(params)
        family = detect_family(params)
        ok = ok and report.integral and report.g == params.k
        ok = ok and family is not None and family.n == n and family.lam == 2
        ok = ok and FamilyInfo.from_n_lam(n, 2).srg_params() == params
    _record(9, ok, "integral spectra with g = k and family n = 2, 3, 4, 10")


def test_criterion_10_mutation_robustness(rook, gq35, fam_gq35, capsys):
    ok = True
    mutations = [
        rook.toggle_edge(0, 1),      # remove a rook edge
        rook.toggle_edge(0, 5),      # add a diagonal
        gq35.toggle_edge(0, gq35.neighbors(0)[0]),
        gq35.toggle_edge(*[v for v in range(64) if not gq35.adjacent(0, v) and v != 0][:2]),
    ]
    for mutated in mutations:
        ok = ok and is_srg(mutated) is None  # a single toggle always breaks regularity
    # the CLI reports the failure as asserted-fail with a witness, exit 1
    import tempfile, os

    mutated = gq35.toggle_edge(0, gq35.neighbors(0)[0])
    with tempfile.NamedTemporaryFile("w", suffix=".g6", delete=False) as handle:
        handle.write(serialize_graph6(mutated) + "\n")
        path = handle.name
    try:
        code = run(["check-srg", path])
        out = capsys.readouterr().out
        report = json.loads(out)
        check = report["checks"][0]
        ok = ok and code == 1
        ok = ok and check["severity"] == "asserted-fail" and check["witness"] is not None
        # inner checks also detect mutations when forced past the preconditions
        eq_report = verify_eq_pq(mutated, fam_gq35, vertex_orbits(mutated, fam_gq35))
        ok = ok and not eq_report.passed and eq_report.witness is not None
        sigma_failed = False
        try:
            build_sigma(mutated, fam_gq35, 0)
        except (SigmaConstructionError, LocalStatsError, GraphError):
            sigma_failed = True
        ok = ok and sigma_failed
    finally:
        os.unlink(path)
    _record(10, ok, "every edge toggle flips an asserted check to fail with a witness")
