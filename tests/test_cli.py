"""CLI tests: graph6 codec (networkx as the independent oracle), subcommands,
exit codes, and report determinism."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srgpq.cli
from perfbench.inputs import gq35_rows, ovoid256_rows, relabel, seeded_permutation, toggle, two_switch
from srgpq.cli import MAX_GRAPH6_VERTICES, Graph6Error, _build_parser, parse_graph6, run, serialize_graph6
from srgpq import graphcore, localstats
from srgpq.geometry import build_gq35, build_ovoid256, build_rook4, build_shrikhande, format_incidence, graph_to_pq
from srgpq.automorphism import RelatedSetError, SigmaConstructionError, verified_sigmas
from srgpq.graphcore import Graph, GraphError
from srgpq.localstats import LocalStatsError
from srgpq.params import FamilyInfo
from tests import oracles
from tests.test_orbits import FAMILY_COMMANDS, GQ35, OVOID, _sigma_0_switch


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    return code, json.loads(out), err


def _graph_file(tmp_path, g, name="graph.g6"):
    path = tmp_path / name
    path.write_text(serialize_graph6(g) + "\n")
    return str(path)


def test_parse_single_vertex():
    g = parse_graph6("@")
    assert g.nu == 1 and g.edge_count == 0


def test_parse_k2():
    g = parse_graph6("A_")
    assert g.nu == 2 and g.adjacent(0, 1)


def test_header_is_optional():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_round_trip_witnesses(gq35, rook, shrikhande):
    for g in (gq35, rook, shrikhande):
        assert parse_graph6(serialize_graph6(g)) == g


def test_graph6_against_networkx_oracle(gq35):
    encoded = serialize_graph6(gq35)
    oracle = nx.from_graph6_bytes(encoded.encode())
    assert oracle.number_of_nodes() == 64
    assert sorted(oracle.edges()) == sorted(gq35.edges())
    # and the reverse direction: networkx encodes, we decode
    ours = parse_graph6(nx.to_graph6_bytes(oracle, header=False).decode().strip())
    assert ours == gq35


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=20))
def test_graph6_round_trip_random(data, n):
    pair_count = n * (n - 1) // 2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << pair_count) - 1))
    edges = []
    position = 0
    for a in range(n):
        for b in range(a + 1, n):
            if mask >> position & 1:
                edges.append((a, b))
            position += 1
    g = Graph.from_edges(n, edges)
    encoded = serialize_graph6(g)
    assert parse_graph6(encoded) == g
    oracle = nx.from_graph6_bytes(encoded.encode())
    assert sorted(oracle.edges()) == sorted(g.edges())
    assert oracle.number_of_nodes() == n


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc_info:
        parse_graph6("A")  # missing the data character
    assert exc_info.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as exc_info:
        parse_graph6("B\x19")
    assert exc_info.value.offset == 1
    # K2 with nonzero padding bits: '_' is 100000, anything below sets padding
    with pytest.raises(Graph6Error):
        parse_graph6("AW")


def test_multibyte_vertex_count():
    g = Graph.from_edges(63, [(0, 62)])
    encoded = serialize_graph6(g)
    assert encoded.startswith("~")
    assert parse_graph6(encoded) == g


def test_build_and_check_srg_pipeline(capsys, tmp_path):
    code, out, _ = _run(capsys, ["build", "gq35"])
    assert code == 0
    path = tmp_path / "gq35.g6"
    path.write_text(out)
    code, report, _ = _run_json(capsys, ["check-srg", str(path)])
    assert code == 0
    assert report["results"]["srg_params"] == [64, 18, 2, 6]
    assert report["checks"][0]["severity"] == "asserted-pass"
    assert report["input"]["vertices"] == 64 and report["input"]["edges"] == 576


def test_check_srg_failure_exit_code(capsys, tmp_path):
    mutated = build_gq35().toggle_edge(0, 1)
    code, report, _ = _run_json(capsys, ["check-srg", _graph_file(tmp_path, mutated)])
    assert code == 1
    check = report["checks"][0]
    assert check["severity"] == "asserted-fail"
    assert check["witness"] is not None


def test_check_diamond_free_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["check-diamond-free", _graph_file(tmp_path, build_rook4())])
    assert code == 0 and report["results"]["diamond_free"] is True
    code, report, _ = _run_json(
        capsys, ["check-diamond-free", _graph_file(tmp_path, build_shrikhande())]
    )
    assert code == 1
    assert len(report["checks"][0]["witness"]["induced_diamond"]) == 4


def test_feasibility_command(capsys):
    code, report, _ = _run_json(capsys, ["feasibility", "676", "108", "2", "20"])
    assert code == 0
    assert report["results"]["family"] == {"n": 4, "lam": 2, "kind": "negative-latin-square"}
    assert report["results"]["spectrum"]["integral"] is True
    assert report["results"]["spectrum"]["g"] == "108"
    assert report["results"]["pq_params"] == [3, 35, 20]


def test_feasibility_rejects_invalid_parameters(capsys):
    code, report, _ = _run_json(capsys, ["feasibility", "10", "3", "0", "3"])
    assert code == 1
    assert report["checks"][0]["severity"] == "asserted-fail"


def test_pq_params_command(capsys):
    code, report, _ = _run_json(capsys, ["pq-params", "3", "35", "20"])
    assert code == 0
    assert report["results"]["srg_params"] == [676, 108, 2, 20]
    code, report, _ = _run_json(capsys, ["pq-params", "3", "35", "19"])
    assert code == 1  # divisibility failure


def test_check_con_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["check-con", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    assert report["results"]["m0_min"] == 2 and report["results"]["m0_max"] == 2


def test_check_eq_pq_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["check-eq-pq", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    names = {check["name"]: check for check in report["checks"]}
    assert names["eq-pq"]["passed"] is True
    assert names["eq-pq"]["severity"] == "diagnostic"  # n = 2 input


def test_check_star_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["check-star", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    names = {check["name"]: check for check in report["checks"]}
    assert names["inv-formula"]["passed"] is True
    assert names["star-identity"]["passed"] is True
    assert report["results"]["vertices_checked"] == 64


def test_check_star_finds_the_cliques_of_each_neighbourhood_once_per_frame(capsys, tmp_path, monkeypatch):
    # the sigma builds at 0, 1, 4 and 16 each find them once, for the frame
    # that gives both the phi cells and the psi masks; inv-formula and star
    # then share one frame at 0
    calls = collections.Counter()
    kernel = srgpq.graphcore._clique_masks

    def counted(rows, u, closed=None):
        if closed is None:  # the all-vertex passes close the rows first
            calls[u] += 1
        return kernel(rows, u, closed)

    monkeypatch.setattr("srgpq.graphcore._clique_masks", counted)
    monkeypatch.setattr("srgpq.localstats._clique_masks", counted)
    code, _, _ = _run_json(capsys, ["check-star", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    assert calls == {0: 2, 1: 1, 4: 1, 16: 1}


def test_local_stats_command(capsys, tmp_path):
    code, report, _ = _run_json(
        capsys, ["local-stats", _graph_file(tmp_path, build_gq35()), "--vertex", "0"]
    )
    assert code == 0
    assert report["results"]["m_spectrum_histogram"] == {"2 0 24 0 6 0 0": 45}
    assert report["results"]["m0_range"] == [2, 2]


def test_sigma_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["sigma", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    names = {check["name"]: check for check in report["checks"]}
    assert names["sigma-family"]["details"]["orders"] == [3]
    assert names["sigma-family"]["details"]["fixed_point_counts"] == [1]
    assert names["inverse-law"]["passed"] is True
    assert names["involution-property"]["passed"] is True
    images = report["results"]["sigma_images"]
    assert len(images) == 64
    rows = [[int(token) for token in row.split()] for row in images]
    assert all(len(row) == 64 for row in rows)
    assert rows[0][0] == 0  # sigma_0 fixes the base vertex


def test_group_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["group", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    results = report["results"]
    assert results["order"] == 64
    assert results["abelian"] is True and results["transitive"] is True
    assert results["element_order_histogram"] == {"1": 1, "2": 63}
    assert results["order_power_of_two"] is True
    assert results["sqrt_nu"] == 8 and results["sqrt_nu_power_of_two"] is True
    names = {check["name"]: check for check in report["checks"]}
    assert names["fixed-point-bound"]["severity"] == "asserted-pass"
    assert names["fixed-point-bound"]["details"]["bound"] == "24"


def test_related_command(capsys, tmp_path):
    code, report, _ = _run_json(capsys, ["related", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    assert report["results"]["related_sets"] == 336
    assert report["results"]["by_kind"] == {"clique": 96, "independent-with-M0": 240}


def _counted_related_calls(capsys, tmp_path, monkeypatch, g):
    """The related report on g, and the (x, y) of every related_set call it made."""
    calls = []
    kernel = srgpq.cli.related_set

    def counted(g, fam, x, y):
        calls.append((x, y))
        return kernel(g, fam, x, y)

    monkeypatch.setattr("srgpq.cli.related_set", counted)
    code, report, _ = _run_json(capsys, ["related", _graph_file(tmp_path, g)])
    return code, report, calls


def test_related_builds_each_set_once(capsys, tmp_path, monkeypatch, trivial_orbits):
    # every vertex is a row, and a pair inside a verified set is skipped:
    # one related_set call per set
    code, report, calls = _counted_related_calls(capsys, tmp_path, monkeypatch, build_gq35())
    assert code == 0 and report["results"]["related_sets"] == len(calls) == 336


def test_related_builds_the_sets_through_one_vertex_per_orbit(capsys, tmp_path, monkeypatch):
    # gq35 is one orbit: the 6 lines and the 15 independent sets through vertex 0
    code, report, calls = _counted_related_calls(capsys, tmp_path, monkeypatch, build_gq35())
    assert code == 0 and report["results"]["related_sets"] == 336
    assert len(calls) == 21 and {x for x, _ in calls} == {0}


def test_related_reruns_the_ordered_loop_after_a_failing_orbit_pass(monkeypatch):
    # With rows 0 and 10 and a kernel refusing the non-adjacent pairs above 9,
    # the orbit pass fails in row 10.  The rerun over every vertex visits rows
    # 1..9 too, so its set counts and witness are those of the loop over all pairs.
    kernel = srgpq.cli.related_set

    def refusing(g, fam, x, y):
        if min(x, y) > 9 and not g.adjacent(x, y):
            raise RelatedSetError(f"refused ({x}, {y})")
        return kernel(g, fam, x, y)

    monkeypatch.setattr("srgpq.cli.related_set", refusing)
    monkeypatch.setattr("tests.oracles.related_set", refusing)
    two_orbits = (tuple(range(10)), tuple(range(10, 64)))
    monkeypatch.setattr("srgpq.cli.verified_sigmas", lambda g, fam: (two_orbits, {}))
    gq35, family = build_gq35(), FamilyInfo.from_n_lam(2, 2)
    precondition, context = srgpq.cli._family_context(gq35)
    assert precondition.passed and context == srgpq.cli.FamilyContext(family, two_orbits, {})
    checks, results = srgpq.cli._related(None, gq35, context)
    assert (checks, results) == oracles.related(gq35, family)
    orbit_kinds, orbit_witness = srgpq.cli._related_rows(gq35, family, two_orbits)
    assert orbit_witness == checks[0].witness and orbit_kinds != results["by_kind"]


def _related_cases():
    """(graph, family) by name: the witnesses, a seeded relabelled copy of each, and two mutants."""
    n2, n3 = FamilyInfo.from_n_lam(2, 2), FamilyInfo.from_n_lam(3, 2)
    rook_family = FamilyInfo.from_n_lam(-2, 2)
    ovoid = ovoid256_rows()
    v = next(x for x in range(1, 256) if not ovoid[0] >> x & 1)
    witnesses = {
        "gq35": (build_gq35(), n2),
        "rook4": (build_rook4(), rook_family),
        "shrikhande": (build_shrikhande(), rook_family),
        "gq35-toggled": (build_gq35().toggle_edge(0, 1), n2),  # not an SRG: the unmutated family
        "ovoid256": (Graph(ovoid), n3),
    }
    rng = random.Random(17)
    cases = []
    for name, (g, family) in witnesses.items():
        relabelled = Graph(relabel(list(g.rows), seeded_permutation(g.nu, rng)))
        cases.append(pytest.param(g, family, id=name))
        cases.append(pytest.param(relabelled, family, id=name + "-relabelled"))
    return cases + [pytest.param(Graph(ovoid).toggle_edge(0, v), n3, id="ovoid256-toggled")]


@pytest.mark.parametrize("g, family", _related_cases())
def test_related_matches_the_ordered_loop(g, family):
    context = srgpq.cli.FamilyContext(family, *verified_sigmas(g, family))
    assert srgpq.cli._related(None, g, context) == oracles.related(g, family)


def test_check_star_records_a_failing_vertex(
    capsys, tmp_path, monkeypatch, trivial_orbits
):
    path = _graph_file(tmp_path, build_gq35())
    _, before, _ = _run_json(capsys, ["check-star", path])
    kernel = srgpq.cli.verify_star
    witness = {"entry": [1, 2], "lhs": 0, "rhs": 4}

    def failing_at_9(g, fam, u):
        report = kernel(g, fam, u)
        return dataclasses.replace(report, passed=False, witness=witness) if u == 9 else report

    monkeypatch.setattr("srgpq.cli.verify_star", failing_at_9)
    code, report, _ = _run_json(capsys, ["check-star", path])
    assert code == 0  # n = lam = 2: the identities are diagnostics
    names = {check["name"]: check for check in report["checks"]}
    star = names["star-identity"]
    assert star["passed"] is False and star["severity"] == "diagnostic"
    assert star["details"] == {"vertices_checked": 64, "failures": 1}
    assert star["witness"] == {"u": 9, "witness": witness}
    assert names["inv-formula"] == {check["name"]: check for check in before["checks"]}["inv-formula"]


def test_check_star_counts_a_failing_orbit_at_each_of_its_vertices(capsys, tmp_path, monkeypatch):
    # gq35 is one orbit, so the sweep visits vertex 0 alone and counts it 64 times
    path = _graph_file(tmp_path, build_gq35())
    kernel = srgpq.cli.verify_star
    witness = {"entry": [1, 2], "lhs": 0, "rhs": 4}
    visited = []

    def failing_at_0(g, fam, u):
        visited.append(u)
        report = kernel(g, fam, u)
        return dataclasses.replace(report, passed=False, witness=witness) if u == 0 else report

    monkeypatch.setattr("srgpq.cli.verify_star", failing_at_0)
    code, report, _ = _run_json(capsys, ["check-star", path])
    assert code == 0 and visited == [0]
    star = {check["name"]: check for check in report["checks"]}["star-identity"]
    assert star["details"] == {"vertices_checked": 64, "failures": 64}
    assert star["witness"] == {"u": 0, "witness": witness}


@pytest.mark.parametrize(
    "seed, edge, vertex",
    [(None, (0, 1), 5), (0, (0, 4), 12), (1, (0, 3), 8)],
)
def test_graph_to_pq_names_the_first_edge_closure_that_is_no_clique(
    capsys, tmp_path, seed, edge, vertex
):
    rows = list(build_shrikhande().rows)
    if seed is not None:
        rows = relabel(rows, seeded_permutation(16, random.Random(seed)))
    code, out, err = _run(capsys, ["graph-to-pq", _graph_file(tmp_path, Graph(rows))])
    assert code == 1 and out == ""
    assert err == (
        f"error: closure of edge ({edge[0]}, {edge[1]}) is not a clique "
        f"(vertex {vertex} misses a member); graph is not diamond-free\n"
    )


def test_graph_to_pq_and_axioms_pipeline(capsys, tmp_path):
    code, out, _ = _run(capsys, ["graph-to-pq", _graph_file(tmp_path, build_gq35())])
    assert code == 0
    incidence_path = tmp_path / "gq35.inc"
    incidence_path.write_text(out)
    code, report, _ = _run_json(capsys, ["pq-axioms", str(incidence_path)])
    assert code == 0
    assert report["results"]["pq_params"] == [3, 5, 6]
    assert report["results"]["generalized_quadrangle"] is True
    assert report["results"]["lines"] == 96


def test_pq_axioms_violation_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.inc"
    path.write_text("6 4\n0 1 2\n0 1 3\n2 4 5\n3 4 5\n")
    code, report, _ = _run_json(capsys, ["pq-axioms", str(path)])
    assert code == 1
    check = report["checks"][0]
    assert check["details"]["violated_axiom"] == "ii"
    assert check["witness"] is not None


def test_diophantine_command(capsys):
    code, report, _ = _run_json(capsys, ["diophantine", "--max", "100"])
    assert code == 0
    assert report["results"]["solutions"] == [[1, 1], [2, 3], [3, 4], [10, 7]]


def test_certificate_command(capsys):
    code, report, _ = _run_json(capsys, ["certificate-pq-3-35-20"])
    assert code == 0
    results = report["results"]
    assert results["feasible"] is False
    assert results["parametric_solution"]["s_0"] == "-1 - s_3"
    assert results["parametric_solution"]["s_1"] == "15 + 3*s_3"
    assert results["parametric_solution"]["s_2"] == "21 - 3*s_3"
    names = {check["name"]: check for check in report["checks"]}
    assert names["back-substitution"]["passed"] is True
    assert names["nonexistence-certificate"]["severity"] == "asserted-pass"


def test_usage_errors_return_2(capsys, tmp_path):
    code, out, err = _run(capsys, ["no-such-command"])
    assert code == 2 and out == ""
    code, out, err = _run(capsys, ["check-srg", str(tmp_path / "missing.g6")])
    assert code == 2 and out == ""
    bad = tmp_path / "bad.g6"
    bad.write_text("not graph6 at all\x01\n")
    code, out, err = _run(capsys, ["check-srg", str(bad)])
    assert code == 2 and out == ""


@pytest.mark.parametrize("header", [f"{MAX_GRAPH6_VERTICES + 1} 1", "1000000000 1", "-1 1", "-1000000000 1"])
def test_incidence_header_outside_the_graph6_bound_is_a_usage_error(capsys, monkeypatch, header):
    # refused at the header, before verify_pq_axioms allocates per point
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n0 1\n"))
    code, out, err = _run(capsys, ["pq-axioms", "-"])
    assert code == 2 and out == ""
    assert f"header {header!r}: point count" in err and f"outside 0..{MAX_GRAPH6_VERTICES}" in err


@pytest.mark.parametrize("builder", [build_gq35, build_shrikhande])
@pytest.mark.parametrize(
    "command, option, vertex",
    [
        ("sigma", "--base", "999"),
        ("sigma", "--base", "-1"),
        ("group", "--base", "999"),
        ("group", "--base", "-1"),
        ("local-stats", "--vertex", "999"),
        ("local-stats", "--vertex", "-1"),
    ],
)
def test_out_of_range_vertex_is_a_usage_error(capsys, tmp_path, builder, command, option, vertex):
    # checked before the preconditions, so a non-member (Shrikhande) exits 2 as well
    path = _graph_file(tmp_path, builder())
    code, out, err = _run(capsys, [command, path, option, vertex])
    assert code == 2 and out == ""
    assert f"vertex {vertex} out of range" in err


def _toggled_gq35():
    return build_gq35().toggle_edge(0, 1)


@pytest.mark.parametrize("builder", [build_gq35, _toggled_gq35])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_a_usage_error(capsys, tmp_path, builder, cap):
    # checked before the preconditions, so the toggled (non-member) graph exits 2 as well
    path = _graph_file(tmp_path, builder())
    code, out, err = _run(capsys, ["group", path, "--cap", cap])
    assert code == 2 and out == ""
    assert f"--cap must be at least 1, got {cap}" in err


def test_reports_are_deterministic(capsys, tmp_path):
    path = _graph_file(tmp_path, build_rook4())
    _, first, _ = _run(capsys, ["check-srg", path])
    _, second, _ = _run(capsys, ["check-srg", path])
    assert first == second
    assert "timing" not in json.loads(first)


def test_timing_flag_adds_timing(capsys, tmp_path):
    path = _graph_file(tmp_path, build_rook4())
    _, out, _ = _run(capsys, ["--timing", "check-srg", path])
    assert "timing" in json.loads(out)
    timing = json.loads(out)["timing"]
    assert sorted(timing) == ["input_seconds", "seconds"]
    assert 0 <= timing["input_seconds"] <= timing["seconds"]
    _, out, _ = _run(capsys, ["--timing", "feasibility", "676", "108", "2", "20"])
    assert sorted(json.loads(out)["timing"]) == ["input_seconds", "seconds"]


def _calls(capsys, monkeypatch, calls, fresh):
    """(exit code, stdout) of each (argv, stdin) call, each through a new parser if fresh."""
    import io

    found = []
    for argv, text in calls:
        if fresh:
            _build_parser.cache_clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = run(list(argv))
        found.append((code, capsys.readouterr().out))
    return found


GQ35_TEXT = serialize_graph6(build_gq35()) + "\n"
RE_ENTRY = {
    "no-sticky-vertex": [(["local-stats", "--vertex", "3", "-"], GQ35_TEXT),
                         (["local-stats", "-"], GQ35_TEXT)],
    "no-sticky-base": [(["sigma", "-", "--base", "5"], GQ35_TEXT), (["sigma", "-"], GQ35_TEXT)],
    "usage-error-then-pass": [(["sigma", "-", "--base", "999"], GQ35_TEXT),
                              (["no-such-command"], ""),
                              (["check-srg", "--cap", "1", "-"], GQ35_TEXT),
                              (["check-srg", "-"], GQ35_TEXT)],
    "help-then-pass": [(["--help"], ""), (["check-srg", "--help"], ""),
                       (["check-srg", "-"], GQ35_TEXT), (["--help"], "")],
}


@pytest.mark.parametrize("name", sorted(RE_ENTRY))
def test_consecutive_calls_match_a_fresh_parser(capsys, monkeypatch, name):
    calls = RE_ENTRY[name]
    expected = _calls(capsys, monkeypatch, calls, fresh=True)
    assert _calls(capsys, monkeypatch, calls, fresh=False) == expected
    assert [code for code, _ in expected] == {
        "no-sticky-vertex": [0, 0],
        "no-sticky-base": [0, 0],
        "usage-error-then-pass": [2, 2, 2, 0],
        "help-then-pass": [0, 0, 0, 0],
    }[name]
    if name == "no-sticky-vertex":  # one row of pairs, then all of them
        pairs = [json.loads(out)["checks"][1]["details"]["pairs_checked"] for _, out in expected]
        assert pairs == [45, 64 * 45]


def test_timing_does_not_stick(capsys, monkeypatch):
    calls = [(["--timing", "check-srg", "-"], GQ35_TEXT), (["check-srg", "-"], GQ35_TEXT)]
    (_, timed), plain = _calls(capsys, monkeypatch, calls, fresh=False)
    assert "timing" in json.loads(timed)
    assert plain == _calls(capsys, monkeypatch, calls[1:], fresh=True)[0]
    assert "timing" not in json.loads(plain[1])


def test_parser_is_built_once_and_lazily(capsys, monkeypatch):
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import srgpq.cli as cli; print(cli._build_parser.cache_info().currsize)"
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={"PYTHONPATH": str(src)})
    assert imported.stdout == "0\n"  # importing the CLI builds no parser
    _build_parser.cache_clear()
    _calls(capsys, monkeypatch, RE_ENTRY["no-sticky-vertex"] + RE_ENTRY["help-then-pass"],
           fresh=False)
    assert _build_parser.cache_info().misses == 1


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph6(build_rook4()) + "\n"))
    code, report, _ = _run_json(capsys, ["check-srg"])
    assert code == 0
    assert report["results"]["srg_params"] == [16, 6, 2, 2]


def test_rook_family_commands_are_diagnostic(capsys, tmp_path):
    # n = -2 member: sigma construction is not asserted there, so exit 0
    path = _graph_file(tmp_path, build_rook4())
    code, report, _ = _run_json(capsys, ["sigma", path])
    assert code == 0
    names = {check["name"]: check for check in report["checks"]}
    assert names["sigma-family"]["severity"] == "diagnostic"
    assert names["sigma-family"]["passed"] is False
    code, report, _ = _run_json(capsys, ["local-stats", path, "--vertex", "0"])
    assert code == 0
    names = {check["name"]: check for check in report["checks"]}
    assert names["m-spectrum"]["severity"] == "diagnostic"


def _regular_or_mutant(data) -> list[int]:
    """Rows of a random circulant, or of a toggled, 2-switched or sigma_0-switched witness."""
    kind = data.draw(st.sampled_from(["circulant", "gq35", "ovoid256", "rook4", "shrikhande"]))
    if kind == "circulant":
        nu = data.draw(st.integers(min_value=4, max_value=40), label="nu")
        steps = data.draw(st.sets(st.integers(1, nu // 2)), label="steps")
        mask = sum(1 << s | 1 << (nu - s) % nu for s in steps)
        rows = [((mask << v) | (mask >> (nu - v))) & ((1 << nu) - 1) for v in range(nu)]
        return relabel(rows, seeded_permutation(nu, random.Random(data.draw(st.integers(0, 99)))))
    witnesses = {"gq35": (gq35_rows(), GQ35), "ovoid256": (ovoid256_rows(), OVOID),
                 "rook4": (list(build_rook4().rows), None), "shrikhande": (list(build_shrikhande().rows), None)}
    rows, family = witnesses[kind]
    seed = data.draw(st.integers(0, 1 << 16), label="seed")
    mutations = ["toggle", "two-switch"] + (["sigma_0-switch"] if family else [])
    mutation = data.draw(st.sampled_from(mutations), label="mutation")
    if mutation == "sigma_0-switch":
        return _sigma_0_switch(rows, family, seed)
    return (toggle if mutation == "toggle" else two_switch)(rows, random.Random(seed))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_family_commands_on_regular_graphs_and_mutants_exit_0_or_1(data):
    # the sigmas are built before the preconditions, on inputs that fail them too
    text = serialize_graph6(Graph(_regular_or_mutant(data))) + "\n"
    for command in FAMILY_COMMANDS:
        stdout = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout):
            patch.setattr("sys.stdin", io.StringIO(text))
            code = run([command, "-"])
        assert code in (0, 1), command
        assert json.loads(stdout.getvalue())["checks"][0]["name"] == "preconditions"


def _raise(exc):
    def analysis(*args, **kwargs):
        raise exc

    return analysis


@pytest.mark.parametrize(
    "command, name, exc",
    [
        # a Permutation bijection error: a ValueError, but not the user's
        ("sigma", "verify_inverse_law", ValueError("images do not define a bijection")),
        # a construction error outside the handlers that expect one
        ("related", "related_set", SigmaConstructionError("propagation stalled")),
        ("check-con", "check_condition_con", ZeroDivisionError("division by zero")),
        ("check-srg", "is_srg_report", GraphError("row 3 has bits outside 0..2")),
    ],
)
def test_internal_errors_return_3(capsys, tmp_path, monkeypatch, command, name, exc):
    path = _graph_file(tmp_path, build_gq35())
    monkeypatch.setattr(f"srgpq.cli.{name}", _raise(exc))
    code, out, err = _run(capsys, [command, path])
    assert code == 3 and out == ""
    assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("command, name", [("check-star", "verify_star"), ("check-eq-pq", "verify_eq_pq")])
def test_local_stats_error_after_the_preconditions_returns_3(
    capsys, tmp_path, monkeypatch, trivial_orbits, command, name
):
    # Only FamilyPreconditionError means "not applicable".  Any other
    # LocalStatsError, raised at vertex 5 of check-star's per-vertex sweep or
    # by the one eq-pq sweep call, is a fault of srgpq.
    kernel = getattr(srgpq.cli, name)

    def failing(g, fam, vertex_or_orbits):
        if name == "verify_eq_pq" or vertex_or_orbits == 5:
            raise LocalStatsError("stopped partway through the sweep")
        return kernel(g, fam, vertex_or_orbits)

    monkeypatch.setattr(f"srgpq.cli.{name}", failing)
    code, out, err = _run(capsys, [command, _graph_file(tmp_path, build_gq35())])
    assert code == 3 and out == ""
    assert err == "error: internal: LocalStatsError: stopped partway through the sweep\n"


def test_local_stats_error_at_the_one_representative_returns_3(capsys, tmp_path, monkeypatch):
    # gq35 is one orbit: check-star visits vertex 0 alone, and an error there is a fault of srgpq
    kernel = srgpq.cli.verify_star

    def failing_at_0(g, fam, u):
        if u == 0:
            raise LocalStatsError("stopped at the representative")
        return kernel(g, fam, u)

    monkeypatch.setattr("srgpq.cli.verify_star", failing_at_0)
    code, out, err = _run(capsys, ["check-star", _graph_file(tmp_path, build_gq35())])
    assert code == 3 and out == ""
    assert err == "error: internal: LocalStatsError: stopped at the representative\n"


_ROW_TERMS = localstats._row_terms


def _perturbed_row_terms(frame, width, slope):
    """_row_terms with 1 added to the first term in the field of the last vertex, above every other row."""
    fields, terms = _ROW_TERMS(frame, width, slope)
    terms[0] += 1 << (len(frame.rows) - 1) * width
    return fields, terms


def _least(mask):
    """The least bit set in mask."""
    return (mask & -mask).bit_length() - 1


def _perturbed(kernel, term):
    """A field conversion whose first converted row has term(masks, nu, width) added."""

    def perturbed(masks, nu, width):
        converted = kernel(masks, nu, width)
        converted[0] += term(masks, nu, width)
        return converted

    return perturbed


# (command, input, module, name, stand-in, the pass's message) with a
# stand-in that shifts one packed sum of a field-packed pass on a graph or
# incidence that passes it: a row then fails its comparison while every
# definition holds, and the pass raises
KERNEL_FAULTS = {
    "star": ("check-star", "ovoid256", "localstats", "_row_terms", _perturbed_row_terms, "the star row sum"),
    "eq-pq": ("check-eq-pq", "ovoid256", "localstats", "_row_terms", _perturbed_row_terms, "eq-pq's row sum"),
    # 1 in every field of the first neighbour's converted row
    "psi-regularity": ("check-psi", "ovoid256", "localstats", "_bit_field_rows", _perturbed(
        graphcore._bit_field_rows, lambda masks, nu, width: ((1 << nu * width) - 1) // ((1 << width) - 1)),
        "psi-regularity counts a fault"),
    # 1 in vertex 0's own field of F(N(0)), which every line through 0 adds
    "line-sum-srg": ("graph-to-pq", "gq35", "graphcore", "_bit_field_rows",
                     _perturbed(graphcore._bit_field_rows, lambda masks, nu, width: 1), "the line sum of vertex 0"),
    # the same pass on the collinearity masks: 1 in F(coll[0]) at the least
    # point collinear with 0, a field the (iii) part of T_0 decides, or at
    # the least other point not collinear with 0, a field (iv) decides
    "axiom-iii": ("pq-axioms", "gq35-pq", "graphcore", "_bit_field_rows", _perturbed(
        graphcore._bit_field_rows, lambda masks, nu, width: 1 << _least(masks[0]) * width),
        "the line sum of point 0"),
    "axiom-iv": ("pq-axioms", "gq35-pq", "graphcore", "_bit_field_rows", _perturbed(
        graphcore._bit_field_rows, lambda masks, nu, width: 1 << _least(~masks[0] & ~1) * width),
        "the line sum of point 0"),
}


@pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
def test_a_row_that_fails_its_sum_while_its_definitions_hold_returns_3(capsys, tmp_path, monkeypatch, fault):
    command, source, module, name, stand_in, message = KERNEL_FAULTS[fault]
    builders = {"ovoid256": build_ovoid256, "gq35": build_gq35}
    if source == "gq35-pq":
        path = tmp_path / "gq35.pq"
        path.write_text(format_incidence(graph_to_pq(build_gq35())))
        path = str(path)
    else:
        path = _graph_file(tmp_path, builders[source]())
    assert run([command, path]) == 0  # unperturbed, the input passes
    capsys.readouterr()
    monkeypatch.setattr(f"srgpq.{module}.{name}", stand_in)
    code, out, err = _run(capsys, [command, path])
    assert code == 3 and out == ""
    assert err.startswith(f"error: internal: AssertionError: {message}")


def test_too_small_max_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["diophantine", "--max", "0"])
    assert code == 2 and out == ""
    assert "--max must be at least 1, got 0" in err


def test_vertex_on_an_empty_graph_is_a_usage_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))  # graph6 for 0 vertices
    code, out, err = _run(capsys, ["sigma"])  # the default --base 0
    assert code == 2 and out == ""
    assert "the graph has no vertices" in err
    assert "0..-1" not in err


def _long_prefix(g):
    """graph6 of g with the next longer vertex-count prefix than the canonical one."""
    canonical = serialize_graph6(g)
    if g.nu <= 62:
        return "~" + chr(63) * 2 + chr(63 + g.nu) + canonical[1:]
    return "~~" + chr(63) * 3 + canonical[1:]


@pytest.mark.parametrize("builder", [build_rook4, build_gq35])
def test_input_hash_is_that_of_the_canonical_encoding(capsys, tmp_path, builder):
    g = builder()
    canonical = serialize_graph6(g)
    expected = hashlib.sha256(canonical.encode()).hexdigest()
    for text in (canonical, ">>graph6<<" + canonical, _long_prefix(g), "  " + canonical + " "):
        assert parse_graph6(text) == g
        path = tmp_path / "graph.g6"
        path.write_text("# comment\n" + text + "\n")
        code, report, _ = _run_json(capsys, ["check-srg", str(path)])
        assert code == 0
        assert report["input"]["sha256"] == expected


def test_canonical_input_is_hashed_without_re_encoding(capsys, tmp_path, monkeypatch):
    path = _graph_file(tmp_path, build_gq35())

    def refuse(_g):
        raise AssertionError("a canonical input line was re-encoded")

    monkeypatch.setattr("srgpq.cli.serialize_graph6", refuse)
    code, report, _ = _run_json(capsys, ["check-srg", path])
    assert code == 0 and report["input"]["vertices"] == 64
