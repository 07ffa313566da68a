"""Asserted checks at n = 3, where their hypotheses hold.

The witness is the diamond-free SRG(256, 51, 2, 12): the cone over the
elliptic quadric of PG(3, 4) as a Cayley graph on GF(4)^4, built by
perfbench.inputs independently of srgpq.  Every check below is asserted
there (n >= 3, lam = 2), unlike on the n = 2 witness GQ(3,5).
"""

from __future__ import annotations

import io
import json

import pytest

from perfbench.inputs import graph6, ovoid256_rows
from srgpq.cli import run
from srgpq.graphcore import Graph
from srgpq.localstats import predicted_m_spectrum, verify_psi_regularity
from srgpq.params import FamilyInfo

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
    predicted = predicted_m_spectrum(FAMILY)
    assert list(histogram) == [" ".join(str(predicted.get(i, 0)) for i in range(7))]
    assert report["results"]["m0_range"] == [2, 2]


def test_psi_regularity_is_an_asserted_pass(ovoid_rows):
    report = verify_psi_regularity(Graph(ovoid_rows), FAMILY, 0)
    assert report.severity == "asserted-pass"
    assert report.details["r_distribution"] == {"0": 1360, "1": 510, "2": 408}
    assert report.details["violations"] == 0
