"""Parameter calculus tests.

Expected values were computed by hand from the eigenvalue/multiplicity
formulas and the family parameterization, then frozen here.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srgpq.params import (
    FamilyInfo,
    ParameterError,
    PqParams,
    SrgParams,
    detect_family,
    fixed_point_bound,
    pq_to_srg,
    solve_diophantine_17,
    spectrum_of,
    srg_to_pq_params,
)
from tests import oracles


def test_srg_params_rejects_trivial_tuples():
    with pytest.raises(ParameterError):
        SrgParams(10, 3, 0, 0)  # mu = 0
    with pytest.raises(ParameterError):
        SrgParams(10, 9, 8, 1)  # k = nu - 1
    with pytest.raises(ParameterError):
        SrgParams(10, 2, 0, 2)  # mu = k
    with pytest.raises(ParameterError):
        SrgParams(10, -2, 0, 1)


def test_pq_params_invariants():
    with pytest.raises(ParameterError):
        PqParams(0, 1, 1)
    with pytest.raises(ParameterError):
        PqParams(1, 1, 3)  # mu > t+1
    assert PqParams(3, 5, 6).is_generalized_quadrangle
    assert not PqParams(3, 35, 20).is_generalized_quadrangle


def test_spectrum_gq35_parameters():
    report = spectrum_of(SrgParams(64, 18, 2, 6))
    assert report.r == 2
    assert report.s_eig == -6
    assert report.f == 45
    assert report.g == 18
    assert report.integral
    assert not report.is_conference
    assert report.delta_squared == 64


def test_spectrum_n4_family_parameters():
    # (676, 108, 2, 20): delta^2 = 18^2 + 4*88 = 676, so r = 4, s = -22, g = k
    report = spectrum_of(SrgParams(676, 108, 2, 20))
    assert report.r == 4
    assert report.s_eig == -22
    assert report.g == 108
    assert report.f == 567
    assert report.integral


def test_spectrum_conference_pentagon():
    report = spectrum_of(SrgParams(5, 2, 0, 1))
    assert report.is_conference
    assert report.r is None and report.s_eig is None
    assert report.f == report.g == 2
    assert not report.integral


def test_spectrum_conference_with_integral_spectrum():
    # Paley(9): conference balance is zero yet delta^2 = 9 is a perfect square
    report = spectrum_of(SrgParams(9, 4, 1, 2))
    assert report.is_conference
    assert report.r == 1 and report.s_eig == -2
    assert report.f == report.g == 4
    assert report.integral


def test_spectrum_rook_has_f_equal_k():
    report = spectrum_of(SrgParams(16, 6, 2, 2))
    assert report.r == 2 and report.s_eig == -2
    assert report.f == 6 and report.g == 9


def test_detect_family_known_members():
    assert detect_family(SrgParams(16, 6, 2, 2)) == FamilyInfo.from_n_lam(-2, 2)
    assert detect_family(SrgParams(64, 18, 2, 6)) == FamilyInfo.from_n_lam(2, 2)
    assert detect_family(SrgParams(256, 51, 2, 12)) == FamilyInfo.from_n_lam(3, 2)
    assert detect_family(SrgParams(676, 108, 2, 20)) == FamilyInfo.from_n_lam(4, 2)


def test_detect_family_absent():
    # mu = 1 and mu = 4 are not of the form n(n+1)
    assert detect_family(SrgParams(10, 3, 0, 1)) is None
    assert detect_family(SrgParams(28, 12, 6, 4)) is None
    # mu = 2 fits n in {1, -2} but neither reproduces (15, 6, 1, 2)
    assert detect_family(SrgParams(15, 6, 1, 2)) is None


def test_detect_family_negative_root_with_large_lambda():
    # (36, 10, 4, 2) is the n = -2, lam = 4 member: (4-6-4)^2 = 36, -2*(-5) = 10
    info = detect_family(SrgParams(36, 10, 4, 2))
    assert info is not None
    assert info.n == -2 and info.kind == "pseudo-latin-square"
    assert info.srg_params() == SrgParams(36, 10, 4, 2)


def test_family_reconstruction_round_trip_examples():
    for n, lam in [(2, 2), (3, 2), (4, 2), (10, 2), (-2, 2), (2, 0), (3, 1)]:
        info = FamilyInfo.from_n_lam(n, lam)
        assert detect_family(info.srg_params()) == info


@pytest.mark.parametrize(
    "n, lam, triple, resolvent",
    [
        (-2, 2, False, False),
        (2, 2, False, False),
        (3, 2, True, True),
        (4, 2, True, True),
        (4, 1, False, True),
        (3, 3, False, False),
    ],
)
def test_family_regimes(n, lam, triple, resolvent):
    info = FamilyInfo.from_n_lam(n, lam)
    assert info.in_triple_regime is triple
    assert info.in_resolvent_regime is resolvent


def test_pq_to_srg_examples():
    assert pq_to_srg(PqParams(3, 35, 20)) == SrgParams(676, 108, 2, 20)
    assert pq_to_srg(PqParams(3, 5, 6)) == SrgParams(64, 18, 2, 6)
    # PQ(1,1,1) is the pentagon: 1 + 1*2 + 1*1*2/1 = 5 points
    assert pq_to_srg(PqParams(1, 1, 1)) == SrgParams(5, 2, 0, 1)


def test_pq_to_srg_divisibility_failure():
    with pytest.raises(ParameterError):
        pq_to_srg(PqParams(3, 35, 19))


def test_srg_to_pq_examples():
    assert srg_to_pq_params(SrgParams(676, 108, 2, 20)) == PqParams(3, 35, 20)
    assert srg_to_pq_params(SrgParams(64, 18, 2, 6)) == PqParams(3, 5, 6)
    assert srg_to_pq_params(SrgParams(16, 6, 2, 2)) == PqParams(3, 1, 2)
    # lam+1 = 3 does not divide k = 10
    assert srg_to_pq_params(SrgParams(36, 10, 2, 4)) is None


def test_pq_round_trip_on_known_parameter_sets():
    for q in [PqParams(3, 35, 20), PqParams(3, 5, 6), PqParams(3, 1, 2)]:
        assert srg_to_pq_params(pq_to_srg(q)) == q


def test_solve_diophantine_17_small_and_reference_set():
    assert solve_diophantine_17(1) == [(1, 1)]
    assert solve_diophantine_17(10) == [(1, 1), (2, 3), (3, 4), (10, 7)]
    assert solve_diophantine_17(5000) == [(1, 1), (2, 3), (3, 4), (10, 7)]
    with pytest.raises(ValueError):
        solve_diophantine_17(0)


def test_solve_diophantine_17_matches_the_exhaustive_search():
    # the search tests n in ascending order, so its list at n_max is the
    # prefix n <= n_max of its list at 3000
    exhaustive = oracles.solve_diophantine_17(3000)
    for n_max in range(1, 3001):
        assert solve_diophantine_17(n_max) == [pair for pair in exhaustive if pair[0] <= n_max]
    for n_max in (9, 10, 11, 10**6):
        assert solve_diophantine_17(n_max) == oracles.solve_diophantine_17(n_max)
    for function in (solve_diophantine_17, oracles.solve_diophantine_17):
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            function(0)


def test_solve_diophantine_17_is_logarithmic_in_n_max():
    # about 270 values of t up to 10^40, where the search would test 10^40 values of n
    started = time.perf_counter()
    assert solve_diophantine_17(10**40) == [(1, 1), (2, 3), (3, 4), (10, 7)]
    assert time.perf_counter() - started < 1.0


def test_fixed_point_bound_examples():
    b = fixed_point_bound(SrgParams(64, 18, 2, 6))
    assert b.value == 24 and not b.within_quarter
    b = fixed_point_bound(SrgParams(256, 51, 2, 12))
    assert b.value == 64 == Fraction(256, 4) and b.within_quarter
    b = fixed_point_bound(SrgParams(676, 108, 2, 20))
    assert b.value == 130 and b.within_quarter


def test_fixed_point_bound_rejects_irrational_spectrum():
    with pytest.raises(ParameterError):
        fixed_point_bound(SrgParams(5, 2, 0, 1))


def test_fixed_point_bound_quarter_regime_for_lambda2_family():
    for n in range(3, 101):
        info = FamilyInfo.from_n_lam(n, 2)
        assert fixed_point_bound(info.srg_params()).within_quarter


def _valid_family_params(n: int, lam: int):
    try:
        return FamilyInfo.from_n_lam(n, lam).srg_params()
    except ParameterError:
        return None


@given(
    n=st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=-12, max_value=-2)),
    lam=st.integers(min_value=0, max_value=12),
)
def test_spectrum_identities_on_family_members(n, lam):
    p = _valid_family_params(n, lam)
    assume(p is not None)
    report = spectrum_of(p)
    assume(report.r is not None)
    assert report.f + report.g == p.nu - 1
    assert p.k + report.f * report.r + report.g * report.s_eig == 0
    # family eigenvalues are n and lam - n^2 - 2n, with valency multiplicity
    assert {report.r, report.s_eig} == {Fraction(n), Fraction(lam - n * n - 2 * n)}
    if not report.is_conference:
        assert (report.g if n > 0 else report.f) == p.k


@given(
    s=st.integers(min_value=1, max_value=9),
    t=st.integers(min_value=1, max_value=40),
    mu=st.integers(min_value=1, max_value=41),
)
def test_pq_srg_round_trip_property(s, t, mu):
    assume(mu <= t + 1)
    q = PqParams(s, t, mu)
    assume(s * s * t * (t + 1) % mu == 0)
    try:
        p = pq_to_srg(q)
    except ParameterError:
        assume(False)
    assert srg_to_pq_params(p) == q


@settings(max_examples=30)
@given(n=st.integers(min_value=1, max_value=500))
def test_diophantine_prefix_stability(n):
    reference = [(1, 1), (2, 3), (3, 4), (10, 7)]
    assert solve_diophantine_17(n) == [pair for pair in reference if pair[0] <= n]
