"""The PQ(3,35,20) nonexistence certificate: the counting system built from n."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from srgpq.certificates import AffineForm, _counting_system, pq_3_35_20_certificate
from srgpq.geometry import build_gq35, build_ovoid256
from srgpq.graphcore import Graph, neighborhood_clique_cells

# the values of s_3 for which every count of the solved form is non-negative
S3_INTERVALS = {
    2: range(5, 6),
    3: range(1, 2),
    4: range(0),
    5: range(0, 2),
    6: range(0, 10),
    7: range(0, 11),
    8: range(0, 12),
    9: range(0, 13),
    10: range(0, 14),
    11: range(0, 15),
}


def _values(system, s_3: int) -> tuple[int, ...]:
    """The solved form at s_3, in the order of the unknowns."""
    forms = [system.parametric_solution[name] for name in system.unknowns]
    return tuple(form.constant + form.coefficients["s_3"] * s_3 for form in forms)


def _solves(system, counts: tuple[int, ...]) -> bool:
    return all(
        sum(c * s for c, s in zip(coefficients, counts)) == rhs for coefficients, rhs in system.equations
    )


def _cell_counts(g: Graph, bases) -> Counter:
    """s = (s_0, .., s_3) of every choice of u in bases, x in N(u) and a triangle T of N(x) avoiding u.

    s_i counts the cells of N(u), other than x's, with i edges to T.
    """
    counts = Counter()
    for u in bases:
        cells = neighborhood_clique_cells(g, u, 3)
        for cell in cells:
            for x in cell:
                for triangle in neighborhood_clique_cells(g, x, 3):
                    if u in triangle:
                        continue
                    mask = sum(1 << w for w in triangle)
                    s = [0] * 4
                    for other in cells:
                        if other != cell:
                            s[sum((g.rows[c] & mask).bit_count() for c in other)] += 1
                    counts[tuple(s)] += 1
    return counts


@pytest.mark.parametrize(
    "build, n, choices, expected",
    [(build_gq35, 2, 270, (0, 0, 0, 5)), (build_ovoid256, 3, 2448, (0, 0, 15, 1))],
    ids=["gq35", "ovoid256"],
)
def test_the_witnesses_count_the_unique_solution_at_their_own_n(build, n, choices, expected):
    counts = _cell_counts(build(), (0, 5, 37))
    assert counts == {expected: choices}
    system, s_3 = _counting_system(n)
    assert [_values(system, value) for value in s_3] == [expected]
    assert _solves(system, expected)
    other, _ = _counting_system(5 - n)  # the other witness's n
    assert not _solves(other, expected)


def test_certificate_solved_form():
    system = pq_3_35_20_certificate()
    assert system.unknowns == ("s_0", "s_1", "s_2", "s_3")
    assert system.equations == (((1, 1, 1, 1), 35), ((0, 1, 2, 3), 57), ((0, 0, 1, 3), 21))
    assert system.free_unknowns == ("s_3",)
    solution = system.parametric_solution
    assert solution["s_0"] == AffineForm(-1, {"s_3": -1})
    assert solution["s_1"] == AffineForm(15, {"s_3": 3})
    assert solution["s_2"] == AffineForm(21, {"s_3": -3})
    assert solution["s_3"] == AffineForm(0, {"s_3": 1})


def test_certificate_is_infeasible():
    system = pq_3_35_20_certificate()
    assert system.feasible is False
    assert system == _counting_system(4)[0]


def test_certificate_back_substitution():
    system = pq_3_35_20_certificate()
    assert system.substitution_is_identical()
    # at s_3 = 0 all three equations hold with s_0 = -1
    values = _values(system, 0)
    assert values[0] == -1 and _solves(system, values)


@pytest.mark.parametrize("n", sorted(S3_INTERVALS))
def test_the_solved_form_solves_the_system_at_every_n(n):
    system, _ = _counting_system(n)
    assert system.substitution_is_identical()
    for value in (0, 1, 7):
        assert _solves(system, _values(system, value))
    t, mu = (n + 3) * (n * n - 1) // 3, n * (n + 1)
    assert [rhs for _, rhs in system.equations] == [t, 3 * mu - 3, 3 * (n + 3)]


@pytest.mark.parametrize("n", sorted(S3_INTERVALS))
def test_the_s3_interval_is_where_every_count_is_non_negative(n):
    system, s_3 = _counting_system(n)
    assert s_3 == S3_INTERVALS[n]
    assert [value for value in range(100) if min(_values(system, value)) >= 0] == list(s_3)
    assert system.feasible is (len(s_3) > 0)


def test_one_free_unknown_feasible_bounded():
    # n = 10, the paper's remaining case: s_3 in 0..13 and s_0 = 141 - s_3
    system, s_3 = _counting_system(10)
    assert system.feasible is True and s_3 == range(0, 14)
    assert system.parametric_solution["s_0"] == AffineForm(141, {"s_3": -1})


@pytest.mark.parametrize("name", ["s_0", "s_1", "s_2"])
@pytest.mark.parametrize("part", ["constant", "coefficient"])
def test_a_perturbed_form_fails_back_substitution(name, part):
    system = pq_3_35_20_certificate()
    form = system.parametric_solution[name]
    if part == "constant":
        form = AffineForm(form.constant + 1, form.coefficients)
    else:
        form = AffineForm(form.constant, {"s_3": form.coefficients["s_3"] + 1})
    perturbed = replace(system, parametric_solution={**system.parametric_solution, name: form})
    assert not perturbed.substitution_is_identical()


def test_affine_form_render():
    assert AffineForm(-1, {"s_3": -1}).render() == "-1 - s_3"
    assert AffineForm(15, {"s_3": 3}).render() == "15 + 3*s_3"
    assert AffineForm(21, {"s_3": -3}).render() == "21 - 3*s_3"
    assert AffineForm(0, {"s_3": 1}).render() == "0 + s_3"
