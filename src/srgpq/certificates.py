"""The counting system that rules out a diamond-free SRG(676, 108, 2, 20).

Such a graph is the collinearity graph of a PQ(3, 35, 20), the n = 4
member of the lam = 2 family.  Counting how the triangles of a
neighbourhood meet one outside triangle gives three integer equations in
four counts, built here from n and solved in closed form with s_3 free.
At n = 4 no non-negative value of s_3 solves them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AffineForm:
    """constant + sum coefficient_i * unknown_i over the free unknowns."""

    constant: int
    coefficients: dict[str, int]

    def render(self) -> str:
        parts = [str(self.constant)]
        for name in sorted(self.coefficients):
            coefficient = self.coefficients[name]
            term = name if abs(coefficient) == 1 else f"{abs(coefficient)}*{name}"
            parts.append(f"{'+' if coefficient > 0 else '-'} {term}")
        return " ".join(parts)


@dataclass(frozen=True)
class CountingSystem:
    """An integer counting system and its solved form.

    parametric_solution maps every unknown to an affine form in the free
    unknowns; feasible says whether some non-negative integer values of
    the free unknowns make every form non-negative.
    """

    unknowns: tuple[str, ...]
    equations: tuple[tuple[tuple[int, ...], int], ...]
    parametric_solution: dict[str, AffineForm]
    free_unknowns: tuple[str, ...]
    feasible: bool

    def substitution_is_identical(self) -> bool:
        """True when every equation reduces to rhs = rhs with no free-term residue."""
        forms = [self.parametric_solution[name] for name in self.unknowns]
        for coefficients, rhs in self.equations:
            if sum(c * form.constant for c, form in zip(coefficients, forms)) != rhs:
                return False
            for free in self.free_unknowns:
                if sum(c * form.coefficients.get(free, 0) for c, form in zip(coefficients, forms)):
                    return False
        return True


def _counting_system(n: int) -> tuple[CountingSystem, range]:
    """The counting system of the family member with parameter n, and the values of s_3 it allows.

    The member is a diamond-free SRG with lam = 2 and mu = n(n + 1), so
    every edge lies on one line, a 4-clique, and N(u) is t + 1 disjoint
    triangles (cells), t = (n + 3)(n^2 - 1)/3.  Fix u, x in N(u) and a
    triangle T of N(x) that avoids u; s_i counts the cells of N(u), other
    than x's, that send i edges to T.  From lam = 2 and diamond-freeness:

    (a) T misses N[u].  T avoids u, and a w in T adjacent to u would be a
        common neighbour of u and x, so on the line ux; but w is on the
        line x + T, and two lines through x share only x.
    (b) Each w in T has at most one neighbour in any cell of N(u), so none
        in x's cell other than x: two, c ~ c', would make u, c, c', w a
        diamond, as w !~ u by (a).
    (c) Each c in N(u) outside x's cell has at most one neighbour in T:
        two, w ~ w', would make x, w, w', c a diamond, as c !~ x
        (adjacent vertices of N(u) share a cell).

    So the edges from a cell C to T form a matching, of 0 to 3 edges.

    - sum s_i = t counts the t cells other than x's.
    - sum i s_i = 3 mu - 3 counts the edges from T to those cells: each w
      in T has mu common neighbours with u by (a), x is one of them, and
      by (b) no other lies in x's cell.
    - s_2 + 3 s_3 = 3(n + 3) counts the pairs of matching edges from one
      cell.  Take one of T's three pairs {w, w'}.  Its pairs of matching
      edges are the adjacent (c, c') with c in N(u, w) and c' in N(u, w'):
      adjacent vertices of N(u) share a cell.  These are the q of the
      p/q identity (n - 1) p + q = 2(n + 1) at the adjacent non-neighbours
      w, w' of u, less those through x, of which by (b) there are none.
      N(w) & N(w') = {x, w''}, w'' the third vertex of T, so p = 1 and
      q = n + 3.  This equation needs the p/q identity, which the paper
      derives for lam <= n - 1; n = 4 qualifies.

    With s_3 free the solved form is s_0 = t - 3n^2 + 12 - s_3,
    s_1 = 3n^2 - 3n - 21 + 3 s_3 and s_2 = 3(n + 3) - 3 s_3, integral for
    every integer s_3.  Every form is non-negative iff
    max(0, -(3n^2 - 3n - 21)/3) <= s_3 <= min(n + 3, t - 3n^2 + 12): that
    is s_3 = 5 at n = 2, s_3 = 1 at n = 3, none at n = 4 (s_0 = -1 - s_3)
    and 0..13 at n = 10.
    """
    t = (n + 3) * (n * n - 1) // 3
    mu = n * (n + 1)
    equations = (
        ((1, 1, 1, 1), t),
        ((0, 1, 2, 3), 3 * mu - 3),
        ((0, 0, 1, 3), 3 * (n + 3)),
    )
    s_0, s_1, s_2 = t - 3 * n * n + 12, 3 * n * n - 3 * n - 21, 3 * (n + 3)
    solution = {
        "s_0": AffineForm(s_0, {"s_3": -1}),
        "s_1": AffineForm(s_1, {"s_3": 3}),
        "s_2": AffineForm(s_2, {"s_3": -3}),
        "s_3": AffineForm(0, {"s_3": 1}),
    }
    s_3 = range(max(0, -(s_1 // 3)), min(n + 3, s_0) + 1)
    system = CountingSystem(
        unknowns=tuple(solution),
        equations=equations,
        parametric_solution=solution,
        free_unknowns=("s_3",),
        feasible=len(s_3) > 0,
    )
    return system, s_3


def pq_3_35_20_certificate() -> CountingSystem:
    """The counting system ruling out a diamond-free SRG(676, 108, 2, 20).

    At n = 4 it is s_0+s_1+s_2+s_3 = 35, s_1+2s_2+3s_3 = 57 and
    s_2+3s_3 = 21, which forces s_0 = -1 - s_3 < 0.
    """
    return _counting_system(4)[0]
