"""Exact parameter calculus for strongly regular graphs and partial quadrangles.

Everything here operates on parameter tuples, not graphs, and uses integer or
rational arithmetic throughout.  Infeasibility (a non-integral multiplicity, a
failed divisibility condition, no matching family member) is returned as a
value, never approximated with floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional


class ParameterError(ValueError):
    """A parameter tuple violates its defining inequalities."""


@dataclass(frozen=True)
class SrgParams:
    """Parameters (nu, k, lam, mu) of a nontrivial strongly regular graph.

    Nontrivial means the graph and its complement are connected, which is
    equivalent to 0 < mu < k < nu - 1.
    """

    nu: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        for name in ("nu", "k", "lam", "mu"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ParameterError(f"{name} must be a nonnegative integer, got {value!r}")
        if not (0 < self.mu < self.k < self.nu - 1):
            raise ParameterError(
                "need 0 < mu < k < nu-1, got "
                f"(nu, k, lam, mu) = ({self.nu}, {self.k}, {self.lam}, {self.mu})"
            )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.nu, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class PqParams:
    """Parameters (s, t, mu) of a partial quadrangle.

    s+1 points per line, t+1 lines per point, mu common collinear points for
    every non-collinear pair.  mu <= t+1 always; equality is the generalized
    quadrangle case.
    """

    s: int
    t: int
    mu: int

    def __post_init__(self):
        for name in ("s", "t", "mu"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.s < 1 or self.t < 1:
            raise ParameterError(f"need s >= 1 and t >= 1, got s={self.s}, t={self.t}")
        if not 1 <= self.mu <= self.t + 1:
            raise ParameterError(f"need 1 <= mu <= t+1, got mu={self.mu}, t={self.t}")

    @property
    def is_generalized_quadrangle(self) -> bool:
        return self.mu == self.t + 1

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s, self.t, self.mu)


@dataclass(frozen=True)
class SpectrumReport:
    """Exact spectrum of an SRG parameter tuple.

    r and s_eig are the non-principal eigenvalues with multiplicities f and g.
    They are None when irrational (then delta_squared is not a perfect square,
    which for feasible parameters happens only in the conference case).
    integral=False marks a parameter set that no actual graph can realize.
    """

    r: Optional[Fraction]
    s_eig: Optional[Fraction]
    f: Optional[Fraction]
    g: Optional[Fraction]
    delta_squared: int
    is_conference: bool
    integral: bool


NEGATIVE_LATIN_SQUARE = "negative-latin-square"
PSEUDO_LATIN_SQUARE = "pseudo-latin-square"


def family_parameter_tuple(n: int, lam: int) -> tuple[int, int, int, int]:
    """Raw (nu, k, lam, mu) of the valency-equals-multiplicity family member."""
    base = n * n + 3 * n - lam
    return (base * base, n * (base + 1), lam, n * (n + 1))


@dataclass(frozen=True)
class FamilyInfo:
    """A member of the family ((n^2+3n-lam)^2, n(n^2+3n-lam+1), lam, n(n+1)).

    n > 0 gives negative Latin square parameters (g = k), n < 0 pseudo Latin
    square parameters (f = k).
    """

    n: int
    lam: int
    kind: str

    def __post_init__(self):
        if self.n in (0, -1):
            raise ParameterError("family parameter n must avoid 0 and -1 (mu would vanish)")
        expected = NEGATIVE_LATIN_SQUARE if self.n > 0 else PSEUDO_LATIN_SQUARE
        if self.kind != expected:
            raise ParameterError(f"kind {self.kind!r} inconsistent with n={self.n}")

    @classmethod
    def from_n_lam(cls, n: int, lam: int) -> "FamilyInfo":
        kind = NEGATIVE_LATIN_SQUARE if n > 0 else PSEUDO_LATIN_SQUARE
        return cls(n=n, lam=lam, kind=kind)

    def srg_params(self) -> SrgParams:
        return SrgParams(*family_parameter_tuple(self.n, self.lam))

    @property
    def in_triple_regime(self) -> bool:
        """The independent-triple, sigma-family and Gamma claims are proved here: lam = 2, n >= 3."""
        return self.n >= 3 and self.lam == 2

    @property
    def in_resolvent_regime(self) -> bool:
        """The p/q and block-matrix identities are derived here: g = k and lam <= n - 1."""
        return self.n >= 1 and self.lam <= self.n - 1


@dataclass(frozen=True)
class FixedPointBound:
    """Fixed-point bound nu*max(lam, mu)/(k-r) for nontrivial automorphisms."""

    value: Fraction
    quarter_nu: Fraction
    within_quarter: bool


def spectrum_of(p: SrgParams) -> SpectrumReport:
    """Exact eigenvalues and multiplicities of an SRG parameter tuple.

    r = (lam-mu+D)/2 and s_eig = (lam-mu-D)/2 with D = sqrt((lam-mu)^2+4(k-mu));
    the multiplicities come from the trace conditions.  The conference case is
    flagged (2k + (nu-1)(lam-mu) = 0) and left unanalyzed beyond f = g.
    """
    gap = p.lam - p.mu
    delta_squared = gap * gap + 4 * (p.k - p.mu)
    balance = 2 * p.k + (p.nu - 1) * gap
    is_conference = balance == 0
    root = isqrt(delta_squared)
    square = root * root == delta_squared

    r = s_eig = f = g = None
    if square:
        r = Fraction(gap + root, 2)
        s_eig = Fraction(gap - root, 2)
        f = Fraction(p.nu - 1, 2) - Fraction(balance, 2 * root)
        g = Fraction(p.nu - 1, 2) + Fraction(balance, 2 * root)
    elif is_conference:
        f = g = Fraction(p.nu - 1, 2)

    integral = square and all(x.denominator == 1 for x in (r, s_eig, f, g))
    return SpectrumReport(
        r=r,
        s_eig=s_eig,
        f=f,
        g=g,
        delta_squared=delta_squared,
        is_conference=is_conference,
        integral=integral,
    )


def detect_family(p: SrgParams) -> Optional[FamilyInfo]:
    """Find the integer n with mu = n(n+1) reproducing all four parameters.

    Both roots n and -n-1 of the quadratic are tried; when both fit (which
    requires f = g) the positive one is preferred.  Returns None when no
    integer n works.
    """
    disc = 1 + 4 * p.mu
    root = isqrt(disc)
    if root * root != disc:
        return None
    n_pos = (root - 1) // 2
    for n in (n_pos, -n_pos - 1):
        if family_parameter_tuple(n, p.lam) == p.as_tuple():
            return FamilyInfo.from_n_lam(n, p.lam)
    return None


def pq_to_srg(q: PqParams) -> SrgParams:
    """Parameters of the collinearity graph of a PQ(s, t, mu).

    The point count 1 + s(t+1) + s^2 t(t+1)/mu must be an integer; a failed
    divisibility means no collinearity graph parameter set exists.
    """
    product = q.s * q.s * q.t * (q.t + 1)
    quotient, remainder = divmod(product, q.mu)
    if remainder:
        raise ParameterError(
            f"mu={q.mu} does not divide s^2 t(t+1)={product}; "
            "no collinearity graph parameter set exists"
        )
    return SrgParams(1 + q.s * (q.t + 1) + quotient, q.s * (q.t + 1), q.s - 1, q.mu)


def srg_to_pq_params(p: SrgParams) -> Optional[PqParams]:
    """PQ parameters (lam+1, k/(lam+1)-1, mu) of a diamond-free SRG.

    None when lam+1 does not divide k, or when the resulting triple is not a
    valid partial quadrangle parameter set.
    """
    s = p.lam + 1
    t_plus_one, remainder = divmod(p.k, s)
    if remainder:
        return None
    try:
        return PqParams(s, t_plus_one - 1, p.mu)
    except ParameterError:
        return None


def fixed_point_bound(p: SrgParams) -> FixedPointBound:
    """Exact bound nu*max(lam,mu)/(k-r) on fixed points of any nontrivial automorphism."""
    report = spectrum_of(p)
    if report.r is None:
        raise ParameterError(
            "fixed-point bound needs a rational second-largest eigenvalue; "
            "conference parameters rejected"
        )
    value = Fraction(p.nu * max(p.lam, p.mu)) / (p.k - report.r)
    quarter = Fraction(p.nu, 4)
    return FixedPointBound(value=value, quarter_nu=quarter, within_quarter=value <= quarter)


def solve_diophantine_17(n_max: int) -> list[tuple[int, int]]:
    """All (n, t) with 1 <= n <= n_max, t >= 0 and (2n+3)^2 = 2^(t+2) + 17, ascending.

    Exact in O(log n_max) steps: for each t with 2^(t+2) + 17 <= (2 n_max + 3)^2,
    the right side is a square root^2 exactly when isqrt says so, and then
    n = (root - 3) / 2 (root is odd, as 2^(t+2) + 17 is); root >= 5 makes n >= 1.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    limit = (2 * n_max + 3) ** 2
    solutions = []
    t = 0
    while (value := (1 << (t + 2)) + 17) <= limit:
        root = isqrt(value)
        if root * root == value and root >= 5:
            solutions.append(((root - 3) // 2, t))
        t += 1
    return solutions
