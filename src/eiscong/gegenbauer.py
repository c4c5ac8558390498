"""Two-variable Gegenbauer polynomials and their binary-form specializations.

P_{d,nu}(s, m) is defined by the generating function
(1 - 2 s t + m t^2)^(-(d-2)/2) = sum_nu P_{d,nu}(s, m) t^nu.  The pullback
(d = 2k) and Cohen's series (d = 2r + 2) use only even d >= 4, where every
coefficient is an integer; `_integer_coeffs` is their one statement.
Substituting a linear form for s and a binary quadratic form for m turns
P_{d,nu} into a homogeneous degree-nu form in two variables; that
specialization is the kernel of the scalar-to-vector differential operator
used by the pullback coefficients.  Every monomial s^i m^j has i + 2j = nu,
so at s = u/2, m = w/4 each one is divided by the same 2^nu: specializations
are evaluated in integers and divided once.  The pullback needs only
integer-weighted sums of them over rows, which stay in integers as well
(`_specialization_sum`, by Horner's rule in w).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arith import _GEGENBAUER_DEGREE
from .errors import BudgetExceeded
from .quadform import HalfIntegralMatrix

__all__ = [
    "BinaryForm",
    "BivariatePoly",
]


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in (s, m); `coeffs` maps (i, j) to the coefficient of s^i m^j."""

    degree: int
    coeffs: tuple[tuple[tuple[int, int], int], ...]

    def evaluate(self, s: Fraction | int, m: Fraction | int) -> Fraction:
        s, m = Fraction(s), Fraction(m)
        return sum((c * s**i * m**j for (i, j), c in self.coeffs), Fraction(0))


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of the given degree; coeffs[i] multiplies x^(deg-i) y^i."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        n = self.degree
        return sum(
            (c * x ** (n - i) * y**i for i, c in enumerate(self.coeffs)),
            Fraction(0),
        )

    def __add__(self, other: BinaryForm) -> BinaryForm:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, scalar: Fraction | int) -> BinaryForm:
        return BinaryForm(self.degree, tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__


def _integer_coeffs(d: int, nu: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """((i, j, C_ij), ...) and den = 2^nu with P_{d,nu}(u/2, w/4) = sum C_ij u^i w^j / den.

    With b = d/2 - 1, the monomial s^(nu-2mu) m^mu of P_{d,nu} carries
    (-1)^mu (b)_(nu-mu) 2^(nu-2mu) / ((nu-2mu)! mu!)
    = (-1)^mu 2^(nu-2mu) C(b+nu-mu-1, nu-mu) C(nu-mu, mu), an integer for
    even d.  Isobaric weight i + 2j = nu turns s^i m^j into u^i w^j / 2^nu,
    so C_ij is that coefficient itself.  A degree nu past _GEGENBAUER_DEGREE
    raises BudgetExceeded before any term is formed.
    """
    if d % 2 or d < 4 or nu < 0:
        raise ValueError("need even d >= 4 and nu >= 0")
    if nu > _GEGENBAUER_DEGREE:
        raise BudgetExceeded(
            f"P_(d,nu) of degree nu = {nu} is past the bound of {_GEGENBAUER_DEGREE}"
        )
    b = d // 2 - 1
    terms = []
    for mu in range(nu // 2 + 1):
        c = comb(b + nu - mu - 1, nu - mu) * comb(nu - mu, mu) << (nu - 2 * mu)
        terms.append((nu - 2 * mu, mu, (-1) ** mu * c))
    return tuple(terms), 1 << nu


def _convolve(a: list[int], b: list[int], size: int | None = None) -> list[int]:
    """Product of two dense integer coefficient lists, cut to `size` terms if given."""
    if size is None:
        size = len(a) + len(b) - 1
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i]):
                out[i + j] += x * y
    return out


def _specialization_sum(
    d: int,
    nu: int,
    n: int,
    quad: HalfIntegralMatrix,
    rows: Iterable[tuple[int, tuple[int, int]]],
) -> tuple[list[int], int]:
    """The integer form sum c sum C_ij u^i w^j over the pairs (c, R); and den.

    u = r1 x + r2 y and w = 4m = 2n (g00 x^2 + 2 g01 x y + g11 y^2), with g
    the doubled Q, so each summand is c * den times the specialization of
    P_{d,nu} at row R.  w does not depend on R, and the terms are
    C_j U_(nu-2j) w^j, j = 0..nu/2, where U_i is the row sum of c u^i: the
    coefficients of u^i are C(i, l) r1^(i-l) r2^l, so the weighted monomials
    c r1^(i-l) r2^l are summed over the rows first.  The sum over j is then
    taken by Horner's rule in w, each step one product with the three
    coefficients of w.
    """
    if quad.n != 2:
        raise ValueError("quadratic form must be 2x2")
    g = quad.doubled
    terms, den = _integer_coeffs(d, nu)
    w = [2 * n * g[0][0], 4 * n * g[0][1], 2 * n * g[1][1]]
    monomials = [[0] * (i + 1) for i, _, _ in terms]
    for c, (r1, r2) in rows:
        p1 = [c * r1**e for e in range(nu + 1)]
        p2 = [r2**e for e in range(nu + 1)]
        for mono, (i, _, _) in zip(monomials, terms):
            mono[:] = [s + x * y for s, x, y in zip(mono, p1[i::-1], p2)]
    total: list[int] = []  # terms run j = 0, 1, ...: the last one is innermost
    for mono, (i, _, c) in zip(reversed(monomials), reversed(terms)):
        u_sum = [c * comb(i, l) * m for l, m in enumerate(mono)]
        total = [a + b for a, b in zip(u_sum, _convolve(total, w))] if total else u_sum
    return total, den

