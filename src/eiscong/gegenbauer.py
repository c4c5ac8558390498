"""Two-variable Gegenbauer polynomials and their binary-form specializations.

P_{d,nu}(s, m) is defined by the generating function
(1 - 2 s t + m t^2)^(-(d-2)/2) = sum_nu P_{d,nu}(s, m) t^nu and is computed
here through its closed-form coefficient sum.  Substituting a linear form
for s and a binary quadratic form for m turns P_{d,nu} into a homogeneous
degree-nu form in two variables; that specialization is the kernel of the
scalar-to-vector differential operator used by the pullback coefficients.

Every monomial s^i m^j of P_{d,nu} has i + 2j = nu, so at s = u/2, m = w/4
each one is divided by the same 2^nu.  Specializations are therefore
evaluated in integers, sum C_ij u^i w^j, and divided once by
den = 2^nu * lcm(coefficient denominators) (`_integer_coeffs`); Fraction
normalizes the quotient, so the result is the same rational as the
term-by-term rational evaluation.  For even d the coefficients are
integers and den = 2^nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .arith import pochhammer
from .quadform import HalfIntegralMatrix

__all__ = [
    "BinaryForm",
    "BivariatePoly",
    "eval_binary",
    "gegenbauer_poly",
]


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in (s, m); `coeffs` maps (i, j) to the coefficient of s^i m^j."""

    degree: int
    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]

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

    @classmethod
    def zero(cls, degree: int) -> BinaryForm:
        return cls(degree, (Fraction(0),) * (degree + 1))

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@lru_cache(maxsize=None)
def gegenbauer_poly(d: int, nu: int) -> BivariatePoly:
    """P_{d,nu} via the explicit sum over mu <= nu/2.

    The monomial s^(nu-2mu) m^mu carries
    (-1)^mu (d/2-1)_(nu-mu) 2^(nu-2mu) / ((nu-2mu)! mu!); every monomial has
    isobaric weight i + 2j = nu, so specializations below stay homogeneous.
    Coefficients are rational for odd d (the Pochhammer base is then a
    half-integer), even though callers here always pass even d.
    """
    if d < 3 or nu < 0:
        raise ValueError("need d >= 3 and nu >= 0")
    base = Fraction(d, 2) - 1
    entries = []
    for mu in range(nu // 2 + 1):
        c = (
            (-1) ** mu
            * pochhammer(base, nu - mu)
            * 2 ** (nu - 2 * mu)
            / (factorial(nu - 2 * mu) * factorial(mu))
        )
        entries.append(((nu - 2 * mu, mu), c))
    return BivariatePoly(nu, tuple(entries))


def _integer_coeffs(d: int, nu: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """((i, j, C_ij), ...) and den with P_{d,nu}(u/2, w/4) = sum C_ij u^i w^j / den.

    Isobaric weight i + 2j = nu turns s^i m^j into u^i w^j / 2^nu; den is
    2^nu times the lcm of the coefficient denominators (1 for even d).
    """
    terms = gegenbauer_poly(d, nu).coeffs
    scale = lcm(*(c.denominator for _, c in terms))
    return (
        tuple((i, j, c.numerator * (scale // c.denominator)) for (i, j), c in terms),
        scale << nu,
    )


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two dense coefficient lists of binary forms."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def eval_binary(
    d: int,
    nu: int,
    r_pair: tuple[int, int],
    n: int,
    quad: HalfIntegralMatrix,
) -> BinaryForm:
    """Specialize P_{d,nu} at s = (r1 x + r2 y)/2 and m = n * (x y) Q (x y)^t.

    `quad` is the 2x2 half-integral matrix of the quadratic form; the result
    is a homogeneous binary form of degree nu.  With g the doubled Q, this
    is sum C_ij u^i w^j / den for the integral forms u = r1 x + r2 y and
    w = 4m = 2n (g00 x^2 + 2 g01 x y + g11 y^2): their powers are built
    incrementally and convolved in integers, and each of the nu + 1
    coefficients is divided by den once.
    """
    if quad.n != 2:
        raise ValueError("quadratic form must be 2x2")
    g = quad.doubled
    terms, den = _integer_coeffs(d, nu)
    u = list(r_pair)
    w = [2 * n * g[0][0], 4 * n * g[0][1], 2 * n * g[1][1]]
    u_pows, w_pows = [[1]], [[1]]
    for _ in range(nu):
        u_pows.append(_convolve(u_pows[-1], u))
    for _ in range(nu // 2):
        w_pows.append(_convolve(w_pows[-1], w))
    total = [0] * (nu + 1)
    for i, j, c in terms:
        # isobaric: i + 2j = nu
        for idx, val in enumerate(_convolve(u_pows[i], w_pows[j])):
            total[idx] += c * val
    return BinaryForm(nu, tuple(Fraction(c, den) for c in total))
