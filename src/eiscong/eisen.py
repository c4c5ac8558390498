"""Fourier coefficients of normalized Siegel-Eisenstein series, degree <= 3.

The normalization constant Z(n, k) = zeta(1-k) prod_{j<=[n/2]} zeta(1+2j-2k)
multiplies the classical series so that every Fourier coefficient becomes an
exact rational, read off by the rank m of T (see `_untailed`).  Rank 3 is
a product of local factors F_p.  For m <= 2 the product (with L(1+m/2-k, chi)
for m = 2) collapses to the degree-1 divisor sum and to the Maass
formula in Cohen's function H (Cohen, Math. Ann. 217, 1975; Eichler-Zagier,
The Theory of Jacobi Forms, 1985, section 6).

`quadform.nondeg_invariants` reads m and det(2 T~) off the principal minors
of 2T and rejects T that are not positive semidefinite; no T is reduced.
For m <= 2, content(T) = content(T~) (2T = V^t (2 T~) V with V primitive),
so a(T) without its zeta tail depends on (k, m, det(2 T~), content) alone:
one process-wide cache holds those values under that key and rank-3 values
under (k, budget, T), shared by every context and every pullback sum.  The
tail is applied outside the cache, so a binary T and its ternary image
U diag(T, 0) U^t share one entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import cohen_h, divisor_power_sum, divisors, prime_divisors, zeta_neg
from .quadform import HalfIntegralMatrix, nondeg_invariants
from .siegelseries import DEFAULT_BUDGET, _check_budget, local_F

__all__ = ["EisensteinContext", "z_const"]


def z_const(n: int, k: int) -> Fraction:
    """Z(n, k) = zeta(1-k) prod_{j=1}^{[n/2]} zeta(1+2j-2k)."""
    if k < 4 or k % 2:
        raise ValueError("need even k >= 4")
    out = zeta_neg(k)
    for j in range(1, n // 2 + 1):
        out *= zeta_neg(2 * k - 2 * j)
    return out


@lru_cache(maxsize=None)
def _untailed(
    k: int,
    m: int,
    det2: int,
    content: int | None,
    budget: int | None,
    t: HalfIntegralMatrix | None,
) -> Fraction:
    """a(T) without its zeta tail, for rank m and D = det(2 T~):
    2 sigma_(k-1)(D/2) for m = 1 and 2 sum_{d | content} d^(k-1) H(k-1, D/d^2)
    for m = 2, where budget and t are None so that one entry serves every T
    of the key; 4 prod_{p | D} F_p(T, p^(k-4)) for m = 3, where T~ is T
    itself and content is None."""
    if m == 1:
        return Fraction(2 * divisor_power_sum(det2 // 2, k - 1))
    if m == 2:
        return 2 * sum(d ** (k - 1) * cohen_h(k - 1, det2 // (d * d)) for d in divisors(content))
    value = Fraction(4)
    for p in prime_divisors(det2):
        value *= local_F(p, t, budget).evaluate(p ** (k - 4))
    return value


def _coefficient(n: int, k: int, budget: int, t: HalfIntegralMatrix) -> Fraction:
    """a(T): `_untailed` times prod_{i=[m/2]+1}^{[n/2]} zeta(1+2i-2k), one
    factor for m = 1 in degrees 2 and 3 and none otherwise; Z(n, k) for T = 0."""
    if not any(map(any, t.doubled)):
        return z_const(n, k)
    m, det2 = nondeg_invariants(t)
    if m == 3:
        value = _untailed(k, m, det2, None, budget, t)
    else:
        value = _untailed(k, m, det2, t.content(), None, None)
    for i in range(m // 2 + 1, n // 2 + 1):
        value *= zeta_neg(2 * k - 2 * i)
    return value


class EisensteinContext:
    """Coefficient evaluator for one (degree, weight) pair.

    The weight must be even with k >= 4.  In degree n <= 3 this already
    gives k >= (n+1)/2 and keeps k out of the classes k = (n+2)/2 = 2 mod 4
    and k = (n+3)/2 = 2 mod 4 where the series fails to be a holomorphic
    modular form.
    """

    def __init__(self, n: int, k: int, budget: int = DEFAULT_BUDGET) -> None:
        if not 1 <= n <= 3:
            raise ValueError("degree must be 1, 2 or 3")
        if k % 2 or k < 4:
            raise ValueError("need even weight k >= 4")
        _check_budget(budget)
        self.n = n
        self.k = k
        self.budget = budget

    def coefficient(self, t: HalfIntegralMatrix) -> Fraction:
        """a(T); ValueError unless T is a PSD matrix of size n."""
        if t.n != self.n:
            raise ValueError(f"matrix size {t.n} does not match degree {self.n}")
        return _coefficient(self.n, self.k, self.budget, t)
