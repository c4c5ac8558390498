"""Fourier coefficients of normalized Siegel-Eisenstein series, degree <= 3.

The normalization constant Z(n, k) = zeta(1-k) prod_{j<=[n/2]} zeta(1+2j-2k)
multiplies the classical series so that every Fourier coefficient becomes an
exact rational given by a product of local factors:

    a(T) = 2^[(m+1)/2] * prod_{p | det(2 T~)} F_p(T~, p^(k-m-1)) * (zeta/L tail)

where m = rank T, T~ is the nondegenerate part, the tail is
prod_{i=m/2+1}^{[n/2]} zeta(1+2i-2k) * L(1+m/2-k, chi) for even m (chi the
quadratic character attached to T~) and prod_{i=(m+1)/2}^{[n/2]} zeta(1+2i-2k)
for odd m; the rank-0 coefficient is Z(n, k) itself.

One `nondeg_part` pass gives m, T~ and det(2 T~) and rejects T that are not
positive semidefinite.  Coefficients live in one process-wide cache keyed on
(degree, weight, budget, T), shared by every context and by every pullback
sum that needs them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import l_value_neg, prime_divisors, zeta_neg
from .quadform import HalfIntegralMatrix, nondeg_part, quadratic_character
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
def _coefficient(n: int, k: int, budget: int, t: HalfIntegralMatrix) -> Fraction:
    if not any(map(any, t.doubled)):
        return z_const(n, k)
    tilde, det2 = nondeg_part(t)
    m = tilde.n
    value = Fraction(2) ** ((m + 1) // 2)
    for p in prime_divisors(det2):
        value *= local_F(p, tilde, budget).evaluate(p ** (k - m - 1))
    for i in range(m // 2 + 1, n // 2 + 1):
        value *= zeta_neg(2 * k - 2 * i)
    if m % 2 == 0:
        value *= l_value_neg(k - m // 2, quadratic_character(m, det2))
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
