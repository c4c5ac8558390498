"""Fourier coefficients of normalized Siegel-Eisenstein series, degree <= 3.

The normalization constant Z(n, k) = zeta(1-k) prod_{j<=[n/2]} zeta(1+2j-2k)
multiplies the classical series so that every Fourier coefficient becomes an
exact rational, read off by the rank m of T.  Rank 3 is 4 prod_p F_p(T, p^(k-4))
over the primes p | det(2T).  For m <= 2 the product (with L(1+m/2-k, chi)
for m = 2) collapses to the degree-1 divisor sum and to the Maass
formula in Cohen's function H (Cohen, Math. Ann. 217, 1975; Eichler-Zagier,
The Theory of Jacobi Forms, 1985, section 6): rank 1 reads sigma_(k-1) as a
product over p^a || D/2, and a primitive rank-2 T takes the Maass sum's one
term d = 1, so neither lists divisors.  An L-value whose conductor is past
`arith`'s term bound raises BudgetExceeded.

`quadform.nondeg_invariants` reads m, det(2 T~) and content(T) in one pass
over the entries of 2T and rejects T that are not positive semidefinite;
m = 0 is T = 0, whose a(0) is Z(n, k).  It is the one call a coefficient
makes on T (a rank-3 T is also the key of its local factors), and no T is
reduced.
Two process-wide caches serve every context and every pullback sum.
Rank 3 keeps the polynomials F_p(T, X) under (T, budget), not their values
at p^(k-4), so one entry serves every weight.  For m <= 2, content(T) = content(T~)
(2T = V^t (2 T~) V with V primitive), so a(T) without its zeta tail depends
on (k, m, det(2 T~), content) alone and is cached under that key; the tail
is applied outside the cache, so a binary T and its ternary image
U diag(T, 0) U^t share one entry.  A context forms its one tail, zeta(3-2k),
on the first rank-1 T it meets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import cohen_h, divisor_power_sum, divisors, prime_divisors, zeta_neg
from .quadform import HalfIntegralMatrix, nondeg_invariants
from .siegelseries import DEFAULT_BUDGET, SiegelSeriesPolynomial, _check_budget, local_F

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
def _untailed(k: int, m: int, det2: int, content: int) -> Fraction:
    """a(T) of rank m <= 2 without its zeta tail, for D = det(2 T~):
    2 sigma_(k-1)(D/2) for m = 1 and 2 sum_{d | content} d^(k-1) H(k-1, D/d^2)
    for m = 2, whose one term for primitive T (content 1) is 2 H(k-1, D)."""
    if m == 1:
        return Fraction(2 * divisor_power_sum(det2 // 2, k - 1))
    if content == 1:
        return 2 * cohen_h(k - 1, det2)
    return 2 * sum(d ** (k - 1) * cohen_h(k - 1, det2 // (d * d)) for d in divisors(content))


@lru_cache(maxsize=None)
def _local_factors(
    t: HalfIntegralMatrix, budget: int
) -> tuple[tuple[int, SiegelSeriesPolynomial], ...]:
    """(p, F_p(T, X)) for the primes p dividing det(2T), T of rank 3."""
    return tuple((p, local_F(p, t, budget)) for p in prime_divisors(t.det_doubled()))


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

    @cached_property
    def _tail(self) -> Fraction:
        """zeta(3-2k), formed on first use: no rank-2 or rank-3 T takes it."""
        return zeta_neg(2 * self.k - 2)

    def coefficient(self, t: HalfIntegralMatrix) -> Fraction:
        """a(T); ValueError unless T is a PSD matrix of size n.  Rank m <= 2
        takes prod_{i=[m/2]+1}^{[n/2]} zeta(1+2i-2k) outside the cache, one
        factor, `_tail`, for m = 1 in degrees 2 and 3 and none otherwise."""
        n, k = self.n, self.k
        if len(t.doubled) != n:
            raise ValueError(f"matrix size {t.n} does not match degree {n}")
        m, det2, content = nondeg_invariants(t)
        if not m:
            return z_const(n, k)
        if m == 3:
            value = Fraction(4)
            for p, f in _local_factors(t, self.budget):
                value *= f.evaluate(p ** (k - 4))
            return value
        value = _untailed(k, m, det2, content)
        if m == 1 and n >= 2:
            value *= self._tail
        return value
