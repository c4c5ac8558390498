"""Local Siegel series for half-integral matrices of size <= 3.

For nondegenerate B over Z_p the series b_p(B, s) = sum_R e_p(tr BR) mu(R)^-s
(R running over symmetric p-adic matrices modulo integral ones, mu(R) the
level [R Z^n + Z^n : Z^n]) factors as gamma_p(B, X) F_p(B, X) at X = p^-s,
with F_p an integer polynomial with constant term 1.

Two independent routes are implemented:

* closed forms for sizes 1 and 2 (geometric sum, and the classical
  content/square-part formula behind the degree-2 Eisenstein coefficients);
* the character sum itself, evaluated exactly by enumerating representatives
  with entries in p^-j Z / Z, computing levels from elementary divisors, and
  collapsing root-of-unity histograms in the cyclotomic field.

Size 3 recovers F_p by exact power-series division of the character sum by
gamma_p; the p-power valuations there are tiny, so the enumeration stays
within the work budget.  The two routes are required to agree wherever both
run (see the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import _is_probable_prime, fundamental_decomposition, kronecker, ord_p
from .errors import BudgetExceeded
from .quadform import HalfIntegralMatrix, canonical_signed_perm, nondeg_part

__all__ = [
    "DEFAULT_BUDGET",
    "PolyX",
    "SiegelSeriesPolynomial",
    "chi_p",
    "expected_degree",
    "gamma_p",
    "local_F",
    "local_F_star",
    "oracle_bp",
]

DEFAULT_BUDGET = 2**24


@dataclass(frozen=True)
class PolyX:
    """Sparse exact polynomial in X; `coeffs` holds (exponent, value) pairs."""

    coeffs: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, d: dict[int, Fraction]) -> PolyX:
        return cls(tuple(sorted((e, Fraction(c)) for e, c in d.items() if c != 0)))

    @classmethod
    def from_list(cls, values) -> PolyX:
        return cls.from_dict({e: Fraction(c) for e, c in enumerate(values)})

    @classmethod
    def one(cls) -> PolyX:
        return cls.from_dict({0: Fraction(1)})

    def coefficient(self, e: int) -> Fraction:
        return dict(self.coeffs).get(e, Fraction(0))

    def degree(self) -> int:
        return max((e for e, _ in self.coeffs), default=0)

    def coefficient_list(self, through: int) -> list[Fraction]:
        d = dict(self.coeffs)
        return [d.get(e, Fraction(0)) for e in range(through + 1)]

    def __mul__(self, other: PolyX) -> PolyX:
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return PolyX.from_dict(out)

    def __add__(self, other: PolyX) -> PolyX:
        out = dict(self.coeffs)
        for e, c in other.coeffs:
            out[e] = out.get(e, Fraction(0)) + c
        return PolyX.from_dict(out)

    def __sub__(self, other: PolyX) -> PolyX:
        return self + (-1 * other)

    def __rmul__(self, scalar) -> PolyX:
        return PolyX.from_dict({e: Fraction(scalar) * c for e, c in self.coeffs})

    def evaluate(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        return sum((c * x**e for e, c in self.coeffs), Fraction(0))


@dataclass(frozen=True)
class SiegelSeriesPolynomial:
    """F_p(B, X): integer coefficients, constant term 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("constant term must be 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        return sum((c * x**e for e, c in enumerate(self.coeffs)), Fraction(0))

    def as_poly(self) -> PolyX:
        return PolyX.from_list(self.coeffs)


def chi_p(p: int, a: int | Fraction) -> int:
    """Square-class character of Q_p: 1 on squares, -1 when Q_p(sqrt a) is the
    unramified quadratic extension, 0 when it is ramified."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("need a != 0")
    if ord_p(p, a) % 2:
        return 0

    def unit_part(m: int) -> int:
        while m % p == 0:
            m //= p
        return m

    num, den = unit_part(a.numerator), unit_part(a.denominator)
    if p == 2:
        # odd squares are 1 mod 8, so den is its own inverse mod 8
        u = (num * den) % 8
        return {1: 1, 5: -1, 3: 0, 7: 0}[u]
    return kronecker(num, p) * kronecker(den, p)


def _xi(p: int, b: HalfIntegralMatrix) -> int:
    """chi_p((-1)^(n/2) det B) for even n, computed on the doubled determinant
    (they differ by the square 2^n)."""
    sign = -1 if (b.n // 2) % 2 else 1
    return chi_p(p, sign * b.det_doubled())


def gamma_p(p: int, b: HalfIntegralMatrix) -> tuple[PolyX, PolyX]:
    """gamma_p(B, X) as a (numerator, denominator) pair of polynomials.

    Odd size: (1 - X) prod_{i<=(n-1)/2} (1 - p^2i X^2), denominator 1.
    Even size: the same shape of numerator with i <= n/2, divided by
    (1 - p^(n/2) xi X).
    """
    if b.det_doubled() == 0:
        raise ValueError("B must be nondegenerate")
    n = b.n
    num = PolyX.from_dict({0: Fraction(1), 1: Fraction(-1)})
    for i in range(1, n // 2 + 1):
        num = num * PolyX.from_dict({0: Fraction(1), 2: Fraction(-(p ** (2 * i)))})
    if n % 2:
        return num, PolyX.one()
    den = PolyX.from_dict({0: Fraction(1), 1: Fraction(-(p ** (n // 2) * _xi(p, b)))})
    return num, den


def expected_degree(p: int, b: HalfIntegralMatrix) -> int:
    """Degree of F_p(B, X): ord_p(det(2B)) less ord_p(2) for odd sizes, and
    twice the p-valuation of the square part of (-1)^(n/2) det(2B) for even."""
    det2 = b.det_doubled()
    if det2 == 0:
        raise ValueError("B must be nondegenerate")
    if b.n % 2:
        return ord_p(p, det2 // 2) if p == 2 else ord_p(p, det2)
    sign = -1 if (b.n // 2) % 2 else 1
    _, f = fundamental_decomposition(sign * det2)
    return 2 * ord_p(p, f)


# ---------------------------------------------------------------------------
# Exact character-sum evaluation


def _valuations(arr: np.ndarray, p: int, inf: int) -> np.ndarray:
    """Elementwise p-adic valuation of |arr|, with zeros mapped to `inf`."""
    a = np.abs(arr)
    zero = a == 0
    if p == 2:
        # trailing-zero count via the lowest set bit; exact for |x| < 2^52
        low = a & (-a)
        v = np.zeros_like(a)
        nz = ~zero
        v[nz] = np.log2(low[nz].astype(np.float64)).astype(np.int64)
    else:
        v = np.zeros_like(a)
        work = a.copy()
        while True:
            mask = (~zero) & (work % p == 0)
            if not mask.any():
                break
            work[mask] //= p
            v[mask] += 1
    v[zero] = inf
    return v


def _collapse_histogram(counts: list[int], p: int, j_max: int) -> int:
    """Exact value of sum_t counts[t] zeta^t, zeta a primitive p^j_max-th root.

    The coefficient vector is reduced modulo the cyclotomic polynomial
    Phi_{p^j}(x) = sum_{i<p} x^(i p^(j-1)); since {1, zeta, ...} up to the
    totient is a Q-basis, the value is an integer exactly when the remainder
    is constant, which is asserted (it follows from unit-scaling invariance
    of the histogram).
    """
    q = p**j_max
    if q == 1:
        return counts[0]
    coeffs = list(counts)
    tot = q - q // p
    step = q // p
    for e in range(q - 1, tot - 1, -1):
        c = coeffs[e]
        if c:
            coeffs[e] = 0
            base = e - tot
            for i in range(p - 1):
                coeffs[base + i * step] -= c
    assert all(c == 0 for c in coeffs[1:tot]), "histogram not Galois-invariant"
    return coeffs[0]


def _character_sum_series(
    p: int, b: HalfIntegralMatrix, j_max: int, budget: int
) -> list[int]:
    """Coefficients c_0..c_{j_max} of the character sum, grouped by level.

    Enumerates all symmetric R with entries in p^-j_max Z / Z (these contain
    every coset of level <= p^j_max), computes the level from the gcds of
    k x k minors, and accumulates a histogram of the trace numerator per
    level before collapsing it exactly.
    """
    n = b.n
    dim = n * (n + 1) // 2
    q = p**j_max
    points = q**dim
    if points > budget:
        raise BudgetExceeded(
            f"{points} representatives exceed the budget of {budget}"
        )
    if j_max == 0:
        return [1]
    g = b.doubled
    if n == 1:
        tr_mult = (g[0][0] // 2,)
    elif n == 2:
        tr_mult = (g[0][0] // 2, g[0][1], g[1][1] // 2)
    else:
        tr_mult = (
            g[0][0] // 2,
            g[0][1],
            g[0][2],
            g[1][1] // 2,
            g[1][2],
            g[2][2] // 2,
        )
    inf = 10**6
    max_level = n * j_max
    hist = np.zeros((max_level + 1, q), dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, points, chunk):
        stop = min(start + chunk, points)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = []
        rem = idx
        for _ in range(dim):
            digits.append(rem % q)
            rem = rem // q
        if n == 1:
            (a,) = digits
            e1 = _valuations(a, p, inf)
            level = np.maximum(0, j_max - e1)
        elif n == 2:
            a, bb, d = digits
            g1 = np.gcd(np.gcd(a, bb), d)
            det = a * d - bb * bb
            v1 = _valuations(g1, p, inf)
            vd = _valuations(det, p, inf)
            e2 = np.where(det == 0, inf, vd - np.where(g1 == 0, 0, v1))
            level = np.maximum(0, j_max - v1) + np.maximum(0, j_max - e2)
        else:
            a, bb, c, d, e, f = digits
            m1 = a * d - bb * bb
            m2 = a * e - bb * c
            m3 = bb * e - c * d
            m4 = a * f - c * c
            m5 = bb * f - c * e
            m6 = d * f - e * e
            det = a * m6 - bb * m5 + c * m3
            g1 = np.gcd(np.gcd(np.gcd(a, bb), np.gcd(c, d)), np.gcd(e, f))
            g2 = np.gcd(
                np.gcd(np.gcd(np.abs(m1), np.abs(m2)), np.gcd(np.abs(m3), np.abs(m4))),
                np.gcd(np.abs(m5), np.abs(m6)),
            )
            v1 = _valuations(g1, p, inf)
            v2 = _valuations(g2, p, inf)
            vd = _valuations(det, p, inf)
            e2 = np.where(g2 == 0, inf, v2 - np.where(g1 == 0, 0, v1))
            e3 = np.where(det == 0, inf, vd - np.where(g2 == 0, 0, v2))
            level = (
                np.maximum(0, j_max - v1)
                + np.maximum(0, j_max - e2)
                + np.maximum(0, j_max - e3)
            )
        trace = np.zeros_like(idx)
        for mult, digit in zip(tr_mult, digits):
            if mult:
                trace += mult * digit
        trace %= q
        keep = level <= max_level
        keys = level[keep] * q + trace[keep]
        hist += np.bincount(keys, minlength=(max_level + 1) * q).reshape(
            max_level + 1, q
        )
    return [
        _collapse_histogram([int(x) for x in hist[j]], p, j_max)
        for j in range(j_max + 1)
    ]


def oracle_bp(
    p: int, b: HalfIntegralMatrix, j_max: int, budget: int = DEFAULT_BUDGET
) -> PolyX:
    """Truncated character sum sum_j c_j X^j for j <= j_max, exactly."""
    if not _is_probable_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    if b.det_doubled() == 0:
        raise ValueError("B must be nondegenerate")
    return PolyX.from_list(_character_sum_series(p, b, j_max, budget))


def _level_p_sum(p: int, b: HalfIntegralMatrix) -> int:
    """Coefficient of X^1 of the character sum, via rank-1 cosets.

    Level-p cosets are exactly S/p with S symmetric of rank 1 over F_p, and
    every such S is c w w^t for a projective point w and c in F_p^*; summing
    the inner geometric character sum gives p-1 where the quadratic form
    value w^t B w vanishes mod p and -1 elsewhere.  O(p^2) work, used to
    avoid the p^(n(n+1)/2) enumeration for degree-1 polynomials.
    """
    n = b.n
    g = b.doubled
    points: list[tuple[int, ...]] = []
    for lead in range(n):
        for rest in range(p ** (n - lead - 1)):
            w = [0] * lead + [1]
            r = rest
            for _ in range(n - lead - 1):
                w.append(r % p)
                r //= p
            points.append(tuple(w))
    total = 0
    for w in points:
        doubled_value = sum(
            g[i][j] * w[i] * w[j] for i in range(n) for j in range(n)
        )
        if (doubled_value // 2) % p == 0:
            total += p - 1
        else:
            total -= 1
    return total


# ---------------------------------------------------------------------------
# The polynomial factor F_p


@lru_cache(maxsize=None)
def _local_f_cached(p: int, b: HalfIntegralMatrix, budget: int) -> SiegelSeriesPolynomial:
    n = b.n
    g = b.doubled
    if n == 1:
        v = ord_p(p, g[0][0] // 2)
        return SiegelSeriesPolynomial(tuple(p**i for i in range(v + 1)))
    if n == 2:
        # content / square-part closed form (the p-factor of the classical
        # divisor-sum expression for degree-2 Eisenstein coefficients)
        content = b.content()
        cv = ord_p(p, content)
        chi, f = fundamental_decomposition(-b.det_doubled())
        e = ord_p(p, f)
        xi = chi(p)
        assert cv <= e, "content valuation exceeds the square-part valuation"
        coeffs = [0] * (2 * e + 1)
        for a in range(cv + 1):
            for i in range(e - a + 1):
                coeffs[a + 2 * i] += p ** (2 * a) * p ** (3 * i)
            for i in range(e - a):
                coeffs[a + 2 * i + 1] -= xi * p ** (2 * a) * p ** (3 * i + 1)
        return SiegelSeriesPolynomial(tuple(coeffs))
    # size 3: divide the character sum by gamma_p = (1 - X)(1 - p^2 X^2)
    deg = expected_degree(p, b)
    if deg == 1:
        # f_1 = c_1 - gamma_1 f_0 = c_1 + 1, and c_1 has a cheap closed form
        return SiegelSeriesPolynomial((1, _level_p_sum(p, b) + 1))
    series = _character_sum_series(p, b, deg, budget)
    gamma = [1, -1, -(p**2), p**2]
    f_coeffs: list[int] = []
    for j, c in enumerate(series):
        val = c - sum(
            gamma[i] * f_coeffs[j - i] for i in range(1, min(j, 3) + 1)
        )
        f_coeffs.append(val)
    return SiegelSeriesPolynomial(tuple(f_coeffs))


def local_F(
    p: int, b: HalfIntegralMatrix, budget: int = DEFAULT_BUDGET
) -> SiegelSeriesPolynomial:
    """F_p(B, X) for a prime p and nondegenerate half-integral B of size <= 3.

    Sizes 1 and 2 use closed forms; size 3 recovers the polynomial from the
    character sum, whose length is fixed by the degree formula.  Results are
    cached under a signed-permutation canonical form of B, which is sound
    because the series is a GL(Z_p) invariant.
    """
    if not _is_probable_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    if b.det_doubled() == 0:
        raise ValueError("B must be nondegenerate")
    return _local_f_cached(p, canonical_signed_perm(b), budget)


def local_F_star(
    p: int,
    t: HalfIntegralMatrix,
    x: Fraction | int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """F_p of the nondegenerate part of a PSD matrix, evaluated at x."""
    tilde, _ = nondeg_part(t)
    return local_F(p, tilde, budget).evaluate(x)
