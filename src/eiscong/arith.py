"""Exact scalar arithmetic underlying the whole package.

Everything returns plain ints or `fractions.Fraction`: Bernoulli numbers,
Kronecker symbols, the split m = d f^2 with d a fundamental discriminant
(one factorization, shared by the discriminant test, the characters and H),
generalized Bernoulli numbers (one power-sum table per character), Dirichlet
L-values at non-positive integers and Cohen's function H(r, N).  Factorization
raises BudgetExceeded when Pollard's rho cannot split a cofactor within
_RHO_SQUARINGS squarings, gen_bernoulli when a conductor m would need more
than _L_VALUE_TERMS terms, and the Bernoulli table before it would be built
past B_n for n = _BERNOULLI_INDEX.  sigma_e(n) is a product over p^a || n.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm, prod
from operator import mul

from .errors import BudgetExceeded

__all__ = [
    "DiscriminantChar",
    "bernoulli",
    "cohen_h",
    "divisor_power_sum",
    "factorize",
    "gen_bernoulli",
    "is_fundamental_discriminant",
    "kronecker",
    "l_value_neg",
    "ord_p",
    "zeta_neg",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers

# (B_0..B_m, their numerators over the common denominator den, den), replaced
# as a whole; a larger n rebuilds it at least twice as long
_bernoulli_cache: tuple[tuple[Fraction, ...], tuple[int, ...], int] = ((), (), 1)


def _bernoulli_table(n: int) -> tuple[tuple[Fraction, ...], tuple[int, ...], int]:
    """`_bernoulli_cache`, rebuilt first to m = max(n + 1, twice its length)
    entries, at most _BERNOULLI_INDEX + 1, if it stops before B_n (see
    `bernoulli`).  An n past _BERNOULLI_INDEX raises BudgetExceeded."""
    global _bernoulli_cache
    if n < len(_bernoulli_cache[0]):
        return _bernoulli_cache
    if n > _BERNOULLI_INDEX:
        raise BudgetExceeded(
            f"Bernoulli number B_{n} is past the index bound of {_BERNOULLI_INDEX}"
        )
    m = min(max(n + 1, 2 * len(_bernoulli_cache[0])), _BERNOULLI_INDEX + 1)
    half = (m - 1) // 2
    tangent = [0, 1] + [0] * (half - 1)  # tangent[h] = T_h, for h >= 1
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    values = [Fraction(1), Fraction(-1, 2)][:m] + [Fraction(0)] * (m - 2)
    for h in range(1, half + 1):
        values[2 * h] = Fraction((-1) ** (h - 1) * 2 * h * tangent[h], 4**h * (4**h - 1))
    nums, den = _over_common_denominator(values)
    _bernoulli_cache = (tuple(values), tuple(nums), den)
    return _bernoulli_cache


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2 (so zeta(0) = -1/2).

    Read from `_bernoulli_cache`.  When that table stops before B_n it is
    rebuilt, at least twice as long, from the tangent numbers T_1..T_H of
    Brent and Harvey's in-place integer triangle, with no Fraction
    arithmetic: T_1 = 1 and T_k = (k-1) T_(k-1), then for k >= 2 and
    j = k..H, T_j = (j-k) T_(j-1) + (j-k+2) T_j.  Then
    B_2h = (-1)^(h-1) 2h T_h / (4^h (4^h - 1)), B_1 = -1/2 and the other
    odd B vanish.  The table also holds the numerators over its one common
    denominator, which `gen_bernoulli` reads, and a rebuild is published in
    one assignment, so a concurrent reader never sees a half-built one.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    return _bernoulli_table(n)[0][n]


def zeta_neg(k: int) -> Fraction:
    """zeta(1 - k) = -B_k / k for even k >= 2."""
    if k < 2 or k % 2:
        raise ValueError(f"zeta_neg needs even k >= 2, got {k}")
    return -bernoulli(k) / k


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the rationals over their least common denominator, and it."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# Factorization helpers (inputs here are small: conductors, determinants,
# Hecke indices)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_RHO_SQUARINGS = 2**23  # modular squarings per cofactor before factorize raises BudgetExceeded
_RHO_BATCH = 128  # differences multiplied per gcd in Brent's cycle search
_L_VALUE_TERMS = 2**22  # most terms (m - 1)/2 (r + 1) a B_{r,chi} of conductor m may take
_BERNOULLI_INDEX = 2400  # largest n of B_n; the table to B_2400 takes about a second
_GEGENBAUER_DEGREE = 700  # largest nu of P_(d,nu); epsilon(14, 700, 1, I) takes about a second


def _is_probable_prime(n: int) -> bool:
    """Strong-probable-prime test to the bases 2..43, exact below
    psi_13 = 3317044064679887385961981.  Trial division by the same primes
    comes first, since a base divisible by n proves nothing."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 47 * 47:  # no prime factor up to 43, so none at all
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    """ValueError naming p unless it is a prime."""
    if not _is_probable_prime(p):
        raise ValueError(f"p = {p} is not a prime")


def _pollard_rho(n: int) -> int:
    """A factor 1 < d < n of the composite n: Pollard's rho with Brent's cycle
    search.  y steps by y -> y^2 + c mod n, and x holds y at the start of
    each round of r = 1, 2, 4, ... steps; the second half of a round
    multiplies the differences x - y mod n in batches of _RHO_BATCH, one
    gcd per batch.  A batch whose gcd is n is stepped again one gcd at a
    time (at most _RHO_BATCH more squarings); if that finds only n, a new c
    and start are drawn.  Raises BudgetExceeded before a round would take the
    squarings past _RHO_SQUARINGS.
    """
    rng = random.Random(0xE15C)
    squarings = 0
    while True:
        c, y = rng.randrange(1, n), rng.randrange(0, n)
        r, q, d = 1, 1, 1
        while d == 1:
            if squarings + 2 * r > _RHO_SQUARINGS:
                raise BudgetExceeded(
                    f"Pollard's rho found no factor of {n} in {squarings} squarings"
                )
            squarings += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BATCH):
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = gcd(q, n)
                if d != 1:
                    break
            r *= 2
        if d == n:  # step the last batch again, one gcd at a time
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = gcd(x - ys, n)
        if d < n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; |n| must be nonzero."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack.extend([d, m // d])
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> list[int]:
    return list(factorize(n))


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def divisor_power_sum(n: int, e: int) -> int:
    """sigma_e(n) = sum of d^e over positive divisors d of n != 0, for e >= 0.

    sigma_e is multiplicative, so from one factorization it is the product
    over p^a || n of (p^(e(a+1)) - 1) / (p^e - 1), and of a + 1 for e = 0;
    no divisor is listed.
    """
    if e == 0:
        return prod(a + 1 for a in factorize(n).values())
    return prod((p ** (e * (a + 1)) - 1) // (p**e - 1) for p, a in factorize(n).items())


def ord_p(p: int, x: int | Fraction) -> int:
    """p-adic valuation of a nonzero int or Fraction; p must be at least 2."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if x == 0:
        raise ValueError("valuation of zero is undefined")

    def val(m: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    return val(x.numerator) - val(x.denominator)


# ---------------------------------------------------------------------------
# Kronecker symbol and quadratic characters


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), with the standard conventions at 2, -1 and 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol for odd n > 0 via reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _square_class(m: int) -> tuple[int, dict[int, int]]:
    """d and {p: ord_p f} with m = d f^2, d a fundamental discriminant (1 for
    squares), from one factorization of m != 0, m = 0 or 1 mod 4.  With s
    the signed squarefree part of m, d = s if s = 1 mod 4, else d = 4s, f / 2."""
    if m == 0:
        raise ValueError("need m != 0")
    if m % 4 not in (0, 1):
        raise ValueError(f"{m} is not congruent to 0 or 1 mod 4")
    d, f = (1 if m > 0 else -1), {}
    for p, e in factorize(m).items():
        if e % 2:
            d *= p
        f[p] = e // 2
    if d % 4 != 1:  # here 4 | m, so 2 | f
        d, f[2] = 4 * d, f[2] - 1
    return d, {p: a for p, a in f.items() if a}


def is_fundamental_discriminant(d: int) -> bool:
    return d % 4 in (0, 1) and not _square_class(d)[1]


@dataclass(frozen=True)
class DiscriminantChar:
    """Quadratic character attached to a fundamental discriminant d.

    d = 1 is the trivial character (conductor 1).  The value at n is the
    Kronecker symbol (d/n), which vanishes exactly when gcd(n, d) > 1.
    """

    d: int

    def __post_init__(self) -> None:
        if not is_fundamental_discriminant(self.d):
            raise ValueError(f"{self.d} is not a fundamental discriminant")

    @property
    def conductor(self) -> int:
        return abs(self.d)

    def __call__(self, n: int) -> int:
        return kronecker(self.d, n)


def _fundamental_char(d: int) -> DiscriminantChar:
    """DiscriminantChar(d) for a d that `_square_class` returned fundamental, unchecked."""
    chi = object.__new__(DiscriminantChar)
    object.__setattr__(chi, "d", d)
    return chi


# ---------------------------------------------------------------------------
# L-values at non-positive integers


def _character_values(chi: DiscriminantChar, h: int) -> list[int]:
    """[chi(0), chi(1), ..., chi(h)] for h >= 1, with Kronecker symbols only at primes.

    A smallest-prime-factor sieve splits each a = p * (a / p), and chi is
    completely multiplicative, so chi(a) = chi(p) chi(a / p) from values
    already built.
    """
    spf = list(range(h + 1))
    for p in range(isqrt(h), 1, -1):  # descending, so the smallest factor is written last
        spf[p * p :: p] = [p] * len(range(p * p, h + 1, p))
    values = [0, 1] + [0] * (h - 1)
    for a in range(2, h + 1):
        p = spf[a]
        values[a] = chi(a) if p == a else values[p] * values[a // p]
    return values


# chi -> (S_0, ..., S_j), replaced whole; only the sums are kept, not the terms
_power_sums: dict[DiscriminantChar, tuple[int, ...]] = {}


@lru_cache(maxsize=None)
def gen_bernoulli(r: int, chi: DiscriminantChar) -> Fraction:
    """Generalized Bernoulli number B_{r,chi} = m^(r-1) sum_{a<=m} chi(a) B_r(a/m).

    m is the conductor; for the trivial character this degenerates to B_r(1),
    which differs from B_r only at r = 1 (it is +1/2 there, making
    L(0) = -1/2 = zeta(0) come out right).  For m > 1 the number is 0 unless
    chi(-1) = (-1)^r.  When it is, B_r(1 - x) = (-1)^r B_r(x) makes the
    terms at a and m - a equal, and chi(m/2) = 0, so the sum is twice the
    one over the half range a < m/2; chi there comes from Kronecker symbols
    at primes only.  Expanding B_r and swapping the sums gives
    sum_i C(r, i) B_i m^(i-1) S_(r-i) with integer power sums
    S_j = 2 sum_a chi(a) a^j over the half range, from `_power_sums`; a larger
    r extends them from a fresh sieve, so no terms are held between calls.
    Past _L_VALUE_TERMS terms (m - 1)/2 (r + 1), BudgetExceeded is raised
    before any sieve is built.
    Over the common denominator den of the Bernoulli table the sum is an
    integer num, and one Fraction(num, den m) ends.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    m = chi.conductor
    if m == 1:
        sums = [1] * (r + 1)
    elif (chi.d < 0) != (r % 2 == 1):  # chi(-1) = sign(d) is not (-1)^r
        return Fraction(0)
    else:
        need = (m - 1) // 2 * (r + 1)
        if need > _L_VALUE_TERMS:
            raise BudgetExceeded(
                f"L-value of conductor {m} at r = {r} needs {need} terms, "
                f"past the bound of {_L_VALUE_TERMS}"
            )
        sums = _power_sums.get(chi, ())
        if len(sums) <= r:
            values = _character_values(chi, (m - 1) // 2)
            xs = [a for a, v in enumerate(values) if v]
            terms = [values[a] * a ** len(sums) for a in xs]  # chi(a) a^j at the first missing j
            sums = [*sums, 2 * sum(terms)]
            while len(sums) <= r:
                terms = list(map(mul, terms, xs))
                sums.append(2 * sum(terms))
            _power_sums[chi] = tuple(sums)
    _, b, den = _bernoulli_table(r)
    num = sum(comb(r, i) * b[i] * m**i * sums[r - i] for i in range(r + 1))
    return Fraction(num, den * m)


def l_value_neg(r: int, chi: DiscriminantChar) -> Fraction:
    """L(1 - r, chi) = -B_{r,chi} / r for r >= 1."""
    if r < 1:
        raise ValueError("need r >= 1")
    return -gen_bernoulli(r, chi) / r


@lru_cache(maxsize=None)
def cohen_h(r: int, n: int) -> Fraction:
    """Cohen's function H(r, N).

    H(r, 0) = zeta(1 - 2r); H(r, N) = 0 for N = 1, 2 mod 4; otherwise write
    -N = d f^2 with d fundamental and return
        L(1 - r, chi_d) * sum_{e | f} mu(e) chi_d(e) e^(r-1) sigma_{2r-1}(f/e).
    The divisor-sum correction is what makes the associated weight k = r + 1/2
    Eisenstein coefficients modular for non-fundamental -N.  It is the
    Dirichlet convolution of two multiplicative functions, so it is the
    product over p^a || f of sigma_{2r-1}(p^a) - chi_d(p) p^(r-1)
    sigma_{2r-1}(p^(a-1)), read off the split of -N.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and N >= 0")
    if n == 0:
        return zeta_neg(2 * r)
    if n % 4 in (1, 2):
        return Fraction(0)
    d, f = _square_class(-n)
    chi = _fundamental_char(d)
    tail = 1
    for p, a in f.items():
        q = p ** (2 * r - 1)
        sigma = (q ** (a + 1) - 1) // (q - 1)  # sigma_{2r-1}(p^a)
        # sigma - q^a is sigma_{2r-1}(p^(a-1))
        tail *= sigma - chi(p) * p ** (r - 1) * (sigma - q**a)
    return l_value_neg(r, chi) * tail
