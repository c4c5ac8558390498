"""Local Siegel series for half-integral matrices of size <= 3.

For nondegenerate B over Z_p the series b_p(B, s) = sum_R e_p(tr BR) mu(R)^-s
(R running over symmetric p-adic matrices modulo integral ones, mu(R) the
level [R Z^n + Z^n : Z^n]) factors as gamma_p(B, X) F_p(B, X) at X = p^-s,
with F_p an integer polynomial with constant term 1.

Two independent routes are implemented:

* closed forms for sizes 1 and 2 (geometric sum, and the classical
  content/square-part formula behind the degree-2 Eisenstein coefficients);
* the character sum itself, evaluated exactly in integers by enumerating
  representatives R = S / p^j with S mod p^j.  One kernel,
  `_character_sum_series`, serves every size and every p: h_k, the gcd of
  the k x k minors of S and p^(kj), is p^min(v_k, kj), and the product of
  gcd(h_k / h_(k-1), p^j) is p^(sum_k min(e_k, j)) over the elementary
  divisor exponents e_k of S, which gives the level.  Each level's histogram of tr(BR) mod p^j depends only on
  gcd(tr, p^j), so its root-of-unity sum is a Ramanujan sum: the count at 0
  less the count at p^(j-1).  numpy is imported on the first enumeration,
  not with the package.

Size 3 combines the second route with Katsurada's functional equation
(An explicit formula for Siegel series, Amer. J. Math. 121, 1999): for
ternary B with d = deg F_p, f_(d-i) = eps p^(2d-4i) f_i, with eps a product
of Hilbert symbols.  Degree d = 0 gives F_p = 1.  For d >= 1 only
c_0..c_(d//2) of the character sum are needed, divided by the integer
numerator of gamma_p (`_gamma_numerator`); the upper half follows from
the equation (d = 1 needs no eps: F_p = 1 + (c_1 + 1) X).
Through X^2 the sum is read off strata of R with no enumeration: c_1 from
the rank-1 classes a v v^t / p (`_c1`: 2B mod p at odd p, the 7 points of
P^2(F_2)), c_2 from the two level-p^2 strata (`_c2`: points and planes of
P^2(F_p), at every p).  So only d >= 6 enumerates the sum, through X^(d//2)
(p^(6 (d//2)) points instead of p^(6d)).
The levels of the enumerated R do not depend on B and are cached per
(p, size, j); nothing of B is: `eisen` keeps the F_p of each rank-3 T it
evaluates, for every weight.  `local_F` returns integer coefficients,
constant term first.  The tests hold gamma_p and run the full-length sum at
every size as the oracle of each fast route, comparing it with gamma_p F_p
by convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement, product
from math import factorial, gcd

from .arith import _check_prime, _square_class, kronecker, ord_p
from .errors import BudgetExceeded
from .quadform import HalfIntegralMatrix, _principal_minors_2, format_half_integral

__all__ = [
    "DEFAULT_BUDGET",
    "SiegelSeriesPolynomial",
    "chi_p",
    "expected_degree",
    "local_F",
]

DEFAULT_BUDGET = 2**24
_CHUNK = 2**20  # points per numpy pass of the character sum, which bounds its arrays


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

    def evaluate(self, x: Fraction | int) -> Fraction | int:
        """F_p(B, x) by Horner's rule, in the type of x (an int stays an int)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def _hilbert(p: int, a: int | Fraction, b: int | Fraction) -> int:
    """Hilbert symbol (a, b)_p of nonzero rationals; num/den is replaced by
    num * den, which lies in the same square class."""
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    alpha, beta = ord_p(p, a), ord_p(p, b)
    u, v = a // p**alpha, b // p**beta
    if p == 2:
        e = ((u - 1) // 2) * ((v - 1) // 2)
        e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    return sign * kronecker(u, p) ** beta * kronecker(v, p) ** alpha


def chi_p(p: int, a: int | Fraction) -> int:
    """Square-class character of Q_p: 1 on squares, -1 when Q_p(sqrt a) is the
    unramified quadratic extension, 0 when it is ramified.  Away from odd
    valuations and 2-adic unit parts 3, 7 mod 8 (ramified) it is (a, p)_p."""
    if a == 0:
        raise ValueError("need a != 0")
    u = a.numerator * a.denominator
    if ord_p(p, u) % 2 or (p == 2 and (u >> ord_p(2, u)) % 4 == 3):
        return 0
    return _hilbert(p, a, p)


def _gamma_numerator(p: int, n: int) -> list[int]:
    """Integer coefficients of (1 - X) prod_{i<=n/2} (1 - p^2i X^2), the
    numerator of gamma_p for size n."""
    num = [1, -1]
    for i in range(1, n // 2 + 1):
        num = [c - p ** (2 * i) * s for c, s in zip(num + [0, 0], [0, 0] + num)]
    return num


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


def expected_degree(p: int, b: HalfIntegralMatrix) -> int:
    """Degree of F_p(B, X): ord_p(det(2B) / 2) for odd sizes (det(2B) is then
    even), and twice the p-valuation of the square part of (-1)^(n/2) det(2B)
    for even."""
    det2 = b.det_doubled()
    if det2 == 0:
        raise ValueError("B must be nondegenerate")
    if b.n % 2:
        return ord_p(p, det2 // 2)
    sign = -1 if (b.n // 2) % 2 else 1
    return 2 * _square_class(sign * det2)[1].get(p, 0)


def _functional_equation_sign(p: int, b: HalfIntegralMatrix) -> int:
    """Sign of f_(d-i) = sign p^(2d-4i) f_i for nondegenerate ternary B
    (Katsurada 1999): h_p(B) (-1, -1)_p (-1, det B)_p, where the Hasse
    invariant h_p(B) is prod_{i<j} (a_i, a_j)_p over any rational
    diagonalization diag(a_1, a_2, a_3) of B.  2B gives the same sign: doubling
    every a_i scales the Hasse product by (2, 2)_p^3 (each (2, a_i)_p occurs
    twice) and (-1, det B)_p by (-1, 8)_p, both 1 at every p.  So the a_i
    come from fraction-free (Bareiss) elimination on 2B: the i-th pivot M_i
    is a principal minor of 2B (M_0 = 1), and M_i / M_(i-1) lies in the square
    class of M_i M_(i-1).  B may be indefinite: each step pivots on the first
    nonzero diagonal entry, after e_0 -> e_0 + e_j if there is none.
    """
    m = [list(row) for row in b.doubled]
    a, m_prev = [], 1
    while m:
        if not any(m[i][i] for i in range(len(m))):
            j = next(j for j, x in enumerate(m[0]) if x)
            m[0] = [x + y for x, y in zip(m[0], m[j])]
            for row in m:
                row[0] += row[j]
        k = next(i for i in range(len(m)) if m[i][i])
        pivot, m_k = m[k], m[k][k]
        a.append(m_k * m_prev)
        m = [
            [(m_k * x - row[k] * pivot[c]) // m_prev for c, x in enumerate(row) if c != k]
            for i, row in enumerate(m)
            if i != k
        ]
        m_prev = m_k
    sign = _hilbert(p, -1, -1) * _hilbert(p, -1, a[0] * a[1] * a[2])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        sign *= _hilbert(p, a[i], a[j])
    return sign


# ---------------------------------------------------------------------------
# Exact character-sum evaluation


def _collapse_histogram(counts: list[int], p: int, j_max: int) -> int:
    """Exact value of sum_t counts[t] zeta^t, zeta a primitive p^j_max-th root.

    With q = p^j_max: R -> uR for a unit u keeps the level and multiplies
    tr(BR) by u, so counts[t] depends only on gcd(t, q), which is asserted.
    The sum of zeta^t over gcd(t, q) = g is the Ramanujan sum mu(q/g): 1 for
    g = q (t = 0), -1 for g = q/p and 0 otherwise.
    """
    q = p**j_max
    if any(c != counts[gcd(t, q) % q] for t, c in enumerate(counts)):
        raise AssertionError("histogram not unit-invariant")
    return counts[0] - counts[q // p] if q > 1 else counts[0]


@lru_cache(maxsize=8)
def _level_table(p: int, n: int, j_max: int):
    """Level exponent of every symmetric n x n R with entries in p^-j_max Z / Z,
    as a read-only int8 array: entry i of R's upper triangle (row-major),
    times q = p^j_max, is digit i of R's index, least significant first.

    It does not depend on B, so it is built once per (p, n, j_max): one byte
    per point, at most 8 tables, so at most 8 budgets' worth of bytes.  The
    level comes from the p-adic valuations of the k x k minors capped at
    k j_max, computed _CHUNK points at a time.
    """
    import numpy as np

    q, max_level = p**j_max, n * j_max
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    pairs = list(combinations(range(n), 2))
    minor_keys = list(combinations_with_replacement(pairs, 2))
    # caps[k - 1][x + k! q^k] = min(ord_p x, k j_max) (k j_max at x = 0) for
    # |x| < k! q^k, which bounds a k x k minor of digits below q
    caps = []
    for k in range(1, n + 1):
        cap = np.zeros(q**k, dtype=np.int8)
        for e in range(1, k * j_max + 1):
            cap[:: p**e] += 1
        caps.append(np.tile(cap, 2 * factorial(k)))
    points = q ** len(pos)
    table = np.empty(points, dtype=np.int8)
    for start in range(0, points, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, points), dtype=np.int64)
        digits = np.unravel_index(idx, (q,) * len(pos))[::-1]
        r = {}
        for (i, j), digit in zip(pos, digits):
            r[i, j] = r[j, i] = digit
        m2 = {
            (s, t): r[s[0], t[0]] * r[s[1], t[1]] - r[s[0], t[1]] * r[s[1], t[0]]
            for s, t in minor_keys
        }
        minors = [digits, list(m2.values())][:n]
        if n == 3:
            # cofactor expansion along row 0; the complementary minor of
            # column c has rows (1, 2) and columns pairs[2 - c]
            det = sum((-1) ** c * r[0, c] * m2[pairs[2 - c], (1, 2)] for c in range(3))
            minors.append([det])
        # v_k = min(ord_p g_k, k j_max), g_k the gcd of the k x k minors, is
        # the least capped valuation of a minor (k j_max once all vanish).
        # The elementary divisor exponents e_k = ord_p g_k - ord_p g_(k-1)
        # increase, so min(v_k - v_(k-1), j_max) = min(e_k, j_max), and the
        # level exponent is the sum of j_max - min(e_k, j_max).
        level, v_prev = max_level, 0
        for k, (k_minors, cap) in enumerate(zip(minors, caps), 1):
            v = reduce(np.minimum, (cap[m + factorial(k) * q**k] for m in k_minors))
            level = level - np.minimum(v - v_prev, j_max)
            v_prev = v
        table[start : start + _CHUNK] = level
    table.setflags(write=False)
    return table


def _character_sum_series(p: int, b: HalfIntegralMatrix, j_max: int, budget: int) -> list[int]:
    """Coefficients c_0..c_{j_max} of the character sum, grouped by level.

    `local_F` calls it only for ternary B of degree >= 6 (j_max >= 3); the
    strata routes `_c1` and `_c2` cover less, and it is their oracle.  Runs
    over all symmetric R with entries in p^-j_max Z / Z (these contain
    every coset of level <= p^j_max).  Their levels do not depend on B and
    come from `_level_table`, built once; per B only tr(BR) mod q is
    computed, histogrammed per level and collapsed exactly.
    """
    n, q = b.n, p**j_max
    dim = n * (n + 1) // 2
    points = q**dim
    if points > budget:
        raise BudgetExceeded(
            f"character sum at p = {p} for T = {format_half_integral(b)} "
            f"through X^{j_max}: {points} representatives exceed the budget "
            f"of {budget}"
        )
    import numpy as np

    # only tr(BR) mod q enters the sum, so B's multipliers of R's upper
    # triangle are taken mod q before they meet the int64 digits
    g = b.doubled
    tr_mult = [(g[i][j] // 2 if i == j else g[i][j]) % q for i in range(n) for j in range(i, n)]
    # tr(BR) mod q digit by digit: the low digits 0..k-1 run through every
    # value within each block of q^k consecutive points (at most _CHUNK of
    # them, or one digit's q), and the high digits add one value per block
    low, k = np.zeros(1, dtype=np.int64), 0
    while k < dim and (low.size == 1 or low.size * q <= _CHUNK):
        low = ((tr_mult[k] * np.arange(q))[:, None] + low).ravel() % q
        k += 1
    table = _level_table(p, n, j_max)
    size = (n * j_max + 1) * q
    hist = np.zeros(size, dtype=np.int64)
    for block in range(points // low.size):
        high = sum(mult * (block // q**i % q) for i, mult in enumerate(tr_mult[k:]))
        part = table[block * low.size : (block + 1) * low.size]
        hist += np.bincount(part * np.int64(q) + (low + high) % q, minlength=size)
    hist = hist.reshape(n * j_max + 1, q)
    return [_collapse_histogram(hist[j].tolist(), p, j_max) for j in range(j_max + 1)]


def _projective_points(p: int):
    """One representative of each of the p^2 + p + 1 points of P^2(F_p)."""
    return chain(product((1,), range(p), range(p)), product((0,), (1,), range(p)), [(0, 0, 1)])


def _planes(p: int):
    """A basis of each of the p^2 + p + 1 planes of F_p^3: the orthogonal
    complement of each point (1, s, t), (0, 1, t), (0, 0, 1) of P^2(F_p)."""
    for s, t in product(range(p), repeat=2):
        yield (-s, 1, 0), (-t, 0, 1)
    for t in range(p):
        yield (1, 0, 0), (0, -t, 1)
    yield (1, 0, 0), (0, 1, 0)


def _check_points(
    label: str, p: int, b: HalfIntegralMatrix, count: int, what: str, budget: int
) -> None:
    if count > budget:
        raise BudgetExceeded(
            f"{label} at p = {p} for T = {format_half_integral(b)}: {count} "
            f"{what} of P^2(F_p) exceed the budget of {budget}"
        )


def _bilinear(g: list[list[int]], u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """u^t g v for 3 x 3 g."""
    return sum(g[i][j] * u[i] * v[j] for i in range(3) for j in range(3))


def _c1(p: int, b: HalfIntegralMatrix, budget: int) -> int:
    """c_1 of the character sum of ternary B, with no enumeration of R.

    A level-p class is R = S / p with S mod p of rank 1: S = a v v^t with v
    in P^2(F_p) and a in F_p^x, and tr(BR) = a Q_B(v) / p, Q_B(v) = v^t B v.
    The sum of e_p over a is p - 1 when p | Q_B(v) and -1 otherwise, so
    c_1 = p N_0 - (p^2 + p + 1), N_0 the number of v with p | Q_B(v).  At odd
    p, N_0 is read off the rank of 2B mod p: p + 1 for rank 3 or 1, all
    points for rank 0, 1 + p (1 + (-m/p)) for rank 2, m a principal 2 x 2
    minor of 2B prime to p (a symmetric rank-2 matrix has one).  At p = 2
    the 7 points are counted against the budget.  `local_F` reads the
    degree-1 F_p = 1 + (c_1 + 1) X off it, and c_1 is the first term of
    every shorter series of degree 2 to 5.
    """
    g, points = b.doubled, p * p + p + 1
    if p > 2:
        m = next((x for x in _principal_minors_2(g) if x % p), 0)
        if m and b.det_doubled() % p == 0:  # rank 2
            zeros = 1 + p * (1 + kronecker(-m, p))
        else:  # rank 3 or 1, or rank 0
            zeros = p + 1 if m or any(x % p for row in g for x in row) else points
        return p * zeros - points
    _check_points("c_1", p, b, points, "points", budget)
    # v^t (2B) v = 2 Q_B(v), so p | Q_B(v) exactly when 2p divides it
    zeros = sum(_bilinear(g, v, v) % (2 * p) == 0 for v in _projective_points(p))
    return p * zeros - points


def _c2(p: int, b: HalfIntegralMatrix, budget: int) -> int:
    """c_2 of the character sum of ternary B, by the two strata of level p^2,
    with no enumeration of R.

    A level-p^2 class R = S / p^2 has elementary divisor exponents of S,
    capped at 2, of (0, 2, 2) or (1, 1, 2).  The first are R = a v v^t / p^2,
    v in (Z/p^2)^3 primitive and a a unit mod p^2, each class met p^2 - p
    times; the second are R = S' / p, S' mod p of rank 2.  So, with
    c_(p^2)(x) the Ramanujan sum (p^2 - p if p^2 | x, -p if p || x, 0
    otherwise),

        c_2 = sum_v c_(p^2)(Q_B(v)) / (p^2 - p) + sum_(S' rank 2) e_p(tr BS').

    Both sums collapse onto P^2(F_p).  Writing v = v_0 + p w,
    Q_B(v) = Q_B(v_0) + p v_0^t (2B) w mod p^2: unless 2B v_0 = 0 mod p, the
    p^3 values of w spread Q_B(v) evenly over the residues = Q_B(v_0) mod p,
    where c_(p^2) sums to 0.  So the first sum is p^2 times the sum of
    c_(p^2)(Q_B(v)) over the points v of the kernel of 2B mod p.  For the
    second, the symmetric S' mod p that vanish on a line l form a space of
    dimension 3, over which e_p(tr BS') sums to p^3 if Q_B vanishes mod p
    on the plane orthogonal to l, and to 0 otherwise.  Summed over the
    p^2 + p + 1 lines, this counts each S' once per point of its kernel
    (once at rank 2, p + 1 times at rank 1, p^2 + p + 1 times for S' = 0),
    and the rank-1 S' sum to c_1.  So the second sum is
    p^3 I - (p + 1) c_1 - (p^2 + p + 1), I the number of planes on which Q_B
    vanishes mod p.  The route is the same at every p, p = 2 included: the
    2 (p^2 + p + 1) points and planes count against the budget.
    """
    g, points = b.doubled, p * p + p + 1
    _check_points("c_2", p, b, 2 * points, "points and planes", budget)
    kernel = 0
    for v in _projective_points(p):
        if all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in g):
            # 2B v = 0 mod p: Q_B(v) mod p^2 is the same for every lift of v
            q = _bilinear(g, v, v) // 2
            kernel += p * p - p if q % (p * p) == 0 else -p if q % p == 0 else 0
    # Q_B vanishes mod p on the plane spanned by u and w
    isotropic = sum(
        _bilinear(g, u, u) % (2 * p) == 0 and _bilinear(g, w, w) % (2 * p) == 0
        and _bilinear(g, u, w) % p == 0
        for u, w in _planes(p)
    )
    return p * p * kernel + p**3 * isotropic - (p + 1) * _c1(p, b, budget) - points


# ---------------------------------------------------------------------------
# The polynomial factor F_p


def local_F(
    p: int, b: HalfIntegralMatrix, budget: int = DEFAULT_BUDGET
) -> SiegelSeriesPolynomial:
    """F_p(B, X) for a prime p and nondegenerate half-integral B of size <= 3.

    A p that is not prime raises ValueError first, then a budget below 1.
    d = `expected_degree` on every size.  Sizes 1 and 2 return closed forms:
    a geometric sum, and the content/square-part formula (with
    xi = `chi_p`(-det 2B)) behind the classical divisor-sum expression for
    degree-2 Eisenstein coefficients.  Size 3 uses f_(d-i) = eps p^(2d-4i) f_i,
    eps = `_functional_equation_sign`: d = 0 gives 1, and d = 1 gives
    1 + (c_1 + 1) X with c_1 from `_c1`, asserted to be 1 +- p^2 X, so no
    sign is taken.  For d >= 2 the character sum through X^(d//2) is divided
    by gamma_p (`_gamma_numerator`) and f_(d-i) filled in for i < ceil(d/2);
    for even d and eps = -1 the middle coefficient must vanish, as asserted.
    For d <= 5 that sum is 1 + c_1 X + c_2 X^2, cut after X^(d//2), with c_2
    from `_c2`; only d >= 6 enumerates R.  `budget` (at least 1 on every
    route) caps the points counted: of P^2(F_2) for c_1, of P^2(F_p) and its
    planes for c_2, or of R.  Nothing of B is cached here: `eisen` keeps the
    size-3 F_p of each T it meets.
    """
    _check_prime(p)
    _check_budget(budget)
    deg = expected_degree(p, b)
    if b.n == 2:
        cv, e = ord_p(p, b.content()), deg // 2
        xi = chi_p(p, -b.det_doubled())
        if cv > e:
            raise AssertionError("content valuation exceeds the square-part valuation")
        coeffs = [0] * (2 * e + 1)
        for a in range(cv + 1):
            for i in range(e - a + 1):
                coeffs[a + 2 * i] += p ** (2 * a) * p ** (3 * i)
            for i in range(e - a):
                coeffs[a + 2 * i + 1] -= xi * p ** (2 * a) * p ** (3 * i + 1)
        return SiegelSeriesPolynomial(tuple(coeffs))
    if b.n == 1:
        return SiegelSeriesPolynomial(tuple(p**i for i in range(deg + 1)))
    if deg == 0:
        return SiegelSeriesPolynomial((1,))
    if deg == 1:
        f1 = _c1(p, b, budget) + 1
        if abs(f1) != p * p:
            raise AssertionError("degree 1 needs c_1 + 1 = +-p^2")
        return SiegelSeriesPolynomial((1, f1))
    sign = _functional_equation_sign(p, b)
    # divide gamma_p = (1 - X)(1 - p^2 X^2) out of c_0..c_(d//2); c_0 = 1
    if deg > 5:
        series = _character_sum_series(p, b, deg // 2, budget)
    else:
        series = [1, _c1(p, b, budget)] + ([_c2(p, b, budget)] if deg > 3 else [])
    gamma = _gamma_numerator(p, 3)
    f_coeffs = [0] * (deg + 1)
    for j, c in enumerate(series):
        f_coeffs[j] = c - sum(gamma[i] * f_coeffs[j - i] for i in range(1, min(j, 3) + 1))
    if deg % 2 == 0 and sign == -1 and f_coeffs[deg // 2] != 0:
        raise AssertionError("middle coefficient must vanish for sign -1")
    for i in range((deg + 1) // 2):
        f_coeffs[deg - i] = sign * p ** (2 * deg - 4 * i) * f_coeffs[i]
    return SiegelSeriesPolynomial(tuple(f_coeffs))
