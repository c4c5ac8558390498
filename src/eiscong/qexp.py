"""Level-1 modular forms as truncated q-expansions over exact rationals.

Provides the Victor Miller bases (built in integers from E_4, E_6 and
Delta = (E_4^3 - E_6^2)/1728), the normalized eigenform of a cusp space of
dimension <= 1 as a tuple of zero or one QExpansion (larger level-1 cusp
spaces have irrational Hecke fields and raise UnsupportedHeckeField), the
weight-k series whose coefficients are built from Cohen's H function, and
the normalized standard L-value obtained from it by an exact Petersson
projection.  Every identity used downstream is decided at the Sturm bound,
so the default working precision is max(20, 2 * sturm_bound(k)), at most
2^12: `miller_basis` and `cohen_series` raise BudgetExceeded above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from .arith import _over_common_denominator, bernoulli, cohen_h
from .errors import BudgetExceeded, SingularSystem, UnsupportedHeckeField
from .gegenbauer import _convolve, _integer_coeffs

__all__ = [
    "QExpansion",
    "cohen_series",
    "default_precision",
    "dim_cusp",
    "dim_modular",
    "eigen_basis",
    "miller_basis",
    "petersson_ratio",
    "std_l_value",
    "sturm_bound",
]


_MAX_PRECISION = 2**12  # q-expansion terms; the series cost the square of it


def _check_precision(prec: int) -> None:
    if prec > _MAX_PRECISION:
        raise BudgetExceeded(f"precision {prec} exceeds the bound of {_MAX_PRECISION}")


def sturm_bound(k: int) -> int:
    return k // 12 + 1


def default_precision(k: int) -> int:
    return max(20, 2 * sturm_bound(k))


def dim_modular(k: int) -> int:
    if k < 0 or k % 2:
        return 0
    return k // 12 if k % 12 == 2 else k // 12 + 1


def dim_cusp(k: int) -> int:
    return max(dim_modular(k) - 1, 0)


@dataclass(frozen=True)
class QExpansion:
    """Truncated Fourier series sum a(n) q^n, n <= prec, with a weight tag.

    The only arithmetic is what reducing a series against a basis takes: a
    scalar multiple (scalar on the left), and the difference of two series
    of equal weight, cut to the smaller precision.  No coefficient beyond
    `prec` is ever read.  The products of the Miller bases run on integer
    lists (`gegenbauer._convolve`), not on this class.
    """

    weight: int
    prec: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.prec + 1:
            raise ValueError("need exactly prec + 1 coefficients")

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.prec:
            raise IndexError(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]

    def __sub__(self, other: QExpansion) -> QExpansion:
        if self.weight != other.weight:
            raise ValueError("weights must match for subtraction")
        p = min(self.prec, other.prec)
        return QExpansion(
            self.weight,
            p,
            tuple(a - b for a, b in zip(self.coeffs[: p + 1], other.coeffs[: p + 1])),
        )

    def __rmul__(self, scalar: Fraction | int) -> QExpansion:
        scalar = Fraction(scalar)
        return QExpansion(self.weight, self.prec, tuple(scalar * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def _exact_div(a: int, b: int) -> int:
    """a / b for integers that must divide; ArithmeticError otherwise."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


@lru_cache(maxsize=None)
def miller_basis(k: int, prec: int) -> tuple[tuple[QExpansion, ...], tuple[QExpansion, ...]]:
    """Echelonized integral bases of M_k and S_k from E_4^a E_6^b Delta^j,
    with Delta = (E_4^3 - E_6^2)/1728 built from the same E_4 and E_6.

    Row j leads with coefficient 1 at q^j and has zeros at the other
    q^i, i < dim; the cusp basis is rows 1 and up.  E_4, E_6 and Delta
    are integral, so everything runs on integer lists: sigma_3 and sigma_5
    come from one divisor sieve each, with no factorization, the factors
    -8/B_4 = 240 and -12/B_6 = -504 and the division by 1728 are exact
    (ArithmeticError if not), products are `_convolve`s cut to prec + 1
    terms, the echelon steps subtract integer multiples of rows, and each
    coefficient becomes one Fraction at the end.
    """
    if k % 2 or k < 0:
        raise ValueError("need even k >= 0")
    d = dim_modular(k)
    if d == 0:
        return (), ()
    _check_precision(prec)
    if prec < d:
        raise ValueError(f"precision {prec} below dimension {d}")
    size = prec + 1

    def eisenstein(w: int) -> list[int]:  # E_w = 1 - (2w/B_w) sum sigma_(w-1)(n) q^n
        b = bernoulli(w)
        factor = _exact_div(-2 * w * b.denominator, b.numerator)
        # sigma_(w-1)(1..prec) by one sieve: d^(w-1) added at each multiple of d
        sigma = [0] * size
        for d in range(1, size):
            power = d ** (w - 1)
            for m in range(d, size, d):
                sigma[m] += power
        return [1] + [factor * x for x in sigma[1:]]

    e4, e6 = eisenstein(4), eisenstein(6)
    e4_cubed = _convolve(_convolve(e4, e4, size), e4, size)
    delta = [
        _exact_div(x - y, 1728) for x, y in zip(e4_cubed, _convolve(e6, e6, size))
    ]
    rows = []
    for j in range(d):
        w = k - 12 * j
        a, b = (w // 4, 0) if w % 4 == 0 else ((w - 6) // 4, 1)
        form = [1] + [0] * prec
        for factor in [e4] * a + [e6] * b + [delta] * j:
            form = _convolve(form, factor, size)
        rows.append(form)
    # clear above-diagonal entries; rows[j] starts as q^j + higher
    for j in range(1, d):
        for i in range(j):
            c = rows[i][j]
            if c:
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
    full = tuple(QExpansion(k, prec, tuple(map(Fraction, row))) for row in rows)
    return full, full[1:]


# ---------------------------------------------------------------------------
# The normalized eigenform


def eigen_basis(k: int, prec: int | None = None) -> tuple[QExpansion, ...]:
    """The normalized eigenforms of a cusp space of dimension <= 1, for even k >= 4.

    A one-dimensional S_k is spanned by its Miller row, which already has
    a(1) = 1 and so is the one normalized eigenform; S_k = 0 (k = 4, ..., 10
    and 14) gives the empty tuple.  Larger level-1 cusp spaces have
    irrational Hecke eigenvalues (checked for every k <= 60, and for all k
    if Maeda's conjecture holds), so they raise UnsupportedHeckeField.
    """
    if k < 4 or k % 2:
        raise ValueError("need even k >= 4")
    if prec is None:
        prec = default_precision(k)
    d = dim_cusp(k)
    if d > 1:
        raise UnsupportedHeckeField(
            f"the weight-{k} cusp space has dimension {d}; only dimension <= 1 "
            "has a rational Hecke eigenbasis here"
        )
    if prec < 2:
        raise ValueError("precision too low to express T(2)")
    return miller_basis(k, prec)[1]


# ---------------------------------------------------------------------------
# Cohen's weight-k series and the standard L-value


@lru_cache(maxsize=None)
def cohen_series(k: int, r: int, prec: int) -> QExpansion:
    """The weight-k series with m-th coefficient
    sum_{t^2 <= 4m} P_{2r+2, k-r-1}(t/2, m) H(r, 4m - t^2).

    Lands in M_k, and in S_k when r < k - 1.  Requires odd r with
    3 <= r <= k - 1, even k and prec >= 0.  P(t/2, m) is
    sum C_ij t^i (4m)^j / den with integral C_ij (see gegenbauer).  H(r, 0..4 prec)
    goes over one common denominator h_den once, so each coefficient is the
    integer sum of h * sum C_ij t^i (4m)^j over t, divided by h_den * den.
    P is isobaric with i + 2j = k - r - 1 even: a polynomial in t^2, taken by
    Horner's rule, whose terms at t and -t agree, so t runs over t >= 0,
    weighted 2 if t > 0.
    """
    if k % 2 or not (3 <= r <= k - 1) or r % 2 == 0:
        raise ValueError("need even k and odd r with 3 <= r <= k-1")
    if prec < 0:
        raise ValueError(f"precision must be >= 0, got {prec}")
    _check_precision(prec)
    terms, den = _integer_coeffs(2 * r + 2, k - r - 1)
    h_num, h_den = _over_common_denominator([cohen_h(r, n) for n in range(4 * prec + 1)])
    out = []
    for m in range(prec + 1):
        poly = [c * (4 * m) ** j for _, j, c in terms]  # top power of t^2 (j = 0) first
        total = 0
        for t in range(isqrt(4 * m) + 1):
            h = h_num[4 * m - t * t]
            if h:
                term = 0
                for c in poly:
                    term = term * t * t + c
                total += h * (2 * term if t else term)
        out.append(Fraction(total, h_den * den))
    return QExpansion(k, prec, tuple(out))


def petersson_ratio(f: QExpansion, g: QExpansion) -> Fraction:
    """Coefficient of the eigenform f in the eigen-expansion of the cusp form g.

    Since distinct eigenforms are orthogonal, this equals (f, g)/(f, f).  The
    cusp space is spanned by f (see eigen_basis), so the coefficient is g(1);
    g = g(1) f is then verified on every jointly available coefficient, which
    must reach the Sturm bound.
    """
    k = f.weight
    if g.weight != k:
        raise ValueError("weights must match")
    if g.is_zero():
        return Fraction(0)
    if g.coefficient(0) != 0:
        raise ValueError("g has a nonzero constant term; not a cusp form")
    forms = eigen_basis(k)
    top = min(f.prec, forms[0].prec) + 1 if forms else 0
    if not forms or forms[0].coeffs[1:top] != f.coeffs[1:top]:
        raise ValueError("f is not the normalized eigenform of this weight")
    eigenform = forms[0]
    bound = sturm_bound(k)
    avail = min(g.prec, eigenform.prec)
    if avail < bound:
        raise SingularSystem(
            f"precision {avail} below the Sturm bound {bound}"
        )
    ratio = g.coefficient(1)
    rn, rd = ratio.numerator, ratio.denominator
    for a, b in zip(eigenform.coeffs[1 : avail + 1], g.coeffs[1 : avail + 1]):
        if rn * a.numerator * b.denominator != b.numerator * rd * a.denominator:
            raise ValueError("g does not lie in the cusp eigenspace to this precision")
    return ratio


def _check_l_pair(k: int, nu: int) -> None:
    """ValueError naming k and nu unless k >= 6 and nu >= 2 are both even."""
    if k % 2 or nu % 2 or k < 6 or nu < 2:
        raise ValueError(f"need even k >= 6 and even nu >= 2, got k = {k}, nu = {nu}")


def std_l_value(k: int, nu: int, f: QExpansion) -> Fraction:
    """Normalized standard L-value at k - 1 of an eigenform f of weight k + nu.

    Equals -(nu! (k-2)! / (k+nu-2)!) 2^(k+nu-3) times the Petersson ratio of
    f against the weight-(k+nu) Cohen-type series with parameter r = k - 1.
    """
    _check_l_pair(k, nu)
    if f.weight != k + nu:
        raise ValueError("f must have weight k + nu")
    series = cohen_series(k + nu, k - 1, f.prec)
    ratio = petersson_ratio(f, series)
    factor = -Fraction(
        factorial(nu) * factorial(k - 2), factorial(k + nu - 2)
    ) * Fraction(2) ** (k + nu - 3)
    return factor * ratio
