"""Exact half-integral symmetric matrices of size <= 3.

A half-integral matrix T (integer diagonal, half-integer off-diagonal) is
stored through its doubled form 2T, an integer symmetric matrix with even
diagonal; every query (determinant, rank, minors, definiteness) is decided
exactly on the doubled matrix.  The module also provides the reduction of a
positive semidefinite T to its nondegenerate block via a unimodular change
of basis, the quadratic character attached to an even-rank T, and the
lattice-point enumeration that gives the pullback sum its finite support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt

from .arith import DiscriminantChar, field_discriminant

__all__ = [
    "HalfIntegralMatrix",
    "build_T",
    "chi_star",
    "enumerate_R",
    "format_half_integral",
    "nondeg_part",
    "parse_half_integral",
]


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals, with its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _det_int(rows: tuple[tuple[int, ...], ...]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class HalfIntegralMatrix:
    """Symmetric half-integral matrix, stored as its doubled integer form."""

    doubled: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.doubled)
        if not 1 <= n <= 3:
            raise ValueError("size must be between 1 and 3")
        for i in range(n):
            if len(self.doubled[i]) != n:
                raise ValueError("matrix must be square")
            if self.doubled[i][i] % 2:
                raise ValueError("doubled diagonal must be even")
            for j in range(n):
                if self.doubled[i][j] != self.doubled[j][i]:
                    raise ValueError("matrix must be symmetric")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_doubled(cls, rows) -> HalfIntegralMatrix:
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    def diagonal(cls, *entries: int) -> HalfIntegralMatrix:
        n = len(entries)
        return cls.from_doubled(
            [[2 * entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def identity(cls, n: int) -> HalfIntegralMatrix:
        return cls.diagonal(*([1] * n))

    @classmethod
    def zero(cls, n: int) -> HalfIntegralMatrix:
        return cls.from_doubled([[0] * n for _ in range(n)])

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.doubled)

    def det_doubled(self) -> int:
        """det(2T), an exact integer."""
        return _det_int(self.doubled)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry of T itself (possibly half-integral)."""
        return Fraction(self.doubled[i][j], 2)

    def submatrix(self, idx: tuple[int, ...]) -> HalfIntegralMatrix:
        return HalfIntegralMatrix(
            tuple(tuple(self.doubled[i][j] for j in idx) for i in idx)
        )

    def rank(self) -> int:
        """Rank over the rationals, by exact elimination on the doubled form."""
        return len(_rref(self.doubled)[1])

    def is_psd(self) -> bool:
        """All principal minors nonnegative (not just the leading ones;
        boundary lattice points produce zero leading minors)."""
        n = self.n
        for size in range(1, n + 1):
            for idx in combinations(range(n), size):
                if _det_int(self.submatrix(idx).doubled) < 0:
                    return False
        return True

    def is_pd(self) -> bool:
        """Sylvester: all leading principal minors positive."""
        return all(
            _det_int(self.submatrix(tuple(range(size))).doubled) > 0
            for size in range(1, self.n + 1)
        )

    def transform(self, u: tuple[tuple[int, ...], ...]) -> HalfIntegralMatrix:
        """U T U^t for an integer matrix U (acting on the doubled form)."""
        n = self.n
        g = self.doubled
        ug = [
            [sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return HalfIntegralMatrix.from_doubled(
            [
                [sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        )

    def content(self) -> int:
        """gcd of the entries of T, read off the doubled form."""
        vals = []
        for i in range(self.n):
            vals.append(self.doubled[i][i] // 2)
            vals.extend(self.doubled[i][i + 1 :])
        return gcd(*vals) if len(vals) > 1 else abs(vals[0])


def build_T(n: int, quad: HalfIntegralMatrix, r_pair: tuple[int, int]) -> HalfIntegralMatrix:
    """Assemble the 3x3 bordered matrix [[n, R/2], [R^t/2, N]]."""
    if quad.n != 2:
        raise ValueError("N must be 2x2")
    r1, r2 = r_pair
    g = quad.doubled
    return HalfIntegralMatrix.from_doubled(
        [
            [2 * n, r1, r2],
            [r1, g[0][0], g[0][1]],
            [r2, g[0][1], g[1][1]],
        ]
    )


# ---------------------------------------------------------------------------
# Smith normal form over Z (used only on tiny matrices)


def _smith_with_transforms(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U*mat*V = D diagonal, U and V unimodular."""
    rows, cols = len(mat), len(mat[0])
    a = [row[:] for row in mat]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for k in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if a[i][j] != 0 and (
                        pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                    ):
                        pivot = (i, j)
            if pivot is None:
                return u, a, v
            swap_rows(k, pivot[0])
            swap_cols(k, pivot[1])
            done = True
            for i in range(k + 1, rows):
                if a[i][k]:
                    row_op(i, k, a[i][k] // a[k][k])
                    if a[i][k]:
                        done = False
            for j in range(k + 1, cols):
                if a[k][j]:
                    col_op(j, k, a[k][j] // a[k][k])
                    if a[k][j]:
                        done = False
            if done and all(a[i][k] == 0 for i in range(k + 1, rows)) and all(
                a[k][j] == 0 for j in range(k + 1, cols)
            ):
                break
    return u, a, v


def _invert_unimodular(v: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a small unimodular integer matrix."""
    n = len(v)
    m, _ = _rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(v)])
    out = [row[n:] for row in m]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def _integer_kernel(doubled: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Primitive integer vectors spanning the rational kernel."""
    n = len(doubled)
    m, pivots = _rref(doubled)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in enumerate(pivots):
            vec[col] = -m[row][free]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // _gcd_int(lcm, x.denominator)
        ints = [int(x * lcm) for x in vec]
        g = _gcd_int(*ints)
        basis.append([x // g for x in ints])
    return basis


def _gcd_int(*xs: int) -> int:
    return gcd(*xs) if len(xs) > 1 else abs(xs[0])


def nondeg_part(t: HalfIntegralMatrix) -> tuple[HalfIntegralMatrix, int]:
    """Reduce a PSD matrix to its positive definite block.

    Returns (T~, det(2 T~)) where U (2T) U^t = diag(2 T~, 0) for some
    unimodular U.  The kernel of 2T meets Z^n in a saturated sublattice; a
    basis of it is completed to a basis of Z^n through the Smith normal form
    of the stacked kernel vectors, and T~ is read off the complementary
    block.  T~ itself depends on the choices, but det(2 T~) does not.
    """
    if not t.is_psd():
        raise ValueError("matrix must be positive semidefinite")
    m = t.rank()
    if m == 0:
        raise ValueError("rank 0 has no nondegenerate part")
    n = t.n
    if m == n:
        return t, t.det_doubled()
    kernel = _integer_kernel(t.doubled)
    _, _, v = _smith_with_transforms([row[:] for row in kernel])
    v_inv = _invert_unimodular(v)
    # first n-m rows of V^-1 span the saturated kernel; complement rows first
    u_rows = v_inv[n - m :] + v_inv[: n - m]
    transformed = t.transform(tuple(tuple(r) for r in u_rows))
    for i in range(n):
        for j in range(n):
            if (i >= m or j >= m) and transformed.doubled[i][j] != 0:
                raise AssertionError("kernel block failed to vanish")
    tilde = transformed.submatrix(tuple(range(m)))
    if not tilde.is_pd():
        raise AssertionError("nondegenerate part must be positive definite")
    return tilde, tilde.det_doubled()


def chi_star(t: HalfIntegralMatrix) -> DiscriminantChar:
    """Quadratic character of Q(sqrt((-1)^(m/2) det T~)) for even rank m."""
    m = t.rank()
    if m == 0 or m % 2:
        raise ValueError("chi_star needs even positive rank")
    _, det2 = nondeg_part(t)
    sign = -1 if (m // 2) % 2 else 1
    # det T~ and det(2T~) differ by the square 2^m for even m
    return DiscriminantChar(field_discriminant(sign * det2))


def enumerate_R(n: int, quad: HalfIntegralMatrix) -> list[tuple[int, int]]:
    """All integer rows R with [[n, R/2], [R^t/2, N]] positive semidefinite.

    By the Schur complement this is the ellipse R N^(-1) R^t <= 4n; candidate
    coordinates are bounded by r_i^2 <= 4 n N_ii and filtered by the exact
    PSD test.  Output is sorted lexicographically.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not quad.is_pd():
        raise ValueError("N must be positive definite")
    g = quad.doubled
    b1 = _isqrt_floor(2 * n * g[0][0])
    b2 = _isqrt_floor(2 * n * g[1][1])
    out = []
    for r1 in range(-b1, b1 + 1):
        for r2 in range(-b2, b2 + 1):
            if build_T(n, quad, (r1, r2)).is_psd():
                out.append((r1, r2))
    return sorted(out)


def _isqrt_floor(x: int) -> int:
    return isqrt(x) if x >= 0 else -1


def canonical_signed_perm(t: HalfIntegralMatrix) -> HalfIntegralMatrix:
    """Lexicographically smallest signed-permutation image of the matrix.

    Signed permutations are unimodular, so the result is GL_n(Z)-equivalent
    to the input; used as a sound (if coarse) cache key for local invariants.
    """
    n = t.n
    best = None
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            u = tuple(
                tuple(signs[i] if perm[i] == j else 0 for j in range(n))
                for i in range(n)
            )
            cand = t.transform(u).doubled
            if best is None or cand < best:
                best = cand
    return HalfIntegralMatrix(best)


# ---------------------------------------------------------------------------
# Textual syntax shared with the CLI: "a,b,c" encodes the 2x2 doubled matrix
# [[2a, b], [b, 2c]]; six integers "a,b,c,d,e,f" encode the 3x3 doubled
# [[2a, b, c], [b, 2d, e], [c, e, 2f]]; a single integer is the 1x1 case.


def parse_half_integral(text: str) -> HalfIntegralMatrix:
    parts = [p.strip() for p in text.split(",")]
    vals = []
    for pos, p in enumerate(parts):
        try:
            vals.append(int(p))
        except ValueError:
            raise ValueError(
                f"matrix entry {pos + 1} ({p!r}) is not an integer"
            ) from None
    if len(vals) == 1:
        (a,) = vals
        return HalfIntegralMatrix.from_doubled([[2 * a]])
    if len(vals) == 3:
        a, b, c = vals
        return HalfIntegralMatrix.from_doubled([[2 * a, b], [b, 2 * c]])
    if len(vals) == 6:
        a, b, c, d, e, f = vals
        return HalfIntegralMatrix.from_doubled(
            [[2 * a, b, c], [b, 2 * d, e], [c, e, 2 * f]]
        )
    raise ValueError(
        f"expected 1, 3 or 6 comma-separated integers, got {len(vals)}"
    )


def format_half_integral(t: HalfIntegralMatrix) -> str:
    g = t.doubled
    if t.n == 1:
        return str(g[0][0] // 2)
    if t.n == 2:
        return f"{g[0][0] // 2},{g[0][1]},{g[1][1] // 2}"
    return (
        f"{g[0][0] // 2},{g[0][1]},{g[0][2]},"
        f"{g[1][1] // 2},{g[1][2]},{g[2][2] // 2}"
    )
