"""Exact half-integral symmetric matrices of size <= 3.

A half-integral matrix T (integer diagonal, half-integer off-diagonal) is
stored through its doubled form 2T, an integer symmetric matrix with even
diagonal; every query (determinant, rank, minors, definiteness) is decided
exactly on the doubled matrix.  `nondeg_invariants` is the one
definiteness test on the computation path: in one pass over the entries of
2T it reads the rank m, det(2 T~) of the nondegenerate block T~ and the
content of T, (0, 0, 0) for T = 0, and rejects T that are not positive
semidefinite, with no elimination and no lists; a(T) needs nothing of T~
beyond these.  The module also provides the lattice-point enumeration that
gives the pullback sum its finite support.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd, isqrt

from .errors import BudgetExceeded

__all__ = [
    "HalfIntegralMatrix",
    "build_T",
    "enumerate_R",
    "format_half_integral",
    "nondeg_invariants",
    "parse_half_integral",
]

_R_BOX_POINTS = 2**24  # candidate rows enumerate_R may test before it raises BudgetExceeded


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


def _principal_minors_2(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """The 2 x 2 principal minors of a symmetric matrix of size <= 3, leading one first."""
    if len(rows) < 3:
        return [rows[0][0] * rows[1][1] - rows[0][1] ** 2] if len(rows) == 2 else []
    (a, b, c), (_, d, e), (_, _, f) = rows
    return [a * d - b * b, a * f - c * c, d * f - e * e]


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

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.doubled)

    def det_doubled(self) -> int:
        """det(2T), an exact integer."""
        return _det_int(self.doubled)

    def _principal_minors(self):
        """(size, minor) for every principal minor of the doubled matrix."""
        g = self.doubled
        for size in range(1, self.n + 1):
            for idx in combinations(range(self.n), size):
                yield size, _det_int(tuple(tuple(g[i][j] for j in idx) for i in idx))

    def rank(self) -> int:
        """Rank over the rationals: the size of the largest nonzero principal
        minor, which for a symmetric matrix is its rank."""
        return max((size for size, minor in self._principal_minors() if minor), default=0)

    def is_psd(self) -> bool:
        """All principal minors nonnegative (not just the leading ones;
        boundary lattice points produce zero leading minors).  The test
        oracle for `nondeg_invariants`, which reads only the minors it needs."""
        return all(minor >= 0 for _, minor in self._principal_minors())

    def is_pd(self) -> bool:
        """Sylvester: all leading principal minors positive."""
        g = self.doubled
        return all(
            _det_int(tuple(row[:size] for row in g[:size])) > 0
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
        """gcd of the entries of T (0 for T = 0): one gcd call over the halved
        diagonal and the upper off-diagonal entries of the doubled form."""
        g = self.doubled
        if len(g) == 3:
            (a, b, c), (_, d, e), (_, _, f) = g
            return gcd(a // 2, d // 2, f // 2, b, c, e)
        if len(g) == 2:
            (a, b), (_, d) = g
            return gcd(a // 2, d // 2, b)
        return gcd(g[0][0] // 2)


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


def nondeg_invariants(t: HalfIntegralMatrix) -> tuple[int, int, int]:
    """(m, det(2 T~), content(T)) for a PSD matrix, (0, 0, 0) for T = 0;
    ValueError for a T that is not PSD.

    One pass over 2T = [[a, b, c], [b, d, e], [c, e, f]] (or its leading
    block): the entries are unpacked once and the principal minors, det(2T)
    and the gcds are local integers.  m is the rank of T, and T~ its
    nondegenerate part: T is GL_n(Z)-equivalent to diag(T~, 0) with T~
    positive definite of size m.  If det(2T) != 0, m = n and T
    is PSD exactly when it is positive definite (Sylvester: a, a d - b^2
    and det(2T) > 0).  Otherwise T is PSD exactly when its diagonal and its
    diagonal cofactors are >= 0, and 2T = V^t (2 T~) V for a primitive
    m x n matrix V, so by Cauchy-Binet every m x m principal minor of 2T is
    det(2 T~) det(V_I)^2; the det(V_I) are the maximal minors of V,
    coprime, so det(2 T~) is the gcd of the m x m principal minors: the
    cofactors a d - b^2, a f - c^2, d f - e^2 for m = 2, the diagonal for
    m = 1.  A PSD T whose diagonal is 0 is 0 (each 2 x 2 minor is -b^2).
    content(T) is the gcd of the halved diagonal and the off-diagonal
    entries of 2T, as `HalfIntegralMatrix.content` reads it.
    """
    g = t.doubled
    if len(g) == 3:
        (a, b, c), (_, d, e), (_, _, f) = g
        m1, m2, m3 = a * d - b * b, a * f - c * c, d * f - e * e
        det2 = a * m3 - b * (b * f - c * e) + c * (b * e - c * d)
        content = gcd(a // 2, d // 2, f // 2, b, c, e)
        if det2:
            if a <= 0 or m1 <= 0 or det2 <= 0:
                raise ValueError("matrix must be positive semidefinite")
            return 3, det2, content
        if a < 0 or d < 0 or f < 0 or m1 < 0 or m2 < 0 or m3 < 0:
            raise ValueError("matrix must be positive semidefinite")
        det_tilde = gcd(m1, m2, m3)
        if det_tilde:
            return 2, det_tilde, content
        det_tilde = gcd(a, d, f)
    elif len(g) == 2:
        (a, b), (_, d) = g
        det2 = a * d - b * b
        content = gcd(a // 2, d // 2, b)
        if det2:
            if a <= 0 or det2 <= 0:
                raise ValueError("matrix must be positive semidefinite")
            return 2, det2, content
        if a < 0 or d < 0:
            raise ValueError("matrix must be positive semidefinite")
        det_tilde = gcd(a, d)
    else:
        det_tilde = g[0][0]
        if det_tilde < 0:
            raise ValueError("matrix must be positive semidefinite")
        content = det_tilde // 2
    return (1, det_tilde, content) if det_tilde else (0, 0, 0)


def enumerate_R(n: int, quad: HalfIntegralMatrix) -> list[tuple[int, int]]:
    """All integer rows R with T = [[n, R/2], [R^t/2, N]] positive semidefinite.

    N is positive definite, so by the Schur complement T is PSD exactly when
    n - R N^(-1) R^t / 4 >= 0, that is when det(2T) = det(2N) (2n - R (2N)^(-1)
    R^t) >= 0.  Candidate coordinates are bounded by r_i^2 <= 4 n N_ii and
    kept by that one determinant.  Output is sorted lexicographically.  A
    box of more than _R_BOX_POINTS candidates raises BudgetExceeded at once.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if quad.n != 2 or not quad.is_pd():
        raise ValueError("N must be a positive definite 2x2 matrix")
    (a, b), (_, c) = quad.doubled
    b1, b2 = isqrt(2 * n * a), isqrt(2 * n * c)
    points = (2 * b1 + 1) * (2 * b2 + 1)
    if points > _R_BOX_POINTS:
        raise BudgetExceeded(f"the row box of n = {n} has {points} > {_R_BOX_POINTS} points")
    return [
        (r1, r2)
        for r1 in range(-b1, b1 + 1)
        for r2 in range(-b2, b2 + 1)
        if _det_int(((2 * n, r1, r2), (r1, a, b), (r2, b, c))) >= 0
    ]


def canonical_signed_perm(t: HalfIntegralMatrix) -> HalfIntegralMatrix:
    """Lexicographically smallest signed-permutation image of the matrix.

    Signed permutations are unimodular, so the result is GL_n(Z)-equivalent
    to the input; the tests use it as a sound (if coarse) class key.
    The image of the doubled form under the permutation pi and signs s has
    entries s_i s_j g[pi(i)][pi(j)]; a global sign flip leaves it unchanged,
    so s_0 = 1 is fixed.
    """
    n = t.n
    g = t.doubled
    best = min(
        tuple(
            tuple(s[i] * s[j] * g[perm[i]][perm[j]] for j in range(n))
            for i in range(n)
        )
        for perm in permutations(range(n))
        for s in ((1, *rest) for rest in product((1, -1), repeat=n - 1))
    )
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
