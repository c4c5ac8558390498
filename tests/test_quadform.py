"""Tests for exact half-integral matrices and their reductions."""

from __future__ import annotations

import random
from itertools import product

import pytest

from eiscong import quadform
from eiscong.arith import DiscriminantChar, _square_class
from eiscong.errors import BudgetExceeded
from eiscong.quadform import (
    HalfIntegralMatrix,
    build_T,
    canonical_signed_perm,
    enumerate_R,
    format_half_integral,
    nondeg_invariants,
    parse_half_integral,
)

I2 = HalfIntegralMatrix.identity(2)
I3 = HalfIntegralMatrix.identity(3)


def _echelon(rows) -> tuple[list[list[int]], list[list[int]]]:
    """(U, H) with U unimodular and U * rows = H in row echelon form over Z.

    Euclid on each column: the row with the smallest nonzero entry at or
    below the current pivot row is swapped up and subtracted, by integer
    multiples, from the rows beneath it until it is the only nonzero entry
    left there.  Every step is applied to U as well, so the nonzero rows of
    H come first and the rows of U beside the zero rows of H span the
    integer left kernel of `rows`.
    """
    h = [list(row) for row in rows]
    n = len(h)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for col in range(len(h[0])):
        while r < n:
            nonzero = [i for i in range(r, n) if h[i][col]]
            if not nonzero:
                break
            p = min(nonzero, key=lambda i: abs(h[i][col]))
            h[r], h[p] = h[p], h[r]
            u[r], u[p] = u[p], u[r]
            if len(nonzero) == 1:
                r += 1
                break
            for i in range(r + 1, n):
                q = h[i][col] // h[r][col]
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
    return u, h


def nondeg_part(t: HalfIntegralMatrix) -> tuple[HalfIntegralMatrix, int]:
    """(T~, det(2 T~)) for a nonzero PSD matrix; ValueError for any other.

    The oracle that builds the nondegenerate part T~ which
    `nondeg_invariants` only measures.  m, det(2 T~) and the PSD test come
    from `nondeg_invariants`; T = 0 (m = 0) has no nondegenerate part and
    raises here.  If m = n, T~ is T itself.  Otherwise U (2T) U^t =
    diag(2 T~, 0) for the unimodular U of the integer echelon form
    U (2T) = H: the rows of U beside the zero rows of H are a basis of
    ker(2T) meet Z^n, and as 2T is symmetric they clear both the rows and
    the columns of U (2T) U^t outside its leading m x m block, which is
    2 T~.  T~ depends on the elimination order, but its GL_m(Z) class and
    det(2 T~) do not.
    """
    m, det2, _ = nondeg_invariants(t)
    if not m:
        raise ValueError("rank 0 has no nondegenerate part")
    if m == t.n:
        return t, det2
    transformed = t.transform(_echelon(t.doubled)[0]).doubled
    n = t.n
    tilde = HalfIntegralMatrix(tuple(row[:m] for row in transformed[:m]))
    if tilde.det_doubled() != det2 or any(
        transformed[i][j] for i in range(n) for j in range(n) if max(i, j) >= m
    ):
        raise AssertionError("echelon block disagrees with the minors of 2T")
    return tilde, det2


def random_unimodular(rng: random.Random, n: int = 3, bound: int = 3):
    """Rejection-sample an integer matrix with det +-1 and entries in [-bound, bound]."""
    from eiscong.quadform import _det_int

    while True:
        u = tuple(
            tuple(rng.randrange(-bound, bound + 1) for _ in range(n))
            for _ in range(n)
        )
        if _det_int(u) in (1, -1):
            return u


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            HalfIntegralMatrix.from_doubled([[1]])  # odd diagonal
        with pytest.raises(ValueError):
            HalfIntegralMatrix.from_doubled([[2, 1], [0, 2]])  # not symmetric
        with pytest.raises(ValueError):
            HalfIntegralMatrix.from_doubled([[2, 0, 0, 0]] * 4)

    def test_build_T_identity(self):
        assert build_T(1, I2, (0, 0)) == I3

    def test_build_T_assembly(self):
        t = build_T(1, I2, (1, 0))
        assert t.doubled == ((2, 1, 0), (1, 2, 0), (0, 0, 2))

    def test_build_T_boundary(self):
        t = build_T(1, I2, (2, 0))
        assert t.rank() == 2
        assert t.is_psd() and not t.is_pd()
        assert t.det_doubled() == 0


class TestRankDefiniteness:
    def test_zero(self):
        z = HalfIntegralMatrix.from_doubled([[0] * 3] * 3)
        assert z.rank() == 0 and z.is_psd() and not z.is_pd()

    def test_identity(self):
        assert I3.rank() == 3 and I3.is_pd()

    def test_psd_needs_all_principal_minors(self):
        # leading minors vanish but the matrix is indefinite
        t = HalfIntegralMatrix.from_doubled([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert not t.is_psd()

    def test_rank_two_boundary(self):
        assert build_T(1, I2, (0, 2)).rank() == 2


class TestNondegPart:
    def test_pd_fixed_point(self):
        tilde, det2 = nondeg_part(I3)
        assert tilde == I3 and det2 == 8

    def test_boundary_reduction(self):
        tilde, det2 = nondeg_part(build_T(1, I2, (2, 0)))
        assert tilde.n == 2 and det2 == 4 and tilde.is_pd()

    def test_coordinate_projection(self):
        t = HalfIntegralMatrix.diagonal(0, 0, 3)
        tilde, det2 = nondeg_part(t)
        assert tilde.doubled == ((6,),) and det2 == 6

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            nondeg_part(HalfIntegralMatrix.from_doubled([[0, 0], [0, 0]]))

    def test_det_invariance_under_conjugation(self):
        rng = random.Random(20260809)
        cases = [
            build_T(1, I2, (2, 0)),
            build_T(2, I2, (1, 2)),
            HalfIntegralMatrix.diagonal(1, 2, 0),
            HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 2, 0], [0, 0, 0]]),
        ]
        for t in cases:
            _, det2 = nondeg_part(t)
            for _ in range(10):
                u = random_unimodular(rng)
                conj = t.transform(u)
                tilde_u, det2_u = nondeg_part(conj)
                assert det2_u == det2
                assert tilde_u.n == t.rank()


def quadratic_character(m: int, det2: int) -> DiscriminantChar:
    """The character of Q(sqrt((-1)^(m/2) det T~)) from m and det(2 T~).

    det T~ and det(2T~) differ by the square 2^m for even m.  The only even
    rank <= 3 is m = 2, where -det(2T~) = b^2 - 4ac is 0 or 1 mod 4, so it
    has a fundamental decomposition whose discriminant gives the character.
    """
    if m % 2:
        raise ValueError("the quadratic character needs even rank")
    sign = -1 if (m // 2) % 2 else 1
    return DiscriminantChar(_square_class(sign * det2)[0])


def chi_star(t: HalfIntegralMatrix):
    """The character of Q(sqrt((-1)^(m/2) det T~)), as a(T) takes it."""
    tilde, det2 = nondeg_part(t)
    return quadratic_character(tilde.n, det2)


class TestChiStar:
    def test_identity_two(self):
        assert chi_star(I2).d == -4

    def test_det_three(self):
        t = HalfIntegralMatrix.from_doubled([[2, 1], [1, 2]])
        assert chi_star(t).d == -3

    def test_padded_rank_two(self):
        t = HalfIntegralMatrix.from_doubled(
            [[2, 0, 0], [0, 2, 0], [0, 0, 0]]
        )
        assert chi_star(t).d == -4

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError, match="even rank"):
            chi_star(I3)


class TestEnumerateR:
    def test_identity_shell(self):
        rs = enumerate_R(1, I2)
        expected = sorted(
            [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1),
             (-1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]
        )
        assert rs == expected

    def test_origin_always_present(self):
        for n in (1, 2, 3):
            assert (0, 0) in enumerate_R(n, I2)

    def test_weighted_form(self):
        n_mat = HalfIntegralMatrix.diagonal(1, 2)
        rs = enumerate_R(1, n_mat)
        # ellipse r1^2 + r2^2/2 <= 4
        expected = sorted(
            (r1, r2)
            for r1, r2 in product(range(-3, 4), repeat=2)
            if 2 * r1 * r1 + r2 * r2 <= 8
        )
        assert rs == expected

    def test_psd_inside_fails_outside(self):
        rs = enumerate_R(1, I2)
        for r in rs:
            assert build_T(1, I2, r).is_psd()
        shell = [(3, 0), (2, 1), (-2, -1), (0, -3), (2, 2)]
        for r in shell:
            assert r not in rs
            assert not build_T(1, I2, r).is_psd()

    def test_box_bound_is_inclusive(self, monkeypatch):
        # n = 1, N = I: |r_i| <= 2, a 5 x 5 box
        monkeypatch.setattr(quadform, "_R_BOX_POINTS", 25)
        assert len(enumerate_R(1, I2)) == 13
        monkeypatch.setattr(quadform, "_R_BOX_POINTS", 24)
        with pytest.raises(BudgetExceeded, match="has 25 > 24 points"):
            enumerate_R(1, I2)

    def test_symmetries(self):
        rs = set(enumerate_R(2, I2))
        for r1, r2 in rs:
            assert (-r1, -r2) in rs
            assert (r2, r1) in rs
            assert (-r1, r2) in rs


class TestCanonicalAndSyntax:
    def test_canonical_collapses_signs(self):
        variants = [build_T(1, I2, r) for r in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        canon = {canonical_signed_perm(v) for v in variants}
        assert len(canon) == 1

    def test_canonical_is_equivalent(self):
        t = build_T(1, I2, (1, 1))
        c = canonical_signed_perm(t)
        assert c.det_doubled() == t.det_doubled()
        assert c.rank() == t.rank()

    def test_parse_format_roundtrip(self):
        for text in ("5", "1,0,1", "1,1,1", "1,0,0,1,0,1", "2,1,-1,3,0,4"):
            m = parse_half_integral(text)
            assert format_half_integral(m) == text.replace(" ", "")

    def test_parse_errors_are_positioned(self):
        with pytest.raises(ValueError, match="entry 2"):
            parse_half_integral("1,x,1")
        with pytest.raises(ValueError, match="1, 3 or 6"):
            parse_half_integral("1,2")
