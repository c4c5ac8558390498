"""Tests for the local Siegel series: closed forms against the character-sum
oracle, invariance, and the classical divisor-sum identity in size 1."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from eiscong.arith import _check_prime, divisor_power_sum, factorize, kronecker, ord_p
from eiscong.errors import BudgetExceeded
from eiscong.gegenbauer import _convolve
from eiscong.quadform import HalfIntegralMatrix
from eiscong import arith, quadform, siegelseries
from eiscong.siegelseries import (
    DEFAULT_BUDGET,
    _check_budget,
    _gamma_numerator,
    chi_p,
    expected_degree,
    local_F,
)
from test_arith import fundamental_part
from test_quadform import nondeg_part


def gamma_p(p: int, b: HalfIntegralMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """gamma_p(B, X) as a (numerator, denominator) pair of integer coefficient
    tuples, constant term first.

    Odd size: (1 - X) prod_{i<=(n-1)/2} (1 - p^2i X^2), denominator 1.
    Even size: the same shape of numerator with i <= n/2, divided by
    (1 - p^(n/2) xi X), xi = chi_p((-1)^(n/2) det B), read on det(2B) (they
    differ by the square 2^n); the denominator is (1,) when xi = 0.
    """
    if b.det_doubled() == 0:
        raise ValueError("B must be nondegenerate")
    n = b.n
    xi = 0 if n % 2 else chi_p(p, (-1) ** (n // 2) * b.det_doubled())
    den = (1, -(p ** (n // 2) * xi)) if xi else (1,)
    return tuple(_gamma_numerator(p, n)), den


def oracle_bp(
    p: int, b: HalfIntegralMatrix, j_max: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """c_0..c_{j_max} of the character sum sum_j c_j X^j, exactly: the
    full-length sum, the oracle of every fast route of `local_F`."""
    _check_prime(p)
    _check_budget(budget)
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if b.det_doubled() == 0:
        raise ValueError("B must be nondegenerate")
    return tuple(siegelseries._character_sum_series(p, b, j_max, budget))


def reduced_binary_forms(max_det: int):
    """PD half-integral 2x2 with 0 <= b <= a <= c (doubled [[2a,b],[b,2c]])."""
    out = []
    # 4ac - b^2 >= 3a^2 bounds a, and det <= max_det bounds c
    for a in range(1, isqrt(max_det // 3) + 1):
        for b in range(a + 1):
            for c in range(a, (max_det + b * b) // (4 * a) + 1):
                det = 4 * a * c - b * b
                if 0 < det <= max_det:
                    out.append(
                        HalfIntegralMatrix.from_doubled([[2 * a, b], [b, 2 * c]])
                    )
    return out


def oracle_matches_product(p: int, b: HalfIntegralMatrix, extra: int = 0) -> bool:
    """Cross-multiplied comparison of the oracle with gamma_p * F_p."""
    f = local_F(p, b)
    num, den = gamma_p(p, b)
    # both leading coefficients are nonzero, so gamma_p F_p has this degree
    j_max = len(num) - 1 + f.degree + extra
    series = oracle_bp(p, b, j_max)
    return _convolve(num, f.coeffs, j_max + 1) == _convolve(series, den, j_max + 1)


class TestChiP:
    def test_squares(self):
        for p in (2, 3, 5, 7):
            assert chi_p(p, 1) == 1
            assert chi_p(p, p * p) == 1
            assert chi_p(p, Fraction(1, 4)) == 1

    def test_odd_valuation_ramified(self):
        for p in (2, 3, 5):
            assert chi_p(p, p) == 0
            assert chi_p(p, Fraction(1, p)) == 0

    def test_two_adic_unit_classes(self):
        assert chi_p(2, 5) == -1
        assert chi_p(2, 3) == 0
        assert chi_p(2, 7) == 0
        assert chi_p(2, -1) == 0  # -1 = 7 mod 8

    def test_odd_p_units(self):
        assert chi_p(3, -1) == -1  # -1 is not a square mod 3
        assert chi_p(5, -1) == 1
        assert chi_p(3, Fraction(2, 5)) == chi_p(3, 10)


def assert_int_tuple(coeffs, expected):
    """Tuple equality alone would accept Fractions; the coefficients are ints."""
    assert coeffs == expected
    assert type(coeffs) is tuple and all(type(c) is int for c in coeffs)


class TestGammaP:
    def test_size_one(self):
        num, den = gamma_p(3, HalfIntegralMatrix.diagonal(1))
        assert_int_tuple(num, (1, -1))
        assert_int_tuple(den, (1,))

    def test_size_three(self):
        # (1 - X)(1 - 9X^2)
        num, den = gamma_p(3, HalfIntegralMatrix.identity(3))
        assert_int_tuple(num, (1, -1, -9, 9))
        assert_int_tuple(den, (1,))

    def test_size_two_split(self):
        # chi_5(-1) = 1, so the denominator is 1 - 5X
        num, den = gamma_p(5, HalfIntegralMatrix.identity(2))
        assert_int_tuple(num, (1, -1, -25, 25))
        assert_int_tuple(den, (1, -5))
        num3, den3 = gamma_p(3, HalfIntegralMatrix.identity(2))
        assert_int_tuple(den3, (1, 3))
        # chi_2(-4) = 0: the denominator is 1
        _, den2 = gamma_p(2, HalfIntegralMatrix.identity(2))
        assert_int_tuple(den2, (1,))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            gamma_p(2, HalfIntegralMatrix.from_doubled([[0, 0], [0, 0]]))


class TestSizeOne:
    def test_unit_at_two(self):
        assert local_F(2, HalfIntegralMatrix.diagonal(1)).coeffs == (1,)

    def test_geometric_sum(self):
        for p in (3, 5):
            for m in (1, 2):
                b = HalfIntegralMatrix.diagonal(p**m * 2)  # 2 is a p-unit
                assert local_F(p, b).coeffs == tuple(p**i for i in range(m + 1))

    def test_oracle_small_cases(self):
        b = HalfIntegralMatrix.diagonal(1)
        assert_int_tuple(oracle_bp(3, b, 1), (1, -1))
        b3 = HalfIntegralMatrix.diagonal(3)
        # (1 - X)(1 + 3X) = 1 + 2X - 3X^2
        assert_int_tuple(oracle_bp(3, b3, 2), (1, 2, -3))

    def test_oracle_equivalence(self):
        for p in (2, 3, 5):
            for t in range(1, 33):
                b = HalfIntegralMatrix.diagonal(t)
                assert oracle_matches_product(p, b, extra=1), (p, t)


class TestSizeTwo:
    def test_identity_is_trivial(self):
        for p in (2, 3, 5):
            assert local_F(p, HalfIntegralMatrix.identity(2)).coeffs == (1,)

    def test_scaled_identity(self):
        b = HalfIntegralMatrix.diagonal(2, 2)
        assert local_F(2, b).coeffs == (1, 4, 8)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(11)
        forms = reduced_binary_forms(40)
        sample = rng.sample(forms, 12)
        for b in sample:
            for p in (2, 3):
                assert oracle_matches_product(p, b), (p, b)

    def test_oracle_equivalence_p5_nontrivial_det(self):
        b = HalfIntegralMatrix.diagonal(1, 5)  # det 20
        assert oracle_matches_product(5, b)

    def test_xi_and_degree_match_the_fundamental_decomposition(self):
        # local_F reads xi off chi_p and e off expected_degree; the route it
        # gave up writes -det(2T) = D f^2 and takes chi_D(p) and ord_p(f)
        forms = reduced_binary_forms(400)
        assert len(forms) == 936
        for b in forms:
            det2 = b.det_doubled()
            d, f = fundamental_part(-det2)
            for p in factorize(det2):
                assert chi_p(p, -det2) == kronecker(d, p), (p, b)
                assert expected_degree(p, b) == 2 * ord_p(p, f), (p, b)


class TestSizeThree:
    def test_odd_prime_unit_determinant(self):
        for p in (3, 5, 7):
            assert local_F(p, HalfIntegralMatrix.identity(3)).coeffs == (1,)

    def test_identity_at_two(self):
        f = local_F(2, HalfIntegralMatrix.identity(3))
        assert f.degree == 2
        # frame counts in the E8 root lattice force F_2(I_3, 1) = -15
        assert f.evaluate(1) == -15

    def test_division_against_longer_oracle(self):
        # as many extra oracle coefficients beyond the division length as the
        # 2^24-point budget affords (p^(6 j) points for size 3)
        for mat, p in [
            (HalfIntegralMatrix.identity(3), 2),
            (HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 2, 0], [0, 0, 2]]), 3),
            (HalfIntegralMatrix.from_doubled([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), 2),
            (HalfIntegralMatrix.diagonal(1, 1, 2), 2),
        ]:
            f = local_F(p, mat)
            num, _ = gamma_p(p, mat)
            affordable = max(j for j in range(5) if p ** (6 * j) <= 2**24)
            j_max = min(len(num) + f.degree, 4, affordable)
            assert j_max > f.degree  # the check must reach past the division
            series = oracle_bp(p, mat, j_max)
            assert series == tuple(_convolve(num, f.coeffs, j_max + 1)), (p, mat)


class TestInvariants:
    def test_constant_term_one(self):
        for mat in (
            HalfIntegralMatrix.diagonal(4),
            HalfIntegralMatrix.diagonal(2, 6),
            HalfIntegralMatrix.identity(3),
        ):
            for p in (2, 3):
                assert local_F(p, mat).coeffs[0] == 1

    def test_unimodular_invariance(self):
        from test_quadform import random_unimodular

        rng = random.Random(31)
        cases = [
            (2, HalfIntegralMatrix.identity(3)),
            (3, HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 2, 0], [0, 0, 2]])),
            (2, HalfIntegralMatrix.diagonal(1, 2)),
            (5, HalfIntegralMatrix.diagonal(1, 5)),
        ]
        for p, mat in cases:
            ref = local_F(p, mat)
            for _ in range(5):
                u = random_unimodular(rng, n=mat.n)
                assert local_F(p, mat.transform(u)) == ref

    def test_degree_formula(self):
        assert expected_degree(2, HalfIntegralMatrix.identity(3)) == 2
        assert expected_degree(2, HalfIntegralMatrix.diagonal(1, 4)) == 2
        assert expected_degree(3, HalfIntegralMatrix.diagonal(1, 1, 3)) == 1

    def test_degree_factors_det_once(self, monkeypatch):
        # -det(2B) = -36 = -4 * 3^2: one factorization gives both d and f
        calls = []

        def spy(n: int) -> dict[int, int]:
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith, "factorize", spy)
        assert expected_degree(3, HalfIntegralMatrix.diagonal(1, 9)) == 2
        assert calls == [-36]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            oracle_bp(2, HalfIntegralMatrix.identity(3), 5, budget=2**24)

    def test_negative_j_max(self, monkeypatch):
        monkeypatch.setattr(siegelseries, "_character_sum_series", None)
        with pytest.raises(ValueError, match="j_max must be >= 0, got -1"):
            oracle_bp(3, HalfIntegralMatrix.identity(3), -1)


def local_F_star(p, t, x):
    """F_p of the nondegenerate part of a PSD matrix, evaluated at x."""
    return local_F(p, nondeg_part(t)[0]).evaluate(x)


class TestMemo:
    """local_F caches nothing of B and never canonicalizes it: every size-3
    call with degree >= 6 enumerates, degree <= 5 is read off strata of R,
    and B, its sign flips and its permutations agree because the series is a
    GL(Z_p) invariant.  The one cache here is the B-independent level
    table; the cache of rank-3 factors lives in eisen."""

    @pytest.fixture
    def key_calls(self, monkeypatch) -> list:
        calls = []
        key = quadform.canonical_signed_perm

        def spy(b):
            calls.append(b)
            return key(b)

        monkeypatch.setattr(quadform, "canonical_signed_perm", spy)
        monkeypatch.setattr(siegelseries, "canonical_signed_perm", spy, raising=False)
        return calls

    @pytest.fixture
    def enumerations(self, monkeypatch) -> list:
        calls = []
        series = siegelseries._character_sum_series

        def spy(p, b, j_max, budget):
            calls.append((p, b, j_max))
            return series(p, b, j_max, budget)

        monkeypatch.setattr(siegelseries, "_character_sum_series", spy)
        return calls

    def test_closed_forms_skip_the_key(self, key_calls):
        # sizes 1 and 2, then size 3 at degrees 0, 1, 2 and 4
        for b in (
            HalfIntegralMatrix.diagonal(12),
            HalfIntegralMatrix.from_doubled([[4, 1], [1, 6]]),
            HalfIntegralMatrix.identity(3),
            HalfIntegralMatrix.diagonal(1, 1, 4),
        ):
            for p in (2, 3, 23):
                local_F(p, b)
        assert key_calls == []
        assert [expected_degree(p, HalfIntegralMatrix.diagonal(1, 1, 4)) for p in (2, 3)] == [4, 0]

    @staticmethod
    def check_four_calls(key_calls, g33: int, degree: int) -> None:
        """local_F at p = 2 of B, a sign flip, a swap and B again agree, and
        B is never canonicalized."""
        b = HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 2, 0], [0, 0, g33]])
        flipped = b.transform(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
        swapped = b.transform(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        assert len({b, flipped, swapped}) == 3 and expected_degree(2, b) == degree
        values = [local_F(2, m) for m in (b, flipped, swapped, b)]
        assert values[1:] == values[:1] * 3
        assert key_calls == []

    def test_sign_flip_shares_one_entry(self, key_calls, enumerations):
        # det(2B) = 96: degree 4 at p = 2, read off strata with no enumeration
        self.check_four_calls(key_calls, 32, 4)
        assert enumerations == []
        assert [
            name for name, fn in vars(siegelseries).items() if hasattr(fn, "cache_info")
        ] == ["_level_table"]

    def test_degree_six_enumerates_once_per_call(self, key_calls, enumerations):
        # det(2B) = 384: degree 6 at p = 2; no memo of B, so each of the four
        # calls enumerates c_0..c_3
        self.check_four_calls(key_calls, 128, 6)
        assert [(p, j) for p, _, j in enumerations] == [(2, 3)] * 4

    @pytest.mark.parametrize(
        "p, doubled, coeffs",
        [
            (3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], (1,)),
            (19, [[2, 1, 1], [1, 4, 1], [1, 1, 6]], (1, -361)),
            (3, [[0, 1, 0], [1, 0, 0], [0, 0, 6]], (1, 9)),
            (3, [[0, 1, 1], [1, 0, 3], [1, 3, 0]], (1, 9)),
        ],
        ids=["d0", "d1", "d1-indefinite", "d1-zero-diagonal"],
    )
    def test_degree_at_most_one_skips_key_and_memo(
        self, key_calls, enumerations, p, doubled, coeffs
    ):
        b = HalfIntegralMatrix.from_doubled(doubled)
        assert expected_degree(p, b) == len(coeffs) - 1
        assert local_F(p, b).coeffs == coeffs
        assert key_calls == [] and enumerations == []


class TestBudgetValidation:
    """A budget below 1 is a ValueError on every route, before any is chosen."""

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize(
        "b",
        [
            HalfIntegralMatrix.diagonal(6),
            HalfIntegralMatrix.diagonal(1, 1),
            HalfIntegralMatrix.identity(3),
            HalfIntegralMatrix.diagonal(1, 1, 3),
        ],
        ids=["size1", "size2", "size3-d0", "size3-d1"],
    )
    def test_local_F_and_oracle(self, b, budget):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            local_F(3, b, budget)
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            oracle_bp(3, b, 0, budget)


class TestLocalFStar:
    def test_constant_term_at_zero(self):
        assert local_F_star(2, HalfIntegralMatrix.identity(3), 0) == 1

    def test_degenerate_part_reduction(self):
        from eiscong.quadform import build_T

        t = build_T(1, HalfIntegralMatrix.identity(2), (2, 0))  # rank 2, det 4
        assert local_F_star(2, t, Fraction(2) ** 11) == 1

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            local_F_star(2, HalfIntegralMatrix.from_doubled([[0, 0], [0, 0]]), 1)


class TestDivisorSumIdentity:
    def test_degree_one_eisenstein_factor(self):
        # 2 * prod_{p | 2t} F_p((t), p^(k-2)) = 2 sigma_{k-1}(t)
        for k in (8, 10, 12, 16):
            for t in range(1, 51):
                b = HalfIntegralMatrix.diagonal(t)
                prod = Fraction(1)
                for p in factorize(2 * t):
                    prod *= local_F_star(p, b, Fraction(p) ** (k - 2))
                assert 2 * prod == 2 * divisor_power_sum(t, k - 1), (k, t)
