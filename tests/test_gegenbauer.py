"""Tests for the two-variable Gegenbauer polynomials and binary forms."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from eiscong.gegenbauer import BinaryForm, eval_binary, gegenbauer_poly
from eiscong.quadform import HalfIntegralMatrix

I2 = HalfIntegralMatrix.identity(2)


def generating_check(
    d: int, nu_max: int, s: Fraction | int, m: Fraction | int
) -> bool:
    """Compare the closed-form values against the formal generating series.

    For even d the exponent (d-2)/2 is a non-negative integer, so
    (1 - u)^(-(d-2)/2) with u = 2st - mt^2 expands by the plain binomial
    series; the coefficient of t^nu evaluated at (s, m) must match
    gegenbauer_poly(d, nu)(s, m) for every nu <= nu_max.
    """
    if d % 2 or d < 4:
        raise ValueError("generating series oracle needs even d >= 4")
    s, m = Fraction(s), Fraction(m)
    alpha = (d - 2) // 2
    # series[n] = coefficient of t^n in (1 - 2st + mt^2)^(-alpha)
    series = [Fraction(0)] * (nu_max + 1)
    for i in range(nu_max + 1):
        binom = Fraction(comb(alpha - 1 + i, i))
        # (2st - mt^2)^i contributes to t^(i+l) via C(i, l) (2s)^(i-l) (-m)^l
        for l in range(i + 1):
            n = i + l
            if n > nu_max:
                break
            series[n] += binom * comb(i, l) * (2 * s) ** (i - l) * (-m) ** l
    return all(
        series[nu] == gegenbauer_poly(d, nu).evaluate(s, m)
        for nu in range(nu_max + 1)
    )


class TestClosedForm:
    def test_nu_zero(self):
        for d in (3, 4, 28):
            p = gegenbauer_poly(d, 0)
            assert p.evaluate(7, 11) == 1

    def test_nu_one(self):
        for d in (3, 5, 8, 28):
            p = gegenbauer_poly(d, 1)
            s = Fraction(3, 7)
            assert p.evaluate(s, 5) == (d - 2) * s

    def test_d4_nu2(self):
        # coefficient of t^2 in (1 - 2st + mt^2)^(-1) is 4s^2 - m
        p = gegenbauer_poly(4, 2)
        assert p.coefficient(2, 0) == 4
        assert p.coefficient(0, 1) == -1

    def test_d28_nu2(self):
        p = gegenbauer_poly(28, 2)
        assert p.coefficient(2, 0) == 364
        assert p.coefficient(0, 1) == -13

    def test_parity(self):
        s, m = Fraction(5, 3), Fraction(-2, 7)
        for nu in range(13):
            p = gegenbauer_poly(9, nu)
            assert p.evaluate(-s, m) == (-1) ** nu * p.evaluate(s, m)

    def test_isobaric_support(self):
        for d, nu in ((6, 5), (28, 8)):
            p = gegenbauer_poly(d, nu)
            assert all(i + 2 * j == nu for (i, j), c in p.coeffs if c)


class TestGeneratingFunction:
    def test_small_samples(self):
        assert generating_check(4, 3, 1, 1)
        assert generating_check(28, 2, Fraction(1, 2), 1)

    def test_nu_max_zero(self):
        assert generating_check(10, 0, Fraction(9, 4), Fraction(-3))

    def test_random_rational_samples(self):
        rng = random.Random(99)
        for d in range(4, 33, 2):
            for _ in range(5):
                s = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                m = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                assert generating_check(d, 6, s, m), (d, s, m)

    def test_rejects_odd_d(self):
        with pytest.raises(ValueError):
            generating_check(5, 2, 1, 1)


class TestEvalBinary:
    def test_nu_zero_constant(self):
        form = eval_binary(28, 0, (3, -1), 2, I2)
        assert form.degree == 0 and form.coeffs == (Fraction(1),)

    def test_d28_nu2_identity(self):
        # 364 ((r1 x + r2 y)/2)^2 - 13 (x^2 + y^2)
        for r in ((1, 0), (2, -1)):
            form = eval_binary(28, 2, r, 1, I2)
            for x, y in ((1, 0), (0, 1), (2, 3)):
                s = Fraction(r[0] * x + r[1] * y, 2)
                assert form.evaluate(x, y) == 364 * s**2 - 13 * (x * x + y * y)

    def test_zero_row_odd_degree(self):
        form = eval_binary(28, 3, (0, 0), 1, I2)
        assert form.is_zero()

    def test_homogeneity(self):
        rng = random.Random(5)
        n_mat = HalfIntegralMatrix.from_doubled([[2, 1], [1, 4]])
        for nu in (2, 4, 8):
            form = eval_binary(16, nu, (1, -2), 3, n_mat)
            x, y = Fraction(rng.randrange(1, 9)), Fraction(rng.randrange(1, 9))
            lam = Fraction(rng.randrange(2, 7))
            assert form.evaluate(lam * x, lam * y) == lam**nu * form.evaluate(x, y)

    def test_evaluation_at_origin(self):
        form = eval_binary(28, 2, (1, 1), 1, I2)
        assert form.evaluate(0, 0) == 0


class TestBinaryForm:
    def test_arithmetic(self):
        a = BinaryForm(1, (Fraction(1), Fraction(2)))
        b = BinaryForm(1, (Fraction(3), Fraction(-2)))
        assert (a + b).coeffs == (Fraction(4), Fraction(0))
        assert (3 * a).coeffs == (Fraction(3), Fraction(6))
        assert BinaryForm.zero(4).is_zero()

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            BinaryForm(2, (Fraction(1),))
        with pytest.raises(ValueError):
            BinaryForm(1, (Fraction(1), Fraction(1))) + BinaryForm.zero(2)
