"""Tests for the two-variable Gegenbauer polynomials and binary forms.

The integer coefficients are checked against a test-local copy of the
rational closed form they replaced (Pochhammer terms over factorials), and
against the generating function.  The integer route behind
`pullback.epsilon` and `cohen_series` is checked, through its one-row case
`eval_binary` (kept here), against test-local copies of the rational routes
it replaced: dense Fraction powers of the specialized forms, and
term-by-term `BivariatePoly.evaluate`.  The per-row integer route that the
weighted row sum in `pullback.epsilon` replaced is kept here as well,
checked against the rational one, and is the oracle for that weighted sum.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eiscong import gegenbauer
from eiscong.arith import cohen_h
from eiscong.errors import BudgetExceeded
from eiscong.gegenbauer import (
    BinaryForm,
    BivariatePoly,
    _integer_coeffs,
    _specialization_sum,
)
from eiscong.pullback import epsilon
from eiscong.qexp import cohen_series, default_precision
from eiscong.quadform import HalfIntegralMatrix
from test_arith import pochhammer

I2 = HalfIntegralMatrix.identity(2)
ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


def gegenbauer_poly(d: int, nu: int) -> BivariatePoly:
    """P_{d,nu} for even d >= 4, from the integer coefficients of `_integer_coeffs`."""
    terms, _ = _integer_coeffs(d, nu)
    return BivariatePoly(nu, tuple(((i, j), c) for i, j, c in terms))


def eval_binary(
    d: int,
    nu: int,
    r_pair: tuple[int, int],
    n: int,
    quad: HalfIntegralMatrix,
) -> BinaryForm:
    """Specialize P_{d,nu} at s = (r1 x + r2 y)/2 and m = n * (x y) Q (x y)^t.

    `quad` is the 2x2 half-integral matrix of the quadratic form; the result
    is a homogeneous binary form of degree nu: the one-row, weight-1 case of
    `_specialization_sum`, each of its nu + 1 coefficients divided by den.
    """
    total, den = _specialization_sum(d, nu, n, quad, [(1, r_pair)])
    return BinaryForm(nu, tuple(Fraction(c, den) for c in total))


def gegenbauer_fraction(d: int, nu: int) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """The rational closed form of P_{d,nu}: s^(nu-2mu) m^mu carries
    (-1)^mu (d/2-1)_(nu-mu) 2^(nu-2mu) / ((nu-2mu)! mu!), as Fractions."""
    base = Fraction(d, 2) - 1
    return tuple(
        (
            (nu - 2 * mu, mu),
            (-1) ** mu
            * pochhammer(base, nu - mu)
            * 2 ** (nu - 2 * mu)
            / (factorial(nu - 2 * mu) * factorial(mu)),
        )
        for mu in range(nu // 2 + 1)
    )


def binary_pow(base: tuple[Fraction, ...], deg: int, e: int) -> tuple[Fraction, ...]:
    """e-th power of a homogeneous form given as a dense coefficient tuple."""
    out = (Fraction(1),)
    out_deg = 0
    for _ in range(e):
        new = [Fraction(0)] * (out_deg + deg + 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j, b in enumerate(base):
                new[i + j] += a * b
        out = tuple(new)
        out_deg += deg
    return out


def eval_binary_fraction(d, nu, r_pair, n, quad) -> tuple[Fraction, ...]:
    """The rational route: s and m as Fraction forms, powers multiplied
    term by term and weighted by the rational coefficients of P_{d,nu}."""
    g = quad.doubled
    lin = (Fraction(r_pair[0], 2), Fraction(r_pair[1], 2))
    quad_coeffs = (Fraction(n * g[0][0], 2), Fraction(n * g[0][1]), Fraction(n * g[1][1], 2))
    total = [Fraction(0)] * (nu + 1)
    for (i, j), c in gegenbauer_fraction(d, nu):
        part = binary_pow(lin, 1, i)
        if j:
            qpow = binary_pow(quad_coeffs, 2, j)
            merged = [Fraction(0)] * (i + 2 * j + 1)
            for a, ca in enumerate(part):
                for b, cb in enumerate(qpow):
                    merged[a + b] += ca * cb
            part = tuple(merged)
        for idx, val in enumerate(part):
            total[idx] += c * val
    return tuple(total)


def _convolve_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eval_binary_per_row(d, nu, r_pair, n, quad) -> BinaryForm:
    """The earlier integer `eval_binary`: the powers of u and w of one row
    convolved term by term, each coefficient divided by den once."""
    g = quad.doubled
    terms = gegenbauer_fraction(d, nu)
    scale = lcm(*(c.denominator for _, c in terms))
    den = scale << nu
    u = list(r_pair)
    w = [2 * n * g[0][0], 4 * n * g[0][1], 2 * n * g[1][1]]
    u_pows, w_pows = [[1]], [[1]]
    for _ in range(nu):
        u_pows.append(_convolve_int(u_pows[-1], u))
    for _ in range(nu // 2):
        w_pows.append(_convolve_int(w_pows[-1], w))
    total = [0] * (nu + 1)
    for (i, j), c in terms:
        num = c.numerator * (scale // c.denominator)
        for idx, val in enumerate(_convolve_int(u_pows[i], w_pows[j])):
            total[idx] += num * val
    return BinaryForm(nu, tuple(Fraction(c, den) for c in total))


def cohen_series_fraction(k: int, r: int, prec: int) -> tuple[Fraction, ...]:
    """Coefficients of cohen_series by evaluating P(t/2, m) in Fractions."""
    poly = BivariatePoly(k - r - 1, gegenbauer_fraction(2 * r + 2, k - r - 1))
    out = []
    for m in range(prec + 1):
        tmax = isqrt(4 * m)
        total = Fraction(0)
        for t in range(-tmax, tmax + 1):
            h = cohen_h(r, 4 * m - t * t)
            if h:
                total += poly.evaluate(Fraction(t, 2), m) * h
        out.append(total)
    return tuple(out)


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
        for d in (4, 6, 28):
            p = gegenbauer_poly(d, 0)
            assert p.evaluate(7, 11) == 1

    def test_nu_one(self):
        for d in (4, 6, 8, 28):
            p = gegenbauer_poly(d, 1)
            s = Fraction(3, 7)
            assert p.evaluate(s, 5) == (d - 2) * s

    def test_d4_nu2(self):
        # coefficient of t^2 in (1 - 2st + mt^2)^(-1) is 4s^2 - m
        assert dict(gegenbauer_poly(4, 2).coeffs) == {(2, 0): 4, (0, 1): -1}

    def test_d28_nu2(self):
        assert dict(gegenbauer_poly(28, 2).coeffs) == {(2, 0): 364, (0, 1): -13}

    def test_parity(self):
        s, m = Fraction(5, 3), Fraction(-2, 7)
        for nu in range(13):
            p = gegenbauer_poly(10, nu)
            assert p.evaluate(-s, m) == (-1) ** nu * p.evaluate(s, m)

    @pytest.mark.parametrize("d", range(4, 53, 2))
    def test_even_d_coefficients_are_integers(self, d):
        # every (d, nu) that epsilon (d = 2k) and cohen_series (d = 2r + 2)
        # reach on weights <= 26: the integer coefficients equal the rational
        # closed form, and den = 2^nu
        for nu in range(27):
            expected = gegenbauer_fraction(d, nu)
            assert gegenbauer_poly(d, nu).coeffs == expected, nu
            terms, den = _integer_coeffs(d, nu)
            assert den == 2**nu
            assert [((i, j), c) for i, j, c in terms] == list(expected), nu
            assert all(type(c) is int for _, _, c in terms), nu

    @pytest.mark.parametrize("d", [2, 3, 5, 9])
    def test_rejects_d_not_even_at_least_four(self, d):
        with pytest.raises(ValueError, match="need even d >= 4"):
            gegenbauer_poly(d, 2)
        with pytest.raises(ValueError, match="need even d >= 4"):
            _specialization_sum(d, 2, 1, I2, [(1, (1, 0))])
        with pytest.raises(ValueError, match="need even d >= 4"):
            eval_binary(d, 2, (1, 0), 1, I2)

    def test_degree_bound_is_inclusive(self, monkeypatch):
        # shrunk here: at the real bound, epsilon(14, nu, 1, I) takes about a second
        monkeypatch.setattr(gegenbauer, "_GEGENBAUER_DEGREE", 12)
        assert gegenbauer_poly(28, 12).coeffs == gegenbauer_fraction(28, 12)
        message = "P_\\(d,nu\\) of degree nu = 14 is past the bound of 12"
        with pytest.raises(BudgetExceeded, match=message):
            _integer_coeffs(28, 14)
        # epsilon (d = 2k) and cohen_series (d = 2r + 2, nu = k - r - 1) share it
        with pytest.raises(BudgetExceeded, match=message):
            epsilon(14, 14, 1, I2)
        with pytest.raises(BudgetExceeded, match=message):
            cohen_series(18, 3, 2)
        assert cohen_series(16, 3, 2).coeffs == cohen_series_fraction(16, 3, 2)

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
        for d in range(4, 53, 2):
            for _ in range(5):
                s = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                m = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                assert generating_check(d, 24, s, m), (d, s, m)

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
        assert not any(form.coeffs)

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


class TestIntegerRoute:
    @ORACLE
    @example(d=4, nu=9, r_pair=(3, -2), n=5, g=(0, 0, 0))
    @example(d=38, nu=24, r_pair=(0, 0), n=1, g=(0, 0, 0))
    @given(
        d=st.integers(2, 20).map(lambda h: 2 * h),
        nu=st.integers(0, 24),
        r_pair=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        n=st.integers(1, 12),
        g=st.tuples(st.integers(-4, 4), st.integers(-6, 6), st.integers(-4, 4)),
    )
    def test_eval_binary_matches_fraction_route(self, d, nu, r_pair, n, g):
        # any doubled 2x2 N: definite, indefinite, degenerate and zero
        quad = HalfIntegralMatrix.from_doubled([[2 * g[0], g[1]], [g[1], 2 * g[2]]])
        form = eval_binary(d, nu, r_pair, n, quad)
        assert form.coeffs == eval_binary_fraction(d, nu, r_pair, n, quad)
        # the per-row route is the oracle for the weighted sum in epsilon
        assert eval_binary_per_row(d, nu, r_pair, n, quad) == form

    @ORACLE
    @example(d=28, nu=2, rows=[(0, (0, 0)), (-(10**30), (1, 0)), (10**30, (0, 1))], n=1, g=(1, 0, 1))
    @example(d=4, nu=9, rows=[(7, (0, 0)), (0, (3, -2)), (-(10**30), (3, -2))], n=5, g=(2, 1, 3))
    @given(
        d=st.integers(2, 20).map(lambda h: 2 * h),
        nu=st.integers(0, 16),
        rows=st.lists(
            st.tuples(
                st.integers(-(10**30), 10**30),
                st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
            ),
            max_size=8,
        ),
        n=st.integers(1, 12),
        g=st.tuples(st.integers(-4, 4), st.integers(-6, 6), st.integers(-4, 4)),
    )
    def test_weighted_sum_matches_per_row_sum(self, d, nu, rows, n, g):
        quad = HalfIntegralMatrix.from_doubled([[2 * g[0], g[1]], [g[1], 2 * g[2]]])
        total, den = _specialization_sum(d, nu, n, quad, rows)
        expected = BinaryForm(nu, (Fraction(0),) * (nu + 1))
        for weight, r_pair in rows:
            expected = expected + weight * eval_binary_per_row(d, nu, r_pair, n, quad)
        assert BinaryForm(nu, tuple(Fraction(c, den) for c in total)) == expected

    @pytest.mark.parametrize("d", [4, 28])
    def test_weighted_sum_of_no_rows_is_zero(self, d):
        total, den = _specialization_sum(d, 4, 1, I2, [])
        assert total == [0] * 5 and den > 0

    @pytest.mark.parametrize("k", range(4, 31, 2))
    def test_cohen_series_every_r_matches_fraction_route(self, k):
        # every odd r with 3 <= r <= k - 1: cusp forms and, at r = k - 1,
        # the Eisenstein part too
        prec = default_precision(k)
        for r in range(3, k, 2):
            assert cohen_series(k, r, prec).coeffs == cohen_series_fraction(k, r, prec), r


class TestBinaryForm:
    def test_arithmetic(self):
        a = BinaryForm(1, (Fraction(1), Fraction(2)))
        b = BinaryForm(1, (Fraction(3), Fraction(-2)))
        assert (a + b).coeffs == (Fraction(4), Fraction(0))
        assert (3 * a).coeffs == (Fraction(3), Fraction(6))

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            BinaryForm(2, (Fraction(1),))
        with pytest.raises(ValueError):
            BinaryForm(1, (Fraction(1), Fraction(1))) + BinaryForm(2, (Fraction(0),) * 3)
