"""Tests for the exact scalar arithmetic layer.

Derived expected values are produced by independent oracles implemented in
this file (binomial recurrence for Bernoulli numbers, Euler-criterion
Legendre symbols, direct finite character sums) and frozen as literals, or
compared live (reduced binary forms for Hurwitz class numbers, Cohen's
divisor sum term by term); sympy is the oracle for Bernoulli numbers, factorization, Kronecker symbols
and primality.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, isqrt, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import kronecker_symbol

from eiscong import arith
from eiscong.arith import (
    DiscriminantChar,
    _is_probable_prime,
    _square_class,
    bernoulli,
    cohen_h,
    divisor_power_sum,
    divisors,
    factorize,
    gen_bernoulli,
    is_fundamental_discriminant,
    kronecker,
    l_value_neg,
    ord_p,
    zeta_neg,
)
from eiscong.errors import BudgetExceeded

TRIVIAL_CHAR = DiscriminantChar(1)


def bernoulli_poly(r: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_r(x) = sum_i C(r, i) B_i x^(r-i)."""
    return sum(
        (comb(r, i) * bernoulli(i) * x ** (r - i) for i in range(r + 1)),
        Fraction(0),
    )


def bernoulli_oracle_values(n: int) -> list[Fraction]:
    """B_0..B_n by the binomial-sum recurrence, independent of the library's
    tangent-number scheme."""
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(comb(m + 1, j) * vals[j] for j in range(m))
        vals.append(-s / (m + 1))
    return vals


def bernoulli_oracle(n: int) -> Fraction:
    return bernoulli_oracle_values(n)[n]


def legendre_oracle(a: int, p: int) -> int:
    """Euler's criterion for odd primes."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class TestBernoulli:
    def test_base_case(self):
        assert bernoulli(0) == 1

    def test_first_convention(self):
        assert bernoulli(1) == bernoulli_oracle(1) == Fraction(-1, 2)

    def test_b12(self):
        assert bernoulli(12) == bernoulli_oracle(12) == Fraction(-691, 2730)

    def test_recurrence_residual(self):
        for n in range(1, 41):
            assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0

    def test_odd_vanishing(self):
        assert all(bernoulli(n) == 0 for n in range(3, 41, 2))

    @pytest.mark.parametrize("steps", [(200,), (10, 47, 200)], ids=["one-shot", "grown"])
    def test_table_matches_the_oracle_past_sympy(self, monkeypatch, steps):
        """B_0..B_200 from a fresh table, built at once or grown in steps;
        sympy's check below stops at 120.  The table's numerators over its
        common denominator are the same rationals."""
        monkeypatch.setattr(arith, "_bernoulli_cache", ((), (), 1))
        for n in steps:
            bernoulli(n)
        values, nums, den = arith._bernoulli_cache
        assert len(values) == 201
        assert [bernoulli(n) for n in range(201)] == bernoulli_oracle_values(200)
        assert [Fraction(x, den) for x in nums] == list(values)

    def test_index_bound_is_inclusive_and_caps_the_doubling(self, monkeypatch):
        # shrunk here: the table to the real bound takes about a second
        monkeypatch.setattr(arith, "_bernoulli_cache", ((), (), 1))
        monkeypatch.setattr(arith, "_BERNOULLI_INDEX", 50)
        bernoulli(30)
        # 31 entries would double to 62; the rebuild stops at B_50
        assert bernoulli(40) == bernoulli_oracle(40)
        assert len(arith._bernoulli_cache[0]) == 51
        assert bernoulli(50) == bernoulli_oracle(50)
        with pytest.raises(BudgetExceeded, match="B_51 is past the index bound of 50"):
            bernoulli(51)
        # zeta_neg reads the same table, and a refusal leaves it as it was
        with pytest.raises(BudgetExceeded, match="B_52 is past the index bound of 50"):
            zeta_neg(52)
        assert len(arith._bernoulli_cache[0]) == 51


class TestZetaNeg:
    def test_k2(self):
        assert zeta_neg(2) == -bernoulli_oracle(2) / 2 == Fraction(-1, 12)

    def test_k12(self):
        # -B_12/12 with B_12 = -691/2730 is positive
        assert zeta_neg(12) == -bernoulli_oracle(12) / 12 == Fraction(691, 32760)

    def test_k26(self):
        # arises as zeta(3 - 2k) for k = 14
        assert zeta_neg(26) == -bernoulli_oracle(26) / 26 == Fraction(-657931, 12)

    def test_rejects(self):
        with pytest.raises(ValueError):
            zeta_neg(3)
        with pytest.raises(ValueError):
            zeta_neg(0)


class TestKronecker:
    def test_unit_argument(self):
        for d in (-7, -4, -3, 1, 5, 8, 12):
            assert kronecker(d, 1) == 1

    def test_minus_four_at_three(self):
        assert kronecker(-4, 3) == -1

    def test_minus_three_at_two(self):
        # -3 = 5 mod 8, so (-3/2) = -1
        assert kronecker(-3, 2) == -1

    def test_matches_legendre_at_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 97):
            for a in range(-30, 31):
                if a == 0:
                    continue
                assert kronecker(a, p) == legendre_oracle(a, p), (a, p)

    def test_lower_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randrange(-50, 51)
            m = rng.randrange(1, 60)
            n = rng.randrange(1, 60)
            assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    def test_at_two(self):
        assert [kronecker(a, 2) for a in (1, 3, 5, 7)] == [1, -1, -1, 1]
        assert kronecker(4, 2) == 0


def fundamental_part(m: int) -> tuple[int, int]:
    """(d, f) with m = d f^2 and d a fundamental discriminant (1 for
    squares), from the one split `arith._square_class`."""
    d, f = _square_class(m)
    return d, prod(p**a for p, a in f.items())


class TestFundamentalDecomposition:
    def test_already_fundamental(self):
        d, f = fundamental_part(-4)
        assert (d, f) == (-4, 1)

    def test_square_part(self):
        d, f = fundamental_part(-12)
        assert (d, f) == (-3, 2)

    def test_real_field(self):
        d, f = fundamental_part(8)
        assert (d, f) == (8, 1)

    def test_perfect_square(self):
        d, f = fundamental_part(16)
        assert (d, f) == (1, 4)

    def test_rejects(self):
        with pytest.raises(ValueError):
            fundamental_part(0)
        with pytest.raises(ValueError):
            fundamental_part(3)

    def test_roundtrip(self):
        for m in range(-200, 201):
            if m == 0 or m % 4 not in (0, 1):
                continue
            d, f = fundamental_part(m)
            assert d * f * f == m
            assert is_fundamental_discriminant(d)

    def test_against_sympy_factorint(self):
        # d is fundamental when d = 1 mod 4 is squarefree, or d = 4s with
        # s = 2, 3 mod 4 squarefree; squarefreeness is read off sympy
        def squarefree(x: int) -> bool:
            return all(e == 1 for e in sympy.factorint(x).values())

        def fundamental(d: int) -> bool:
            return (d % 4 == 1 and squarefree(d)) or (
                d % 4 == 0 and d // 4 % 4 in (2, 3) and squarefree(d // 4)
            )

        for m in [m for m in range(-3000, 3001) if m]:
            assert is_fundamental_discriminant(m) == fundamental(m), m
            if m % 4 in (0, 1):
                d, f = fundamental_part(m)
                assert d * f * f == m and f >= 1 and fundamental(d), m

    def test_field_discriminant(self):
        # the fundamental part of m = 0, 1 mod 4 is the discriminant of Q(sqrt m)
        assert fundamental_part(-4)[0] == -4
        assert fundamental_part(-36)[0] == -4
        assert fundamental_part(12)[0] == 12
        assert fundamental_part(9)[0] == 1


class TestDiscriminantChar:
    def test_vanishing_on_common_factor(self):
        chi = DiscriminantChar(-4)
        assert chi(2) == 0 and chi(6) == 0

    def test_periodicity(self):
        chi = DiscriminantChar(-3)
        for n in range(1, 50):
            assert chi(n) == chi(n + 3)

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            DiscriminantChar(20)  # 20 = 4 * 5 with 5 = 1 mod 4, so 5 is the disc
        with pytest.raises(ValueError):
            DiscriminantChar(-12)


class TestGenBernoulli:
    def test_chi_minus_four_r1(self):
        # direct finite sum: (1/4)(chi(1)*B_1(1/4)-ish) collapses to -1/2
        chi = DiscriminantChar(-4)
        assert gen_bernoulli(1, chi) == Fraction(-1, 2)
        assert l_value_neg(1, chi) == Fraction(1, 2)

    def test_trivial_character_degeneration(self):
        for r in range(2, 12):
            assert gen_bernoulli(r, TRIVIAL_CHAR) == bernoulli_oracle(r)

    def test_trivial_r_even_matches_zeta(self):
        for r in range(2, 16, 2):
            assert l_value_neg(r, TRIVIAL_CHAR) == zeta_neg(r)

    def test_chi_minus_three_r3(self):
        # hand value: B_{3,chi_{-3}} = 9*(B_3(1/3) - B_3(2/3)) = 2/3
        chi = DiscriminantChar(-3)
        assert gen_bernoulli(3, chi) == Fraction(2, 3)
        assert l_value_neg(3, chi) == Fraction(-2, 9)

    def test_matches_bernoulli_polynomial_sum(self):
        for d in range(-100, 101):
            if d == 0 or not is_fundamental_discriminant(d):
                continue
            chi = DiscriminantChar(d)
            for r in range(1, 13):
                assert gen_bernoulli(r, chi) == gen_bernoulli_direct(r, chi), (d, r)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_any_call_order_from_a_cleared_table(self, order, monkeypatch):
        # gen_bernoulli's body, past its lru_cache, on an empty power-sum
        # table: a larger r extends a character's entry, a smaller r reads it
        monkeypatch.setattr(arith, "_power_sums", {})
        calls = [(r, d) for d in (1, -3, -4, 5, 8, -23, 12, -84, 85, -419) for r in range(1, 17)]
        if order == "shuffled":
            random.Random(29).shuffle(calls)
        else:
            calls.sort(reverse=order == "descending")
        for r, d in calls:
            chi = DiscriminantChar(d)
            assert gen_bernoulli.__wrapped__(r, chi) == gen_bernoulli_direct(r, chi), (d, r)
        # only nontrivial characters of the right parity reach the table, each
        # through the largest r of that parity
        assert {chi.d: len(sums) for chi, sums in arith._power_sums.items()} == {
            d: 16 + (d > 0) for d in (-3, -4, 5, 8, -23, 12, -84, 85, -419)
        }

    def test_parity_vanishing(self):
        for d in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35, -39, -40):
            chi = DiscriminantChar(d)
            for r in range(2, 21, 2):
                assert gen_bernoulli(r, chi) == 0, (d, r)
        for d in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40):
            chi = DiscriminantChar(d)
            for r in range(1, 21, 2):
                assert gen_bernoulli(r, chi) == 0, (d, r)

    def test_term_bound_is_inclusive_and_checked_before_the_sieve(self, monkeypatch):
        # chi_{-23} at r = 3 takes (23 - 1)/2 (3 + 1) = 44 terms
        chi = DiscriminantChar(-23)
        sieves = []
        values = arith._character_values
        monkeypatch.setattr(
            arith, "_character_values", lambda c, h: sieves.append(h) or values(c, h)
        )
        monkeypatch.setattr(arith, "_power_sums", {})
        monkeypatch.setattr(arith, "_L_VALUE_TERMS", 43)
        message = "conductor 23 at r = 3 needs 44 terms, past the bound of 43"
        with pytest.raises(BudgetExceeded, match=message):
            gen_bernoulli.__wrapped__(3, chi)
        assert sieves == [] and arith._power_sums == {}
        # a vanishing B_{r,chi} needs no terms, so the bound never applies
        assert gen_bernoulli.__wrapped__(4, chi) == 0
        monkeypatch.setattr(arith, "_L_VALUE_TERMS", 44)
        assert gen_bernoulli.__wrapped__(3, chi) == gen_bernoulli_direct(3, chi)
        assert sieves == [11]


def gen_bernoulli_direct(r: int, chi: DiscriminantChar) -> Fraction:
    """The defining sum m^(r-1) sum_a chi(a) B_r(a/m), which the library
    evaluates with the sums swapped."""
    m = chi.conductor
    return m ** (r - 1) * sum(
        (chi(a) * bernoulli_poly(r, Fraction(a, m)) for a in range(1, m + 1)), Fraction(0)
    )


def gen_bernoulli_fraction(r: int, chi: DiscriminantChar) -> Fraction:
    """sum_i C(r, i) B_i m^(i-1) S_(r-i) in Fractions, with each power sum
    S_j = sum_a chi(a) a^j taken on its own."""
    m = chi.conductor
    values = [chi(a) for a in range(1, m + 1)]
    return sum(
        (
            comb(r, i)
            * bernoulli(i)
            * Fraction(m) ** (i - 1)
            * sum(v * a ** (r - i) for a, v in enumerate(values, 1) if v)
            for i in range(r + 1)
        ),
        Fraction(0),
    )


FUNDAMENTAL_400 = [d for d in range(-400, 401) if d and is_fundamental_discriminant(d)]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from(FUNDAMENTAL_400), st.integers(1, 25))
@example(1, 1)
@example(1, 25)
@example(-4, 1)
@example(-399, 25)
# half ranges a < m/2 of length 1, 1 and 3
@example(-3, 1)
@example(-3, 25)
@example(-4, 3)
@example(-8, 1)
@example(-8, 5)
# even characters at even r
@example(5, 2)
@example(8, 4)
@example(12, 6)
# conductors far beyond the sample: the fold, then the parity zero
@example(-3999, 25)
@example(4001, 25)
def test_gen_bernoulli_matches_the_fraction_sum(d, r):
    chi = DiscriminantChar(d)
    assert gen_bernoulli(r, chi) == gen_bernoulli_fraction(r, chi), (d, r)


def moebius(n: int) -> int:
    if n <= 0:
        raise ValueError("moebius needs n >= 1")
    f = factorize(n) if n > 1 else {}
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def cohen_tail_divisor_sum(r: int, chi: DiscriminantChar, f: int) -> int:
    """sum_{e | f} mu(e) chi(e) e^(r-1) sigma_{2r-1}(f/e), term by term over
    the divisors of f (the library takes the Euler product)."""
    return sum(
        moebius(e) * chi(e) * e ** (r - 1) * divisor_power_sum(f // e, 2 * r - 1)
        for e in divisors(f)
    )


def hurwitz_class_numbers(n_max: int) -> list[Fraction]:
    """H(N) for 0 < N <= n_max by counting reduced forms (a, b, c) of
    discriminant b^2 - 4ac = -N: |b| <= a <= c, with b >= 0 when |b| = a or
    a = c.  a(x^2 + y^2) counts 1/2 and a(x^2 + xy + y^2) counts 1/3."""
    sixths = [0] * (n_max + 1)
    for a in range(1, isqrt(n_max // 3) + 1):
        for b in range(-a, a + 1):
            c = a
            while (n := 4 * a * c - b * b) <= n_max:
                if b >= 0 or (-b != a and a != c):
                    sixths[n] += 3 if b == 0 and a == c else 2 if b == a == c else 6
                c += 1
    return [Fraction(x, 6) for x in sixths]


# N <= 5000 with N = 0, 3 mod 4 and -N = d f^2 for some f > 1
NON_FUNDAMENTAL_5000 = [
    n for n in range(3, 5001) if n % 4 in (0, 3) and fundamental_part(-n)[1] > 1
]


class TestCohenH:
    def test_n_zero(self):
        for r in (1, 2, 5, 13):
            assert cohen_h(r, 0) == zeta_neg(2 * r)

    def test_vanishing_residues(self):
        for n in range(1, 201):
            if n % 4 in (1, 2):
                for r in (1, 3, 13):
                    assert cohen_h(r, n) == 0
            else:
                assert cohen_h(13, n) != 0

    def test_fundamental_case(self):
        assert cohen_h(13, 3) == l_value_neg(13, DiscriminantChar(-3))
        assert cohen_h(13, 4) == l_value_neg(13, DiscriminantChar(-4))

    def test_non_fundamental_divisor_sum(self):
        # -16 = -4 * 2^2, so the f = 2 correction applies
        chi = DiscriminantChar(-4)
        r = 5
        expected = l_value_neg(r, chi) * (
            divisor_power_sum(2, 2 * r - 1) - chi(2) * 2 ** (r - 1)
        )
        assert cohen_h(r, 16) == expected

    def test_class_number_oracle(self):
        # H(1, N) is the Hurwitz class number
        hurwitz = hurwitz_class_numbers(3000)
        assert [n for n in range(1, 3001) if cohen_h(1, n) != hurwitz[n]] == []

    def test_one_factorization_per_miss(self, monkeypatch):
        # -3675 = -3 * 35^2: the split of -N gives d and the primes of f, and
        # the character of the fundamental d = -3 is built without factoring
        # d again
        calls = []

        def spy(n: int) -> dict[int, int]:
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith, "factorize", spy)
        value = cohen_h.__wrapped__(11, 3675)
        assert calls == [-3675]
        chi = DiscriminantChar(-3)
        assert value == l_value_neg(11, chi) * cohen_tail_divisor_sum(11, chi, 35)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(NON_FUNDAMENTAL_5000), st.integers(1, 25))
    # f = 2^3, 3^2, 5 * 7 and 3 * 5 * 7
    @example(3 * 2**6, 25)
    @example(4 * 3**4, 24)
    @example(3 * 5**2 * 7**2, 13)
    @example(4 * 3**2 * 5**2 * 7**2, 25)
    def test_tail_matches_the_divisor_sum(self, n, r):
        d, f = fundamental_part(-n)
        chi = DiscriminantChar(d)
        assert cohen_h(r, n) == l_value_neg(r, chi) * cohen_tail_divisor_sum(r, chi, f)


def pochhammer(x: int | Fraction, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); the empty product is 1.

    For x = a/b this is prod (a + i b) / b^n, an integer product and one
    division.  No computation of the package uses it: it is the oracle of
    the rational Gegenbauer closed form in test_gegenbauer.
    """
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return Fraction(prod(a + i * b for i in range(n)), b**n)


def pochhammer_fraction(x: int | Fraction, n: int) -> Fraction:
    """The earlier pochhammer: a running product of n Fractions."""
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(x) + i
    return out


class TestPochhammerOracle:
    @pytest.mark.parametrize(
        "x",
        [0, 1, 2, 13, -1, -3, -8]
        + [Fraction(a, 2) for a in (1, -1, 3, -5, 13, -13, 27)]
        + [Fraction(2, 3), Fraction(-7, 12)],
    )
    def test_matches_fraction_product(self, x):
        # n = 0 is the empty product; negative integers reach 0 at n = 1 - x
        for n in range(13):
            value = pochhammer(x, n)
            assert type(value) is Fraction
            assert value == pochhammer_fraction(x, n), n

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        x=st.fractions(min_value=-30, max_value=30, max_denominator=12),
        n=st.integers(0, 20),
    )
    def test_matches_fraction_product_on_rationals(self, x, n):
        assert pochhammer(x, n) == pochhammer_fraction(x, n)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            pochhammer(3, -1)


class TestSmallUtilities:
    def test_pochhammer(self):
        assert pochhammer(Fraction(3, 2), 0) == 1
        assert pochhammer(13, 3) == 2730
        assert pochhammer(27, 0) == 1

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-97) == {97: 1}

    def test_moebius(self):
        assert [moebius(n) for n in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]

    def test_sigma(self):
        assert divisor_power_sum(6, 1) == 12
        assert divisor_power_sum(2, 15) == 1 + 2**15

    def test_ord_p(self):
        assert ord_p(3, Fraction(9, 2)) == 2
        assert ord_p(2, Fraction(9, 2)) == -1
        with pytest.raises(ValueError):
            ord_p(5, 0)
        for p in (1, 0, -3):
            with pytest.raises(ValueError):
                ord_p(p, 3)


def sigma_brute(n: int, e: int) -> int:
    """sum of d^e over d <= n with d | n, one trial division per d."""
    return sum(d**e for d in range(1, n + 1) if n % d == 0)


class TestDivisorPowerSum:
    """The library takes sigma_e(n) as a product over p^a || n; the oracle
    divides n by every d <= n."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 20000), st.integers(0, 16))
    @example(1, 0)
    @example(1, 16)
    @example(17**2 * 3, 0)
    @example(19**2 * 23, 16)
    @example(31**2 * 7, 11)
    @example(113**2, 5)
    @example(17**2 * 19**2, 13)
    @example(2**14, 16)
    def test_matches_the_brute_force_sum(self, n, e):
        assert divisor_power_sum(n, e) == sigma_brute(n, e)

    def test_every_n_up_to_2000_at_small_exponents(self):
        for e in (0, 1, 3, 11):
            for n in range(1, 2001):
                assert divisor_power_sum(n, e) == sigma_brute(n, e), (n, e)


def _fraction(x: sympy.Rational) -> Fraction:
    return Fraction(int(x.p), int(x.q))


class TestSympyOracles:
    def test_bernoulli(self):
        for n in range(121):
            expected = _fraction(sympy.bernoulli(n))
            if n == 1:
                # sympy >= 1.12 takes B_1 = +1/2; this package uses -1/2
                expected = -expected
            assert bernoulli(n) == expected, n

    def test_factorize_random(self):
        rng = random.Random(20240318)
        for n in [rng.randrange(1, 10**14) for _ in range(300)]:
            assert factorize(n) == sympy.factorint(n), n
            assert factorize(-n) == factorize(n)

    @pytest.mark.parametrize(
        "n",
        [
            1000003**2,
            1000003 * 1000033,
            999983**3,
            17**2,
            17**3,
            17 * 19,
            99991 * 99989,
            99991**2,
            17 * 23,
            17 * 31,
        ],
    )
    def test_factorize_through_pollard_rho(self, monkeypatch, n):
        # every composite cofactor left by the 2..13 sieve is split by rho;
        # 17 * 19, 17 * 23 and 17 * 31 make the first batch's gcd n, so it is
        # stepped again, and for 17 * 23 and 17 * 31 that finds n too, so a
        # new c is drawn
        calls = []

        def spy(m: int) -> int:
            calls.append(m)
            return pollard_rho(m)

        pollard_rho = arith._pollard_rho
        monkeypatch.setattr(arith, "_pollard_rho", spy)
        assert factorize(n) == sympy.factorint(n)
        assert calls and not any(_is_probable_prime(m) for m in calls)

    def test_brent_splits_what_the_floyd_bound_refused(self):
        # two 14-digit primes: split in the round that takes the squarings
        # to 2^23 - 2, inside _RHO_SQUARINGS; the earlier bound of 2^21 Floyd
        # steps refused them
        n = 10000000000037 * 30000000000011
        assert factorize(n) == {10000000000037: 1, 30000000000011: 1}

    def test_kronecker(self):
        for a in range(-40, 41):
            for n in range(-40, 41):
                assert kronecker(a, n) == kronecker_symbol(a, n), (a, n)

    def test_is_probable_prime(self):
        assert [n for n in range(-5, 5000) if _is_probable_prime(n) != sympy.isprime(n)] == []


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and the
# first 13 prime bases (2..37 and 2..41)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round to base a, for odd n > a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestStrongPseudoprimes:
    BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

    def test_psi_12_passes_2_to_37_and_fails_41(self):
        assert all(strong_probable_prime(PSI_12, a) for a in self.BASES[:12])
        assert not strong_probable_prime(PSI_12, 41)
        assert PSI_12 == 399165290221 * 798330580441

    def test_psi_13_passes_2_to_41_and_fails_43(self):
        assert all(strong_probable_prime(PSI_13, a) for a in self.BASES[:13])
        assert not strong_probable_prime(PSI_13, 43)

    def test_pseudoprimes_are_composite(self):
        assert not _is_probable_prime(PSI_12)
        assert not _is_probable_prime(PSI_13)

    def test_factorize_twice_psi_12(self):
        assert factorize(2 * PSI_12) == {2: 1, 399165290221: 1, 798330580441: 1}
        assert factorize(PSI_13) == sympy.factorint(PSI_13)
