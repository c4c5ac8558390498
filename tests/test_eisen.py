"""Tests for normalized Siegel-Eisenstein Fourier coefficients (degree <= 3).

Cross-checks: the classical divisor-sum identity in degree 1, theta-series
values of the E8 lattice in degrees 2 and 3 (the weight-4 series equals the
E8 theta because both spaces are one-dimensional with constant term 1), the
compatibility between degrees under zero-padding, unimodular invariance, and
the product of local factors as the oracle for the rank <= 2 closed forms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eiscong import eisen
from eiscong.arith import cohen_h, l_value_neg, prime_divisors, zeta_neg
from eiscong.eisen import EisensteinContext, z_const
from eiscong.errors import BudgetExceeded
from eiscong.quadform import HalfIntegralMatrix, build_T, parse_half_integral
from eiscong.siegelseries import local_F
from test_qexp import eisenstein_qexp
from test_quadform import nondeg_part, quadratic_character, random_unimodular

I2 = HalfIntegralMatrix.identity(2)
I3 = HalfIntegralMatrix.identity(3)


class TestZConst:
    def test_degree_one(self):
        for k in (4, 8, 14):
            assert z_const(1, k) == zeta_neg(k)

    def test_degree_two(self):
        assert z_const(2, 14) == zeta_neg(14) * zeta_neg(26)

    def test_degree_three_same_tail(self):
        for k in (8, 14):
            assert z_const(3, k) == z_const(2, k)

    def test_degree_four_shape(self):
        assert z_const(4, 8) == zeta_neg(8) * zeta_neg(14) * zeta_neg(12)


class TestContextValidation:
    def test_rank_zero_convention(self):
        for n in (1, 2, 3):
            ctx = EisensteinContext(n, 8)
            zero = HalfIntegralMatrix.from_doubled([[0] * n] * n)
            assert ctx.coefficient(zero) == z_const(n, 8)

    def test_rejects_bad_weight(self):
        # exactly the even k >= 4 are accepted in every degree n <= 3
        for n in (1, 2, 3):
            accepted = []
            for k in range(-2, 41):
                try:
                    EisensteinContext(n, k)
                except ValueError:
                    continue
                accepted.append(k)
            assert accepted == list(range(4, 41, 2)), n

    def test_rejects_size_mismatch(self):
        ctx = EisensteinContext(3, 8)
        with pytest.raises(ValueError):
            ctx.coefficient(I2)

    def test_rejects_indefinite(self):
        ctx = EisensteinContext(2, 8)
        bad = HalfIntegralMatrix.from_doubled([[2, 3], [3, 2]])
        with pytest.raises(ValueError):
            ctx.coefficient(bad)


class TestDegreeOne:
    def test_divisor_sum_identity(self):
        # the divisors are found by trial division here, not by the library
        for k in (8, 10, 12, 16):
            ctx = EisensteinContext(1, k)
            for t in range(1, 51):
                val = ctx.coefficient(HalfIntegralMatrix.diagonal(t))
                sigma = sum(d ** (k - 1) for d in range(1, t + 1) if t % d == 0)
                assert val == 2 * sigma, (k, t)

    def test_matches_classical_expansion(self):
        # a(t) of Z(1,k) E_k with E_k normalized to constant term 1 equals
        # zeta(1-k) * (-2k/B_k) sigma_{k-1}(t) = 2 sigma_{k-1}(t)
        k = 16
        ctx = EisensteinContext(1, k)
        e = eisenstein_qexp(k, 30)
        for t in range(1, 31):
            assert ctx.coefficient(
                HalfIntegralMatrix.diagonal(t)
            ) == zeta_neg(k) * e.coefficient(t)

    def test_spec_value(self):
        ctx = EisensteinContext(1, 16)
        assert ctx.coefficient(HalfIntegralMatrix.diagonal(2)) == 65538


class TestThetaCrossChecks:
    def test_degree_two_weight_four(self):
        # r(E8, I_2) = 240 * 126 orthogonal root pairs
        ctx = EisensteinContext(2, 4)
        assert ctx.coefficient(I2) == z_const(2, 4) * 240 * 126

    def test_degree_three_weight_four(self):
        # 240 roots, 126 orthogonal to the first, 60 (D6 roots) to both
        ctx = EisensteinContext(3, 4)
        assert ctx.coefficient(I3) == z_const(3, 4) * 240 * 126 * 60

    def test_degree_one_weight_four(self):
        # zeta(-3) * 240 = 2 = 2 sigma_3(1)
        ctx = EisensteinContext(1, 4)
        assert ctx.coefficient(HalfIntegralMatrix.diagonal(1)) == 240 * z_const(1, 4) == 2


class TestStructure:
    def random_psd_2x2(self, rng: random.Random) -> HalfIntegralMatrix:
        while True:
            a = rng.randrange(0, 4)
            c = rng.randrange(0, 4)
            b = rng.randrange(-3, 4)
            m = HalfIntegralMatrix.from_doubled([[2 * a, b], [b, 2 * c]])
            if m.is_psd():
                return m

    def test_siegel_operator_compatibility(self):
        rng = random.Random(42)
        for k in (8, 14):
            ctx3 = EisensteinContext(3, k)
            ctx2 = EisensteinContext(2, k)
            seen = 0
            while seen < 20:
                t1 = self.random_psd_2x2(rng)
                padded = HalfIntegralMatrix.from_doubled(
                    [list(row) + [0] for row in t1.doubled] + [[0, 0, 0]]
                )
                assert ctx3.coefficient(padded) == ctx2.coefficient(t1)
                seen += 1

    def test_unimodular_invariance(self):
        rng = random.Random(17)
        ctx = EisensteinContext(3, 8)
        for t in (I3, build_T(1, I2, (1, 0)), build_T(1, I2, (1, 1)), build_T(2, I2, (2, 1))):
            ref = ctx.coefficient(t)
            for _ in range(5):
                u = random_unimodular(rng)
                assert ctx.coefficient(t.transform(u)) == ref

    def test_rationality_exact(self):
        ctx = EisensteinContext(3, 14)
        val = ctx.coefficient(build_T(1, I2, (1, 1)))
        assert isinstance(val, Fraction)
        assert val != 0


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def ternary_psd(draw) -> HalfIntegralMatrix:
    """A PSD ternary T of any rank with small entries (det(2T) <= 64)."""
    a, b, c = (draw(st.integers(0, 2)) for _ in range(3))
    r, s, t = (draw(st.integers(-2, 2)) for _ in range(3))
    m = HalfIntegralMatrix.from_doubled([[2 * a, r, s], [r, 2 * b, t], [s, t, 2 * c]])
    assume(m.is_psd())
    return m


@st.composite
def binary_psd(draw) -> HalfIntegralMatrix:
    a, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    b = draw(st.integers(-6, 6))
    m = HalfIntegralMatrix.from_doubled([[2 * a, b], [b, 2 * c]])
    assume(m.is_psd())
    return m


class TestStructureProperties:
    """Hypothesis versions of `TestStructure`; they guard the size-3 local
    factors of degree <= 1, which are read off det(2T) without a canonical
    form."""

    @PROPERTY
    @given(ternary_psd(), st.sampled_from((8, 14)), st.integers(0, 2**32))
    def test_unimodular_invariance(self, t, k, seed):
        u = random_unimodular(random.Random(seed))
        ctx = EisensteinContext(3, k)
        assert ctx.coefficient(t.transform(u)) == ctx.coefficient(t)

    @PROPERTY
    @given(binary_psd(), st.sampled_from((8, 14)))
    def test_siegel_operator_compatibility(self, t2, k):
        padded = HalfIntegralMatrix.from_doubled(
            [list(row) + [0] for row in t2.doubled] + [[0, 0, 0]]
        )
        assert EisensteinContext(3, k).coefficient(padded) == EisensteinContext(
            2, k
        ).coefficient(t2)


def padded_image(t: HalfIntegralMatrix, seed: int) -> HalfIntegralMatrix:
    """U diag(T, 0) U^t for a binary T and a seeded random unimodular U."""
    padded = HalfIntegralMatrix.from_doubled(
        [list(row) + [0] for row in t.doubled] + [[0, 0, 0]]
    )
    return padded.transform(random_unimodular(random.Random(seed)))


class TestOneReduction:
    """No a(T) reduces T: rank, det(2 T~) and content come from one pass
    over 2T, a rank <= 2 value is cached once per (k, m, det(2 T~),
    content) and the local factors of a rank-3 T once per (T, budget).
    Each test clears both caches first, so its hit and miss counts are its
    own."""

    @pytest.fixture
    def calls(self, monkeypatch) -> dict[str, int]:
        calls = {"is_psd": 0}
        is_psd = HalfIntegralMatrix.is_psd

        def counting_is_psd(self):
            calls["is_psd"] += 1
            return is_psd(self)

        monkeypatch.setattr(HalfIntegralMatrix, "is_psd", counting_is_psd)
        eisen._untailed.cache_clear()
        eisen._local_factors.cache_clear()
        return calls

    @pytest.mark.parametrize(
        "t, cache",
        [
            (HalfIntegralMatrix.from_doubled([[6, 6, 0], [6, 6, 0], [0, 0, 0]]), "_untailed"),
            (build_T(4, I2, (0, 4)), "_untailed"),
            (build_T(3, I2, (1, 2)), "_local_factors"),
        ],
        ids=["rank1", "rank2", "rank3"],
    )
    def test_cache_miss_reduces_once(self, t, cache, calls):
        value = EisensteinContext(3, 38).coefficient(t)
        for name in ("_untailed", "_local_factors"):
            info = getattr(eisen, name).cache_info()
            assert (info.hits, info.misses) == ((0, 1) if name == cache else (0, 0)), name
        assert calls == {"is_psd": 0}
        # the oracle reduces T, so it runs after the count
        assert value == product_route(3, 38, t) != 0

    @pytest.mark.parametrize("text", ["3,0,0", "3,1,5"], ids=["rank1", "rank2"])
    def test_binary_form_and_its_ternary_image_share_one_entry(self, text, calls):
        t = parse_half_integral(text)
        value = EisensteinContext(2, 36).coefficient(t)
        assert EisensteinContext(3, 36).coefficient(padded_image(t, 7)) == value
        info = eisen._untailed.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert calls == {"is_psd": 0}

    def test_equal_det_different_content_are_separate_entries(self, calls):
        # det(2T) = 16 for both, contents 1 and 2
        forms = [parse_half_integral(text) for text in ("1,0,4", "2,0,2")]
        values = [EisensteinContext(2, 36).coefficient(t) for t in forms]
        info = eisen._untailed.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        assert values == [product_route(2, 36, t) for t in forms]
        assert values[0] != values[1]

    def test_rank3_factors_serve_every_weight(self, calls, monkeypatch):
        # det(2T) = 2^3 3 5: F_2 (degree 2), F_3 and F_5, each computed once
        t = HalfIntegralMatrix.diagonal(1, 3, 5)
        factors = []
        monkeypatch.setattr(
            eisen, "local_F", lambda p, b, budget: factors.append(p) or local_F(p, b, budget)
        )
        values = [EisensteinContext(3, k).coefficient(t) for k in (12, 20)]
        info = eisen._local_factors.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert eisen._untailed.cache_info().currsize == 0
        assert factors == [2, 3, 5]
        assert values == [product_route(3, k, t) for k in (12, 20)]

    def test_zeta_tail_once_per_context_and_never_for_rank3(self, calls, monkeypatch):
        # the spy is in place before each context is built, so a tail formed
        # in __init__ would show; rank 3 and rank 2 in degree 3 take no tail
        spied = []
        monkeypatch.setattr(eisen, "zeta_neg", lambda k: spied.append(k) or zeta_neg(k))
        ctx, rank3 = EisensteinContext(3, 12), build_T(3, I2, (1, 2))
        assert ctx.coefficient(rank3) == product_route(3, 12, rank3)
        assert ctx.coefficient(padded_image(parse_half_integral("3,1,5"), 7)) != 0
        assert spied == []
        rank1 = [padded_image(parse_half_integral(f"{c},0,0"), c) for c in (1, 6, 9)]
        values = [ctx.coefficient(t) for t in rank1]
        assert spied == [22]
        assert values == [product_route(3, 12, t) for t in rank1]
        EisensteinContext(2, 12).coefficient(parse_half_integral("4,0,0"))
        assert spied == [22, 22]

    @pytest.mark.parametrize("text, content", [("2,1,3", 1), ("12,6,18", 6)])
    def test_rank2_miss_lists_divisors_only_past_content_one(
        self, text, content, calls, monkeypatch
    ):
        # a primitive T takes the Maass sum's one term d = 1: one H, no divisor list
        spied = {"cohen_h": [], "divisors": []}
        for name in spied:
            real = getattr(eisen, name)
            monkeypatch.setattr(
                eisen, name, lambda *a, real=real, name=name: spied[name].append(a) or real(*a)
            )
        t = parse_half_integral(text)
        assert t.content() == content
        assert EisensteinContext(2, 12).coefficient(t) == maass_sum(12, t.det_doubled(), content)
        if content == 1:
            assert spied == {"cohen_h": [(11, 23)], "divisors": []}
        else:
            assert spied["divisors"] == [(6,)] and len(spied["cohen_h"]) == 4

    def test_one_pass_over_T_per_call(self, calls, monkeypatch):
        # rank, det(2 T~) and content come from one nondeg_invariants call;
        # HalfIntegralMatrix.content is never called, on a miss or a hit
        spied = {"nondeg_invariants": 0, "content": 0}
        invariants, content = eisen.nondeg_invariants, HalfIntegralMatrix.content

        def counting_invariants(t):
            spied["nondeg_invariants"] += 1
            return invariants(t)

        def counting_content(self):
            spied["content"] += 1
            return content(self)

        monkeypatch.setattr(eisen, "nondeg_invariants", counting_invariants)
        monkeypatch.setattr(HalfIntegralMatrix, "content", counting_content)
        forms = {
            1: [parse_half_integral(text) for text in ("0", "3", "12")],
            2: [parse_half_integral(text) for text in ("0,0,0", "3,0,0", "2,1,3", "12,6,18")],
            3: [
                HalfIntegralMatrix.from_doubled([[0] * 3] * 3),
                padded_image(parse_half_integral("3,0,0"), 5),
                padded_image(parse_half_integral("12,6,18"), 5),
                build_T(3, I2, (1, 2)),
            ],
        }
        expected = 0
        for n, ts in forms.items():
            ctx = EisensteinContext(n, 12)
            for t in ts + ts:  # the second round hits every cache
                ctx.coefficient(t)
                expected += 1
                assert spied == {"nondeg_invariants": expected, "content": 0}, (n, t)

    def test_rank3_cache_is_keyed_on_the_budget(self, calls):
        # I3 at p = 2 has degree 2: c_1 takes the 7 points of P^2(F_2)
        assert EisensteinContext(3, 14).coefficient(I3) == product_route(3, 14, I3)
        before = eisen._local_factors.cache_info()
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                EisensteinContext(3, 16, budget=6).coefficient(I3)
        after = eisen._local_factors.cache_info()
        # both calls miss, and neither leaves an entry behind
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)
        assert after.currsize == before.currsize == 1
        assert EisensteinContext(3, 16, budget=7).coefficient(I3) == product_route(3, 16, I3)


def maass_sum(k: int, det2: int, content: int) -> Fraction:
    """a(T) of rank 2 as the full Maass sum 2 sum_{d | content} d^(k-1)
    H(k-1, D/d^2), every divisor d found by trial division."""
    return 2 * sum(
        (d ** (k - 1) * cohen_h(k - 1, det2 // (d * d))
         for d in range(1, content + 1) if content % d == 0),
        Fraction(0),
    )


PRIMITIVE_BINARY = [(1, 0, 1), (1, 1, 1), (2, 1, 3), (3, 2, 5), (1, 1, 6), (4, 3, 7)]


@pytest.mark.parametrize("k", [10, 12, 16])
@pytest.mark.parametrize("g", [1, 2, 3, 6])
def test_rank2_coefficient_is_the_maass_sum(g, k):
    """g times a primitive binary form, in degree 2 and as a ternary image
    U diag(T, 0) U^t in degree 3, from an empty cache each time."""
    for seed, (a, b, c) in enumerate(PRIMITIVE_BINARY):
        t = HalfIntegralMatrix.from_doubled([[2 * g * a, g * b], [g * b, 2 * g * c]])
        expected = maass_sum(k, t.det_doubled(), g)
        for n, image in ((2, t), (3, padded_image(t, seed))):
            assert image.content() == g
            eisen._untailed.cache_clear()
            assert EisensteinContext(n, k).coefficient(image) == expected, (n, g, k, t)


def product_route(n: int, k: int, t: HalfIntegralMatrix) -> Fraction:
    """a(T) for a nonzero PSD T as the product of local factors:
    2^[(m+1)/2] prod_p F_p(T~, p^(k-m-1)) times the zeta tail and, for even
    m, L(1+m/2-k, chi).  Every rank goes through `local_F` here."""
    tilde, det2 = nondeg_part(t)
    m = tilde.n
    value = Fraction(2) ** ((m + 1) // 2)
    for p in prime_divisors(det2):
        value *= local_F(p, tilde).evaluate(p ** (k - m - 1))
    for i in range(m // 2 + 1, n // 2 + 1):
        value *= zeta_neg(2 * k - 2 * i)
    if m % 2 == 0:
        value *= l_value_neg(k - m // 2, quadratic_character(m, det2))
    return value


@st.composite
def low_rank(draw) -> tuple[int, HalfIntegralMatrix]:
    """(degree, T) with rank T <= 2: c (ux + vy)^2 for rank 1, g times a
    primitive positive definite binary form for rank 2 (content g <= 3),
    zero-padded and moved by a random unimodular U in degree 3."""
    n = draw(st.integers(1, 3))
    if n == 1:
        return 1, HalfIntegralMatrix.diagonal(draw(st.integers(1, 60)))
    if draw(st.booleans()):
        c = draw(st.integers(1, 30))
        u, v = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        assume(gcd(u, v) == 1)
        rows = [[2 * c * u * u, 2 * c * u * v], [2 * c * u * v, 2 * c * v * v]]
    else:
        a, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        b = draw(st.integers(-12, 12))
        assume(4 * a * c > b * b and gcd(a, b, c) == 1)
        g = draw(st.integers(1, 3))
        rows = [[2 * g * a, g * b], [g * b, 2 * g * c]]
    if n == 2:
        return 2, HalfIntegralMatrix.from_doubled(rows)
    padded = HalfIntegralMatrix.from_doubled([row + [0] for row in rows] + [[0, 0, 0]])
    return 3, padded.transform(random_unimodular(random.Random(draw(st.integers(0, 2**32)))))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(low_rank(), st.sampled_from(range(4, 25, 2)))
def test_rank_at_most_two_matches_the_product_of_local_factors(case, k):
    n, t = case
    assert EisensteinContext(n, k).coefficient(t) == product_route(n, k, t), (n, k, t)
