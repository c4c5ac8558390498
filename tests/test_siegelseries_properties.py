"""Oracle and property tests for the size-3 local factor and the Hilbert symbol.

Size-3 F_p sums characters only through X^(d//2) and takes the upper
coefficients from the functional equation f_(d-i) = eps p^(2d-4i) f_i.  The
full-length character sum (`oracle_bp`) divided by gamma_p is the
independent route it is checked against; degree 1 is checked against the
coefficient of X in the sum (or, where that enumeration is too long, the
rank-1 coset count it reduces to), and against the sign of the equation,
which the degree-1 route does not take.  The equation is local, so
indefinite T, whose leading principal minors may vanish, are checked as well.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_quadform import random_unimodular
from test_siegelseries import oracle_bp

from eiscong.arith import prime_divisors
from eiscong.quadform import HalfIntegralMatrix, canonical_signed_perm
from eiscong.siegelseries import (
    _functional_equation_sign,
    _hilbert,
    expected_degree,
    local_F,
)

FEW = settings(max_examples=15, deadline=None, derandomize=True)
MANY = settings(max_examples=200, deadline=None, derandomize=True)
ORACLE_POINTS = 2**18


@st.composite
def ternary_pd(draw) -> HalfIntegralMatrix:
    """A positive definite ternary T with small entries."""
    a, b, c = (draw(st.integers(1, 4)) for _ in range(3))
    r, s, t = (draw(st.integers(-4, 4)) for _ in range(3))
    m = HalfIntegralMatrix.from_doubled([[2 * a, r, s], [r, 2 * b, t], [s, t, 2 * c]])
    assume(m.is_pd())
    return m


@st.composite
def ternary_indefinite(draw) -> HalfIntegralMatrix:
    """A nondegenerate ternary T that is not positive definite; zero diagonal
    entries are allowed, so leading principal minors may vanish."""
    a, b, c = (draw(st.integers(-2, 2)) for _ in range(3))
    r, s, t = (draw(st.integers(-3, 3)) for _ in range(3))
    m = HalfIntegralMatrix.from_doubled([[2 * a, r, s], [r, 2 * b, t], [s, t, 2 * c]])
    assume(m.det_doubled() != 0 and not m.is_pd())
    return m


def divide_by_gamma(p: int, b: HalfIntegralMatrix) -> tuple[int, ...]:
    """F_p from the character sum through X^d divided by (1 - X)(1 - p^2 X^2)."""
    d = expected_degree(p, b)
    series = oracle_bp(p, b, d)
    gamma = [1, -1, -(p**2), p**2]
    f: list[int] = []
    for j, c in enumerate(series):
        f.append(c - sum(gamma[i] * f[j - i] for i in range(1, min(j, 3) + 1)))
    return tuple(f)


def level_p_coefficient(p: int, b: HalfIntegralMatrix) -> int:
    """Coefficient of X in the character sum from the level-p cosets c w w^t / p
    (w a projective point over F_p, c a unit): p - 1 where the form value
    w^t B w vanishes mod p, -1 elsewhere."""
    n, g = b.n, b.doubled
    total = 0
    for lead in range(n):
        for rest in range(p ** (n - lead - 1)):
            w = [0] * lead + [1] + [rest // p**i % p for i in range(n - lead - 1)]
            value = sum(g[i][j] * w[i] * w[j] for i in range(n) for j in range(n)) // 2
            total += p - 1 if value % p == 0 else -1
    return total


def ternary_forms_det2_at_most(bound: int) -> list[HalfIntegralMatrix]:
    """A representative of every GL_3(Z) class of PD ternary T with
    det(2T) <= bound: Minkowski-reduced diagonals a <= b <= c obey
    abc <= 2 det T = det(2T) / 4, and |2 T_ij| <= T_ii."""
    cap = bound // 4
    seen: dict[HalfIntegralMatrix, HalfIntegralMatrix] = {}
    for a in range(1, cap + 1):
        for b in range(a, cap // a + 1):
            for c in range(b, cap // (a * b) + 1):
                for r in range(-a, a + 1):
                    for s in range(-a, a + 1):
                        for t in range(-b, b + 1):
                            m = HalfIntegralMatrix.from_doubled(
                                [[2 * a, r, s], [r, 2 * b, t], [s, t, 2 * c]]
                            )
                            if m.is_pd() and m.det_doubled() <= bound:
                                seen.setdefault(canonical_signed_perm(m), m)
    return list(seen.values())


@FEW
@given(ternary_pd())
def test_half_length_matches_full_division(b):
    for p in prime_divisors(b.det_doubled()):
        if p ** (6 * expected_degree(p, b)) <= ORACLE_POINTS:
            assert local_F(p, b).coeffs == divide_by_gamma(p, b), p


@FEW
@given(ternary_indefinite())
def test_half_length_matches_full_division_indefinite(b):
    for p in prime_divisors(b.det_doubled()):
        if p ** (6 * expected_degree(p, b)) <= ORACLE_POINTS:
            assert local_F(p, b).coeffs == divide_by_gamma(p, b), p


@pytest.mark.parametrize(
    "doubled",
    [
        # D_1 = 0: a hyperbolic plane plus <3>; degree 1 at p = 3, 0 at p = 2
        [[0, 1, 0], [1, 0, 0], [0, 0, 6]],
        # D_2 = 0, also in its cache key; degree 2 at p = 2
        [[-2, -2, -2], [-2, -2, 0], [-2, 0, -2]],
        # odd p, degree 2, sign -1 (the middle coefficient vanishes)
        [[2, 0, 0], [0, 6, 0], [0, 0, 6]],
        # odd p, degree 2, sign +1
        [[2, 0, 0], [0, 2, 0], [0, 0, 18]],
    ],
)
def test_explicit_cases_match_full_division(doubled):
    # past ORACLE_POINTS on purpose: p = 3 at degree 2 is 3^12 points
    b = HalfIntegralMatrix.from_doubled(doubled)
    for p in prime_divisors(b.det_doubled()):
        assert local_F(p, b).coeffs == divide_by_gamma(p, b), p


def test_degree_one_matches_level_p_coefficient():
    checked = 0
    for b in ternary_forms_det2_at_most(64):
        for p in prime_divisors(b.det_doubled()):
            if expected_degree(p, b) != 1:
                continue
            if p**6 <= ORACLE_POINTS:
                c1 = oracle_bp(p, b, 1)[1]
            else:
                c1 = level_p_coefficient(p, b)
            assert local_F(p, b).coeffs == (1, c1 + 1), (p, b)
            checked += 1
    assert checked > 100


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ternary_indefinite())
def test_degree_one_indefinite_matches_level_p_coefficient(b):
    # the degree-1 route returns (1, eps p^2) without enumerating
    checked = 0
    for p in prime_divisors(b.det_doubled()):
        if expected_degree(p, b) == 1 and p**6 <= ORACLE_POINTS:
            c1 = oracle_bp(p, b, 1)[1]
            assert local_F(p, b).coeffs == (1, c1 + 1), p
            checked += 1
    assume(checked)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_degree_one_route_is_the_functional_equation_sign(p):
    # degree 1 returns 1 + (c_1 + 1) X from `_c1` and takes no sign; the
    # functional equation f_1 = eps p^2 f_0, with eps from Hilbert symbols,
    # must give the same polynomial, on forms of every signature
    rng = random.Random(p)
    checked = 0
    while checked < 60:
        diagonal = [2 * rng.randint(-5, 5) for _ in range(3)]
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        b = HalfIntegralMatrix.from_doubled(
            [[diagonal[0], r, s], [r, diagonal[1], t], [s, t, diagonal[2]]]
        )
        if b.det_doubled() == 0 or expected_degree(p, b) != 1:
            continue
        assert local_F(p, b).coeffs == (1, _functional_equation_sign(p, b) * p**2), b
        checked += 1


@lru_cache(maxsize=None)
def degree_two_and_up() -> list[tuple[int, HalfIntegralMatrix]]:
    """(p, T) with deg F_p(T) >= 2 over the classes with det(2T) <= 64."""
    return [
        (p, b)
        for b in ternary_forms_det2_at_most(64)
        for p in prime_divisors(b.det_doubled())
        if expected_degree(p, b) >= 2
    ]


@FEW
@given(st.data(), st.integers(0, 2**32))
def test_unimodular_invariance_degree_two_and_up(data, seed):
    p, b = data.draw(st.sampled_from(degree_two_and_up()))
    u = random_unimodular(random.Random(seed))
    assert local_F(p, b.transform(u)) == local_F(p, b)


# ---------------------------------------------------------------------------
# The functional-equation sign


def fraction_sign(p: int, b: HalfIntegralMatrix) -> int:
    """The sign by rational elimination on B itself: the diagonal entries a_i
    of a diagonalization, pivoting on the first nonzero diagonal entry after
    e_0 -> e_0 + e_j when the whole diagonal is zero."""
    m = [[Fraction(x, 2) for x in row] for row in b.doubled]
    a: list[Fraction] = []
    while m:
        if not any(m[i][i] for i in range(len(m))):
            j = next(j for j, x in enumerate(m[0]) if x)
            m[0] = [x + y for x, y in zip(m[0], m[j])]
            for row in m:
                row[0] += row[j]
        k = next(i for i in range(len(m)) if m[i][i])
        pivot = m[k]
        a.append(pivot[k])
        m = [
            [x - row[k] * pivot[c] / pivot[k] for c, x in enumerate(row) if c != k]
            for i, row in enumerate(m)
            if i != k
        ]
    sign = _hilbert(p, -1, -1) * _hilbert(p, -1, a[0] * a[1] * a[2])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        sign *= _hilbert(p, a[i], a[j])
    return sign


@st.composite
def ternary_nondegenerate(draw) -> HalfIntegralMatrix:
    """A nondegenerate ternary T of any signature; the diagonal may be zero
    in some entries or, with the off-diagonal entries all nonzero, in all."""
    if draw(st.booleans()):
        a = b = c = 0
    else:
        a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    r, s, t = (draw(st.integers(-6, 6)) for _ in range(3))
    m = HalfIntegralMatrix.from_doubled([[2 * a, r, s], [r, 2 * b, t], [s, t, 2 * c]])
    assume(m.det_doubled() != 0)
    return m


@MANY
@given(ternary_nondegenerate(), st.sampled_from((2, 3, 5, 7, 11)))
@example(HalfIntegralMatrix.from_doubled([[0, 1, 1], [1, 0, 3], [1, 3, 0]]), 3)
@example(HalfIntegralMatrix.from_doubled([[0, 2, -1], [2, 0, 5], [-1, 5, 0]]), 2)
@example(HalfIntegralMatrix.from_doubled([[0, 1, 0], [1, 0, 0], [0, 0, 6]]), 3)
def test_integer_sign_matches_fraction_elimination(b, p):
    assert _functional_equation_sign(p, b) == fraction_sign(p, b)


# ---------------------------------------------------------------------------
# The Hilbert symbol

nonzero = st.integers(-300, 300).filter(bool)
PRIMES = (2, 3, 5, 7, 11, 13)


@MANY
@given(nonzero, nonzero)
def test_hilbert_product_formula(a, b):
    at_infinity = -1 if a < 0 and b < 0 else 1
    product_over_p = 1
    for p in prime_divisors(2 * a * b):
        product_over_p *= _hilbert(p, a, b)
    assert product_over_p * at_infinity == 1


@MANY
@given(nonzero, nonzero, st.sampled_from(PRIMES))
def test_hilbert_symmetric(a, b, p):
    assert _hilbert(p, a, b) == _hilbert(p, b, a)


@MANY
@given(nonzero, st.sampled_from(PRIMES))
def test_hilbert_a_minus_a(a, p):
    assert _hilbert(p, a, -a) == 1


@MANY
@given(nonzero, nonzero, nonzero, st.sampled_from(PRIMES))
def test_hilbert_bilinear(a, a2, b, p):
    assert _hilbert(p, a * a2, b) == _hilbert(p, a, b) * _hilbert(p, a2, b)
    assert _hilbert(p, Fraction(a, a2), b) == _hilbert(p, a, b) * _hilbert(p, a2, b)
