"""Property tests for rank, for the echelon reduction of the test oracle
nondeg_part, for the one-pass triple (m, det(2 T~), content) of
nondeg_invariants, for the definiteness decisions of nondeg_invariants and
enumerate_R, and for the signed-permutation cache key.

sympy's rank is the independent oracle for HalfIntegralMatrix.rank; the
reduction and the invariants are checked on matrices built as
U diag(T0, 0) U^t, whose nondegenerate part is known up to GL_m(Z)
equivalence, and the triple against rank, the reduction, `content` and a
row-loop content.  `is_psd`, which reads every principal minor, is the
oracle for the PSD test that nondeg_invariants makes and for the single
determinant that enumerate_R keeps.  The cache key is checked against the
direct construction: every signed permutation matrix applied through
`transform`.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eiscong.arith import prime_divisors
from eiscong.quadform import (
    HalfIntegralMatrix,
    build_T,
    canonical_signed_perm,
    enumerate_R,
    nondeg_invariants,
)
from eiscong.siegelseries import local_F
from test_quadform import chi_star, nondeg_part, random_unimodular

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def positive_definite(draw) -> HalfIntegralMatrix:
    """A positive definite T0 of size 1 or 2, given by its doubled form."""
    if draw(st.booleans()):
        return HalfIntegralMatrix.from_doubled([[2 * draw(st.integers(1, 6))]])
    a = draw(st.integers(1, 5))
    c = draw(st.integers(1, 5))
    b = draw(st.integers(-5, 5).filter(lambda b: b * b < 4 * a * c))
    return HalfIntegralMatrix.from_doubled([[2 * a, b], [b, 2 * c]])


@st.composite
def unimodular(draw, n: int) -> tuple[tuple[int, ...], ...]:
    """A product of elementary row additions and a signed permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, q in draw(st.lists(steps, max_size=6)):
        if i != j:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(tuple(s * x for x in u[p]) for p, s in zip(perm, signs))


@st.composite
def padded(draw) -> tuple[HalfIntegralMatrix, HalfIntegralMatrix]:
    """(T0, U diag(T0, 0) U^t) with at least one zero padded row."""
    t0 = draw(positive_definite())
    n = draw(st.integers(t0.n + 1, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(t0.n):
        g[i][: t0.n] = t0.doubled[i]
    t = HalfIntegralMatrix.from_doubled(g).transform(draw(unimodular(n)))
    return t0, t


@st.composite
def symmetric(draw) -> HalfIntegralMatrix:
    """A doubled symmetric integer matrix of size 1 to 3: either free
    entries or B^t D B with B of at most n rows, so singular and indefinite
    matrices are common."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * draw(st.integers(-3, 3))
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = draw(st.integers(-4, 4))
        return HalfIntegralMatrix.from_doubled(g)
    k = draw(st.integers(0, n))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(k)]
    d = [2 * draw(st.sampled_from((-2, -1, 1, 2))) for _ in range(k)]
    return HalfIntegralMatrix.from_doubled(
        [[sum(d[l] * b[l][i] * b[l][j] for l in range(k)) for j in range(n)] for i in range(n)]
    )


@PROPERTY_SETTINGS
@given(padded())
def test_nondeg_part_recovers_the_padded_block(case):
    t0, t = case
    tilde, det2 = nondeg_part(t)
    assert tilde.is_pd()
    assert tilde.n == t.rank() == t0.n
    assert det2 == tilde.det_doubled() == t0.det_doubled()
    for p in prime_divisors(det2):
        assert local_F(p, tilde) == local_F(p, t0), p
    if t0.n == 2:
        assert chi_star(t) == chi_star(t0)


def content_by_loop(t: HalfIntegralMatrix) -> int:
    """gcd of the halved diagonal and the upper off-diagonal entries, one
    row at a time."""
    vals = []
    for i in range(t.n):
        vals.append(t.doubled[i][i] // 2)
        vals.extend(t.doubled[i][i + 1 :])
    return gcd(*vals)


@st.composite
def scaled_symmetric(draw) -> HalfIntegralMatrix:
    """g times a doubled symmetric matrix of size 1 to 3 with entries of
    either sign, so contents above 1 and zero matrices are common."""
    n = draw(st.integers(1, 3))
    g = draw(st.sampled_from((0, 1, 2, 3, 6, 35)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * g * draw(st.integers(-9, 9))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = g * draw(st.integers(-9, 9))
    return HalfIntegralMatrix.from_doubled(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(scaled_symmetric(), symmetric()))
def test_content_matches_the_row_loop(t):
    assert t.content() == content_by_loop(t) >= 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_content_of_zero_and_negative_matrices(n):
    zero = HalfIntegralMatrix.from_doubled([[0] * n] * n)
    assert zero.content() == 0
    assert nondeg_invariants(zero) == (0, 0, 0)
    assert HalfIntegralMatrix.diagonal(*[-4] * n).content() == 4


@PROPERTY_SETTINGS
@given(symmetric())
def test_rank_matches_sympy(t):
    assert t.rank() == sympy.Matrix(t.doubled).rank()


@PROPERTY_SETTINGS
@given(symmetric())
def test_nondeg_part_rejects_exactly_the_non_psd(t):
    assume(any(map(any, t.doubled)))
    if not t.is_psd():
        with pytest.raises(ValueError, match="positive semidefinite"):
            nondeg_part(t)
        return
    tilde, det2 = nondeg_part(t)
    assert tilde.is_pd()
    assert tilde.n == t.rank()
    assert det2 == tilde.det_doubled()


@st.composite
def low_rank_image(draw) -> tuple[HalfIntegralMatrix, HalfIntegralMatrix]:
    """(T0, U diag(T0, 0) U^t): T0 positive definite of rank 1 or 2, size
    rank T0 to 3 (unpadded when equal), U from `random_unimodular`."""
    t0 = draw(positive_definite())
    n = draw(st.integers(t0.n, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(t0.n):
        g[i][: t0.n] = t0.doubled[i]
    u = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n)
    return t0, HalfIntegralMatrix.from_doubled(g).transform(u)


@st.composite
def indefinite(draw) -> HalfIntegralMatrix:
    """U diag(d_1, ..., d_n) U^t of size 2 or 3 with entries of both signs
    among the d_i (one may be 0), so T is indefinite however U mixes them."""
    n = draw(st.integers(2, 3))
    d = [draw(st.integers(1, 4)), -draw(st.integers(1, 4))]
    d += [draw(st.integers(-4, 4)) for _ in range(n - 2)]
    u = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n)
    g = [[2 * d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return HalfIntegralMatrix.from_doubled(g).transform(u)


@st.composite
def zero_diagonal(draw) -> HalfIntegralMatrix:
    """A doubled matrix of size 1 to 3 with zero diagonal: PSD only if zero."""
    n = draw(st.integers(1, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    return HalfIntegralMatrix.from_doubled(g)


INVARIANT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@INVARIANT_SETTINGS
@given(low_rank_image())
def test_nondeg_invariants_read_the_padded_block(case):
    t0, t = case
    tilde, _ = nondeg_part(t)
    assert nondeg_invariants(t) == (t0.n, t0.det_doubled(), t0.content())
    assert (tilde.n, tilde.det_doubled()) == (t0.n, t0.det_doubled())
    assert t.content() == tilde.content() == t0.content()


@INVARIANT_SETTINGS
@given(st.one_of(symmetric(), indefinite(), zero_diagonal()))
def test_nondeg_invariants_reject_exactly_the_non_psd(t):
    if not t.is_psd():
        with pytest.raises(ValueError) as info:
            nondeg_invariants(t)
        assert str(info.value) == "matrix must be positive semidefinite"
    elif not any(map(any, t.doubled)):
        assert nondeg_invariants(t) == (0, 0, 0)
        with pytest.raises(ValueError) as info:
            nondeg_part(t)
        assert str(info.value) == "rank 0 has no nondegenerate part"
    else:
        m, det2, content = nondeg_invariants(t)
        assert m == t.rank() and det2 > 0 and content > 0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        symmetric(),
        scaled_symmetric(),
        indefinite(),
        zero_diagonal(),
        low_rank_image().map(lambda case: case[1]),
    )
)
# a < 0 with a d - b^2 > 0 and det(2T) > 0: indefinite, caught only by the sign of a
@example(HalfIntegralMatrix.diagonal(-1, -1, 1))
# rank 2 with the cofactors 16, 4, 0: det(2 T~) = 4 is their gcd, not the first
@example(HalfIntegralMatrix.from_doubled([[2, 0, 0], [0, 8, 4], [0, 4, 2]]))
# even off-diagonal and a/2 = 1 odd: the content 1 comes from the halved diagonal
@example(HalfIntegralMatrix.diagonal(1, 2, 2))
def test_nondeg_invariants_match_the_independent_oracles(t):
    """The one-pass triple against rank, the reduction, the
    content and the row loop, and every principal minor for the PSD test."""
    if not t.is_psd():
        with pytest.raises(ValueError, match="positive semidefinite"):
            nondeg_invariants(t)
        return
    m, det2, content = nondeg_invariants(t)
    assert m == t.rank()
    assert content == t.content() == content_by_loop(t)
    if m:
        assert det2 == nondeg_part(t)[1]
    else:
        assert (det2, content) == (0, 0) and not any(map(any, t.doubled))


@PROPERTY_SETTINGS
@given(positive_definite().filter(lambda t: t.n == 2), st.integers(1, 6))
def test_enumerate_R_matches_the_psd_filter(quad, n):
    # a box two wider on each side than r_i^2 <= 4 n N_ii
    g = quad.doubled
    b1, b2 = (isqrt(2 * n * g[i][i]) + 2 for i in (0, 1))
    expected = [
        r
        for r in product(range(-b1, b1 + 1), range(-b2, b2 + 1))
        if build_T(n, quad, r).is_psd()
    ]
    assert enumerate_R(n, quad) == expected


@PROPERTY_SETTINGS
@given(st.one_of(symmetric(), padded().map(lambda case: case[1])))
def test_chi_star_reads_the_nondegenerate_part(t):
    assume(t.is_psd() and t.rank() == 2)
    assert chi_star(t) == chi_star(nondeg_part(t)[0])


def signed_perm_min_by_transform(t: HalfIntegralMatrix) -> HalfIntegralMatrix:
    """The smallest doubled form U (2T) U^t over all 2^n n! signed
    permutation matrices U."""
    n = t.n
    images = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            u = tuple(
                tuple(signs[i] if perm[i] == j else 0 for j in range(n))
                for i in range(n)
            )
            images.append(t.transform(u).doubled)
    return HalfIntegralMatrix(min(images))


@PROPERTY_SETTINGS
@given(symmetric())
def test_canonical_signed_perm_matches_transform_loop(t):
    assert canonical_signed_perm(t) == signed_perm_min_by_transform(t)
