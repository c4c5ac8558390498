"""The integer character-sum kernel against the valuation-and-cyclotomic kernel
it replaced, and the routes that skip it: the cached level table, which must
carry nothing of B, and c_1 and c_2 of ternary B read off strata of R.

`reference_series` is the earlier `_character_sum_series`: levels from
elementwise p-adic valuations of the minors' gcds (e_k = v_k - v_(k-1),
infinite once the minors vanish) and each level's histogram reduced modulo
the cyclotomic polynomial Phi_{p^j}.  The kernel in `siegelseries` reads the
level off gcds capped at p^(kj) and collapses the histogram by Ramanujan
sums; both must give the same c_j on every B, indefinite and zero-diagonal
ones included.
"""

from __future__ import annotations

import random
import time
import warnings
from functools import reduce
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eiscong.errors import BudgetExceeded
from eiscong.quadform import HalfIntegralMatrix
from eiscong import siegelseries
from eiscong.siegelseries import (
    _c1,
    _c2,
    _character_sum_series,
    _collapse_histogram,
    _level_table,
    expected_degree,
    local_F,
)
from test_cli import run_python
from test_siegelseries import oracle_bp

POINTS = 2**15
PRIMES = (2, 3, 5, 7, 13)


def reference_valuations(arr: np.ndarray, p: int, inf: int) -> np.ndarray:
    """Elementwise p-adic valuation of |arr|, with zeros mapped to `inf`."""
    a = np.abs(arr)
    zero = a == 0
    v = np.zeros_like(a)
    if p == 2:
        # trailing-zero count via the lowest set bit; exact for |x| < 2^52
        low = a & (-a)
        v[~zero] = np.log2(low[~zero].astype(np.float64)).astype(np.int64)
    else:
        work = a.copy()
        while True:
            mask = (~zero) & (work % p == 0)
            if not mask.any():
                break
            work[mask] //= p
            v[mask] += 1
    v[zero] = inf
    return v


def reference_collapse(counts: list[int], p: int, j_max: int) -> int:
    """sum_t counts[t] zeta^t reduced modulo Phi_{p^j}; the remainder must be
    constant."""
    q = p**j_max
    if q == 1:
        return counts[0]
    coeffs = list(counts)
    tot, step = q - q // p, q // p
    for e in range(q - 1, tot - 1, -1):
        c = coeffs[e]
        if c:
            coeffs[e] = 0
            for i in range(p - 1):
                coeffs[e - tot + i * step] -= c
    assert all(c == 0 for c in coeffs[1:tot]), "histogram not Galois-invariant"
    return coeffs[0]


def reference_series(p: int, b: HalfIntegralMatrix, j_max: int) -> list[int]:
    """c_0..c_j_max over all symmetric R with entries in p^-j_max Z / Z."""
    n, g = b.n, b.doubled
    dim, q = n * (n + 1) // 2, p**j_max
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    tr_mult = [g[i][j] // 2 if i == j else g[i][j] for i, j in pos]
    pairs = list(combinations(range(n), 2))
    idx = np.arange(q**dim, dtype=np.int64)
    digits = [idx // q**i % q for i in range(dim)]
    r = {}
    for (i, j), digit in zip(pos, digits):
        r[i, j] = r[j, i] = digit
    m2 = {
        (s, t): r[s[0], t[0]] * r[s[1], t[1]] - r[s[0], t[1]] * r[s[1], t[0]]
        for s, t in combinations_with_replacement(pairs, 2)
    }
    minors = [digits, list(m2.values())][:n]
    if n == 3:
        det = sum((-1) ** c * r[0, c] * m2[pairs[2 - c], (1, 2)] for c in range(3))
        minors.append([det])
    inf = 10**6
    level = np.zeros_like(idx)
    v_prev = 0
    for k_minors in minors:
        gk = reduce(np.gcd, k_minors)
        vk = reference_valuations(gk, p, inf)
        ek = np.where(gk == 0, inf, vk - v_prev)
        level += np.maximum(0, j_max - ek)
        v_prev = vk
    trace = sum(mult * digit for mult, digit in zip(tr_mult, digits)) % q
    hist = np.bincount(level * q + trace, minlength=(n * j_max + 1) * q)
    hist = hist.reshape(n * j_max + 1, q)
    return [reference_collapse(hist[j].tolist(), p, j_max) for j in range(j_max + 1)]


def kernel_series(p: int, b: HalfIntegralMatrix, j_max: int) -> list[int]:
    """The package kernel, with numpy warnings (a division by zero) as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _character_sum_series(p, b, j_max, 2**18)


@st.composite
def kernel_inputs(draw) -> tuple[int, HalfIntegralMatrix, int]:
    """(p, B, j) with B nondegenerate of size 1-3, possibly indefinite or with
    zero diagonal entries, and at most POINTS representatives."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    dim = n * (n + 1) // 2
    j_top = 0
    while p ** ((j_top + 1) * dim) <= POINTS:
        j_top += 1
    j = draw(st.integers(0, j_top))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for k in range(i + 1, n):
            g[i][k] = g[k][i] = draw(st.integers(-6, 6))
    b = HalfIntegralMatrix.from_doubled(g)
    assume(b.det_doubled() != 0)
    return p, b, j


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_inputs())
def test_kernel_matches_reference(case):
    p, b, j = case
    assert kernel_series(p, b, j) == reference_series(p, b, j)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernel_inputs(), st.data())
def test_kernel_reads_b_modulo_q(case, data):
    # only tr(BR) mod q enters the sum, R in p^-j Z / Z: shifting the doubled
    # off-diagonal entries of B by multiples of q and the doubled diagonal by
    # multiples of 2q, each shift at least 2^64, changes no c_j
    p, b, j = case
    q = p**j

    def shift(unit: int) -> int:
        least = -(-(2**64) // unit)
        m = data.draw(st.integers(least, least + 2**64))
        return data.draw(st.sampled_from((1, -1))) * m * unit

    g = [list(row) for row in b.doubled]
    for i in range(b.n):
        g[i][i] += shift(2 * q)
        for k in range(i + 1, b.n):
            g[i][k] += shift(q)
            g[k][i] = g[i][k]
    far = HalfIntegralMatrix.from_doubled(g)
    assert kernel_series(p, far, j) == kernel_series(p, b, j)


@pytest.mark.parametrize(
    "doubled",
    [
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[2, 1, 0], [1, 4, 1], [0, 1, 6]],
        [[0, 1, 1], [1, 0, 3], [1, 3, 0]],
        [[2, 0, 0], [0, 0, 1], [0, 1, -10]],
    ],
    ids=["identity", "pd", "zero-diagonal", "indefinite"],
)
def test_kernel_matches_reference_p2_j3(doubled):
    b = HalfIntegralMatrix.from_doubled(doubled)
    assert kernel_series(2, b, 3) == reference_series(2, b, 3)


@st.composite
def ternary_forms(draw) -> HalfIntegralMatrix:
    """Nondegenerate ternary B, possibly indefinite or with zero diagonal entries."""
    g = [[0] * 3 for _ in range(3)]
    for i in range(3):
        g[i][i] = 2 * draw(st.integers(-6, 6))
        for k in range(i + 1, 3):
            g[i][k] = g[k][i] = draw(st.integers(-12, 12))
    b = HalfIntegralMatrix.from_doubled(g)
    assume(b.det_doubled() != 0)
    return b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 5, 7)), ternary_forms())
@example(3, HalfIntegralMatrix.from_doubled([[0, 1, 1], [1, 0, 3], [1, 3, 0]]))
@example(2, HalfIntegralMatrix.from_doubled([[2, 0, 0], [0, 0, 1], [0, 1, -10]]))
@example(7, HalfIntegralMatrix.from_doubled([[14, 0, 0], [0, 14, 7], [0, 7, 28]]))
def test_c1_matches_the_character_sum(p, b):
    # c_1 from 2B mod p (odd p) or the 7 points of P^2(F_2), against the sum
    # over the p^6 R of level <= p
    assert _c1(p, b, 2**24) == _character_sum_series(p, b, 1, 2**18)[1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from((3, 5, 7, 11, 13)), ternary_forms(), st.sets(st.integers(0, 2), max_size=3))
# rank 3 with every principal 2 x 2 minor divisible by 3; rank 0; rank 2
# with a zero diagonal
@example(3, HalfIntegralMatrix.from_doubled([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), set())
@example(5, HalfIntegralMatrix.identity(3), {0, 1, 2})
@example(13, HalfIntegralMatrix.from_doubled([[0, 1, 0], [1, 0, 0], [0, 0, 2]]), {2})
def test_odd_p_c1_from_2b_mod_p(p, b, scaled):
    # rows and columns in `scaled` are multiplied by p, so 2B mod p has rank
    # at most 3 - |scaled|: every rank from 3 down to 0 is drawn
    g = [
        [x * p ** ((i in scaled) + (j in scaled)) for j, x in enumerate(row)]
        for i, row in enumerate(b.doubled)
    ]
    b = HalfIntegralMatrix.from_doubled(g)
    assert _c1(p, b, 1) == _character_sum_series(p, b, 1, p**6)[1]


def test_odd_p_c1_counts_no_points():
    # 1009^2 + 1009 + 1 points would take seconds; the rank of 2B mod p is
    # read instead, and the budget is not consulted
    b = HalfIntegralMatrix.diagonal(1, 1009, 1009)
    start = time.perf_counter()
    assert local_F(1009, b, budget=1).coeffs == (1, 0, 1009**4)
    assert time.perf_counter() - start < 0.1


def test_c1_counts_the_points_of_the_plane_against_the_budget():
    b = HalfIntegralMatrix.identity(3)
    assert _c1(2, b, 7) == _character_sum_series(2, b, 1, 64)[1]
    with pytest.raises(BudgetExceeded, match="7 points of P\\^2\\(F_p\\) exceed the budget of 6"):
        _c1(2, b, 6)


def scale_rows(p: int, b: HalfIntegralMatrix, powers) -> HalfIntegralMatrix:
    """B with row and column i multiplied by p^powers[i]."""
    return HalfIntegralMatrix.from_doubled(
        [
            [x * p ** (powers[i] + powers[j]) for j, x in enumerate(row)]
            for i, row in enumerate(b.doubled)
        ]
    )


def strata_c2(p: int, b: HalfIntegralMatrix) -> int:
    """c_2 by its two level-p^2 strata, summed term by term over 2 p^6 points:
    the Ramanujan sums c_(p^2)(Q_B(v)) over primitive v mod p^2, divided by
    the p^2 - p units, plus e_p(tr BS') over the S' mod p of rank 2, which is
    N_0 - N_(!=0) / (p - 1) as S' -> uS' permutes the nonzero traces."""
    g, q = b.doubled, p * p
    first = 0
    for v in product(range(q), repeat=3):
        if any(x % p for x in v):
            value = sum(g[i][j] * v[i] * v[j] for i in range(3) for j in range(3)) // 2
            first += q - p if value % q == 0 else -p if value % p == 0 else 0
    counts = [0, 0]
    for a, d, e, bb, f, c in product(range(p), repeat=6):
        s = ((a, d, e), (d, bb, f), (e, f, c))
        det = a * (bb * c - f * f) - d * (d * c - f * e) + e * (d * f - bb * e)
        if det % p or not any(
            (s[i][k] * s[j][m] - s[i][m] * s[j][k]) % p
            for i, j in combinations(range(3), 2)
            for k, m in combinations(range(3), 2)
        ):
            continue
        trace = g[0][0] // 2 * a + g[1][1] // 2 * bb + g[2][2] // 2 * c
        trace += g[0][1] * d + g[0][2] * e + g[1][2] * f
        counts[trace % p != 0] += 1
    assert first % (q - p) == 0 and counts[1] % (p - 1) == 0
    return first // (q - p) + counts[0] - counts[1] // (p - 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3)), ternary_forms(), st.tuples(*[st.integers(0, 2)] * 3))
@example(2, HalfIntegralMatrix.identity(3), (0, 0, 0))
@example(3, HalfIntegralMatrix.from_doubled([[0, 1, 0], [1, 0, 0], [0, 0, 2]]), (0, 0, 2))
@example(2, HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 2, 0], [0, 0, 2]]), (1, 1, 2))
def test_c2_matches_the_character_sum(p, b, powers):
    # rows and columns scaled by p^0..p^2, so 2B mod p and mod p^2 take
    # every rank, against the sum over the p^12 R of level <= p^2
    b = scale_rows(p, b, powers)
    assert _c2(p, b, 2 * (p * p + p + 1)) == oracle_bp(p, b, 2)[2]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(ternary_forms(), st.tuples(*[st.integers(0, 2)] * 3))
@example(HalfIntegralMatrix.diagonal(1, 5, 5), (0, 0, 0))
def test_c2_matches_its_strata_at_p5(b, powers):
    # 5^12 R are too many for the sum; the strata themselves take 2 * 5^6
    b = scale_rows(5, b, powers)
    assert _c2(5, b, 62) == strata_c2(5, b)


def test_c2_counts_points_and_planes_against_the_budget():
    b = HalfIntegralMatrix.identity(3)
    assert _c2(2, b, 14) == oracle_bp(2, b, 2)[2] == -20
    message = "c_2 at p = 2 .*: 14 points and planes of P\\^2\\(F_p\\) exceed the budget of 13"
    with pytest.raises(BudgetExceeded, match=message):
        _c2(2, b, 13)


@pytest.mark.parametrize("p", [2, 3])
def test_degree_at_most_five_never_enumerates(monkeypatch, p):
    # 12 forms of each degree 1..5 at p, of every signature: local_F reads
    # c_1 and c_2 off strata, and neither the sum nor its level table runs
    def refuse(*args):
        raise AssertionError(f"enumerated at p = {args[0]}")

    monkeypatch.setattr(siegelseries, "_character_sum_series", refuse)
    monkeypatch.setattr(siegelseries, "_level_table", refuse)
    rng, checked = random.Random(p), {d: 0 for d in range(1, 6)}
    while min(checked.values()) < 12:
        diagonal = [2 * rng.randint(-6, 6) for _ in range(3)]
        r, s, t = (rng.randint(-12, 12) for _ in range(3))
        g = [[diagonal[0], r, s], [r, diagonal[1], t], [s, t, diagonal[2]]]
        b = scale_rows(p, HalfIntegralMatrix.from_doubled(g), [rng.randint(0, 2) for _ in range(3)])
        d = expected_degree(p, b) if b.det_doubled() else 0
        if checked.get(d, 12) < 12:
            assert len(local_F(p, b).coeffs) == d + 1
            checked[d] += 1


def test_level_table_carries_nothing_of_b():
    # B1, B2, B1 at one (p, n, j): every pass reads the same cached table,
    # and each result is the reference kernel's for its own B
    b1 = HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 4, 1], [0, 1, 6]])
    b2 = HalfIntegralMatrix.from_doubled([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    before = _level_table.cache_info()
    for b in (b1, b2, b1):
        assert kernel_series(2, b, 3) == reference_series(2, b, 3)
    after = _level_table.cache_info()
    assert after.hits - before.hits >= 2 and after.misses - before.misses <= 1
    assert not _level_table(2, 3, 3).flags.writeable


@pytest.mark.parametrize("chunk", [2**3, 2**5])
def test_chunks_and_blocks_do_not_change_the_sum(monkeypatch, chunk):
    # chunks of 8 or 32 of the 4096 points: the table is built in 512 or 128
    # chunks, and per B one or two low digits span a block of 4 or 16
    # points, while the other five or four are read off the block index
    from eiscong import siegelseries

    whole = _level_table.__wrapped__(2, 3, 2)
    monkeypatch.setattr(siegelseries, "_CHUNK", chunk)
    assert (_level_table.__wrapped__(2, 3, 2) == whole).all()
    for b in (
        HalfIntegralMatrix.from_doubled([[2, 1, 0], [1, 4, 1], [0, 1, 6]]),
        HalfIntegralMatrix.from_doubled([[2, 0, 0], [0, 0, 1], [0, 1, -10]]),
    ):
        assert kernel_series(2, b, 2) == reference_series(2, b, 2)


def test_budget_is_checked_before_a_table_is_built():
    before = _level_table.cache_info()
    with pytest.raises(BudgetExceeded, match="through X\\^5: 1073741824 representatives"):
        _character_sum_series(2, HalfIntegralMatrix.identity(3), 5, 2**24)
    assert _level_table.cache_info() == before


def test_collapse_rejects_a_histogram_that_is_not_unit_invariant():
    # sum_t counts[t] zeta_9^t = 1 is rational, yet counts[1] != counts[2]
    counts = [1, 2, 3, 0, 2, 3, 0, 2, 3]
    assert reference_collapse(counts, 3, 2) == 1
    with pytest.raises(AssertionError):
        _collapse_histogram(counts, 3, 2)


def test_collapse_check_survives_optimized_mode():
    # python -O strips assert statements; the check must not be one
    proc = run_python(
        "-O",
        "-c",
        "from eiscong.siegelseries import _collapse_histogram\n"
        "try:\n"
        "    _collapse_histogram([1, 2, 3, 0, 2, 3, 0, 2, 3], 3, 2)\n"
        "except AssertionError:\n"
        "    print('raised')\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
