"""Tests for pullback coefficients, the determinant criterion and certificates."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from collections.abc import Callable
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong import pullback
from eiscong.arith import factorize, ord_p, zeta_neg
from eiscong.eisen import EisensteinContext
from eiscong.errors import BudgetExceeded, UnsupportedHeckeField
from eiscong.gegenbauer import BinaryForm
from eiscong.pullback import (
    CongruenceCertificate,
    Strictness,
    Verdict,
    certify,
    epsilon,
    epsilon_hecke,
    gamma1,
    gamma2,
)
from eiscong.qexp import eigen_basis
from eiscong.quadform import HalfIntegralMatrix, build_T, enumerate_R, parse_half_integral
from test_gegenbauer import eval_binary_per_row
from test_qexp import tm_eigenvalue

I2 = HalfIntegralMatrix.identity(2)

# Regression value for eps_{14,2}(1, I)(1, 0), derived by this build and
# cross-validated by the Hecke identity below; the corresponding printed
# value in the worked example it mirrors is inconsistent with its sibling
# (see the acceptance suite and the reviewer notes).
EPS_14_2 = 2418024960
EPS_8_8 = -46666368


# the (k, nu) of the certify sweep: even k >= 6, even nu >= 2, one-dimensional S_(k+nu)
SWEEP_PAIRS = [(k, w - k) for w in (12, 16, 18, 20, 22, 26) for k in range(6, w - 1, 2)]


def epsilon_binary_sums(k: int, nu: int, n: int, quad: HalfIntegralMatrix) -> BinaryForm:
    """The earlier epsilon: a BinaryForm sum of a(T) times the per-row
    specialization, row by row."""
    ctx = EisensteinContext(3, k)
    total = BinaryForm(nu, (Fraction(0),) * (nu + 1))
    for r_pair in enumerate_R(n, quad):
        coeff = ctx.coefficient(build_T(n, quad, r_pair))
        if coeff:
            total = total + coeff * eval_binary_per_row(2 * k, nu, r_pair, n, quad)
    return total


def c_kv1(k: int, nu: int) -> tuple[Fraction, int]:
    """The rank-1 pullback constant c_{k,nu,1} = 2^4 (k)_nu (2k-1)_(nu-1) pi,
    as (rational coefficient, power of pi)."""
    return 2**4 * rising(k, nu) * rising(2 * k - 1, nu - 1), 1


def rising(x: int, n: int) -> Fraction:
    """(x)_n as a running product of Fractions."""
    value = Fraction(1)
    for i in range(n):
        value *= x + i
    return value


def gamma_formula(k: int, nu: int, sign_exp: int, two_exp: int, shift: int) -> Fraction:
    """The docstring formula of the gamma constants, term by term in Fractions."""
    return (
        Fraction(-1) ** sign_exp
        * 2**two_exp
        * math.factorial(nu)
        * rising(k - 1, nu + 1)
        * rising(2 * k - 1, nu - 2)
        / rising(2 * k + nu - shift, nu - 1)
    )


class TestGammaConstants:
    @pytest.mark.parametrize("k", range(6, 41, 2))
    def test_integer_products_match_the_formula(self, k):
        for nu in range(2, 31, 2):
            assert gamma1(k, nu) == gamma_formula(k, nu, (k + nu) // 2 + 1, 3, 2), nu
            assert gamma2(k, nu) == gamma_formula(k, nu, nu // 2 + 1, 5, 4), nu

    @pytest.mark.parametrize("k, nu", [(13, 2), (14, 3), (0, 2), (-2, 2), (14, 0), (14, -2)])
    def test_odd_or_non_positive_k_nu_raise(self, k, nu):
        for gamma in (gamma1, gamma2):
            with pytest.raises(ValueError, match="k and nu must be positive even integers"):
                gamma(k, nu)

    def test_gamma1_14_2(self):
        assert gamma1(14, 2) == -1560

    def test_gamma2_14_2(self):
        assert gamma2(14, 2) == 6720

    def test_gamma1_8_8_sign_and_23_order(self):
        g = gamma1(8, 8)
        assert g < 0
        assert ord_p(23, g) == -1

    def test_rejects_nu_zero(self):
        with pytest.raises(ValueError):
            gamma1(14, 0)
        with pytest.raises(ValueError):
            gamma2(14, 1)

    def test_gamma1_consistent_with_c1(self):
        # gamma1 = nu! (2 pi i)^-nu (k-1)(-1)^(k/2+1) (2 pi)^(nu-1)
        #          / (2k+nu-3)_nu * c_{k,nu,1}; all pi powers cancel
        from math import factorial

        for k, nu in ((8, 2), (8, 8), (14, 2), (10, 4), (6, 6)):
            c1, pi_exponent = c_kv1(k, nu)
            i_power = Fraction((-1) ** (nu // 2))  # (2 pi i)^-nu vs (2 pi)^-nu
            sign_k = Fraction((-1) ** (k // 2 + 1))
            value = (
                factorial(nu)
                * i_power
                * Fraction(1, 2**nu)
                * (k - 1)
                * sign_k
                * Fraction(2 ** (nu - 1))
                / rising(2 * k + nu - 3, nu)
                * c1
            )
            total_pi = -nu + (nu - 1) + pi_exponent
            assert total_pi == 0
            assert value == gamma1(k, nu), (k, nu)


class TestEpsilon:
    def test_published_8_8(self):
        form = epsilon(8, 8, 1, I2)
        assert form.evaluate(1, 1) == EPS_8_8

    def test_regression_14_2(self):
        form = epsilon(14, 2, 1, I2)
        assert form.evaluate(1, 0) == EPS_14_2

    def test_symmetry_for_identity_form(self):
        for k, nu in ((14, 2), (8, 8)):
            form = epsilon(k, nu, 1, I2)
            assert form.coeffs[0] == form.coeffs[-1]
            assert form.coeffs == tuple(reversed(form.coeffs))

    def test_homogeneous_degree(self):
        form = epsilon(14, 2, 2, I2)
        assert form.degree == 2
        assert form.evaluate(0, 0) == 0

    def test_reach_n7_within_default_budget(self):
        # the half-length size-3 character sum keeps every local factor of
        # eps_{14,2}(7, I) inside DEFAULT_BUDGET
        form = epsilon(14, 2, 7, I2)
        assert form.degree == 2
        assert form.coeffs == tuple(reversed(form.coeffs))

    def test_rejects(self):
        with pytest.raises(ValueError):
            epsilon(14, 2, 0, I2)
        with pytest.raises(ValueError):
            epsilon(4, 2, 1, I2)


@pytest.mark.parametrize(
    "call, k, nu",
    [
        (lambda: epsilon(4, 2, 1, I2), 4, 2),
        (lambda: epsilon(14, 3, 1, I2), 14, 3),
        (lambda: certify(4, 8, 23, I2), 4, 8),
    ],
    ids=["epsilon-k4", "epsilon-nu3", "certify-k4"],
)
def test_one_k_nu_rule(call, k, nu):
    # epsilon and certify state their (k, nu) domain in lvalue's words
    message = f"need even k >= 6 and even nu >= 2, got k = {k}, nu = {nu}"
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# N with 8, 4, 4, 4 and 2 signed permutations h such that h N h^t = N
ORACLE_FORMS = ("1,0,1", "1,1,1", "1,-1,1", "1,0,2", "2,1,3")


def row_orbits(n: int, quad: HalfIntegralMatrix) -> list[set[tuple[int, int]]]:
    """The orbits of enumerate_R(n, N) under the signed permutations that
    fix N, each grown by applying every such h until it is closed."""
    fixing = []
    for perm in permutations(range(2)):
        for signs in product((1, -1), repeat=2):
            h = tuple(tuple(signs[i] * (j == perm[i]) for j in range(2)) for i in range(2))
            if quad.transform(h) == quad:
                fixing.append(h)
    rows = set(enumerate_R(n, quad))
    orbits: list[set[tuple[int, int]]] = []
    while rows:
        orbit = {rows.pop()}
        frontier = set(orbit)
        while frontier:
            images = {
                tuple(sum(h[i][j] * r[j] for j in range(2)) for i in range(2))
                for r in frontier
                for h in fixing
            }
            frontier = images - orbit
            orbit |= frontier
        rows -= orbit
        orbits.append(orbit)
    return orbits


class TestEpsilonOracle:
    @pytest.mark.parametrize("k, nu", SWEEP_PAIRS)
    def test_grouped_sums_match_binary_form_sums(self, k, nu):
        for text in ORACLE_FORMS:
            quad = parse_half_integral(text)
            for n in (1, 2, 3):
                expected = epsilon_binary_sums(k, nu, n, quad)
                assert epsilon(k, nu, n, quad) == expected, (text, n)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("k, nu", [(14, 2), (8, 8)])
    def test_larger_n_match_binary_form_sums(self, k, nu, n):
        # more rows per orbit, and rows on the boundary det(2T) = 0 (rank-2 T)
        for text in ORACLE_FORMS:
            quad = parse_half_integral(text)
            expected = epsilon_binary_sums(k, nu, n, quad)
            assert epsilon(k, nu, n, quad) == expected, text

    @pytest.mark.parametrize("text", ORACLE_FORMS)
    def test_one_coefficient_per_orbit(self, monkeypatch, text):
        quad = parse_half_integral(text)
        calls = []
        coefficient = EisensteinContext.coefficient

        def spy(ctx, t):
            calls.append(t)
            return coefficient(ctx, t)

        monkeypatch.setattr(EisensteinContext, "coefficient", spy)
        for n in (1, 2, 3):
            calls.clear()
            epsilon.__wrapped__(14, 2, n, quad)
            orbits = row_orbits(n, quad)
            assert sorted(calls, key=lambda t: t.doubled) == sorted(
                (build_T(n, quad, min(orbit)) for orbit in orbits), key=lambda t: t.doubled
            ), n


class TestEpsilonHecke:
    def test_identity_operator(self):
        assert epsilon_hecke(14, 2, 1, 1, I2) == epsilon(14, 2, 1, I2)
        n111 = parse_half_integral("1,1,1")
        assert epsilon_hecke(10, 6, 1, 2, n111) == epsilon(10, 6, 2, n111)

    def test_prime_at_one(self):
        # (T(2) g)(1) = g(2): the lower term drops
        assert epsilon_hecke(14, 2, 2, 1, I2) == epsilon(14, 2, 2, I2)

    def test_prime_at_two(self):
        expect = epsilon(14, 2, 4, I2) + 2**15 * epsilon(14, 2, 1, I2)
        assert epsilon_hecke(14, 2, 2, 2, I2) == expect

    @pytest.mark.parametrize("m, n", [(1, 0), (2, -3)])
    def test_rejects_n_below_one(self, m, n):
        # as epsilon does, rather than returning the zero form
        with pytest.raises(ValueError, match="need n >= 1"):
            epsilon_hecke(14, 2, m, n, I2)

    def test_eigenvalue_identity(self):
        # the series n -> eps(n, N) lies in the weight-16 eigenspace, so the
        # composite Hecke operators act by the eigenvalue table
        f = eigen_basis(16)[0]
        base = epsilon(14, 2, 1, I2)
        for m in (1, 2, 3, 4):
            lam = tm_eigenvalue(f, m)
            assert epsilon_hecke(14, 2, m, 1, I2) == lam * base, m


    @pytest.mark.parametrize("m", [6, 8, 12])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_the_recursive_composition(self, m, n):
        assert epsilon_hecke(14, 2, m, n, I2) == epsilon_hecke_recursive(14, 2, m, n, I2)

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("n", [1, 2])
    def test_non_integral_sums_match_the_recursive_composition(self, monkeypatch, m, n):
        # eps(10, 6, 1, [1,1,1]) has coefficients with denominator 3
        n111 = parse_half_integral("1,1,1")
        expect = epsilon_hecke_recursive(10, 6, m, n, n111)
        summed = []
        monkeypatch.setattr(
            pullback, "epsilon", lambda *args: summed.append(args) or epsilon(*args)
        )
        assert epsilon_hecke(10, 6, m, n, n111) == expect
        if (m, n) in ((2, 2), (4, 1)):
            # the sum runs over eps(1), a non-integral form
            assert any(c.denominator > 1 for args in summed for c in epsilon(*args).coeffs)

    def test_many_prime_factors_is_a_budget_error(self, monkeypatch):
        # the largest index, 2^1100, has a row box past enumerate_R's bound,
        # which is refused before m is factored or any Hecke weight is built
        calls = []
        monkeypatch.setattr(pullback, "factorize", lambda n: calls.append(n) or factorize(n))
        with pytest.raises(BudgetExceeded, match="row box"):
            epsilon_hecke(14, 2, 2**1100, 1, I2)
        assert calls == []

    def test_huge_n_is_a_budget_error(self):
        # a 4*10^6 x 4*10^6 row box is refused before it is walked
        with pytest.raises(BudgetExceeded, match="row box"):
            epsilon(14, 2, 10**12, I2)


def epsilon_hecke_recursive(
    k: int, nu: int, m: int, n: int, quad: HalfIntegralMatrix
) -> BinaryForm:
    """The earlier epsilon_hecke: one recursion level per prime factor of m,
    (T(p) g)(idx) = g(idx p) + p^(k+nu-1) g(idx / p)."""
    ops = [p for p, e in factorize(m).items() for _ in range(e)] if m > 1 else []

    def value(remaining: list[int], idx: int) -> BinaryForm:
        if not remaining:
            return epsilon(k, nu, idx, quad)
        p, rest = remaining[0], remaining[1:]
        out = value(rest, idx * p)
        if idx % p == 0:
            out = out + p ** (k + nu - 1) * value(rest, idx // p)
        return out

    return value(ops, n)


# (N, largest n) of the eigenform identity tests
IDENTITY_CASES = [(I2, 48)] + [(parse_half_integral(t), 12) for t in ("1,0,2", "1,1,1", "2,1,3")]


@pytest.mark.parametrize("k, nu", [(14, 2), (8, 8), (12, 6)])
def test_eigenform_identity_at_every_n(k, nu):
    """eps(k, nu, n, N) = a_f(n) eps(k, nu, 1, N) for the normalized eigenform
    f of the one-dimensional S_(k+nu): n -> eps(n, N) lies in its eigenspace
    (Garrett's pullback formula).  n <= 48 reaches rows that no oracle_bp
    call can enumerate, such as T = diag(32, 1, 1), where F_2 has degree 7:
    the full sum through X^7 would take 2^42 points, local_F enumerates
    through X^3 and takes the rest from the functional equation."""
    f = eigen_basis(k + nu, 255)[0]
    for quad, n_max in IDENTITY_CASES:
        base = epsilon(k, nu, 1, quad)
        assert any(base.coeffs)
        for n in range(2, n_max + 1):
            assert epsilon(k, nu, n, quad) == f.coefficient(n) * base, (quad, n)
    # n = 64 meets F_2 of degree >= 8 (2^24 points through X^4), where a
    # wrong coefficient first shows; n = 255 meets F_17 of degree 2, whose c_1
    # is read off 2B mod 17, where the sum over R would take 17^6 points
    for n in (64, 255):
        assert epsilon(k, nu, n, I2) == f.coefficient(n) * epsilon(k, nu, 1, I2), n


def test_eigenform_identity_at_313():
    """n = 313 meets F_5 of degree 4, whose c_2 comes from the level-25
    strata (the sum through X^2 would take 5^12 points, past the budget), and
    F_3 of degree 4 and 5."""
    f = eigen_basis(16, 313)[0]
    assert epsilon(14, 2, 313, I2) == f.coefficient(313) * epsilon(14, 2, 1, I2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    pair=st.sampled_from(SWEEP_PAIRS),
    case=st.sampled_from(IDENTITY_CASES).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.integers(2, case[1]))
    ),
)
def test_eigenform_identity_over_the_sweep(pair, case):
    """eps(k, nu, n, N) = a_f(n) eps(k, nu, 1, N) for (k, nu) drawn from the
    certify sweep: every weight reads the same row orbits of (n, N)."""
    (k, nu), (quad, n) = pair, case
    f = eigen_basis(k + nu, 48)[0]
    assert epsilon(k, nu, n, quad) == f.coefficient(n) * epsilon(k, nu, 1, quad)


class TestCond2Determinant:
    """The determinant criterion (condition 2) as `certify` runs it."""

    def test_dim_one_reduction(self):
        cert = certify(14, 2, 373, I2, slot=0)
        e1 = epsilon(14, 2, 1, I2).coeffs[0]
        assert cert.lhs_invariant == zeta_neg(26) * e1
        assert cert.zeta3m2k == zeta_neg(26)

    def test_zero_slot_gives_zero(self):
        # the xy slot of eps(1, I) vanishes for nu = 2
        cert = certify(14, 2, 373, I2, slot=1)
        assert cert.lhs_invariant == 0
        assert cert.condition("2") == (False, False)

    def test_pick_slot(self):
        assert certify(14, 2, 373, I2).slot == 0
        cert = certify(8, 8, 23, I2, strictness=Strictness.RELAXED)
        assert epsilon(8, 8, 1, I2).coeffs[cert.slot] != 0

    def test_pick_slot_falls_back_to_a_nonzero_slot(self):
        # every coefficient of eps_{14,2}(1, I) is even, so no slot is a
        # unit mod 2 and the first nonzero slot is taken
        assert epsilon(14, 2, 1, I2).coeffs == (EPS_14_2, 0, EPS_14_2)
        cert = certify(14, 2, 2, I2)
        assert cert.slot == 0
        assert cert.verdict is Verdict.NOT_ESTABLISHED

    def test_m_list_length_guard(self):
        with pytest.raises(ValueError, match="m_list must have length dim S = 1"):
            certify(14, 2, 373, I2, m_list=(1, 2), slot=0)

    @pytest.mark.parametrize("slot", [-1, 3])
    def test_slot_out_of_range(self, slot):
        # eps_{14,2} has the nu + 1 = 3 slots 0, 1, 2
        with pytest.raises(ValueError, match="slot out of range"):
            certify(14, 2, 373, I2, slot=slot)

    def test_one_read_of_the_eigenform_and_of_eps_1(self, monkeypatch):
        # eps(1, A) is read once by certify and once by epsilon_hecke at
        # m = 1; the eigenform of S_16 is read once
        calls: dict[str, list] = {"epsilon": [], "eigen_basis": []}
        for name in calls:
            original = getattr(pullback, name)

            def spy(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(pullback, name, spy)
        certify(14, 2, 373, I2)
        assert calls == {"epsilon": [(14, 2, 1, I2)] * 2, "eigen_basis": [(16,)]}


class TestCertify:
    def test_proven_mod_p(self):
        cert = certify(14, 2, 373, I2, strictness=Strictness.STRICT)
        assert cert.verdict is Verdict.PROVEN_MOD_P
        assert cert.alpha == 1
        assert cert.condition("1") == (True, False)
        assert cert.condition("2") == (True, False)
        assert cert.condition("3") == (True, False)
        assert "(1 + q^12)" in cert.implied_congruence
        assert "mod 373" in cert.implied_congruence

    def test_proven_mod_p_alpha_relaxed(self):
        cert = certify(8, 8, 23, I2, strictness=Strictness.RELAXED)
        assert cert.verdict is Verdict.PROVEN_MOD_P_ALPHA
        assert cert.alpha == 2
        holds3, waived3 = cert.condition("3")
        assert not holds3 and waived3
        assert ord_p(23, cert.gamma1) == -1
        assert "mod 23^2" in cert.implied_congruence

    def test_strict_size_gate_fails_at_23(self):
        cert = certify(8, 8, 23, I2, strictness=Strictness.STRICT)
        assert cert.verdict is Verdict.NOT_ESTABLISHED

    def test_not_established_at_7(self):
        cert = certify(14, 2, 7, I2, strictness=Strictness.STRICT)
        assert cert.verdict is Verdict.NOT_ESTABLISHED
        assert cert.alpha == -1
        assert cert.condition("1") == (False, False)

    def test_l_values_recorded(self):
        cert = certify(14, 2, 373, I2)
        assert cert.l_value == Fraction(2**20 * 3**4 * 373, 7)
        assert cert.zeta3m2k == zeta_neg(26)
        assert cert.gamma1 == -1560 and cert.gamma2 == 6720


def _bump(doc: dict, *path: str) -> None:
    """Add one to the serialized rational at doc[path[0]][path[1]]...; on the
    relaxed (8, 8, 23) certificate this keeps every p-unit status."""
    for key in path[:-1]:
        doc = doc[key]
    x = doc[path[-1]]
    x["num"] = str(int(x["num"]) + int(x["den"]))


# Each edit leaves alpha, the holds flags and the verdict as they were, so
# only a check of the edited field itself can reject it.
TAMPERS = {
    "waived": lambda doc: doc["conditions"]["3"].update(waived=False),
    "implied_congruence": lambda doc: doc.update(
        implied_congruence=doc["implied_congruence"].replace("mod 23^2", "mod 23")
    ),
    "gamma1": lambda doc: _bump(doc, "gamma1"),
    "gamma2": lambda doc: _bump(doc, "gamma2"),
    "zeta_3_minus_2k": lambda doc: _bump(doc, "zeta_3_minus_2k"),
    "at_1_0": lambda doc: _bump(doc, "epsilon", "at_1_0"),
    "at_1_1": lambda doc: _bump(doc, "epsilon", "at_1_1"),
}


@pytest.fixture(scope="module")
def relaxed_doc() -> dict:
    return certify(8, 8, 23, I2, strictness=Strictness.RELAXED).to_json_dict()


def _edit_rat(key: str, part: str, edit: Callable[[int], int]) -> Callable[[dict], None]:
    """Tamper that replaces doc[key][part] by edit(int(doc[key][part]))."""
    return lambda doc: doc[key].update({part: str(edit(int(doc[key][part])))})


# Edits of the strict (14, 2, p) certificates' stored inputs that keep every
# p-unit status, so the verdict logic alone would accept them; each entry is
# (p, edit).
INPUT_TAMPERS = {
    "delta": (373, lambda doc: doc["epsilon_witness"].update(delta={"num": "2", "den": "1"})),
    "lhs_invariant": (
        373,
        lambda doc: doc["epsilon_witness"].update(lhs_invariant={"num": "5", "den": "1"}),
    ),
    "dim_cusp_space": (373, lambda doc: doc.update(dim_cusp_space=0)),
    "slot": (373, lambda doc: doc.update(slot=1)),  # eps(1, I)[1] = 0
    "m_list": (373, lambda doc: doc.update(m_list=[1, 2])),
    "m_list_zero": (373, lambda doc: doc.update(m_list=[0])),
    "m_list_two": (373, lambda doc: doc.update(m_list=[2])),
    "L_value_negated": (373, _edit_rat("L_value", "num", lambda x: -x)),
    "L_value_den_8": (373, _edit_rat("L_value", "den", lambda x: 8)),
    "L_value_den_negated": (373, _edit_rat("L_value", "den", lambda x: -x)),
    "L_value_num_plus_one_p7": (7, _edit_rat("L_value", "num", lambda x: x + 1)),
    # weight 24 has a two-dimensional cusp space: UnsupportedHeckeField inside
    "k_unsupported_weight": (373, lambda doc: doc.update(k=22)),
}


@pytest.fixture(scope="module")
def strict_docs() -> dict[int, dict]:
    return {p: certify(14, 2, p, I2).to_json_dict() for p in (373, 7)}


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = certify(14, 2, 373, I2)
        doc = cert.to_json_dict()
        assert doc["schema"] == "eiscong-cert-v1"
        back = CongruenceCertificate.from_json_dict(json.loads(json.dumps(doc, indent=2)))
        assert back == cert

    def test_rationals_are_strings(self):
        doc = certify(14, 2, 373, I2).to_json_dict()
        assert doc["L_value"] == {"num": str(2**20 * 3**4 * 373), "den": "7"}
        assert isinstance(doc["epsilon"]["coeffs"][0]["num"], str)

    def test_tampered_verdict_rejected(self):
        doc = certify(14, 2, 7, I2).to_json_dict()
        doc["verdict"] = "ProvenModP"
        with pytest.raises(ValueError):
            CongruenceCertificate.from_json_dict(doc)

    def test_tampered_l_value_rejected(self):
        doc = certify(14, 2, 373, I2).to_json_dict()
        doc["L_value"] = {"num": "5", "den": "1"}
        with pytest.raises(ValueError):
            CongruenceCertificate.from_json_dict(doc)

    def test_unknown_schema_rejected(self):
        doc = certify(14, 2, 373, I2).to_json_dict()
        doc["schema"] = "other"
        with pytest.raises(ValueError):
            CongruenceCertificate.from_json_dict(doc)

    def test_reference_gamma_display_only(self):
        ref = Fraction(-91, 2**31)
        cert = certify(14, 2, 373, I2, reference_gamma=ref)
        assert cert.verdict is Verdict.PROVEN_MOD_P  # unaffected
        doc = cert.to_json_dict()
        assert doc["reference_gamma"] == {"num": "-91", "den": str(2**31)}
        back = CongruenceCertificate.from_json_dict(doc)
        assert back.reference_gamma == ref

    @pytest.mark.parametrize("a_text", ["1,0,1", "1,1,1"])
    def test_at_1_1_is_the_fraction_sum_over_the_sweep(self, strict_docs, a_text):
        # the document's epsilon(1, A) at (1, 1), summed over one common
        # denominator, against the Fraction sum of the coefficients, for
        # every (k, nu) of the certify sweep; each form is set on the
        # (14, 2, 373) certificate, the one field at_1_1 reads
        a = parse_half_integral(a_text)
        cert = CongruenceCertificate.from_json_dict(strict_docs[373])
        for k, nu in SWEEP_PAIRS:
            form = epsilon(k, nu, 1, a)
            doc = dataclasses.replace(cert, epsilon_form=form).to_json_dict()
            expected = sum(form.coeffs, Fraction(0))
            assert expected == form.evaluate(1, 1), (k, nu)
            assert doc["epsilon"]["at_1_1"] == {
                "num": str(expected.numerator), "den": str(expected.denominator)
            }, (k, nu)

    @pytest.mark.parametrize("field", sorted(TAMPERS))
    def test_tampered_derived_field_rejected(self, relaxed_doc, field):
        doc = copy.deepcopy(relaxed_doc)
        CongruenceCertificate.from_json_dict(doc)  # untouched: accepted
        TAMPERS[field](doc)
        assert doc != relaxed_doc
        with pytest.raises(ValueError):
            CongruenceCertificate.from_json_dict(doc)

    @pytest.mark.parametrize("field", sorted(INPUT_TAMPERS))
    def test_tampered_input_field_rejected(self, strict_docs, field):
        p, edit = INPUT_TAMPERS[field]
        doc = copy.deepcopy(strict_docs[p])
        CongruenceCertificate.from_json_dict(doc)  # untouched: accepted
        edit(doc)
        assert doc != strict_docs[p]
        with pytest.raises(ValueError):
            CongruenceCertificate.from_json_dict(doc)


# Every top-level key of a certificate document except its schema.
CERT_KEYS = (
    "k", "nu", "p", "A", "strictness", "m_list", "slot", "dim_cusp_space",
    "L_value", "alpha", "gamma1", "gamma2", "zeta_3_minus_2k", "epsilon",
    "epsilon_witness", "conditions", "verdict", "implied_congruence",
)

# Each entry maps the strict (14, 2, 373) document to a malformed one.
MALFORMED = {
    **{
        f"missing_{key}": lambda doc, key=key: {k: v for k, v in doc.items() if k != key}
        for key in CERT_KEYS
    },
    "k_null": lambda doc: {**doc, "k": None},
    "m_list_int": lambda doc: {**doc, "m_list": 5},
    "A_null": lambda doc: {**doc, "A": None},
    "reference_gamma_zero_den": lambda doc: {**doc, "reference_gamma": {"num": "1", "den": "0"}},
    "list_not_object": lambda doc: [doc],
}


class TestMalformedCertificate:
    def test_cert_keys_are_the_document_keys(self, strict_docs):
        assert set(strict_docs[373]) == {"schema", *CERT_KEYS}

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_value_error(self, strict_docs, case):
        doc = json.loads(json.dumps(MALFORMED[case](strict_docs[373])))
        with pytest.raises(ValueError):
            CongruenceCertificate.from_json_dict(doc)


# The fields `certify` takes; every other leaf of a document is derived.
INPUT_KEYS = {"k", "nu", "p", "A", "strictness", "m_list", "slot", "reference_gamma"}

LEAF_DOCS = {
    "strict_14_2_373": (14, 2, 373, Strictness.STRICT, None),
    "strict_14_2_7": (14, 2, 7, Strictness.STRICT, None),
    "relaxed_8_8_23": (8, 8, 23, Strictness.RELAXED, None),
    "reference_gamma": (14, 2, 373, Strictness.STRICT, Fraction(-91, 2**31)),
}

# The value edits whose document is still certify's: (14, 2, 373) meets
# every condition, so relaxing it changes nothing else, and the display-only
# reference value -91/(2^31 + 1) is in lowest terms.
ACCEPTED_INPUT_EDITS = {
    "strict_14_2_373": [("strictness",)],
    "reference_gamma": [("strictness",), ("reference_gamma", "den")],
}


def _nodes(node, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _replaced(doc: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _is_digits(value) -> bool:
    return isinstance(value, str) and value.lstrip("-").isdigit()


def _changed(value):
    """Another value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if _is_digits(value):
        return str(int(value) + 1)
    for enum in (Verdict, Strictness):
        values = [member.value for member in enum]
        if value in values:
            return values[(values.index(value) + 1) % len(values)]
    return value + " "


def _retyped(value) -> list:
    """value as other JSON types: int -> float and str, bool -> int, digits -> int."""
    if isinstance(value, bool):
        return [int(value)]
    if isinstance(value, int):
        return [float(value), str(value)]
    return [int(value)] if _is_digits(value) else []


def _certified(doc: dict) -> dict | None:
    """certify's document for the inputs doc states, or None if it rejects them."""
    ref = doc.get("reference_gamma")
    try:
        return certify(
            doc["k"], doc["nu"], doc["p"], parse_half_integral(doc["A"]),
            tuple(doc["m_list"]), doc["slot"], Strictness(doc["strictness"]),
            None if ref is None else Fraction(int(ref["num"]), int(ref["den"])),
        ).to_json_dict()
    except (ValueError, UnsupportedHeckeField):
        return None


def _same_json(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _accepted(doc) -> bool:
    try:
        cert = CongruenceCertificate.from_json_dict(doc)
    except ValueError:
        return False
    assert _same_json(cert.to_json_dict(), doc)
    return True


@pytest.fixture(scope="module")
def leaf_docs() -> dict[str, dict]:
    return {
        name: certify(k, nu, p, I2, strictness=s, reference_gamma=ref).to_json_dict()
        for name, (k, nu, p, s, ref) in LEAF_DOCS.items()
    }


class TestEveryLeafTamper:
    """Every edit of every leaf is rejected, except an edit of an input whose
    document is exactly the one `certify` builds from the edited inputs."""

    @pytest.mark.parametrize("name", sorted(LEAF_DOCS))
    def test_changed_value(self, leaf_docs, name):
        doc = leaf_docs[name]
        wrong, accepted = [], []
        for path, value in _nodes(doc):
            if isinstance(value, (dict, list)):
                continue
            edited = _replaced(doc, path, _changed(value))
            if path[0] in INPUT_KEYS:
                expected = _certified(edited)
                should_accept = expected is not None and _same_json(expected, edited)
            else:
                should_accept = False
            if _accepted(edited) != should_accept:
                wrong.append((path, should_accept))
            elif should_accept:
                accepted.append(path)
        assert wrong == []
        assert accepted == ACCEPTED_INPUT_EDITS.get(name, [])

    @pytest.mark.parametrize("name", sorted(LEAF_DOCS))
    def test_changed_type(self, leaf_docs, name):
        doc = leaf_docs[name]
        edits = [
            (path, new)
            for path, value in _nodes(doc)
            if not isinstance(value, (dict, list))
            for new in _retyped(value)
        ]
        assert any(isinstance(new, float) for _, new in edits)
        assert any(isinstance(new, int) and not isinstance(new, bool) for _, new in edits)
        assert [path for path, new in edits if _accepted(_replaced(doc, path, new))] == []

    @pytest.mark.parametrize("name", sorted(LEAF_DOCS))
    def test_extra_key(self, leaf_docs, name):
        doc = leaf_docs[name]
        objects = [path for path, node in _nodes(doc) if isinstance(node, dict)]
        assert () in objects and ("epsilon",) in objects
        assert [path for path in objects if _accepted(_replaced(doc, (*path, "extra"), 0))] == []

    @pytest.mark.parametrize("name", sorted(LEAF_DOCS))
    def test_non_canonical_rational(self, leaf_docs, name):
        doc = leaf_docs[name]
        rationals = [
            (path, node)
            for path, node in _nodes(doc)
            if isinstance(node, dict) and set(node) == {"num", "den"}
        ]
        if name == "reference_gamma":
            assert ("reference_gamma",) in [path for path, _ in rationals]
        doubled = {
            path: {"num": str(2 * int(node["num"])), "den": str(2 * int(node["den"]))}
            for path, node in rationals
        }
        assert [path for path, new in doubled.items() if _accepted(_replaced(doc, path, new))] == []
