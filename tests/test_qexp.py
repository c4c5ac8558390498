"""Tests for level-1 q-expansions, Hecke operators and the standard L-value.

The Eisenstein series E_k, the Hecke operator T(p) and the sum and product
of two series are defined here: they are the oracles for the integer
construction of the Miller bases and for the eigenforms, and no
computation of the package uses them.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eiscong import arith
from eiscong.arith import (
    _over_common_denominator,
    bernoulli,
    divisor_power_sum,
    factorize,
    ord_p,
    zeta_neg,
)
from eiscong.errors import SingularSystem, UnsupportedHeckeField
from eiscong.gegenbauer import _convolve
from eiscong.qexp import (
    QExpansion,
    cohen_series,
    default_precision,
    dim_cusp,
    dim_modular,
    eigen_basis,
    miller_basis,
    petersson_ratio,
    std_l_value,
    sturm_bound,
)


def series_sum(f: QExpansion, g: QExpansion) -> QExpansion:
    """f + g for equal weights, cut to the smaller precision."""
    if f.weight != g.weight:
        raise ValueError("weights must match for addition")
    p = min(f.prec, g.prec)
    return QExpansion(
        f.weight, p, tuple(a + b for a, b in zip(f.coeffs[: p + 1], g.coeffs[: p + 1]))
    )


def series_product(f: QExpansion, g: QExpansion) -> QExpansion:
    """f g: the weights add and the precision is the smaller one.  The
    integer numerators of both operands are convolved over their common
    denominators and each coefficient is divided once."""
    p = min(f.prec, g.prec)
    a, a_den = _over_common_denominator(f.coeffs[: p + 1])
    b, b_den = _over_common_denominator(g.coeffs[: p + 1])
    den = a_den * b_den
    return QExpansion(
        f.weight + g.weight, p, tuple(Fraction(c, den) for c in _convolve(a, b, p + 1))
    )


def eisenstein_qexp(k: int, prec: int) -> QExpansion:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k < 4 or k % 2:
        raise ValueError("need even k >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [Fraction(1)] + [
        factor * divisor_power_sum(n, k - 1) for n in range(1, prec + 1)
    ]
    return QExpansion(k, prec, tuple(coeffs))


def hecke_t(p: int, f: QExpansion) -> QExpansion:
    """T(p) in weight k: a(n) -> a(np) + p^(k-1) a(n/p); precision drops to P//p."""
    new_prec = f.prec // p
    pk = p ** (f.weight - 1)
    out = []
    for n in range(new_prec + 1):
        val = f.coefficient(n * p)
        if n % p == 0:
            val += pk * f.coefficient(n // p)
        out.append(val)
    return QExpansion(f.weight, new_prec, tuple(out))


def tm_eigenvalue(f: QExpansion, m: int) -> Fraction:
    """Eigenvalue of T(p_1)...T(p_r), m = prod p_i, on the normalized
    eigenform f: the product of a(p)^e over the factorization of m."""
    out = Fraction(1)
    for p, e in factorize(m).items() if m > 1 else []:
        out *= f.coefficient(p) ** e
    return out


def hecke_tm(m: int, f: QExpansion) -> QExpansion:
    """T(p_1)...T(p_r) over the prime factorization of m, primes repeated
    with multiplicity; m = 1 is the identity."""
    for p, e in factorize(m).items() if m > 1 else []:
        for _ in range(e):
            f = hecke_t(p, f)
    return f


def product_fraction(f: QExpansion, g: QExpansion) -> tuple[Fraction, ...]:
    """The earlier QExpansion product: a convolution of Fractions, term by
    term, cut to the smaller precision."""
    p = min(f.prec, g.prec)
    out = [Fraction(0)] * (p + 1)
    for i, a in enumerate(f.coeffs[: p + 1]):
        if a == 0:
            continue
        for j in range(p + 1 - i):
            b = g.coeffs[j]
            if b:
                out[i + j] += a * b
    return tuple(out)


@st.composite
def rational_series(draw) -> QExpansion:
    prec = draw(st.integers(0, 14))
    coeffs = draw(
        st.lists(
            st.builds(Fraction, st.integers(-400, 400), st.integers(1, 90)),
            min_size=prec + 1,
            max_size=prec + 1,
        )
    )
    return QExpansion(2 * draw(st.integers(0, 8)), prec, tuple(coeffs))


def eta_power_24(prec: int) -> list[int]:
    """Oracle for the discriminant form: q * prod (1 - q^n)^24, plain ints."""
    poly = [1] + [0] * prec
    for n in range(1, prec + 1):
        for _ in range(24):
            new = poly[:]
            for i in range(prec + 1 - n):
                new[i + n] -= poly[i]
            poly = new
    return [0] + poly[:prec]


def delta_qexp(prec: int) -> QExpansion:
    """The discriminant cusp form (E_4^3 - E_6^2)/1728."""
    e4, e6 = eisenstein_qexp(4, prec), eisenstein_qexp(6, prec)
    return Fraction(1, 1728) * (
        series_product(series_product(e4, e4), e4) - series_product(e6, e6)
    )


def miller_basis_oracle(k: int, prec: int) -> tuple[QExpansion, ...]:
    """The earlier Miller construction: QExpansion products E_4^a E_6^b
    Delta^j one factor at a time, echelonized by QExpansion arithmetic."""
    one = QExpansion(0, prec, (Fraction(1),) + (Fraction(0),) * prec)
    e4, e6, delta = eisenstein_qexp(4, prec), eisenstein_qexp(6, prec), delta_qexp(prec)
    rows = []
    for j in range(dim_modular(k)):
        w = k - 12 * j
        a, b = (w // 4, 0) if w % 4 == 0 else ((w - 6) // 4, 1)
        form = one
        for factor in [e4] * a + [e6] * b + [delta] * j:
            form = series_product(form, factor)
        rows.append(QExpansion(k, prec, form.coeffs))
    for j in range(1, len(rows)):
        for i in range(j):
            c = rows[i].coefficient(j)
            if c:
                rows[i] = rows[i] - c * rows[j]
    return tuple(rows)


class TestBuilders:
    def test_eisenstein_normalization(self):
        for k in (4, 6, 10, 16):
            assert eisenstein_qexp(k, 8).coefficient(0) == 1

    def test_e4_e6_first_coefficients(self):
        assert eisenstein_qexp(4, 4).coefficient(1) == 240
        assert eisenstein_qexp(6, 4).coefficient(1) == -504

    def test_delta_matches_eta_product(self):
        prec = 14
        delta = delta_qexp(prec)
        oracle = eta_power_24(prec)
        assert [delta.coefficient(n) for n in range(prec + 1)] == oracle
        assert delta.coefficient(1) == 1 and delta.coefficient(2) == -24
        # the Miller row of S_12, built from miller_basis's own E_4 and E_6
        (row,) = miller_basis(12, prec)[1]
        assert list(row.coeffs) == oracle

    def test_rejects(self):
        with pytest.raises(ValueError):
            eisenstein_qexp(2, 5)
        with pytest.raises(ValueError):
            eisenstein_qexp(5, 5)


class TestArithmetic:
    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            series_sum(eisenstein_qexp(4, 5), eisenstein_qexp(6, 5))
        with pytest.raises(ValueError, match="weights must match for subtraction"):
            eisenstein_qexp(4, 5) - eisenstein_qexp(6, 5)

    def test_multiplication_adds_weights_truncates(self):
        prod = series_product(eisenstein_qexp(4, 9), eisenstein_qexp(6, 5))
        assert prod.weight == 10 and prod.prec == 5

    def test_no_read_past_precision(self):
        with pytest.raises(IndexError):
            eisenstein_qexp(4, 5).coefficient(6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(
        f=QExpansion(4, 3, (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 6))),
        g=QExpansion(6, 5, (Fraction(3, 4),) + (Fraction(-7, 10),) * 5),
    )
    @given(f=rational_series(), g=rational_series())
    def test_product_matches_fraction_convolution(self, f, g):
        assume(f.prec != g.prec)
        assume(any(c.denominator > 1 for c in f.coeffs + g.coeffs))
        prod = series_product(f, g)
        assert (prod.weight, prod.prec) == (f.weight + g.weight, min(f.prec, g.prec))
        assert prod.coeffs == product_fraction(f, g)
        assert all(type(c) is Fraction for c in prod.coeffs)


class TestMillerBasis:
    def test_dimensions(self):
        assert (dim_modular(16), dim_cusp(16)) == (2, 1)
        assert dim_modular(2) == 0
        assert (dim_modular(12), dim_cusp(12)) == (2, 1)
        assert dim_cusp(24) == 2
        assert dim_modular(0) == 1 and dim_cusp(0) == 0
        assert miller_basis(2, 10) == ((), ())

    def test_weight_12_cusp_generator(self):
        _, cusp = miller_basis(12, 10)
        assert len(cusp) == 1
        gen = cusp[0]
        assert gen.coefficient(1) == 1 and gen.coefficient(2) == -24

    def test_echelon_shape(self):
        full, cusp = miller_basis(24, 12)
        d = len(full)
        for j, row in enumerate(full):
            for i in range(d):
                assert row.coefficient(i) == (1 if i == j else 0)
        assert len(cusp) == d - 1

    def test_precision_below_dimension(self):
        with pytest.raises(ValueError, match="precision 2 below dimension 3"):
            miller_basis(24, 2)

    def test_integrality(self):
        full, _ = miller_basis(20, 12)
        for row in full:
            assert all(c.denominator == 1 for c in row.coeffs)

    def test_integer_construction_matches_the_product_oracle(self):
        for k in range(0, 62, 2):
            full, cusp = miller_basis(k, 60)
            assert full == miller_basis_oracle(k, 60), k
            assert cusp == full[1:], k
            assert all(c.denominator == 1 for row in full for c in row.coeffs), k

    def test_eisenstein_coefficients_factor_nothing(self, monkeypatch):
        # sigma_3 and sigma_5 come from a divisor sieve, not one factorization
        # per coefficient
        def refuse(*args):
            raise AssertionError("factored")

        expected = miller_basis_oracle(40, 60)
        monkeypatch.setattr(arith, "factorize", refuse)
        assert miller_basis.__wrapped__(40, 60)[0] == expected


class TestHecke:
    def test_delta_t2_eigenvalue(self):
        delta = delta_qexp(20)
        image = hecke_t(2, delta)
        scaled = QExpansion(12, image.prec, tuple(-24 * c for c in delta.coeffs[: image.prec + 1]))
        assert image == scaled

    def test_eisenstein_eigenvalue(self):
        for k in (4, 10):
            for p in (2, 3):
                e = eisenstein_qexp(k, 12)
                image = hecke_t(p, e)
                lam = 1 + p ** (k - 1)
                for n in range(image.prec + 1):
                    assert image.coefficient(n) == lam * e.coefficient(n)

    def test_weight16_t2_eigenvalue_from_product(self):
        # dim S_16 = 1, so Delta * E_4 is the eigenform up to scale
        f = series_product(delta_qexp(24), eisenstein_qexp(4, 24))
        image = hecke_t(2, f)
        lam = image.coefficient(1) / f.coefficient(1)
        assert lam == 216
        for n in range(1, image.prec + 1):
            assert image.coefficient(n) == lam * f.coefficient(n)

    def test_commutativity_on_miller_bases(self):
        for k in (12, 16, 18, 20):
            full, _ = miller_basis(k, 60)
            for f in full:
                for p, q in ((2, 3), (2, 5), (3, 5)):
                    a = hecke_t(p, hecke_t(q, f))
                    b = hecke_t(q, hecke_t(p, f))
                    assert a == b

    def test_tm_identity_and_composition(self):
        delta = delta_qexp(30)
        # T(2) T(2) keeps precision 30 // 2 // 2 and scales the eigenform by tau(2)^2
        via_comp = hecke_t(2, hecke_t(2, delta))
        assert via_comp == (-24) ** 2 * QExpansion(12, 7, delta.coeffs[:8])

    def test_tm_six(self):
        delta = delta_qexp(36)
        tau3 = delta.coefficient(3)
        image = hecke_t(3, hecke_t(2, delta))
        assert image == hecke_t(2, hecke_t(3, delta))
        assert image.coefficient(1) == -24 * tau3
        assert tau3 == 252


class TestEigenBasis:
    def test_weight16(self):
        basis = eigen_basis(16)
        assert type(basis) is tuple and len(basis) == 1
        f = basis[0]
        assert type(f) is QExpansion and f.weight == 16
        assert f.coefficient(1) == 1 and f.coefficient(2) == 216

    @pytest.mark.parametrize(
        "k, a2, a3",
        [
            (12, -24, 252),
            (16, 216, -3348),
            (18, -528, -4284),
            (20, 456, 50652),
            (22, -288, -128844),
            (26, -48, -195804),
        ],
    )
    def test_one_dimensional_cusp_spaces(self, k, a2, a3):
        # miller_basis relabels any product with weight k, so a wrong power
        # of E_4, E_6 or Delta shows only in the coefficients
        (f,) = eigen_basis(k)
        assert (f.coefficient(1), f.coefficient(2), f.coefficient(3)) == (1, a2, a3)

    def test_weight12_is_delta(self):
        (f,) = eigen_basis(12)
        assert f == delta_qexp(f.prec)

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 14])
    def test_zero_cusp_space_is_empty(self, k):
        basis = eigen_basis(k)
        assert type(basis) is tuple and basis == ()

    def test_weight24_unsupported(self):
        with pytest.raises(UnsupportedHeckeField, match="dimension 2"):
            eigen_basis(24)

    @pytest.mark.parametrize("prec", [0, 1])
    def test_precision_below_two(self, prec):
        with pytest.raises(ValueError, match=r"precision too low to express T\(2\)"):
            eigen_basis(16, prec)

    def test_normalization_and_multiplicativity(self):
        for k in (12, 16, 18, 20, 22):
            for f in eigen_basis(k, prec=30):
                assert f.coefficient(1) == 1
                for m, n in ((2, 3), (2, 5), (3, 4), (2, 9), (4, 5)):
                    assert f.coefficient(m * n) == f.coefficient(m) * f.coefficient(n)

    def test_tm_eigenvalues(self):
        f = eigen_basis(16)[0]
        assert tm_eigenvalue(f, 1) == 1
        assert tm_eigenvalue(f, 4) == 216**2
        assert tm_eigenvalue(f, 6) == f.coefficient(2) * f.coefficient(3)
        for m in (1, 2, 4, 6, 9):
            assert hecke_tm(m, f).coefficient(1) == tm_eigenvalue(f, m), m


class TestCohenSeries:
    def test_cusp_constant_term(self):
        assert cohen_series(16, 13, 10).coefficient(0) == 0

    def test_full_weight_constant_term(self):
        assert cohen_series(16, 15, 10).coefficient(0) == zeta_neg(30)

    def test_membership(self):
        for k in (12, 16, 20):
            for r in range(3, k, 2):
                series = cohen_series(k, r, default_precision(k))
                full, cusp = miller_basis(k, series.prec)
                space = cusp if r < k - 1 else full
                residual = series
                for row in space:
                    lead = next(
                        n for n in range(row.prec + 1) if row.coefficient(n) == 1
                    )
                    residual = residual - residual.coefficient(lead) * row
                assert residual.is_zero(), (k, r)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            cohen_series(16, 4, 5)
        with pytest.raises(ValueError):
            cohen_series(15, 3, 5)


class TestPetersson:
    def test_scalar_multiple(self):
        # prec 40 lies above the default 20 of the reference eigenform
        for prec in (None, 40):
            f = eigen_basis(16, prec)[0]
            assert petersson_ratio(f, 5 * f) == 5, prec

    def test_zero(self):
        f = eigen_basis(16)[0]
        zero = QExpansion(16, f.prec, (Fraction(0),) * (f.prec + 1))
        assert petersson_ratio(f, zero) == 0

    def test_dim_one_identity(self):
        f = eigen_basis(16)[0]
        series = cohen_series(16, 13, f.prec)
        assert petersson_ratio(f, series) == series.coefficient(1)
        # regression value pinned from the first verified run; consistent by
        # hand with the weight-16 L-value through the projection factor
        assert series.coefficient(1) == -50274432

    def test_eisenstein_rejected(self):
        f = eigen_basis(16)[0]
        with pytest.raises(ValueError):
            petersson_ratio(f, eisenstein_qexp(16, f.prec))

    def test_low_precision_raises(self):
        f = eigen_basis(16)[0]
        with pytest.raises(SingularSystem):
            low = QExpansion(f.weight, 1, f.coeffs[:2])
            petersson_ratio(low, 5 * low)

    def test_cusp_shaped_series_off_the_eigenline(self):
        # a(0) = 0 and a(1) = 1 like f, but a(5), or the last available
        # coefficient a(prec), is not f's
        f = eigen_basis(16)[0]
        for n in (5, f.prec):
            g = QExpansion(16, f.prec, f.coeffs[:n] + (f.coeffs[n] + 1,) + f.coeffs[n + 1 :])
            with pytest.raises(ValueError, match="does not lie in the cusp eigenspace"):
                petersson_ratio(f, g)

    @pytest.mark.parametrize("change", ["coefficient", "last coefficient", "scale"])
    def test_f_must_be_the_normalized_eigenform(self, change):
        f = eigen_basis(16)[0]
        if change == "scale":
            other = 2 * f
        else:
            # a(3), or a(prec), the last coefficient shared with the reference
            n = 3 if change == "coefficient" else f.prec
            other = QExpansion(16, f.prec, f.coeffs[:n] + (f.coeffs[n] + 1,) + f.coeffs[n + 1 :])
        with pytest.raises(ValueError, match="f is not the normalized eigenform"):
            petersson_ratio(other, 5 * f)

    def test_weight_mismatch(self):
        f = eigen_basis(16)[0]
        with pytest.raises(ValueError, match="weights must match"):
            petersson_ratio(f, eigen_basis(18)[0])


class TestStdLValue:
    def test_weight16_at_13(self):
        f = eigen_basis(16)[0]
        value = std_l_value(14, 2, f)
        assert value == Fraction(2**20 * 3**4 * 373, 7)

    def test_weight16_at_7(self):
        f = eigen_basis(16)[0]
        value = std_l_value(8, 8, f)
        assert value == Fraction(2**15 * 23**2, 11 * 13)

    def test_orders(self):
        f = eigen_basis(16)[0]
        assert ord_p(373, std_l_value(14, 2, f)) == 1
        assert ord_p(7, std_l_value(14, 2, f)) == -1
        assert ord_p(23, std_l_value(8, 8, f)) == 2

    def test_weight12_regression(self):
        # pinned from the first verified run of this build
        f = eigen_basis(12)[0]
        assert std_l_value(8, 4, f) == Fraction(8192, 3)

    def test_sturm(self):
        assert sturm_bound(16) == 2
        assert default_precision(16) == 20
