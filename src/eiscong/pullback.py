"""Pullback coefficients of the restricted Eisenstein series and congruence
certificates.

eps_{k,nu}(n, N) is the finite sum over integer rows R of
a(T_(n,N,R)) * P_{2k,nu}(R v / 2, n v^t N v) with T_(n,N,R) the bordered
3x3 matrix and a(.) the degree-3 normalized Eisenstein coefficient; it is a
binary form of degree nu.  a(T) is evaluated once per orbit of rows
under the signed permutations that fix N, and since nu is even only the
rows R >= 0 are summed, R != 0 twice (see `epsilon`).  Acting on the
q-series n -> eps(n, N) with the degree-1 Hecke operators in weight k + nu
and reading one coefficient slot (the cusp space being one-dimensional)
yields an exact rational whose p-order certifies the congruence
conditions; `certify` assembles the full structured verdict.

`certify` is one pass: it reads the eigenform of S_(k+nu) once, eps(1, A)
once (for the certificate's epsilon form and, unless a slot is given, for
the default slot: the first coefficient prime to p, else the first nonzero
one), forms zeta(3-2k) once, and runs the determinant criterion inline:
with S_(k+nu) one-dimensional the determinant is the chosen slot of
e_m = eps(m, 1, A) for the single m of m_list, its eigenvalue determinant
is 1, and the invariant is zeta(3-2k) * e_m[slot].  A certificate is
determined by its inputs: its JSON document is read back by rebuilding it
with `certify` and accepting the document only when it is exactly the
rebuilt one's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .arith import (
    _check_prime,
    _over_common_denominator,
    factorize,
    ord_p,
    zeta_neg,
)
from .eisen import EisensteinContext
from .errors import BudgetExceeded, SingularSystem, UnsupportedHeckeField
from .gegenbauer import BinaryForm, _specialization_sum
from .qexp import _check_l_pair, eigen_basis, std_l_value
from .quadform import (
    HalfIntegralMatrix,
    build_T,
    enumerate_R,
    format_half_integral,
    parse_half_integral,
)

__all__ = [
    "CERT_SCHEMA",
    "CongruenceCertificate",
    "Strictness",
    "Verdict",
    "certify",
    "epsilon",
    "epsilon_hecke",
    "gamma1",
    "gamma2",
]

CERT_SCHEMA = "eiscong-cert-v1"


# ---------------------------------------------------------------------------
# Scalar constants of the rank-1 and rank-2 pullback pieces


def _gamma(k: int, nu: int, sign_exp: int, two_exp: int, shift: int) -> Fraction:
    """(-1)^sign_exp 2^two_exp nu! (k-1)_(nu+1) (2k-1)_(nu-2) / (2k+nu-shift)_(nu-1).

    The rising factorials (a)_n are the integer products a (a+1) ... (a+n-1),
    so the value is one Fraction of two integer products.
    """
    if k % 2 or nu % 2 or k <= 0 or nu <= 0:
        raise ValueError("k and nu must be positive even integers")
    num = (
        factorial(nu)
        * prod(range(k - 1, k + nu))
        * prod(range(2 * k - 1, 2 * k + nu - 3))
        << two_exp
    )
    den = prod(range(2 * k + nu - shift, 2 * k + 2 * nu - shift - 1))
    return Fraction(-num if sign_exp % 2 else num, den)


def gamma1(k: int, nu: int) -> Fraction:
    """(-1)^((k+nu)/2+1) 2^3 nu! (k-1)_(nu+1) (2k-1)_(nu-2) / (2k+nu-2)_(nu-1)."""
    return _gamma(k, nu, (k + nu) // 2 + 1, 3, 2)


def gamma2(k: int, nu: int) -> Fraction:
    """(-1)^(nu/2+1) 2^5 nu! (k-1)_(nu+1) (2k-1)_(nu-2) / (2k+nu-4)_(nu-1)."""
    return _gamma(k, nu, nu // 2 + 1, 5, 4)


# ---------------------------------------------------------------------------
# The pullback coefficients


@lru_cache(maxsize=None)
def _row_orbits(
    n: int, quad: HalfIntegralMatrix
) -> tuple[tuple[HalfIntegralMatrix, tuple[tuple[int, tuple[int, int]], ...]], ...]:
    """The rows R >= (0, 0) of `enumerate_R(n, quad)` by orbit under H, the
    signed 2x2 permutations h with h N h^t = N: per orbit, T_(n,N,rep) at
    its least row rep and the pairs (weight, R), weight 1 for R = 0 and 2
    otherwise.  None of it depends on (k, nu), so every weight shares it.
    H is read off N's doubled entries (a, b, c): diag(s1, s2) fixes N
    when s1 = s2 or b = 0, and the swap also needs a = c.
    """
    # enumerate_R rejects an n < 1 and an N that is not a positive definite
    # 2x2 matrix before H is built
    rows = enumerate_R(n, quad)
    (a, b), (_, c) = quad.doubled
    stabilizer = [
        h
        for s1 in (1, -1)
        for s2 in (1, -1)
        if s1 == s2 or b == 0
        for h in (((s1, 0), (0, s2)), ((0, s1), (s2, 0)))[: 1 + (a == c)]
    ]
    orbits: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for r_pair in rows:
        if r_pair < (0, 0):
            continue
        r1, r2 = r_pair
        rep = min((h1 * r1 + h2 * r2, h3 * r1 + h4 * r2) for (h1, h2), (h3, h4) in stabilizer)
        orbits.setdefault(rep, []).append((1 if r_pair == (0, 0) else 2, r_pair))
    return tuple((build_T(n, quad, rep), tuple(members)) for rep, members in orbits.items())


@lru_cache(maxsize=None)
def epsilon(k: int, nu: int, n: int, quad: HalfIntegralMatrix) -> BinaryForm:
    """The degree-nu binary form eps_{k,nu}(n, N).

    Sums a(T_(n,N,R)) * P_{2k,nu}((r1 x + r2 y)/2, n (x y) N (x y)^t) over
    exactly the rows R that keep T_(n,N,R) positive semidefinite; every
    other row would contribute a vanishing Eisenstein coefficient.

    a(T) is evaluated once per orbit of rows under H, the signed 2x2
    permutations h with h N h^t = N: T(R h^t) = diag(1, h) T(R) diag(1, h)^t
    is GL_3(Z)-equivalent to T(R), so both have one coefficient.  H
    contains -1 and nu is even, so R and -R contribute alike: only the rows
    R >= (0, 0) (in lexicographic order) are summed, every R != 0 with
    weight 2.  The orbits, their T and the weighted rows do not depend on
    (k, nu) and come from `_row_orbits`, once per (n, N).  The weighted
    a(T) of the rows are put over their common denominator, the
    specializations are summed in integers weighted by the numerators
    (`_specialization_sum`), and each coefficient is divided once.
    """
    _check_l_pair(k, nu)
    orbits = _row_orbits(n, quad)
    ctx = EisensteinContext(3, k)
    weights: list[Fraction] = []
    summed: list[tuple[int, int]] = []
    for t, rows in orbits:
        value = ctx.coefficient(t)
        if value:
            for weight, r_pair in rows:
                weights.append(weight * value)
                summed.append(r_pair)
    nums, scale = _over_common_denominator(weights)
    total, den = _specialization_sum(2 * k, nu, n, quad, zip(nums, summed))
    return BinaryForm(nu, tuple(Fraction(c, scale * den) for c in total))


def epsilon_hecke(
    k: int, nu: int, m: int, n: int, quad: HalfIntegralMatrix
) -> BinaryForm:
    """Coefficient n of the eps series acted on by T(p_1)...T(p_r), m = prod p_i.

    The action is the degree-1 Hecke operator in weight k + nu applied
    coefficientwise: (T(p) g)(n) = g(np) + p^(k+nu-1) g(n/p), composed over
    the prime factorization of m with multiplicity; m = 1 is the identity.
    Each T(p) rewrites the map {index: integer weight} in one loop, so the
    result is sum weight * eps(index) however many factors m has.  eps(n m),
    of the largest row box, is evaluated first, before m is factored; for
    m = 1 it is the one term of the sum and is returned.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    top = epsilon(k, nu, n * m, quad)
    if m == 1:
        return top
    weights = {n: 1}
    for p, e in factorize(m).items():
        lower = p ** (k + nu - 1)
        for _ in range(e):
            step: dict[int, int] = {}
            for idx, w in weights.items():
                step[idx * p] = step.get(idx * p, 0) + w
                if idx % p == 0:
                    step[idx // p] = step.get(idx // p, 0) + lower * w
            weights = step
    total = BinaryForm(nu, (Fraction(0),) * (nu + 1))
    for idx, w in weights.items():
        total = total + w * epsilon(k, nu, idx, quad)
    return total


# ---------------------------------------------------------------------------
# Certificates


class Strictness(str, Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class Verdict(str, Enum):
    PROVEN_MOD_P = "ProvenModP"
    PROVEN_MOD_P_ALPHA = "ProvenModPAlpha"
    NOT_ESTABLISHED = "NotEstablished"


def encode_rat(x: Fraction | int) -> dict:
    """The JSON form of an exact rational: {"num", "den"} decimal strings.

    An int has numerator and denominator attributes too, so neither kind is
    converted."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def decode_rat(doc: dict) -> Fraction:
    """The rational that `encode_rat` wrote as doc."""
    return Fraction(int(doc["num"]), int(doc["den"]))


def _is_unit(p: int, x: Fraction) -> bool:
    return x != 0 and ord_p(p, x) == 0


@dataclass(frozen=True)
class CongruenceCertificate:
    """Structured verdict of the congruence conditions for (k, nu, p, A).

    A certificate is its inputs (k, nu, p, A, strictness, m_list, slot and
    the display-only reference value): `certify` derives every other field
    from them, and `from_json_dict` rebuilds it from them.  The cusp space
    of weight k + nu is one-dimensional, so the serialized dimension and
    eigenvalue determinant are the constant 1, and the serialized values of
    the epsilon form at (1, 0) and (1, 1) are read off `epsilon_form`.
    """

    k: int
    nu: int
    p: int
    a_matrix: HalfIntegralMatrix
    strictness: Strictness
    m_list: tuple[int, ...]
    slot: int
    l_value: Fraction
    alpha: int
    gamma1: Fraction
    gamma2: Fraction
    zeta3m2k: Fraction
    epsilon_form: BinaryForm
    lhs_invariant: Fraction
    conditions: tuple[tuple[str, bool, bool], ...]  # (name, holds, waived)
    verdict: Verdict
    implied_congruence: str
    # display-only: an externally supplied reference value for the pullback
    # constant, never used by the verdict logic
    reference_gamma: Fraction | None = None

    def condition(self, name: str) -> tuple[bool, bool]:
        for n, holds, waived in self.conditions:
            if n == name:
                return holds, waived
        raise KeyError(name)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The `eiscong-cert-v1` document; this is the schema's one statement.
        The value of epsilon at (1, 1), the sum of its coefficients, is
        summed as integer numerators over their common denominator."""
        coeffs = self.epsilon_form.coeffs
        nums, den = _over_common_denominator(coeffs)
        out = {
            "schema": CERT_SCHEMA,
            "k": self.k,
            "nu": self.nu,
            "p": self.p,
            "A": format_half_integral(self.a_matrix),
            "strictness": self.strictness.value,
            "m_list": list(self.m_list),
            "slot": self.slot,
            "dim_cusp_space": 1,
            "L_value": encode_rat(self.l_value),
            "alpha": self.alpha,
            "gamma1": encode_rat(self.gamma1),
            "gamma2": encode_rat(self.gamma2),
            "zeta_3_minus_2k": encode_rat(self.zeta3m2k),
            "epsilon": {
                "degree": self.epsilon_form.degree,
                "coeffs": [encode_rat(c) for c in coeffs],
                # coeffs[i] multiplies x^(nu-i) y^i: the value at (1, 0) is
                # coeffs[0] and at (1, 1) the sum of the coefficients
                "at_1_0": encode_rat(coeffs[0]),
                "at_1_1": encode_rat(Fraction(sum(nums), den)),
            },
            "epsilon_witness": {
                "lhs_invariant": encode_rat(self.lhs_invariant),
                "delta": encode_rat(1),
            },
            "conditions": {
                name: {"holds": holds, "waived": waived}
                for name, holds, waived in self.conditions
            },
            "verdict": self.verdict.value,
            "implied_congruence": self.implied_congruence,
        }
        if self.reference_gamma is not None:
            out["reference_gamma"] = encode_rat(self.reference_gamma)
        return out

    @classmethod
    def from_json_dict(cls, doc: dict) -> CongruenceCertificate:
        """The certificate doc states, rebuilt by `certify` from its inputs.

        Only the inputs are read.  doc must be the canonical document of the
        rebuilt certificate: its JSON text, keys sorted, must equal that of
        `to_json_dict`, so an edited, extra or missing field, a changed
        JSON type and a rational not in lowest terms are all rejected.
        Malformed documents and inputs that `certify` rejects, an
        unsupported cusp space among them, raise ValueError too.
        """
        if not isinstance(doc, dict):
            raise ValueError("a certificate document must be a JSON object")
        if doc.get("schema") != CERT_SCHEMA:
            raise ValueError(f"unknown certificate schema {doc.get('schema')!r}")
        try:
            inputs = (
                int(doc["k"]),
                int(doc["nu"]),
                int(doc["p"]),
                parse_half_integral(str(doc["A"])),
                tuple(int(m) for m in doc["m_list"]),
                int(doc["slot"]),
                Strictness(doc["strictness"]),
                decode_rat(doc["reference_gamma"]) if "reference_gamma" in doc else None,
            )
            text = json.dumps(doc, sort_keys=True)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from exc
        try:
            rebuilt = certify(*inputs)
        except (UnsupportedHeckeField, SingularSystem, BudgetExceeded) as exc:
            raise ValueError(f"certificate inputs rejected: {exc}") from exc
        if json.dumps(rebuilt.to_json_dict(), sort_keys=True) != text:
            raise ValueError("certificate does not match the one rebuilt from its inputs")
        return rebuilt


def certify(
    k: int,
    nu: int,
    p: int,
    a_matrix: HalfIntegralMatrix,
    m_list: tuple[int, ...] | None = None,
    slot: int | None = None,
    strictness: Strictness = Strictness.STRICT,
    reference_gamma: Fraction | None = None,
) -> CongruenceCertificate:
    """Assemble the congruence certificate for (k, nu, p, A).

    p must be prime, A a positive definite 2x2 matrix and the cusp space
    of weight k + nu one-dimensional.  Checks: (1) the p-order alpha of the
    normalized standard L-value at k - 1 is positive; (2) the determinant
    invariant and zeta(3-2k) are p-units (the eigenvalue determinant is 1);
    (3) p >= 2(k+nu) - 3, or its substitute (3prime) p >= max(2k, k+nu-2)
    when gamma1 is a p-unit.  Strict mode gates the verdict on all three;
    relaxed mode downgrades a failing size bound to a waived condition.
    The stronger mod-p^alpha verdict applies when alpha >= 2 (the cusp
    space is one-dimensional).

    One pass, in this order, after the checks on (k, nu), A and p: the
    eigenform of S_(k+nu), once (a zero cusp space raises ValueError);
    when slot is None, eps(1, A) and the default slot (its first
    coefficient prime to p, else its first nonzero one); the L-value and
    zeta(3-2k), once each; the determinant criterion of the module
    docstring: m_list of length 1, the slot in 0..nu, and
    `lhs_invariant` = zeta(3-2k) * epsilon_hecke(k, nu, m, 1, A) at the
    slot; then, for a given slot, eps(1, A).  eps(1, A) is read once
    either way, and is `epsilon_form`.
    """
    _check_l_pair(k, nu)
    if a_matrix.n != 2 or not a_matrix.is_pd():
        raise ValueError(
            f"A = {format_half_integral(a_matrix)} is not a positive definite 2x2 matrix"
        )
    _check_prime(p)
    forms = eigen_basis(k + nu)
    if not forms:
        raise ValueError(f"the weight-{k + nu} cusp space is zero; there is no eigenform")
    m_list = (1,) if m_list is None else tuple(m_list)
    # a given slot is checked before any eps is computed, so eps(1, A) is
    # read here only to choose the default slot, and otherwise last
    eps1 = None
    if slot is None:
        eps1 = epsilon(k, nu, 1, a_matrix)
        nonzero = [i for i, c in enumerate(eps1.coeffs) if c]
        if not nonzero:
            raise ValueError("eps(1, N) is identically zero; no usable slot")
        slot = next((i for i in nonzero if ord_p(p, eps1.coeffs[i]) <= 0), nonzero[0])

    l_value = std_l_value(k, nu, forms[0])
    zeta3 = zeta_neg(2 * k - 2)
    if p >= 2 * k:
        # von Staudt-Clausen: no prime >= 2k - 1 divides the denominator
        if ord_p(p, zeta3) < 0:
            raise AssertionError(f"p = {p} divides the denominator of zeta(3 - 2k)")
    if len(m_list) != 1:
        raise ValueError("m_list must have length dim S = 1")
    if not 0 <= slot <= nu:
        raise ValueError("slot out of range")
    (m,) = m_list
    lhs = zeta3 * epsilon_hecke(k, nu, m, 1, a_matrix).coeffs[slot]
    if eps1 is None:
        eps1 = epsilon(k, nu, 1, a_matrix)
    g1 = gamma1(k, nu)

    alpha = ord_p(p, l_value) if l_value != 0 else 0
    cond1 = alpha >= 1
    cond2 = _is_unit(p, zeta3) and _is_unit(p, lhs)
    cond3 = p >= 2 * (k + nu) - 3
    cond3p = p >= max(2 * k, k + nu - 2) and _is_unit(p, g1)
    strict = strictness is Strictness.STRICT
    size_ok = cond3 or cond3p
    if not (cond1 and cond2 and (size_ok or not strict)):
        verdict = Verdict.NOT_ESTABLISHED
    elif alpha >= 2:
        verdict = Verdict.PROVEN_MOD_P_ALPHA
    else:
        verdict = Verdict.PROVEN_MOD_P
    modulus = f"{p}^{alpha}" if verdict is Verdict.PROVEN_MOD_P_ALPHA else str(p)
    # relaxed mode waives the two size conditions when neither holds
    waive = not strict and not size_ok
    return CongruenceCertificate(
        k=k,
        nu=nu,
        p=p,
        a_matrix=a_matrix,
        strictness=strictness,
        m_list=m_list,
        slot=slot,
        l_value=l_value,
        alpha=alpha,
        gamma1=g1,
        gamma2=gamma2(k, nu),
        zeta3m2k=zeta3,
        epsilon_form=eps1,
        lhs_invariant=lhs,
        conditions=(
            ("1", cond1, False),
            ("2", cond2, False),
            ("3", cond3, waive),
            ("3prime", cond3p, waive),
        ),
        verdict=verdict,
        implied_congruence=(
            f"lambda_G(q) == (1 + q^{k - 2}) * lambda_f(q) mod {modulus} "
            "for all primes q"
        ),
        reference_gamma=reference_gamma,
    )
