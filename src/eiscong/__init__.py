"""Exact-rational computations around degree <= 3 Siegel-Eisenstein series.

The package computes, over exact rationals: local Siegel series, Fourier
coefficients of normalized Siegel-Eisenstein series for degrees up to 3,
normalized standard L-values of level-1 eigenforms, the pullback
coefficients of the differentiated restricted Eisenstein series, and
congruence certificates for eigenvalue congruences between
Klingen-Eisenstein lifts and other degree-2 Siegel eigenforms.

All values are immutable after construction and all operations are pure
(modulo internal memo caches with idempotent insertion), so the library is
safe for concurrent readers.  No Eisenstein coefficient a(T) reduces T:
its rank and det(2 T~) come from the principal minors of 2T
(`nondeg_invariants`), and one cache, keyed on that genus data for rank
<= 2 and on T for rank 3, serves every `EisensteinContext` and every
pullback sum.
"""

from __future__ import annotations

from .arith import (
    DiscriminantChar,
    bernoulli,
    cohen_h,
    fundamental_decomposition,
    gen_bernoulli,
    kronecker,
    l_value_neg,
    ord_p,
    pochhammer,
    zeta_neg,
)
from .eisen import EisensteinContext, z_const
from .errors import BudgetExceeded, SingularSystem, UnsupportedHeckeField
from .gegenbauer import BinaryForm, BivariatePoly, eval_binary, gegenbauer_poly
from .pullback import (
    CongruenceCertificate,
    Strictness,
    Verdict,
    certify,
    cond2_determinant,
    epsilon,
    epsilon_hecke,
    gamma1,
    gamma2,
)
from .qexp import (
    EigenBasis,
    QExpansion,
    cohen_series,
    eigen_basis,
    eisenstein_qexp,
    hecke_t,
    miller_basis,
    petersson_ratio,
    std_l_value,
)
from .quadform import (
    HalfIntegralMatrix,
    build_T,
    enumerate_R,
    nondeg_invariants,
    nondeg_part,
)
from .siegelseries import (
    SiegelSeriesPolynomial,
    chi_p,
    gamma_p,
    local_F,
    oracle_bp,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "BivariatePoly",
    "BudgetExceeded",
    "CongruenceCertificate",
    "DiscriminantChar",
    "EigenBasis",
    "EisensteinContext",
    "HalfIntegralMatrix",
    "QExpansion",
    "SiegelSeriesPolynomial",
    "SingularSystem",
    "Strictness",
    "UnsupportedHeckeField",
    "Verdict",
    "bernoulli",
    "build_T",
    "certify",
    "chi_p",
    "cohen_h",
    "cohen_series",
    "cond2_determinant",
    "eigen_basis",
    "eisenstein_qexp",
    "enumerate_R",
    "epsilon",
    "epsilon_hecke",
    "eval_binary",
    "fundamental_decomposition",
    "gamma1",
    "gamma2",
    "gamma_p",
    "gegenbauer_poly",
    "gen_bernoulli",
    "hecke_t",
    "kronecker",
    "l_value_neg",
    "local_F",
    "miller_basis",
    "nondeg_invariants",
    "nondeg_part",
    "oracle_bp",
    "ord_p",
    "petersson_ratio",
    "pochhammer",
    "std_l_value",
    "z_const",
    "zeta_neg",
]
