"""Exact-rational computations around degree <= 3 Siegel-Eisenstein series.

The package computes, over exact rationals: local Siegel series, Fourier
coefficients of normalized Siegel-Eisenstein series for degrees up to 3,
normalized standard L-values of level-1 eigenforms, the pullback
coefficients of the differentiated restricted Eisenstein series, and
congruence certificates for eigenvalue congruences between
Klingen-Eisenstein lifts and other degree-2 Siegel eigenforms.

Import what you need from its module (`from eiscong.pullback import
certify`); each module's `__all__` lists its public names.  All values are
immutable after construction and all operations are pure (modulo internal
memo caches with idempotent insertion), so the library is safe for
concurrent readers.
"""

__version__ = "0.1.0"
