"""Typed errors shared across the package."""

from __future__ import annotations


class UnsupportedHeckeField(Exception):
    """The cusp space has dimension >= 2, so its Hecke field is not Q.

    Eigenforms are provided only for level-1 cusp spaces of dimension <= 1.
    Every larger space checked (all weights k <= 60, and far beyond under
    Maeda's conjecture) has irrational Hecke eigenvalues.
    """


class SingularSystem(Exception):
    """Too few q-coefficients to decide an identity at the Sturm bound."""


class BudgetExceeded(Exception):
    """A character-sum enumeration, Pollard's rho, the row box of
    `enumerate_R` or a q-expansion precision would exceed its work bound."""
