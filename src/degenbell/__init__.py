"""Exact calculus for degenerate Bell and Fubini polynomial families.

The package computes the degenerate Stirling numbers of the second kind
and the Bell / Fubini polynomial families built on them, entirely over
exact rational arithmetic, and verifies the Spivey-type recurrences these
families satisfy as exact polynomial identities.
"""

from .algebra import LAM, ONE, T, X, Y, ZERO, Poly, Var
from .sequences import (
    SeqTable,
    bell_deg,
    bell_fully_deg,
    falling_factorial,
    falling_factorial_deg,
    fubini_deg,
    fubini_two_var_alpha,
    rising_factorial,
    stirling2_deg,
)
from .series import Series, deg_exp_of, exp_of, exp_splitting_sides
from .verify import Identity, VerifyReport, run_identity

__all__ = [
    "LAM",
    "ONE",
    "T",
    "X",
    "Y",
    "ZERO",
    "Identity",
    "Poly",
    "SeqTable",
    "Series",
    "Var",
    "VerifyReport",
    "bell_deg",
    "bell_fully_deg",
    "deg_exp_of",
    "exp_of",
    "exp_splitting_sides",
    "falling_factorial",
    "falling_factorial_deg",
    "fubini_deg",
    "fubini_two_var_alpha",
    "rising_factorial",
    "run_identity",
    "stirling2_deg",
]

__version__ = "0.1.0"
