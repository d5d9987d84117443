"""Independent routes and readers that only the tests use to check the
package's results: (e_l(s) - 1)^k / k! by the EGF route, and the inverses
of `SeqTable.to_json` and `Series.to_json`."""

from fractions import Fraction
from math import factorial

from degenbell.algebra import Poly
from degenbell.sequences import SeqTable
from degenbell.series import Series, ValuationError


def pow_over_factorial(a: Series, k: int) -> Series:
    """a^k / k! for a series a with zero constant term.

    Because the valuation of a is at least 1, the result has zero
    coefficients below index k; its EGF coefficients are exact even
    though 1/k! is not an integer.  For a = e_l(s) - 1 they are the
    S2_l(n, k), by the EGF route.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    if not a.coeff(0).is_zero():
        raise ValuationError("series has nonzero constant term")
    inv = Fraction(1, factorial(k))
    return Series([c * inv for c in a.int_pow(k).coeffs])


def table_from_json(data: dict) -> SeqTable:
    """The table that `SeqTable.to_json` wrote as ``data``."""
    values = tuple(
        (tuple(row[name] for name in ("n", "k") if name in row), Poly.from_json(row["poly"]))
        for row in data["values"]
    )
    return SeqTable(data["kind"], dict(data["bounds"]), data["provenance"], values)


def series_from_json(data: dict) -> Series:
    """The series that `Series.to_json` wrote as ``data``; ValueError if its
    coefficient count does not match its order."""
    coeffs = [Poly.from_json(c) for c in data["egf_coeffs"]]
    if len(coeffs) != data["order"] + 1:
        raise ValueError("coefficient count does not match declared order")
    return Series(coeffs)
