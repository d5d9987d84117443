"""Truncated exponential-generating-function arithmetic.

A `Series` of order N stores the EGF coefficients a_0 .. a_N of
f(s) = sum_n a_n s^n / n!, each a_n a `Poly`.  The formal variable is
called ``s`` here and is deliberately distinct from the ring
indeterminate ``t``: several identities use ``t`` as a polynomial
argument at the same time as the generating variable.

Under the EGF convention the product is the binomial convolution
c_n = sum_j C(n,j) a_j b_{n-j}, `Poly.convolve` of the coefficient tuples,
which every generating-function manipulation here needs.  Series of
different orders combine by truncating to the smaller order.  A square
``a * a`` hands one tuple in twice, so it takes `Poly.convolve`'s square
rule, and `Series.int_pow` powers by repeated squaring, never by the unit.

A negative power f^(-a) of a series with constant term 1 is taken as
``f.int_pow(a).reciprocal()``, the same series as ``f.reciprocal().int_pow(a)``
but cheaper when f's coefficients are small and its reciprocal's are large.
For f = 1 - x(e_l(s) - 1), coefficient n of f^a has at most a*n terms, while
coefficient n of 1/f has Theta(n^2): powering 1/f multiplies large
coefficients by large ones, and inverting f^a multiplies small by large.

The central building block is the degenerate exponential

    e_l^w(s) = (1 + l*s)^(w/l) = sum_n (w)_{n,l} s^n / n!,

whose EGF coefficients are the degenerate falling factorials
(w)_{n,l} = w (w - l) (w - 2l) ... (w - (n-1)l), read from
`sequences.falling_factorial_deg`: a definition, not a family closed form,
so the series route stays independent (S2_l's recurrence never reads it).
`exp_splitting_sides` states e_l(u+v) = e_l(u) e_l(v / (1 + l*u)) through
them too, one bivariate EGF entry at a time.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb

from .algebra import LAM, ONE, ZERO, Poly
from .sequences import falling_factorial_deg

DEFAULT_ORDER = 16


class NotInvertibleError(ValueError):
    """Reciprocal requested of a series whose constant term is not 1."""


class ValuationError(ValueError):
    """Operation requires a series with zero constant term."""


def _as_coeff(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


class Series:
    """Truncated EGF with polynomial coefficients; immutable and exact."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        self._coeffs = tuple(_as_coeff(c) for c in coeffs)
        if not self._coeffs:
            raise ValueError("order must be nonnegative")  # no a_0: order -1

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        return self._coeffs

    def coeff(self, n: int) -> Poly:
        """EGF coefficient a_n, i.e. n! times the coefficient of s^n."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    @classmethod
    def unit(cls, order: int = DEFAULT_ORDER) -> "Series":
        return cls([ZERO if n else ONE for n in range(order + 1)])

    @classmethod
    def deg_exp(cls, exponent, order: int = DEFAULT_ORDER) -> "Series":
        """e_l^w(s) for polynomial exponent w: coefficients (w)_{n,l}."""
        return cls([falling_factorial_deg(exponent, n) for n in range(order + 1)])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self._coeffs[i] + other._coeffs[i] for i in range(n + 1)])

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self._coeffs[i] - other._coeffs[i] for i in range(n + 1)])

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):  # a square hands one tuple in twice
            n = min(self.order, other.order)
            return Series([Poly.convolve(self._coeffs, other._coeffs, k) for k in range(n + 1)])
        if isinstance(other, (Poly, int, Fraction)):
            c = _as_coeff(other)
            return Series([c * a for a in self._coeffs])
        return NotImplemented

    def __rmul__(self, other) -> "Series":
        if isinstance(other, (Poly, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def reciprocal(self) -> "Series":
        """The series b with a*b = 1 up to the truncation order.

        Restricted to series with constant term exactly 1, which covers
        every generating function handled here.
        """
        if self._coeffs[0] != ONE:
            raise NotInvertibleError(f"constant term {self._coeffs[0]} is not 1")
        a = self._coeffs
        b = [ONE]
        for n in range(1, self.order + 1):
            b.append(Poly.sum_of_products((-comb(n, j), a[j], b[n - j]) for j in range(1, n + 1)))
        return Series(b)

    def int_pow(self, e: int) -> "Series":
        if not isinstance(e, int) or e < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = self if e else Series.unit(self.order)  # binary powering from the top bit
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._coeffs[:5])
        more = ", ..." if self.order > 4 else ""
        return f"Series[{self.order}]({inner}{more})"

    # -- serialization -----------------------------------------------------

    def to_json(self, leaf: Callable[[Poly], object] = Poly.to_json) -> dict:
        """The series as JSON data, each coefficient as ``leaf(coefficient)``."""
        return {"order": self.order, "egf_coeffs": [leaf(c) for c in self._coeffs]}


def _weighted_exp(a: Series, weights) -> Series:
    """sum_k weights[k] a^k / k! for a with zero constant term."""
    if not a.coeffs[0].is_zero():
        raise ValuationError("series has nonzero constant term")
    powers = [Series.unit(a.order)]  # a^k / k!, with no term below s^k
    for k in range(1, a.order + 1):
        powers.append(powers[-1] * a * Fraction(1, k))
    # coefficient n: the sum over k <= n of weights[k] times coefficient n of a^k / k!
    terms = (zip(weights, [p.coeffs[n] for p in powers[: n + 1]]) for n in range(a.order + 1))
    return Series(map(Poly.sum_of_products, terms))


def deg_exp_of(a: Series) -> Series:
    """e_l(a(s)) = sum_k (1)_{k,l} a^k / k! for a with zero constant term."""
    return _weighted_exp(a, Series.deg_exp(1, a.order).coeffs)


def exp_of(a: Series) -> Series:
    """Classical e^(a(s)) = sum_k a^k / k! for a with zero constant term."""
    return _weighted_exp(a, [1] * (a.order + 1))


def exp_splitting_sides(j: int, k: int) -> tuple[Poly, Poly]:
    """Entry (j, k) of both sides of e_l(u+v) = e_l(u) * e_l(v / (1 + l*u)),
    each side a bivariate EGF sum a_{j,k} u^j v^k / (j! k!).

    Left side: expanding (u+v)^n binomially inside sum_n (1)_{n,l} (u+v)^n / n!
    gives the entry (1)_{j+k,l}.  Right side: v^k / (1+l*u)^k expands as
    sum_i C(-k, i) l^i u^i v^k, and the product with e_l(u) gives the entry
    (1)_{k,l} sum_i C(j,i) (-k)_i l^i (1)_{j-i,l}, with (-k)_i l^i =
    (-k*l)_{i,l} read from the running list of -k*l.  The left side needs
    no composition at all, so it serves as the oracle.
    """
    ones, shifts = ([falling_factorial_deg(w, i) for i in range(j + 1)] for w in (ONE, k * -LAM))
    right = Poly.convolve(shifts, ones, j)
    return falling_factorial_deg(ONE, j + k), falling_factorial_deg(ONE, k) * right
