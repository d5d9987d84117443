"""Exact sparse polynomial arithmetic over the rationals.

The ring has four fixed indeterminates: the deformation parameter ``l``
(printed lambda in the literature), the polynomial arguments ``x`` and
``y``, and ``t``.  Coefficients are arbitrary-precision rationals, so
every computation downstream is exact.  A coefficient is stored as an
``int`` when it is integral and as a `fractions.Fraction` with
denominator greater than 1 otherwise: the families here lie in
``Z[l, x, y, t]``, and only a division (the EGF route) makes a Fraction.
Both types compare, hash and print alike, so the split is invisible from
outside.  Floats are refused at every entry (`as_scalar`).

A polynomial is a finite map from monomials to nonzero coefficients.  A
monomial is the 4-tuple of exponents ``(e_l, e_x, e_y, e_t)``.  Terms are
kept in a canonical order (ascending total degree, then by exponent
vector with ``l`` weighing heaviest), which makes serialization and
string rendering deterministic.
"""

from __future__ import annotations

import enum
from fractions import Fraction


class Var(enum.IntEnum):
    """The four ring indeterminates, in their fixed canonical order."""

    LAMBDA = 0
    X = 1
    Y = 2
    T = 3

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]


_SYMBOLS = ("l", "x", "y", "t")
_SYMBOL_TO_VAR = {s: Var(i) for i, s in enumerate(_SYMBOLS)}
_ZERO_MONO = (0, 0, 0, 0)


def var_from_symbol(symbol: str) -> Var:
    try:
        return _SYMBOL_TO_VAR[symbol]
    except KeyError:
        raise ValueError(f"unknown variable {symbol!r}, expected one of l, x, y, t") from None


def _term_key(mono: tuple[int, int, int, int]):
    # graded order: total degree first, then lambda-heaviest exponent vector
    return (sum(mono), tuple(-e for e in mono))


Scalar = int | Fraction


def _canon(c: Scalar) -> Scalar:
    """The stored form of a coefficient: int when integral, else the Fraction."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def as_scalar(value: Scalar | str) -> Scalar:
    """An exact scalar from outside the kernel, in stored form.

    ints and Fractions pass, strings parse with `parse_rational`; a float
    raises TypeError, since its binary value is rarely the number meant.
    """
    if isinstance(value, (int, Fraction)):
        return _canon(value)
    if isinstance(value, str):
        return _canon(parse_rational(value))
    raise TypeError(f"not an exact rational: {value!r} ({type(value).__name__})")


class Poly:
    """Immutable sparse polynomial in ``l, x, y, t`` with rational coefficients.

    Coefficients are stored as nonzero ints, or Fractions whose
    denominator exceeds 1.  Supports ``+ - * **`` with automatic promotion
    of ints and Fractions, partial evaluation at rational points, and
    substitution of a polynomial for a variable.  Two polynomials are
    equal iff their term maps are equal.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[tuple[int, int, int, int], Scalar | str] | None = None):
        clean: dict[tuple[int, int, int, int], Scalar] = {}
        if terms:
            for mono, c in terms.items():
                c = as_scalar(c)
                if c:
                    clean[mono] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, int, int, int], Scalar]) -> "Poly":
        # no checks: every coefficient must already be nonzero and in
        # _canon form, and the dict is kept, so the caller must not reuse it
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def const(cls, c: Scalar | str) -> "Poly":
        return cls({_ZERO_MONO: c})

    @classmethod
    def zero(cls) -> "Poly":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._trusted({_ZERO_MONO: 1})

    @classmethod
    def variable(cls, var: Var) -> "Poly":
        mono = [0, 0, 0, 0]
        mono[var] = 1
        return cls._trusted({tuple(mono): 1})

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Yield (monomial, coefficient) pairs in canonical order."""
        for mono in sorted(self._terms, key=_term_key):
            yield mono, self._terms[mono]

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or set(self._terms) == {_ZERO_MONO}

    def const_value(self) -> Scalar:
        """The constant as an int or Fraction; 0 for the zero polynomial."""
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get(_ZERO_MONO, 0)

    def degree_in(self, var: Var) -> int:
        """Largest exponent of var; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m[var] for m in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def coefficient_of(self, var: Var, power: int) -> "Poly":
        """The polynomial in the remaining variables multiplying var**power."""
        out = {}
        for mono, c in self._terms.items():
            if mono[var] == power:
                rest = list(mono)
                rest[var] = 0
                out[tuple(rest)] = c
        return Poly._trusted(out)

    def variables(self) -> set[Var]:
        return {Var(i) for m in self._terms for i in range(4) if m[i]}

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _promote(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._trusted({_ZERO_MONO: _canon(other)} if other else {})
        return None

    def __add__(self, other) -> "Poly":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = _canon(s)
            else:
                del out[mono]
        return Poly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        # negation keeps the stored form, so no coefficient needs _canon
        return Poly._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int, int, int], Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                out[mono] = out.get(mono, 0) + c1 * c2
        return Poly._trusted({m: _canon(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        inv = Fraction(1) / other
        return Poly._trusted({m: _canon(c * inv) for m, c in self._terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    # -- evaluation and substitution ------------------------------------

    def eval(self, bindings: dict[Var, Scalar | str]) -> "Poly":
        """Substitute rational values for a subset of the variables.

        Unbound variables survive; binding everything yields a constant
        polynomial.  Values go through `as_scalar`.
        """
        if not bindings:
            return self
        tables = []  # (var, [value**0, value**1, ...]) up to var's degree
        for var, value in bindings.items():
            value = as_scalar(value)
            powers = [1]
            for _ in range(self.degree_in(var)):
                powers.append(powers[-1] * value)
            tables.append((var, powers))
        out: dict[tuple[int, int, int, int], Scalar] = {}
        for mono, c in self._terms.items():
            rest = list(mono)
            for var, powers in tables:
                e = mono[var]
                if e:
                    c = c * powers[e]
                    rest[var] = 0
            key = tuple(rest)
            out[key] = out.get(key, 0) + c
        return Poly._trusted({m: _canon(c) for m, c in out.items() if c})

    def substitute(self, var: Var, replacement: "Poly") -> "Poly":
        """Replace var by an arbitrary polynomial and re-expand."""
        powers = {0: Poly.one()}

        def pw(e: int) -> "Poly":
            if e not in powers:
                powers[e] = pw(e - 1) * replacement
            return powers[e]

        groups: dict[int, dict] = {}  # exponent of var -> terms of its cofactor
        for mono, c in self._terms.items():
            rest = list(mono)
            rest[var] = 0
            groups.setdefault(mono[var], {})[tuple(rest)] = c
        total = Poly.zero()
        for e, terms in groups.items():
            total = total + Poly._trusted(terms) * pw(e)
        return total

    # -- rendering and serialization ------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, c in self.terms():
            body = _mono_str(mono)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f" + {piece}" if c > 0 else f" - {piece}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json(self) -> list:
        """Canonical JSON form: list of {"m": exponents, "c": "p/q"} terms."""
        out = []
        for mono, c in self.terms():
            m = {v.symbol: mono[v] for v in Var if mono[v]}
            out.append({"m": m, "c": str(c)})
        return out

    @classmethod
    def from_json(cls, data: list) -> "Poly":
        """Inverse of `to_json`; coefficients go through `as_scalar`."""
        terms = {}
        for item in data:
            mono = [0, 0, 0, 0]
            for sym, e in item["m"].items():
                mono[var_from_symbol(sym)] = int(e)
            terms[tuple(mono)] = item["c"]
        return cls(terms)


def _mono_str(mono: tuple[int, int, int, int]) -> str:
    factors = []
    for v in Var:
        e = mono[v]
        if e == 1:
            factors.append(v.symbol)
        elif e > 1:
            factors.append(f"{v.symbol}^{e}")
    return "*".join(factors)


ZERO = Poly.zero()
ONE = Poly.one()
LAM = Poly.variable(Var.LAMBDA)
X = Poly.variable(Var.X)
Y = Poly.variable(Var.Y)
T = Poly.variable(Var.T)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from "p/q" or integer string form."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc
    if "." in text or "e" in text.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    return value
