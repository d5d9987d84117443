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

Nearly all the work downstream is sums of products, sum c*p*q.  They go
through one entry point, `Poly.sum_of_products`, which multiplies each
tuple's factors straight into one accumulating term map and brings it to
stored form in one final pass, so no product or partial sum is built per
term.  ``*`` on its own shifts keys when one side is a single monomial and
scales when it is a constant, and ``**`` of a single term is that term with
its exponents scaled.
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
    """The canonical sort key of a monomial: total degree first, then the
    exponent vector descending with ``l`` weighing heaviest.  Plain tuple
    arithmetic, since `terms`, `__str__` and `to_json` sort every term."""
    a, b, c, d = mono
    return (a + b + c + d, -a, -b, -c, -d)


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
        long, short = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        if len(short._terms) == 1:
            # one term times anything: a scaled copy, or a shift of keys, with
            # no collisions and no zero products
            ((mono, k),) = short._terms.items()
            if mono == _ZERO_MONO:
                if k == 1:
                    return long
                return Poly._trusted(
                    {m: v if type(v := x * k) is int else _canon(v) for m, x in long._terms.items()}
                )
            a, b, c, d = mono
            return Poly._trusted(
                {
                    (e + a, f + b, g + c, h + d): v if type(v := x * k) is int else _canon(v)
                    for (e, f, g, h), x in long._terms.items()
                }
            )
        out: dict[tuple[int, int, int, int], Scalar] = {}
        get = out.get
        for (a, b, c, d), c1 in short._terms.items():
            for m2, c2 in long._terms.items():
                mono = (a + m2[0], b + m2[1], c + m2[2], d + m2[3])
                out[mono] = get(mono, 0) + c1 * c2
        return Poly._trusted({m: c if type(c) is int else _canon(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(products) -> "Poly":
        """The sum over ``products`` of the product of each tuple's factors.

        A factor is a `Poly` or an exact scalar (int or Fraction).  The
        scalars of a tuple fold into one coefficient; its `Poly` factors
        before the last are multiplied with ``*`` and the result times the
        last goes straight into one accumulating term map.  So a sum of
        c*p*q terms builds no product and no partial sum, and the stored
        form comes from one final pass.
        """
        out: dict[tuple[int, int, int, int], Scalar] = {}
        get = out.get
        for factors in products:
            scale, polys = 1, []
            for f in factors:
                if isinstance(f, Poly):
                    polys.append(f)
                elif isinstance(f, (int, Fraction)):
                    scale *= f
                else:
                    raise TypeError(f"not a Poly or an exact scalar: {f!r}")
            if not scale:
                continue
            if not polys:
                out[_ZERO_MONO] = get(_ZERO_MONO, 0) + scale
                continue
            last = polys.pop()._terms
            if not polys:
                for m, c in last.items():
                    out[m] = get(m, 0) + scale * c
                continue
            head = polys[0]
            for p in polys[1:]:
                head = head * p
            short, long = head._terms, last
            if len(short) > len(long):
                short, long = long, short
            for (a, b, c, d), c1 in short.items():
                c1 *= scale
                for m2, c2 in long.items():
                    mono = (a + m2[0], b + m2[1], c + m2[2], d + m2[3])
                    out[mono] = get(mono, 0) + c1 * c2
        return Poly._trusted({m: c if type(c) is int else _canon(c) for m, c in out.items() if c})

    def __truediv__(self, other) -> "Poly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        inv = Fraction(1) / other
        return Poly._trusted({m: _canon(c * inv) for m, c in self._terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if len(self._terms) == 1 and e:
            # one term: scale the exponents and power the coefficient, which
            # keeps its stored form (a Fraction's denominator stays above 1)
            (((a, b, c, d), k),) = self._terms.items()
            return Poly._trusted({(a * e, b * e, c * e, d * e): k**e})
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
        groups: dict[int, dict] = {}  # exponent of var -> terms of its cofactor
        for mono, c in self._terms.items():
            rest = list(mono)
            rest[var] = 0
            groups.setdefault(mono[var], {})[tuple(rest)] = c
        powers = [ONE]  # replacement**0 .. replacement**degree
        for _ in range(max(groups, default=0)):
            powers.append(powers[-1] * replacement)
        return Poly.sum_of_products((Poly._trusted(t), powers[e]) for e, t in groups.items())

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
        """Canonical JSON form: list of {"m": exponents, "c": "p/q"} terms,
        in `terms` order; "m" maps each symbol with a nonzero exponent to it,
        in the order l, x, y, t."""
        return [
            {"m": {s: e for s, e in zip(_SYMBOLS, mono) if e}, "c": str(c)}
            for mono, c in self.terms()
        ]

    def json_text(self, indent: str = "\n") -> str:
        """``json.dumps(self.to_json(), indent=2)`` byte for byte, nested at
        ``indent``, the newline and indentation before this value's own line.

        Each term is written straight from the term map, with no dict per
        term; ``str(c)`` and the exponents never need escaping.
        """
        if not self._terms:
            return "[]"
        row = indent + "  "  # before each term's "{"
        field = row + "  "  # before its "m" and "c"
        el, ex, ey, et = [f'{field}  "{s}": ' for s in _SYMBOLS]
        head, mid, tail = "{" + field + '"m": ', "," + field + '"c": "', '"' + row + "}"
        items = []
        for (a, b, c, d), coeff in self.terms():
            exps = []  # unrolled over l, x, y, t: this loop runs once per term
            if a:
                exps.append(el + str(a))
            if b:
                exps.append(ex + str(b))
            if c:
                exps.append(ey + str(c))
            if d:
                exps.append(et + str(d))
            m = "{" + ",".join(exps) + field + "}" if exps else "{}"
            items.append(head + m + mid + str(coeff) + tail)
        return "[" + row + ("," + row).join(items) + indent + "]"

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
