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
monomial ``(e_l, e_x, e_y, e_t)`` is stored as one int key

    D * 2^(4w) - (e_l * 2^(3w) + e_x * 2^(2w) + e_y * 2^w + e_t)

with ``D`` its total degree and ``w`` a fixed field width, the graded
packing of Monagan and Pearce (J. Symbolic Comput. 46, 2011).  The key is
linear in the exponents, so multiplying monomials adds their keys,
raising one to the power e multiplies its key by e, and dropping
exponent e of a variable subtracts e times that variable's key.
Ascending keys are the canonical term order (ascending total degree, then
the exponent vector descending with ``l`` weighing heaviest), which makes
serialization and string rendering deterministic.  A monomial's total
degree is at most `MAX_DEGREE` (2^31); a product or power past it raises
OverflowError instead of wrapping into a neighbouring field.  The packed
form stays inside this module: monomials enter `Poly` and leave `terms`
as 4-tuples of exponents.

Nearly all the work downstream is sums of products, sum c*p*q.  They go
through one entry point, `Poly.sum_of_products`, which multiplies each
tuple's factors straight into one accumulating term map and brings it to
stored form in one final pass, so no product or partial sum is built per
term.  ``*`` on its own shifts keys when one side is a single monomial and
scales when it is a constant, and ``**`` of a single term multiplies its
key.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache


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

_W = 32  # bits per exponent field
_MASK = (1 << _W) - 1
_SHIFT = (3 * _W, 2 * _W, _W, 0)  # where the exponent of l, x, y, t sits
_VAR_KEY = tuple((1 << 4 * _W) - (1 << s) for s in _SHIFT)  # the key of each variable
MAX_DEGREE = 1 << (_W - 1)
# The largest key of total degree at most MAX_DEGREE.  A key is D*2^(4w) - E
# with 0 <= E <= D*2^(3w), and MAX_DEGREE < 2^w - 1, so a key exceeds it
# exactly when its true total degree D does, even where a sum of keys has
# carried one field into the next: one comparison catches a product or a
# power past the range.
_KEY_MAX = MAX_DEGREE << 4 * _W


def var_from_symbol(symbol: str) -> Var:
    try:
        return _SYMBOL_TO_VAR[symbol]
    except KeyError:
        raise ValueError(f"unknown variable {symbol!r}, expected one of l, x, y, t") from None


def _pack(mono: tuple[int, int, int, int]) -> int:
    """The key of an exponent 4-tuple; ValueError unless it is four nonnegative ints."""
    if len(mono) != 4 or any(type(e) is not int or e < 0 for e in mono):
        raise ValueError(f"not a monomial of four nonnegative int exponents: {mono!r}")
    key = sum(e * k for e, k in zip(mono, _VAR_KEY))
    if key > _KEY_MAX:
        raise _past_range()
    return key


@cache
def _kept(key) -> dict:
    """{i: entry i} of the sequence kept under ``key``, as far as read: every
    sequence the package keeps across calls, so one cache_clear() resets all."""
    return {}


def _kept_entry(key, n: int, first, step):
    """Entry n of the sequence kept under ``key``, whose entry 0 is ``first`` and
    entry i + 1 is ``step(run, i)`` of its kept entries ``run``, extended in a
    loop; ValueError for n < 0.  Each entry is written at its index, so a racing
    extension only rewrites an equal entry."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    run = _kept(key)
    run.setdefault(0, first)
    for i in range(len(run) - 1, n):
        run[i + 1] = step(run, i)
    return run[n]


def _l_keys(n: int) -> list[int]:
    """The keys of l^0 .. l^(n-1) under "l-keys", each int made once so that the
    S2_l entries built from rows share them; read from the dict found after the
    extension, as racing first reads of a key may each make a dict."""
    while len(keys := _kept("l-keys")) < n:
        _kept_entry("l-keys", n - 1, 0, lambda run, d: run[d] + _VAR_KEY[Var.LAMBDA])
    return [*map(keys.__getitem__, range(n))]


def _unpack(key: int) -> tuple[int, int, int, int]:
    """The exponent 4-tuple of a key: the low 4w bits of -key are the fields."""
    e = -key
    return (e >> _SHIFT[0] & _MASK, e >> _SHIFT[1] & _MASK, e >> _W & _MASK, e & _MASK)


def _past_range() -> OverflowError:
    return OverflowError(f"monomial of total degree above {MAX_DEGREE}")


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
    equal iff their term maps are equal; a constant equals its scalar and
    hashes as it, so the two are one key in a set or dict.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[tuple[int, int, int, int], Scalar | str] | None = None):
        """terms maps exponent 4-tuples (e_l, e_x, e_y, e_t) to coefficients.

        ValueError for a monomial that is not four nonnegative ints,
        OverflowError for one of total degree above `MAX_DEGREE`.
        """
        clean: dict[int, Scalar] = {}
        if terms:
            for mono, c in terms.items():
                key = _pack(mono)
                c = as_scalar(c)
                if c:
                    clean[key] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict[int, Scalar]) -> "Poly":
        # no checks: every key must be in range and every coefficient
        # nonzero and in _canon form, and the dict is kept, so the caller
        # must not reuse it
        p = object.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def _from_l_coeffs(cls, coeffs: list[int]) -> "Poly":
        # sum_d coeffs[d] * l^d from ints, zeros dropped
        return cls._trusted({k: c for k, c in zip(_l_keys(len(coeffs)), coeffs) if c})

    @classmethod
    def _from_l_rows(cls, rows, arg, weights=None) -> "Poly":
        """sum_k weights[k] * rows[k](l) * arg^k, where rows[k] lists the int
        coefficients of l^0, l^1, ... of entry k, weights are exact scalars
        (all 1 when None) and arg is one term.

        One term times l^d is one key, so the whole sum is one pass over the
        rows with no product of polynomials.  ValueError for an arg of any
        other size: the families are built at a monomial argument only.
        """
        p = cls._promote(arg)
        if p is None or len(p._terms) != 1:
            raise ValueError(f"not a one-term argument: {arg}")
        ((key, c),) = p._terms.items()
        keys = _l_keys(max(map(len, rows), default=0))
        out: dict[int, Scalar] = {}
        get = out.get
        power = 1  # c^k
        for k, row in enumerate(rows):
            scale = power if weights is None else weights[k] * power
            base = k * key
            for l_key, v in zip(keys, row):
                if v:
                    # at base 0 the shared key object is stored, as in _from_l_coeffs
                    d_key = l_key + base if base else l_key
                    out[d_key] = get(d_key, 0) + scale * v
            power *= c
        return _stored(out)

    @classmethod
    def const(cls, c: Scalar | str) -> "Poly":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def zero(cls) -> "Poly":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._trusted({0: 1})

    @classmethod
    def variable(cls, var: Var) -> "Poly":
        return cls._trusted({_VAR_KEY[var]: 1})

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Yield (monomial, coefficient) pairs in canonical order, each
        monomial an exponent 4-tuple (e_l, e_x, e_y, e_t)."""
        terms = self._terms
        for key in sorted(terms):
            yield _unpack(key), terms[key]

    def is_zero(self) -> bool:
        return not self._terms

    def degree_in(self, var: Var) -> int:
        """Largest exponent of var; -1 for the zero polynomial."""
        shift = _SHIFT[var]
        return max((-key >> shift & _MASK for key in self._terms), default=-1)

    def variables(self) -> set[Var]:
        return {v for v in Var if self.degree_in(v) > 0}

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _promote(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._trusted({0: _canon(other)} if other else {})
        return None

    def __add__(self, other) -> "Poly":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = _canon(s)
            else:
                del out[key]
        return Poly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        # negation keeps the stored form, so no coefficient needs _canon
        return Poly._trusted({k: -c for k, c in self._terms.items()})

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
            ((key, k),) = short._terms.items()
            if not key:
                if k == 1:
                    return long
                return Poly._trusted(
                    {m: v if type(v := x * k) is int else _canon(v) for m, x in long._terms.items()}
                )
            if key + max(long._terms) > _KEY_MAX:
                raise _past_range()
            return Poly._trusted(
                {m + key: v if type(v := x * k) is int else _canon(v) for m, x in long._terms.items()}
            )
        return Poly.sum_of_products(((short, long),))

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(products) -> "Poly":
        """The sum over ``products`` of the product of each tuple's factors.

        A factor is a `Poly` or an exact scalar (int, bool or Fraction).  The
        scalars of a tuple fold into one coefficient; its `Poly` factors
        before the last are multiplied with ``*`` and the result times the
        last goes straight into one accumulating term map.  So a sum of
        c*p*q terms builds no product and no partial sum, and the stored
        form comes from one final pass.
        """
        out: dict[int, Scalar] = {}
        get = out.get
        for factors in products:
            scale, head, last = 1, None, None  # head: the product of the Polys before last
            for f in factors:
                kind = type(f)
                if kind is int or kind is Fraction:
                    scale *= f
                elif kind is Poly or isinstance(f, Poly):
                    if last is not None:
                        head = last if head is None else head * last
                    last = f
                elif isinstance(f, (int, Fraction)):
                    scale *= f
                else:
                    raise TypeError(f"not a Poly or an exact scalar: {f!r}")
            if not scale:
                continue
            if last is None:
                out[0] = get(0, 0) + scale
                continue
            if head is None:
                if scale == 1:
                    for k, c in last._terms.items():
                        out[k] = get(k, 0) + c
                else:
                    for k, c in last._terms.items():
                        out[k] = get(k, 0) + scale * c
                continue
            short, long = head._terms, last._terms
            if len(short) > len(long):
                short, long = long, short
            for k1, c1 in short.items():
                c1 *= scale
                for k2, c2 in long.items():
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        return _stored(out)

    def __truediv__(self, other) -> "Poly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        inv = Fraction(1) / other
        return Poly._trusted({k: _canon(c * inv) for k, c in self._terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if len(self._terms) == 1 and e:
            # one term: multiply the key and power the coefficient, which
            # keeps its stored form (a Fraction's denominator stays above 1)
            ((key, c),) = self._terms.items()
            key *= e
            if key > _KEY_MAX:
                raise _past_range()
            return Poly._trusted({key: c**e})
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
            t = self._terms  # a constant equals its scalar, so it hashes as it
            self._hash = hash(t.get(0, 0) if t.keys() <= {0} else tuple(sorted(t.items())))
        return self._hash

    # -- evaluation and substitution ------------------------------------

    def eval(self, bindings: dict[Var, Scalar | str]) -> "Poly":
        """Substitute rational values for a subset of the variables.

        Unbound variables survive; binding everything yields a constant
        polynomial.  Values go through `as_scalar`; a variable bound to 0
        drops each term it divides before any arithmetic.
        """
        if not bindings:
            return self
        zeros, tables = 0, []  # the fields of the variables bound to 0
        for var, value in bindings.items():
            if not (value := as_scalar(value)):
                zeros |= _MASK << _SHIFT[var]
                continue
            # value**0 .. value**e for the largest exponent e met so far
            tables.append((_SHIFT[var], _VAR_KEY[var], value, [1, value]))
        if not self._terms:
            return self
        out: dict[int, Scalar] = {}
        for key, c in self._terms.items():
            if (fields := -key) & zeros:
                continue
            for shift, var_key, value, powers in tables:
                if e := fields >> shift & _MASK:
                    while len(powers) <= e:
                        powers.append(powers[-1] * value)
                    c = c * powers[e]
                    key -= e * var_key
            out[key] = out.get(key, 0) + c
        return Poly._trusted({k: _canon(c) for k, c in out.items() if c})

    def substitute(self, var: Var, replacement: "Poly") -> "Poly":
        """Replace var by an arbitrary polynomial and re-expand."""
        shift, var_key = _SHIFT[var], _VAR_KEY[var]
        groups: dict[int, dict] = {}  # exponent of var -> terms of its cofactor
        for key, c in self._terms.items():
            e = -key >> shift & _MASK
            groups.setdefault(e, {})[key - e * var_key] = c
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

    def _json_parts(self, indent: str, out: list[str]) -> None:
        """Append to ``out`` the pieces of ``json.dumps(self.to_json(),
        indent=2)``, nested at ``indent``, the newline and indentation before
        this value's own line.

        Each term is three pieces: the separator before it, its monomial's
        text up to the coefficient from `_json_heads`, and ``str(c)``; none
        needs escaping.
        """
        terms = self._terms
        if not terms:
            out.append("[]")
            return
        heads = _json_heads(indent)
        row = indent + "  "  # before each term's "{"
        tail = '"' + row + "}"
        sep, between = "[" + row, tail + "," + row
        for key in sorted(terms):
            if (head := heads.get(key)) is None:
                head = heads[key] = _json_head(key, indent)
            out += (sep, head, str(terms[key]))
            sep = between
        out.append(tail + indent + "]")


def _stored(out: dict[int, Scalar]) -> Poly:
    """The product term map ``out``, brought to stored form in place and kept;
    OverflowError if any key in it, a cancelled one too, is past the range."""
    if out and max(out) > _KEY_MAX:
        raise _past_range()
    for k in [k for k, c in out.items() if not c or type(c) is not int]:
        if c := out.pop(k):  # zeros stay out, a Fraction goes back in stored form
            out[k] = _canon(c)
    return Poly._trusted(out)


@cache
def _json_heads(indent: str) -> dict[int, str]:
    """The `_json_head` of each monomial key written so far at ``indent``.
    Kept for the process, one short string per monomial and indent written."""
    return {}


def _json_head(key: int, indent: str) -> str:
    """A term of `Poly._json_parts` up to its coefficient: ``{``, the "m"
    object of the monomial ``key`` and ``"c": "``, for a value at indent."""
    field = indent + "    "  # before the term's "m" and "c"
    exps = [f'{field}  "{s}": {e}' for s, e in zip(_SYMBOLS, _unpack(key)) if e]
    m = "{" + ",".join(exps) + field + "}" if exps else "{}"
    return "{" + field + '"m": ' + m + "," + field + '"c": "'


def _mono_str(mono: tuple[int, int, int, int]) -> str:
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in zip(_SYMBOLS, mono) if e)


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
