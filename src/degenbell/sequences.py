"""Degenerate Stirling, Bell and Fubini polynomial families.

All families live in the exact ring of `algebra.Poly`; the deformation
parameter stays symbolic as the variable ``l``.  Definitions:

    (w)_{n,l}  = w (w-l) ... (w-(n-1)l)          degenerate falling factorial
    (w)_n      = w (w-1) ... (w-n+1)             classical falling factorial
    <w>_n      = w (w+1) ... (w+n-1)             rising factorial
    S2_l(n,k)                                    degenerate Stirling, 2nd kind:
                 (x)_{n,l} = sum_k S2_l(n,k) (x)_k
    phi_{n,l}(x)   = sum_k S2_l(n,k) x^k         degenerate Bell
    Bel_{n,l}(x)   = sum_k S2_l(n,k) (1)_{k,l} x^k   fully degenerate Bell
    F_{n,l}(x)     = sum_k k! S2_l(n,k) x^k      degenerate Fubini
    F^(a)_{n,l}(x,y) = sum_j C(n,j) [sum_k <a>_k S2_l(j,k) x^k] (y)_{n-j,l}
                                                 two-variable, order a

Each family is a Stirling-weighted sum  sum_k w(k) S2_l(n,k) x^k,  with
w(k) = 1, (1)_{k,l}, k! and (inside the sum over j) <a>_k, and one helper,
`_stirling_sum`, builds all four.  S2_l is computed by the triangular
recurrence

    S2_l(n+1, k) = S2_l(n, k-1) + (k - n*l) S2_l(n, k),

which follows from (x)_{n+1,l} = (x - n*l)(x)_{n,l} together with
x (x)_k = (x)_{k+1} + k (x)_k.  Two independent routes check it: the
change-of-basis solve in `stirling2_deg_basis_table` and the EGF
coefficients of (e_l(s) - 1)^k / k! from the series engine.

The closed form for F^(a) above is the Cauchy product of the two factors
of its generating function (1 - x(e_l(s)-1))^(-a) e_l^y(s); it is not a
quoted formula, so the test suite validates it against the series route
before anything else relies on it.

Every table kind has one entry in the registry `KINDS`: the builder of an
entry, (n, k) for a triangular kind and n for a linear one (with an order
alpha for two-var-deg-fubini), and its classical l = 0 counterpart.
`build_table`, `classical_counterpart`, the kind tuples and the CLI all
read it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import NamedTuple

from . import classical
from .algebra import LAM, ONE, Poly, Var, X, as_scalar, var_from_symbol

Scalar = int | Fraction


def _product(base: Poly | Scalar, n: int, step: Poly | int) -> Poly:
    """prod_{i<n} (base + i*step), the product behind every factorial here."""
    if n < 0:
        raise ValueError("count must be nonnegative")
    base = base if isinstance(base, Poly) else Poly.const(base)
    out = Poly.one()
    for i in range(n):
        out = out * (base + i * step)
    return out


def falling_factorial_deg(base: Poly | Scalar, n: int) -> Poly:
    """(base)_{n,l} = prod_{i<n} (base - i*l)."""
    return _product(base, n, -LAM)


def falling_factorial(base: Poly | Scalar, n: int) -> Poly:
    """(base)_n = prod_{i<n} (base - i)."""
    return _product(base, n, -1)


def rising_factorial(base: Poly | Scalar, n: int) -> Poly:
    """<base>_n = prod_{i<n} (base + i)."""
    return _product(base, n, 1)


@cache
def unit_falling_factorial_deg(n: int) -> Poly:
    """(1)_{n,l}, the weight attached to x^k in the fully degenerate family."""
    return falling_factorial_deg(ONE, n)


_STIRLING_DEG_ROWS: list[tuple[Poly, ...]] = [(Poly.one(),)]


def stirling2_deg(n: int, k: int) -> Poly:
    """Degenerate Stirling number of the second kind, via the recurrence.

    Zero outside the triangle 0 <= k <= n; degree in l is at most n - k.
    The memoized rows are extended in a loop, never by recursion.
    """
    rows = _STIRLING_DEG_ROWS
    while len(rows) <= n:
        prev, m = rows[-1], len(rows)
        # S2_l(m, k) = S2_l(m-1, k-1) + (k - (m-1) l) S2_l(m-1, k); S2_l(m, 0) = 0, S2_l(m, m) = 1
        inner = (prev[k - 1] + (k - (m - 1) * LAM) * prev[k] for k in range(1, m))
        rows.append((Poly.zero(), *inner, Poly.one()))
    return rows[n][k] if 0 <= k <= n else Poly.zero()


def _stirling_sum(n: int, weight: Callable[[int], Poly | Scalar]) -> Poly:
    """sum_k weight(k) S2_l(n,k) x^k, the shape of every family here; zero weights are skipped."""
    total = Poly.zero()
    for k in range(n + 1):
        w = weight(k)
        if w != 0:
            total = total + w * stirling2_deg(n, k) * X**k
    return total


@cache
def bell_deg(n: int) -> Poly:
    """Degenerate Bell polynomial phi_{n,l}(x)."""
    return _stirling_sum(n, lambda k: 1)


@cache
def bell_fully_deg(n: int) -> Poly:
    """Fully degenerate Bell polynomial Bel_{n,l}(x)."""
    return _stirling_sum(n, unit_falling_factorial_deg)


@cache
def fubini_deg(n: int) -> Poly:
    """Degenerate Fubini polynomial F_{n,l}(x)."""
    return _stirling_sum(n, factorial)


@cache
def fubini_two_var_alpha(n: int, alpha: int) -> Poly:
    """Two-variable degenerate Fubini polynomial of nonnegative integer order."""
    if alpha < 0:
        raise ValueError("order must be a nonnegative integer")
    y = Poly.variable(Var.Y)
    total = Poly.zero()
    for j in range(n + 1):
        inner = _stirling_sum(j, lambda k: rising_factorial(alpha, k).const_value())
        total = total + comb(n, j) * inner * falling_factorial_deg(y, n - j)
    return total


def specialize(p: Poly, **bindings: Scalar | Poly | str) -> Poly:
    """Bind ring variables by name: rationals evaluate, polynomials substitute.

    Accepts keyword names l, x, y, t.  Scalar values go through
    `algebra.as_scalar`: strings parse as exact rationals and floats raise
    TypeError.  Used for every "at x = 1" / "l -> 0" style specialization
    and for polynomial arguments such as x -> -l*t.
    """
    rational: dict[Var, Scalar] = {}
    polynomial: list[tuple[Var, Poly]] = []
    for name, value in bindings.items():
        var = var_from_symbol(name)
        if isinstance(value, Poly):
            polynomial.append((var, value))
        else:
            rational[var] = as_scalar(value)
    out = p.eval(rational)
    for var, q in polynomial:
        out = out.substitute(var, q)
    return out


# -- tables ----------------------------------------------------------------


def index_names(index: tuple) -> dict:
    """A table index (n,) or (n, k) keyed by its names, as JSON and text show it."""
    return dict(zip(("n", "k"), index))


@dataclass(frozen=True)
class SeqTable:
    """A computed family table with provenance, ready for serialization."""

    kind: str
    bounds: dict
    provenance: str
    values: tuple  # ((n,) or (n, k), Poly) pairs in index order

    def to_json(self) -> dict:
        rows = [{**index_names(index), "poly": poly.to_json()} for index, poly in self.values]
        return {
            "kind": self.kind,
            "bounds": self.bounds,
            "provenance": self.provenance,
            "values": rows,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeqTable":
        values = tuple(
            (tuple(row[name] for name in ("n", "k") if name in row), Poly.from_json(row["poly"]))
            for row in data["values"]
        )
        return cls(data["kind"], dict(data["bounds"]), data["provenance"], values)

    def to_csv_rows(self) -> list[list[str]]:
        triangular = any(len(index) > 1 for index, _ in self.values)
        header = ["n", "k", "value"] if triangular else ["n", "value"]
        return [header] + [[*map(str, index), str(poly)] for index, poly in self.values]


def stirling2_deg_basis_table(n_max: int) -> SeqTable:
    """All S2_l(n, k) for n <= n_max by the defining change of basis.

    Expands (x)_{n,l} and peels off classical falling factorials (x)_k
    from the top degree down; independent of the recurrence route.
    """
    values = []
    basis = [falling_factorial(X, k) for k in range(n_max + 1)]
    for n in range(n_max + 1):
        residual = falling_factorial_deg(X, n)
        row = [Poly.zero()] * (n + 1)
        for d in range(n, -1, -1):
            c = residual.coefficient_of(Var.X, d)
            row[d] = c
            residual = residual - c * basis[d]
        if not residual.is_zero():
            raise ArithmeticError("change-of-basis solve left a nonzero residual")
        values.extend((((n, k), row[k]) for k in range(n + 1)))
    return SeqTable("deg-stirling2", {"n_max": n_max}, "closed-form", tuple(values))


class _Kind(NamedTuple):
    """A table kind: ``build(n, k)`` gives entry (n, k) of a triangular kind and
    ``build(n, alpha)`` entry n of a linear one; ``limit`` is the classical
    l = 0 counterpart, or None."""

    name: str
    build: Callable[[int, int | None], Poly]
    limit: _Kind | None = None
    triangular: bool = False
    ordered: bool = False  # takes an order alpha, 1 when not given

    def order(self, alpha: int | None) -> int | None:
        """alpha for this kind's entries; ValueError if given to a kind without an order."""
        if alpha is not None and not self.ordered:
            raise ValueError(f"alpha applies only to kinds with an order, not {self.name}")
        return (1 if alpha is None else alpha) if self.ordered else None


# The builders are lambdas, so every call looks the family up by its
# module-global name (which perfbench's tracer patches).
_STIRLING2 = _Kind(
    "classical-stirling2", lambda n, k: Poly.const(classical.stirling2(n, k)), triangular=True
)
_BELL = _Kind("classical-bell", lambda n, _: classical.bell_poly(n))
_FUBINI = _Kind("classical-fubini", lambda n, _: classical.fubini_poly(n))
_TWO_VAR = _Kind(
    "classical-two-var-fubini", lambda n, a: classical.two_var_fubini_poly(n, a), ordered=True
)
_MONOMIALS = _Kind("monomials", lambda n, _: X**n)
KINDS = {
    kind.name: kind
    for kind in (
        _Kind("deg-stirling2", lambda n, k: stirling2_deg(n, k), _STIRLING2, triangular=True),
        _STIRLING2,
        _Kind("deg-bell", lambda n, _: bell_deg(n), _BELL),
        _Kind("fully-deg-bell", lambda n, _: bell_fully_deg(n), _BELL),
        _Kind("deg-fubini", lambda n, _: fubini_deg(n), _FUBINI),
        _Kind(
            "two-var-deg-fubini", lambda n, a: fubini_two_var_alpha(n, a), _TWO_VAR, ordered=True
        ),
        _Kind("deg-falling-factorial", lambda n, _: falling_factorial_deg(X, n), _MONOMIALS),
        _Kind("falling-factorial", lambda n, _: falling_factorial(X, n)),
        _Kind("rising-factorial", lambda n, _: rising_factorial(X, n)),
        _BELL,
        _FUBINI,
    )
}
TABLE_KINDS = tuple(KINDS)
TRIANGULAR_KINDS = tuple(name for name in KINDS if KINDS[name].triangular)
LINEAR_KINDS = tuple(name for name in KINDS if not KINDS[name].triangular)
LIMIT_KINDS = tuple(name for name in KINDS if KINDS[name].limit)


def _table(kind: _Kind, n_max: int, k_max: int | None, alpha: int | None) -> SeqTable:
    """kind's entries in index order: (n, k) up to k_max if triangular, else (n,)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bounds: dict = {"n_max": n_max}
    if kind.triangular:
        top = n_max if k_max is None else k_max
        index = [(n, k) for n in range(n_max + 1) for k in range(min(n, top) + 1)]
        if k_max is not None:
            bounds["k_max"] = k_max
    else:
        index = [(n,) for n in range(n_max + 1)]
        if kind.ordered:
            bounds["alpha"] = alpha
    values = tuple((i, kind.build(i[0], i[1] if kind.triangular else alpha)) for i in index)
    provenance = "recurrence" if kind.triangular else "closed-form"
    return SeqTable(kind.name, bounds, provenance, values)


def build_table(
    kind: str, n_max: int, k_max: int | None = None, alpha: int | None = None
) -> SeqTable:
    """Build the standard table for any family kind, fast-path routes.

    k_max caps the column index of triangular kinds and alpha is the
    order of two-var-deg-fubini (1 when not given); giving either to a
    kind it does not apply to raises ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    entry = KINDS[kind]
    if k_max is not None and not entry.triangular:
        raise ValueError(f"k_max applies only to triangular kinds, not {kind}")
    return _table(entry, n_max, k_max, entry.order(alpha))


def classical_counterpart(kind: str, n_max: int, alpha: int | None = None) -> SeqTable:
    """The independently computed classical family matching a degenerate kind."""
    entry = KINDS.get(kind)
    if entry is None or entry.limit is None:
        raise ValueError(f"no classical counterpart for kind {kind!r}")
    return _table(entry.limit, n_max, None, entry.order(alpha))
