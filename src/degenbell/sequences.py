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

S2_l is computed by the triangular recurrence

    S2_l(n+1, k) = S2_l(n, k-1) + (k - n*l) S2_l(n, k),

which follows from (x)_{n+1,l} = (x - n*l)(x)_{n,l} together with
x (x)_k = (x)_{k+1} + k (x)_k.  Two independent routes check it: the
change-of-basis solve in `stirling2_deg_basis_table` and the EGF
coefficients of (e_l(s) - 1)^k / k! from the series engine.

The closed form for F^(a) above is the Cauchy product of the two factors
of its generating function (1 - x(e_l(s)-1))^(-a) e_l^y(s); it is not a
quoted formula, so the test suite validates it against the series route
before anything else relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

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


@cache
def _stirling_deg_row(n: int) -> tuple[Poly, ...]:
    if n == 0:
        return (Poly.one(),)
    prev = _stirling_deg_row(n - 1)
    zero = Poly.zero()
    row = []
    for k in range(n + 1):
        above_left = prev[k - 1] if 1 <= k else zero
        above = prev[k] if k <= n - 1 else zero
        row.append(above_left + (Poly.const(k) - (n - 1) * LAM) * above)
    return tuple(row)


def stirling2_deg(n: int, k: int) -> Poly:
    """Degenerate Stirling number of the second kind, via the recurrence.

    Zero outside the triangle 0 <= k <= n; degree in l is at most n - k.
    """
    if n == 0 and k == 0:
        return Poly.one()
    if n < 0 or k < 0 or k > n:
        return Poly.zero()
    return _stirling_deg_row(n)[k]


@cache
def bell_deg(n: int) -> Poly:
    """Degenerate Bell polynomial phi_{n,l}(x)."""
    total = Poly.zero()
    for k in range(n + 1):
        total = total + stirling2_deg(n, k) * X**k
    return total


@cache
def bell_fully_deg(n: int) -> Poly:
    """Fully degenerate Bell polynomial Bel_{n,l}(x)."""
    total = Poly.zero()
    for k in range(n + 1):
        total = total + stirling2_deg(n, k) * unit_falling_factorial_deg(k) * X**k
    return total


@cache
def fubini_deg(n: int) -> Poly:
    """Degenerate Fubini polynomial F_{n,l}(x)."""
    total = Poly.zero()
    for k in range(n + 1):
        total = total + factorial(k) * stirling2_deg(n, k) * X**k
    return total


@cache
def fubini_two_var_alpha(n: int, alpha: int) -> Poly:
    """Two-variable degenerate Fubini polynomial of nonnegative integer order."""
    if alpha < 0:
        raise ValueError("order must be a nonnegative integer")
    y = Poly.variable(Var.Y)
    total = Poly.zero()
    for j in range(n + 1):
        inner = Poly.zero()
        for k in range(j + 1):
            weight = rising_factorial(alpha, k).const_value()
            if weight:
                inner = inner + weight * stirling2_deg(j, k) * X**k
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

TRIANGULAR_KINDS = ("deg-stirling2", "classical-stirling2")
# kind -> builder(n, alpha) of one polynomial; lambdas, so each call looks the
# family up by its module-global name
_LINEAR = {
    "deg-bell": lambda n, alpha: bell_deg(n),
    "fully-deg-bell": lambda n, alpha: bell_fully_deg(n),
    "deg-fubini": lambda n, alpha: fubini_deg(n),
    "two-var-deg-fubini": lambda n, alpha: fubini_two_var_alpha(n, alpha),
    "deg-falling-factorial": lambda n, alpha: falling_factorial_deg(X, n),
    "falling-factorial": lambda n, alpha: falling_factorial(X, n),
    "rising-factorial": lambda n, alpha: rising_factorial(X, n),
    "classical-bell": lambda n, alpha: classical.bell_poly(n),
    "classical-fubini": lambda n, alpha: classical.fubini_poly(n),
}
LINEAR_KINDS = tuple(_LINEAR)
TABLE_KINDS = TRIANGULAR_KINDS + LINEAR_KINDS


@dataclass(frozen=True)
class SeqTable:
    """A computed family table with provenance, ready for serialization."""

    kind: str
    bounds: dict
    provenance: str
    values: tuple  # ((n,) or (n, k), Poly) pairs in index order

    def to_json(self) -> dict:
        rows = []
        for index, poly in self.values:
            row = {"n": index[0]}
            if len(index) > 1:
                row["k"] = index[1]
            row["poly"] = poly.to_json()
            rows.append(row)
        return {
            "kind": self.kind,
            "bounds": self.bounds,
            "provenance": self.provenance,
            "values": rows,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeqTable":
        values = []
        for row in data["values"]:
            index = (row["n"], row["k"]) if "k" in row else (row["n"],)
            values.append((index, Poly.from_json(row["poly"])))
        return cls(
            kind=data["kind"],
            bounds=dict(data["bounds"]),
            provenance=data["provenance"],
            values=tuple(values),
        )

    def to_csv_rows(self) -> list[list[str]]:
        triangular = any(len(index) > 1 for index, _ in self.values)
        header = ["n", "k", "value"] if triangular else ["n", "value"]
        rows = [header]
        for index, poly in self.values:
            rows.append([str(i) for i in index] + [str(poly)])
        return rows


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
    return SeqTable(
        kind="deg-stirling2",
        bounds={"n_max": n_max},
        provenance="closed-form",
        values=tuple(values),
    )


def build_table(kind: str, n_max: int, k_max: int | None = None, alpha: int = 1) -> SeqTable:
    """Build the standard table for any family kind, fast-path routes.

    k_max caps the column index of triangular kinds; giving it for a
    linear kind raises ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bounds: dict = {"n_max": n_max}

    def columns(n):
        top = n if k_max is None else min(n, k_max)
        return range(top + 1)

    if kind == "deg-stirling2":
        values = tuple(
            ((n, k), stirling2_deg(n, k)) for n in range(n_max + 1) for k in columns(n)
        )
        provenance = "recurrence"
    elif kind == "classical-stirling2":
        values = tuple(
            ((n, k), Poly.const(classical.stirling2(n, k)))
            for n in range(n_max + 1)
            for k in columns(n)
        )
        provenance = "recurrence"
    elif kind in _LINEAR:
        if k_max is not None:
            raise ValueError(f"k_max applies only to triangular kinds, not {kind}")
        fn = _LINEAR[kind]
        values = tuple(((n,), fn(n, alpha)) for n in range(n_max + 1))
        provenance = "closed-form"
        if kind == "two-var-deg-fubini":
            bounds["alpha"] = alpha
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    if k_max is not None and kind in TRIANGULAR_KINDS:
        bounds["k_max"] = k_max
    return SeqTable(kind=kind, bounds=bounds, provenance=provenance, values=values)


def classical_counterpart(kind: str, n_max: int, alpha: int = 1) -> SeqTable:
    """The independently computed classical family matching a degenerate kind."""
    if kind == "deg-stirling2":
        return build_table("classical-stirling2", n_max)
    if kind in ("deg-bell", "fully-deg-bell"):
        table = build_table("classical-bell", n_max)
    elif kind == "deg-fubini":
        table = build_table("classical-fubini", n_max)
    elif kind == "deg-falling-factorial":
        values = tuple(((n,), X**n) for n in range(n_max + 1))
        table = SeqTable("monomials", {"n_max": n_max}, "closed-form", values)
    elif kind == "two-var-deg-fubini":
        values = tuple(((n,), classical.two_var_fubini_poly(n, alpha)) for n in range(n_max + 1))
        table = SeqTable(
            "classical-two-var-fubini",
            {"n_max": n_max, "alpha": alpha},
            "closed-form",
            values,
        )
    else:
        raise ValueError(f"no classical counterpart for kind {kind!r}")
    return table
