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
    F^(a)_{n,l}(x) = sum_k <a>_k S2_l(n,k) x^k   degenerate Fubini, order a;
                                                 F_{n,l} = F^(1)_{n,l}, as <1>_k = k!
    F^(a)_{n,l}(x,y) = sum_j C(n,j) F^(a)_{j,l}(x) (y)_{n-j,l}
                                                 two-variable, order a

Each family is a Stirling-weighted sum  sum_k w(k) S2_l(n,k) x^k,  with
w(k) = 1, (1)_{k,l} and <a>_k.  S2_l, phi, Bel and F^(a) are built
straight from rows of l-coefficients, of S2_l and of U_l(n,k) =
(1)_{k,l} S2_l(n,k) for Bel, by `Poly._from_l_rows`: one comprehension
per row, with no product of polynomials.  phi, Bel and F^(a) take the
argument they are evaluated at (x when not given), so Bel_{n,l}(t) or
F^(k)_{n,l}(-l*t) is built at its argument, never substituted into.  It
must be one term, so that x^k times l^d is one term (ValueError
otherwise).  At x, t and -l*t each row has keys of its own; at 1 and -l,
fully-deg-bell's B_j and heads, the rows are folded into one list in l
first.  The two-variable family sums the order-a Fubini polynomials
against (y)_{n-j,l}; it reads F^(a)_{j,l}(x) from one running list per
a, kept under ("fubini", a).  Every factorial (w)_{n,l}, (w)_n and <w>_n
is entry n of the running list prod_{i<n} (w + i*step) kept under the key
(w, step).  Both lists are kept by `algebra._kept_entry`, which extends
each in a loop.  Each other sum of products goes through
`Poly.sum_of_products`.

S2_l and U_l(n,k) = (1)_{k,l} S2_l(n,k) are polynomials in l alone with
int coefficients, so their rows are plain int lists, entry d of a list the
coefficient of l^d.  Both follow one triangular recurrence,

    T(n+1, k) = (1 - c(k-1) l) T(n, k-1) + (k - n*l) T(n, k),

with c = 0 for S2_l, from (x)_{n+1,l} = (x - n*l)(x)_{n,l} and
x (x)_k = (x)_{k+1} + k (x)_k, and c = 1 for U_l, the S2_l step times
(1)_{k,l} = (1 - (k-1) l) (1)_{k-1,l}.  One stepper takes both, each entry
of a step one list comprehension.  Each triangle keeps only its top row,
Theta(n^2) ints; a request below it steps up again from row 0, and
S2_l(n,k), phi, Bel and F^(a) build their `Poly` on each call.  The test
suite checks S2_l by two independent routes: the change-of-basis solve of
its definition and the EGF coefficients of (e_l(s) - 1)^k / k! from the
series engine.  As
Bel_{n,l}(x) = sum_k U_l(n,k) x^k, a table of Bel_0..Bel_N takes
Theta(N^3) int operations and no product of polynomials (a sum of
(1)_{k,l} S2_l(n,k) products takes Theta(N^4) term products).

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
from itertools import accumulate, count
from math import comb
from operator import mul
from typing import NamedTuple

from .algebra import LAM, ONE, ZERO, Poly, Scalar, X, Y, _kept, _kept_entry
from . import classical  # after algebra: a first import loads fractions a level up


_DEG_STEP = -LAM  # the step of (w)_{n,l}, one object, so its store keys hash once


def _product(base: Poly | Scalar, n: int, step: Poly | int) -> Poly:
    """prod_{i<n} (base + i*step), the product behind every factorial here: entry
    n of the sequence kept under (base, step).  An int base is the same key as
    its constant, which is built only to extend the sequence."""
    def extend(run: dict[int, Poly], i: int) -> Poly:
        factor = base if isinstance(base, Poly) else Poly.const(base)
        return run[i] * (factor + i * step)

    return _kept_entry((base, step), n, ONE, extend)


def falling_factorial_deg(base: Poly | Scalar, n: int) -> Poly:
    """(base)_{n,l} = prod_{i<n} (base - i*l)."""
    return _product(base, n, _DEG_STEP)


def falling_factorial(base: Poly | Scalar, n: int) -> Poly:
    """(base)_n = prod_{i<n} (base - i)."""
    return _product(base, n, -1)


def rising_factorial(base: Poly | Scalar, n: int) -> Poly:
    """<base>_n = prod_{i<n} (base + i)."""
    return _product(base, n, 1)


def unit_falling_factorial_deg(n: int) -> Poly:
    """(1)_{n,l}, the weight attached to x^k in the fully degenerate family."""
    return falling_factorial_deg(ONE, n)


# Triangle c (0: S2_l, 1: U_l) keeps (n, row n) as entry 0 under ("top", c):
# entry k of row n holds the l-coefficients of T(n, k), k = 0..n, n - k + 1 of
# them for S2_l and n + 1 for U_l, the last 0 when n > 0.  Each pair is replaced
# whole and no row is changed in place, so a racing step only repeats work.
def _row(c: int, n: int) -> tuple[list[int], ...]:
    """Row n >= 0 of triangle c, stepped up in a loop from the top row, or
    from row 0 when n is below it; ValueError for n < 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    kept = _kept(("top", c))
    top, row = kept.get(0, (0, ([1],)))
    if n < top:
        top, row = 0, ([1],)
    for top in range(top, n):
        ext = (*row, [0] * c * (top + 1))  # T(top, top+1) = 0
        lo, hi = [e + [0] for e in ext], [[0] + e for e in ext]  # times 1 and l
        # T(top+1, k) = (1 - w l) T(top, k-1) + (k - top*l) T(top, k), w = c(k-1)
        row = (
            [0] * (top + 2),  # T(top+1, 0) = 0
            *(
                [a0 - w * a1 + k * b0 - top * b1 for a0, a1, b0, b1 in zip(a, la, b, lb)]
                for k, w, a, la, b, lb in zip(count(1), count(0, c), lo, hi, lo[1:], hi[1:])
            ),
        )
    kept[0] = (n, row)
    return row


def stirling2_deg(n: int, k: int) -> Poly:
    """Degenerate Stirling number of the second kind, via the recurrence.

    Zero outside the triangle 0 <= k <= n; degree in l is at most n - k.
    """
    return Poly._from_l_rows((_row(0, n)[k],), ONE) if 0 <= k <= n else ZERO


def bell_deg(n: int, x: Poly = X) -> Poly:
    """Degenerate Bell polynomial phi_{n,l}(x) = sum_k S2_l(n,k) x^k, at the
    one-term argument x (ValueError for any other, and for n < 0)."""
    return Poly._from_l_rows(_row(0, n), x)


def bell_fully_deg(n: int, x: Poly = X) -> Poly:
    """Fully degenerate Bell polynomial Bel_{n,l}(x) = sum_k U_l(n,k) x^k, at the
    one-term argument x (ValueError for any other, and for n < 0)."""
    return Poly._from_l_rows(_row(1, n), x)


def fubini_deg(n: int, alpha: int = 1, x: Poly = X) -> Poly:
    """Degenerate Fubini polynomial of order alpha, sum_k <alpha>_k S2_l(n,k) x^k,
    built on each call.

    alpha = 1 (<1>_k = k!) is F_{n,l}(x); at y = 0 this is F^(alpha)_{n,l}(x, 0).
    x must be one term and n nonnegative (ValueError otherwise).
    """
    rising = list(accumulate(range(alpha, alpha + n), mul, initial=1))  # <alpha>_0..<alpha>_n
    return Poly._from_l_rows(_row(0, n), x, rising)


def fubini_two_var_alpha(n: int, alpha: int) -> Poly:
    """Two-variable degenerate Fubini polynomial of nonnegative integer order,
    F^(alpha)_{n,l}(x, y); ValueError for n < 0."""
    if alpha < 0:
        raise ValueError("order must be a nonnegative integer")
    if n < 0:
        raise ValueError("n must be nonnegative")

    def head(j: int) -> Poly:  # F^(alpha)_{j,l}(x), kept: 1, then fubini_deg once each
        return _kept_entry(("fubini", alpha), j, ONE, lambda run, i: fubini_deg(i + 1, alpha))

    return Poly.sum_of_products(
        (comb(n, j), head(j), falling_factorial_deg(Y, n - j)) for j in range(n + 1)
    )


# -- tables ----------------------------------------------------------------


def index_names(index: tuple) -> dict:
    """A table index (n,) or (n, k) keyed by its names, as JSON and text show it."""
    return dict(zip(("n", "k"), index))


class SeqTable(NamedTuple):
    """A computed family table with provenance, ready for serialization."""

    kind: str
    bounds: dict
    provenance: str
    values: tuple  # ((n,) or (n, k), Poly) pairs in index order

    def to_json(self, leaf: Callable[[Poly], object] = Poly.to_json) -> dict:
        """The table as JSON data, each polynomial as ``leaf(poly)``."""
        rows = [{**index_names(index), "poly": leaf(poly)} for index, poly in self.values]
        return {
            "kind": self.kind,
            "bounds": self.bounds,
            "provenance": self.provenance,
            "values": rows,
        }

    def to_csv_rows(self) -> list[list[str]]:
        triangular = any(len(index) > 1 for index, _ in self.values)
        header = ["n", "k", "value"] if triangular else ["n", "value"]
        return [header] + [[*map(str, index), str(poly)] for index, poly in self.values]


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
        """alpha for this kind's entries; ValueError if given to a kind without an
        order, or if negative."""
        if alpha is not None and not self.ordered:
            raise ValueError(f"alpha applies only to kinds with an order, not {self.name}")
        if alpha is not None and alpha < 0:
            raise ValueError("alpha must be nonnegative")
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
    for name, bound in (("n_max", n_max), ("k_max", k_max)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must be nonnegative")
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
    kind it does not apply to raises ValueError, as does a negative bound
    or order.
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
