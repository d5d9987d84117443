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
w(k) = 1, (1)_{k,l} and <a>_k.  phi, Bel and F^(a) are built straight
from a row of l-coefficients, of S2_l for phi and F^(a) and of
U_l(n,k) = (1)_{k,l} S2_l(n,k) for Bel, by `Poly._from_l_rows`, with no
product of polynomials; the two-variable family sums the order-a Fubini
polynomials against (y)_{n-j,l}.  Bel and F^(a) take the polynomial
argument they are evaluated at (x when not given), so a value such as
Bel_{n,l}(t) or F^(k)_{n,l}(-l*t) is built at its argument, never
substituted into.  That argument must be one term (x, t, 1, -l and -l*t
are the ones used), since x^k times l^d is then one term; any other
raises ValueError.  Every factorial
(w)_{n,l}, (w)_n and <w>_n is read from one running list of
prod_{i<n} (w + i*step) per (w, step), kept for the process and extended
in a loop.  Each other sum of products goes through
`Poly.sum_of_products`.

S2_l and U_l(n,k) = (1)_{k,l} S2_l(n,k) are polynomials in l alone with
int coefficients, so their rows are plain int lists, entry d of a list the
coefficient of l^d, and each entry of a step is one list comprehension.
S2_l follows the triangular recurrence

    S2_l(n+1, k) = S2_l(n, k-1) + (k - n*l) S2_l(n, k),

from (x)_{n+1,l} = (x - n*l)(x)_{n,l} and x (x)_k = (x)_{k+1} + k (x)_k.
Its memo keeps every row up to the largest n read, and `stirling2_deg`
builds the entry's `Poly` on each call.  The test suite checks it by two
independent routes: the change-of-basis solve of that definition and the
EGF coefficients of (e_l(s) - 1)^k / k! from the series engine.  The S2_l
step times (1)_{k,l} = (1 - (k-1) l) (1)_{k-1,l} is

    U_l(n+1, k) = (1 - (k-1) l) U_l(n, k-1) + (k - n*l) U_l(n, k),

and Bel_{n,l}(x) = sum_k U_l(n,k) x^k, so a table of Bel_0..Bel_N takes
Theta(N^3) int operations and no product of polynomials (a sum of
(1)_{k,l} S2_l(n,k) products takes Theta(N^4) term products).  Only the
top row of U_l is kept, Theta(n^2) ints; a request below it steps up again
from row 1, and `bell_fully_deg` caches its values keyed (n, x).

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
from functools import cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from . import classical
from .algebra import LAM, ONE, Poly, Scalar, X, Y


_DEG_STEP = -LAM  # the step of (w)_{n,l}, one object, so its cache keys hash once


@cache
def _running(base: Poly, step: Poly | int) -> dict[int, Poly]:
    """{i: prod_{j<i} (base + j*step)} for i = 0, 1, ..., one running list per (base, step)."""
    return {0: ONE}


def _product(base: Poly | Scalar, n: int, step: Poly | int) -> Poly:
    """prod_{i<n} (base + i*step), the product behind every factorial here, read
    from the running list of (base, step).  Its keys stay 0..len-1, and a racing
    extension only rewrites an entry with the same value."""
    if n < 0:
        raise ValueError("count must be nonnegative")
    base = base if isinstance(base, Poly) else Poly.const(base)
    run = _running(base, step)
    for i in range(len(run) - 1, n):
        run[i + 1] = run[i] * (base + i * step)
    return run[n]


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


# Row m of S2_l: entry k is the m - k + 1 l-coefficients of S2_l(m, k), and
# S2_l(m, 0) = 0 is m + 1 zeros, so entry k - 1 is one longer than entry k.
_STIRLING_DEG_ROWS: list[tuple[list[int], ...]] = [([1],)]


def _stirling_row(n: int) -> tuple[list[int], ...]:
    """Row n of S2_l, entry k the l-coefficients of S2_l(n, k); empty for n < 0.

    The memoized rows are extended in a loop, never by recursion.  Row m is
    assigned to the slice at index m, so a racing extension rewrites an
    equal row where an append would add a second copy.
    """
    rows = _STIRLING_DEG_ROWS
    while (m := len(rows)) <= n:
        prev = (*rows[m - 1], [])  # S2_l(m-1, m) = 0
        # S2_l(m, k) = S2_l(m-1, k-1) + (k - (m-1) l) S2_l(m-1, k)
        step = (
            [a + k * b - (m - 1) * c for a, b, c in zip(prev[k - 1], prev[k] + [0], [0] + prev[k])]
            for k in range(1, m + 1)
        )
        rows[m : m + 1] = [([0] * (m + 1), *step)]
    return rows[n] if n >= 0 else ()


def stirling2_deg(n: int, k: int) -> Poly:
    """Degenerate Stirling number of the second kind, via the recurrence.

    Zero outside the triangle 0 <= k <= n; degree in l is at most n - k.
    """
    return Poly._from_l_coeffs(_stirling_row(n)[k]) if 0 <= k <= n else Poly.zero()


@cache
def bell_deg(n: int) -> Poly:
    """Degenerate Bell polynomial phi_{n,l}(x) = sum_k S2_l(n,k) x^k."""
    return Poly._from_l_rows(_stirling_row(n), X)


# The top row n >= 1 of U_l(n, k) = (1)_{k,l} S2_l(n, k): entry k - 1 holds the
# n l-coefficients of U_l(n, k), k = 1..n.  The pair is replaced whole and no row
# is changed in place, so a racing step only costs a repeat of work.
_UNIT_TOP: tuple[int, tuple[list[int], ...]] = (1, ([1],))


def _unit_row(n: int) -> tuple[list[int], ...]:
    """Row n >= 1 of U_l, stepped up from the top row, or from row 1 when n is below it."""
    global _UNIT_TOP
    top, row = _UNIT_TOP
    if n < top:
        top, row = 1, ([1],)
    for top in range(top, n):
        zero = [0] * top
        ext = (zero, *row, zero)  # U_l(top, 0) = U_l(top, top + 1) = 0
        # U_l(top+1, k) = (1 - (k-1) l) U_l(top, k-1) + (k - top*l) U_l(top, k)
        row = tuple(
            [
                a0 - (k - 1) * a1 + k * b0 - top * b1
                for a0, a1, b0, b1 in zip(a + [0], [0] + a, b + [0], [0] + b)
            ]
            for k, a, b in zip(range(1, top + 2), ext, ext[1:])
        )
    _UNIT_TOP = (n, row)
    return row


@cache
def bell_fully_deg(n: int, x: Poly = X) -> Poly:
    """Fully degenerate Bell polynomial Bel_{n,l}(x) = sum_k U_l(n,k) x^k, at the
    one-term argument x (ValueError for any other)."""
    rows = ([], *_unit_row(n)) if n > 0 else ([1],) if n == 0 else ()
    return Poly._from_l_rows(rows, x)


def fubini_deg(n: int, alpha: int = 1, x: Poly = X) -> Poly:
    """Degenerate Fubini polynomial of order alpha, sum_k <alpha>_k S2_l(n,k) x^k.

    alpha = 1 (<1>_k = k!) is F_{n,l}(x); at y = 0 this is F^(alpha)_{n,l}(x, 0).
    x must be one term (ValueError otherwise).  Both spellings of alpha = 1
    share one memo entry, keyed (n, alpha, x).
    """
    return _fubini_deg(n, alpha, x)


@cache
def _fubini_deg(n: int, alpha: int, x: Poly) -> Poly:
    rising = list(accumulate(range(alpha, alpha + n), mul, initial=1))  # <alpha>_0..<alpha>_n
    return Poly._from_l_rows(_stirling_row(n), x, rising)


@cache
def fubini_two_var_alpha(n: int, alpha: int) -> Poly:
    """Two-variable degenerate Fubini polynomial of nonnegative integer order,
    F^(alpha)_{n,l}(x, y)."""
    if alpha < 0:
        raise ValueError("order must be a nonnegative integer")
    return Poly.sum_of_products(
        (comb(n, j), fubini_deg(j, alpha), falling_factorial_deg(Y, n - j)) for j in range(n + 1)
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
