"""Exact verification of the Spivey-type recurrences and their relatives.

Every identity handled here is a polynomial identity in the deformation
parameter ``l`` (and possibly an argument ``x``/``t``), so the strongest
check is exact symbolic equality of both sides as `Poly` values.  Rational
mode is a view of the same exact sides at rational points, not an
independent route: it checks strictly less than symbolic mode.

Seven of the checked identities are Spivey-type, and one generator,
`_spivey_grid`, builds both sides of every cell of each of them:

    B_{n+m} = sum_{k<=m} sum_{l<=n} C(n,l) W(m,k) G(n-l,k,m) B_l

Its inner factor is a binomial convolution G(., k, m) = A_k <*> Y_{k,m},
where (a <*> b)(n) = sum_i C(n,i) a(i) b(n-i), the factorisation
D^m B(u) = sum_k W(m,k) B(u) A_k(u) e_l^{k-m*l}(u) of the generating
functions.  Since e_l^{k-m*l}(u) = e_l^k(u) (1 + l*u)^{-m}, the degenerate
tail splits as Y_{k,m} = T_k <*> P_m, with T_k(j) = (k)_{j,l} and the
one-term shift P_m(r) = (-m*l)_{r,l} = (-1)^r <m>_r l^r (deg-vandermonde
at x = k, y = -m*l).  The convolution is associative and commutative, so
the sum is taken as

    B_{n+m} = sum_{r<=n} C(n,r) P_m(r) Q_m(n-r),
    Q_m = sum_{k<=m} W(m,k) K_k,   K_k = H_k <*> T_k,   H_k = B <*> A_k,

in which only the weights depend on m.  A classical tail k^j has no
shift, so its right side is Q_m(n).  An identity is the choice of five
parts: the outer family B, the weight W, the head A_k, the tail T_k and
the shift P_m.  With S2_l / phi / Bel / F as in `sequences` and S, phi_j,
F_j, F^(k)_j their classical (l = 0) forms from `classical` (a head "-"
is the unit, so H_k = B, and a shift "-" is none):

  identity             B_j           W(m, k)                  A_k(j)             T_k(j)     P_m(r)
  spivey-bell          phi_j(1)      S(m,k)                   -                  k^j        -
  spivey-bell-poly     phi_j(x)      S(m,k) x^k               -                  k^j        -
  deg-bell-spivey      phi_{j,l}(x)  S2_l(m,k) x^k            -                  (k)_{j,l}  (-m*l)_{r,l}
  fully-deg-bell       Bel_{j,l}(1)  (1)_{k,l} S2_l(m,k)      F^(k)_{j,l}(-l)    (k)_{j,l}  (-m*l)_{r,l}
  fully-deg-bell-poly  Bel_{j,l}(t)  (1)_{k,l} S2_l(m,k) t^k  F^(k)_{j,l}(-l*t)  (k)_{j,l}  (-m*l)_{r,l}
  deg-fubini-spivey    F_{j,l}(t)    k! S2_l(m,k) t^k         F^(k)_{j,l}(t)     (k)_{j,l}  (-m*l)_{r,l}
  fubini-spivey        F_j(t)        k! S(m,k) t^k            F^(k)_j(t)         k^j        -

Each family in the table is built at its argument by its own builder, the
one the tables use: Bel_{j,l}(t) is ``bell_fully_deg(j, T)`` and
F^(k)_{j,l}(-l*t) is ``fubini_deg(j, k, -LAM * T)``.  One grid pass reads
each B_j, A_k(j), T_k(j), W(m, k) and P_m(r) once, into local lists, and
builds each H_k(i), K_k(s) and Q_m(s) once.  The grid runs m outer, so
K_m is built when m is reached and kept to the end of the pass, and the
Q_m(s) of one m are dropped when its cells are done.  Nothing outlives
the pass but what the family builders keep themselves: each tail
(k)_{j,l} and each shift (-m*l)_{r,l} is a ``falling_factorial_deg``
call, which reads the one running list of k, or of -m*l, that the four
shifted identities share.  Only fubini-spivey's classical head, the
independent classical route, substitutes: F^(k)_j(t) is the classical
``fubini_poly(j, X, k)`` with x renamed t, once per (j, k).

The other three have grids of their own:

  deg-vandermonde  (x+y)_{n,l} = sum_j C(n,j) (x)_{j,l} (y)_{n-j,l}
  exp-splitting    e_l(u+v) = e_l(u) e_l(v / (1 + l*u)), per bivariate EGF entry (j, k)
  fubini-x-zero    F^(a)_{n,l}(0, y) = (y)_{n,l}  and
                   F^(a)_{n,l}(x, 0) = sum_k <a>_k S2_l(n,k) x^k

Each identity has one entry in a registry: its grid, which yields each
cell with its two sides, the variables its sides contain (all swept by
its rational spot grid, except x of fubini-x-zero) and its named
mutations.  A mutation is data: it swaps one part of the grid.
``drop-unit-weight`` replaces W of fully-deg-bell by S2_l(m,k), and
``unshifted-y-arg`` drops the shift P of deg-fubini-spivey, so that its
tail is (k)_{j,l} and its G becomes F^(k)_{j,l}(t, k).
`run_identity` is the single entry point.  It walks the identity's grid
once and checks each cell at every binding pass as the cell is built;
of the sides it keeps only those of the first counterexample.  Bindings
given to it are evaluated in either mode; without them, ``rational`` mode
evaluates the difference at every point of `spot_grid` and ``symbolic``
mode compares the exact polynomials.  A point where a nonzero difference
vanishes counts as a pass there.  fubini-x-zero's grid sweeps only
(l, y), so in rational mode without a binding of x its y = 0 difference
is still a polynomial in x at each point: for that side the check stays
symbolic in x, not a point check.

A failing cell is reported, never raised: the harness must also be able
to demonstrate that a wrong identity fails, which ``run_identity(...,
corrupt=<mutation>)`` does.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from functools import partial
from math import comb, factorial
from types import MappingProxyType
from typing import NamedTuple

from . import classical
from .algebra import LAM, ONE, Poly, T, Var, X, Y, as_scalar, var_from_symbol
from .sequences import (
    bell_deg,
    bell_fully_deg,
    falling_factorial_deg,
    fubini_deg,
    fubini_two_var_alpha,
    stirling2_deg,
    unit_falling_factorial_deg,
)
from .series import exp_splitting_sides


class Identity(enum.Enum):
    SPIVEY_BELL = "spivey-bell"
    SPIVEY_BELL_POLY = "spivey-bell-poly"
    DEG_BELL_SPIVEY = "deg-bell-spivey"
    FULLY_DEG_BELL = "fully-deg-bell"
    FULLY_DEG_BELL_POLY = "fully-deg-bell-poly"
    DEG_FUBINI_SPIVEY = "deg-fubini-spivey"
    FUBINI_SPIVEY = "fubini-spivey"
    DEG_VANDERMONDE = "deg-vandermonde"
    EXP_SPLITTING = "exp-splitting"
    FUBINI_X_ZERO = "fubini-x-zero"


class Counterexample(NamedTuple):
    bindings: dict
    lhs: Poly
    rhs: Poly


class VerifyReport(NamedTuple):
    identity: Identity
    grid: tuple[dict, ...]
    pass_count: int
    fail_count: int
    first_counterexample: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.fail_count == 0

    def to_json(self) -> dict:
        ce = None
        if self.first_counterexample is not None:
            c = self.first_counterexample
            ce = {"bindings": c.bindings, "lhs": c.lhs.to_json(), "rhs": c.rhs.to_json()}
        return {
            "identity": self.identity.value,
            "grid_size": len(self.grid),
            "pass": self.pass_count,
            "fail": self.fail_count,
            "first_counterexample": ce,
        }


Bindings = dict[Var, Fraction]
Cell = tuple[dict, Poly, Poly]  # a grid cell's record and its two sides


# -- the Spivey-type double sum and its parts ----------------------------------


def _convolve(a, b, n: int) -> Poly:
    """(a <*> b)(n) = sum_{i<=n} C(n,i) a(i) b(n-i), for lists a and b."""
    return Poly.sum_of_products((comb(n, i), a[i], b[n - i]) for i in range(n, -1, -1))


def _spivey_grid(n_max: int, m_max: int, outer, weight, tail, head=None, shift=None):
    """Each cell (n, m) with both sides of B_{n+m} = sum_{r<=n} C(n,r) P_m(r) Q_m(n-r),
    m outer and n inner.

    The parts are called as ``outer(j)`` = B_j, ``weight(m, k)`` = W(m, k),
    ``head(j, k)`` = A_k(j), ``tail(j, k)`` = T_k(j) and ``shift(r, m)`` =
    P_m(r), each once per index; a head of None is the unit, so H_k = B,
    and a shift of None is the unit, so the right side is Q_m(n).  K_k is
    built when m reaches k and kept for the pass; Q_m lives for m's cells.
    The sums go through `Poly.sum_of_products`, which takes int parts (the
    classical numbers) as scalars.
    """
    js = range(n_max + 1)
    b = [outer(j) for j in range(n_max + m_max + 1)]
    tail_sums = []  # K_k(s) for k <= m: each m adds K_m, so its parts are read at k = m
    for m in range(m_max + 1):
        if head is None:
            h = b
        else:
            a = [head(j, m) for j in js]
            h = [_convolve(b, a, i) for i in js]
        t = [tail(j, m) for j in js]
        tail_sums.append([_convolve(h, t, s) for s in js])
        # a zero weight, W(m, 0) for m > 0, adds nothing
        w = [weight(m, k) for k in range(m + 1)]
        q = [Poly.sum_of_products((w[k], tail_sums[k][s]) for k in range(m, -1, -1)) for s in js]
        p = None if shift is None else [shift(r, m) for r in js]
        for n in js:
            rhs = q[n] if p is None else _convolve(p, q, n)
            # adding the zero polynomial makes an int side a Poly
            yield {"n": n, "m": m}, b[n + m] + Poly.zero(), rhs


# the arguments of the fully degenerate heads, one object each, so the
# fubini_deg memo keys hash once; _NEG_LAM is the shifts' -l too
_NEG_LAM = -LAM
_NEG_LAM_T = -LAM * T


def _classical_head(j: int, k: int) -> Poly:
    """F^(k)_j(t), fubini-spivey's A_k(j): the classical F^(k)_j(x), renamed x -> t."""
    return classical.fubini_poly(j, X, k).substitute(Var.X, T)


def _deg_tail(j: int, k: int) -> Poly:
    """T_k(j) = (k)_{j,l}, read from the one running list of each k."""
    return falling_factorial_deg(k, j)


def _deg_shift(r: int, m: int) -> Poly:
    """P_m(r) = (-m*l)_{r,l} = (-1)^r <m>_r l^r, read from the one running list of m."""
    return falling_factorial_deg(m * _NEG_LAM, r)


# -- the other identities' grids -----------------------------------------------


def _deg_vandermonde_grid(n_max: int, m_max: int) -> Iterator[Cell]:
    for n in range(n_max + 1):
        rhs = Poly.sum_of_products(
            (comb(n, j), falling_factorial_deg(X, j), falling_factorial_deg(Y, n - j))
            for j in range(n + 1)
        )
        yield {"n": n}, falling_factorial_deg(X + Y, n), rhs


def _exp_splitting_grid(j_max: int, k_max: int) -> Iterator[Cell]:
    for k in range(k_max + 1):
        for j in range(j_max + 1):
            yield {"j": j, "k": k}, *exp_splitting_sides(j, k)


def _fubini_x_zero_grid(n_max: int, alpha_max: int) -> Iterator[Cell]:
    for a in range(alpha_max + 1):
        for n in range(n_max + 1):
            p = fubini_two_var_alpha(n, a)
            cell = {"n": n, "alpha": a}
            yield {**cell, "side": "x=0"}, p.eval({Var.X: 0}), falling_factorial_deg(Y, n)
            yield {**cell, "side": "y=0"}, p.eval({Var.Y: 0}), fubini_deg(n, a)


# -- registry and runner -------------------------------------------------------


class _Spec(NamedTuple):
    """One identity's check: ``grid(n_max, m_max)`` yields each cell's record
    and its two sides, in the documented order.  A mutation maps the keyword
    parts of ``grid`` that it swaps to their replacements.
    """

    grid: Callable[[int, int], Iterator[Cell]]
    spot_vars: tuple[Var, ...]  # swept by the rational spot grid
    mutations: Mapping[str, dict[str, Callable]] = MappingProxyType({})  # shared, so read-only
    unswept: tuple[Var, ...] = ()  # free in the sides but not swept


def _spivey(spot_vars, outer, weight, tail, head=None, shift=None, **fields) -> _Spec:
    """A Spivey-type identity from its parts B (outer), W (weight), T (tail),
    A (head, None for the unit) and P (shift, None for the unit); further
    `_Spec` fields (its mutations) pass through."""
    grid = partial(_spivey_grid, outer=outer, weight=weight, tail=tail, head=head, shift=shift)
    return _Spec(grid, spot_vars, **fields)


# The parts and the grids are lambdas or module functions, so every call
# looks the builders up by their module-global names (which perfbench's
# tracer patches).
_SPECS = {
    Identity.SPIVEY_BELL: _spivey(
        (),
        outer=lambda j: classical.bell_number(j),
        weight=lambda m, k: classical.stirling2(m, k),
        tail=lambda j, k: k**j,
    ),
    Identity.SPIVEY_BELL_POLY: _spivey(
        (Var.X,),
        outer=lambda j: classical.bell_poly(j),
        weight=lambda m, k: classical.stirling2(m, k) * X**k,
        tail=lambda j, k: k**j,
    ),
    Identity.DEG_BELL_SPIVEY: _spivey(
        (Var.LAMBDA, Var.X),
        outer=lambda j: bell_deg(j),
        weight=lambda m, k: stirling2_deg(m, k) * X**k,
        tail=_deg_tail,
        shift=_deg_shift,
    ),
    Identity.FULLY_DEG_BELL: _spivey(
        (Var.LAMBDA,),
        outer=lambda j: bell_fully_deg(j, ONE),
        weight=lambda m, k: unit_falling_factorial_deg(k) * stirling2_deg(m, k),
        head=lambda j, k: fubini_deg(j, k, _NEG_LAM),
        tail=_deg_tail,
        shift=_deg_shift,
        mutations={"drop-unit-weight": {"weight": lambda m, k: stirling2_deg(m, k)}},
    ),
    Identity.FULLY_DEG_BELL_POLY: _spivey(
        (Var.LAMBDA, Var.T),
        outer=lambda j: bell_fully_deg(j, T),
        weight=lambda m, k: unit_falling_factorial_deg(k) * stirling2_deg(m, k) * T**k,
        head=lambda j, k: fubini_deg(j, k, _NEG_LAM_T),
        tail=_deg_tail,
        shift=_deg_shift,
    ),
    Identity.DEG_FUBINI_SPIVEY: _spivey(
        (Var.LAMBDA, Var.T),
        outer=lambda j: fubini_deg(j, 1, T),
        weight=lambda m, k: factorial(k) * stirling2_deg(m, k) * T**k,
        head=lambda j, k: fubini_deg(j, k, T),
        tail=_deg_tail,
        shift=_deg_shift,
        mutations={"unshifted-y-arg": {"shift": None}},
    ),
    Identity.FUBINI_SPIVEY: _spivey(
        (Var.T,),
        outer=lambda j: classical.fubini_poly(j, T),
        weight=lambda m, k: factorial(k) * classical.stirling2(m, k) * T**k,
        head=_classical_head,
        tail=lambda j, k: k**j,
    ),
    Identity.DEG_VANDERMONDE: _Spec(_deg_vandermonde_grid, (Var.LAMBDA, Var.X, Var.Y)),
    Identity.EXP_SPLITTING: _Spec(_exp_splitting_grid, (Var.LAMBDA,)),
    # x occurs only on the y = 0 side; the spot grid has never swept it
    Identity.FUBINI_X_ZERO: _Spec(_fubini_x_zero_grid, (Var.LAMBDA, Var.Y), unswept=(Var.X,)),
}

LAMBDA_SPOT = (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2))
ARG_SPOT = (Fraction(1), Fraction(2), Fraction(-1, 2))


def free_vars(identity: Identity) -> set[Var]:
    """The variables that occur in the identity's sides, so a binding can act."""
    spec = _SPECS[identity]
    return {*spec.spot_vars, *spec.unswept}


def spot_grid(identity: Identity) -> list[Bindings]:
    """The default rational smoke grid for an identity's free parameters."""
    vars_ = _SPECS[identity].spot_vars
    pools = [LAMBDA_SPOT if v is Var.LAMBDA else ARG_SPOT for v in vars_]
    return [dict(zip(vars_, combo)) for combo in itertools.product(*pools)]


def run_identity(
    identity: Identity,
    n_max: int = 6,
    m_max: int = 6,
    mode: str = "symbolic",
    bindings=None,
    corrupt: str | None = None,
) -> VerifyReport:
    """Check one identity over its grid; the single entry point.

    Given bindings are evaluated in either mode; their values go through
    `algebra.as_scalar`, so a float raises TypeError.  Without them, rational
    mode sweeps the identity's `spot_grid` and symbolic mode compares the
    exact polynomials.  The grid is walked once, and each cell is checked
    at every binding pass as it is built: equal sides pass everywhere, and
    otherwise their difference is evaluated at each pass and passes where
    it is zero.  Only the sides of the first counterexample are kept, and
    evaluated for its report; no cell is built twice.
    The two bounds bound (j, k) for exp-splitting and (n, alpha) for
    fubini-x-zero, and a negative bound raises ValueError.  ``corrupt``
    names one of the identity's mutations, which must make the check fail.
    The report lists the cells in a fixed order (bindings outer, then the
    grid), and the first counterexample is the first failure in that
    order, so it is deterministic.
    """
    if mode not in ("symbolic", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, bound in (("n_max", n_max), ("m_max", m_max)):
        if bound < 0:
            raise ValueError(f"{name} must be nonnegative")
    spec = _SPECS[identity]
    grid = spec.grid
    if corrupt is not None:
        if corrupt not in spec.mutations:
            known = ", ".join(spec.mutations) or "none"
            raise ValueError(f"unknown mutation {corrupt!r} for {identity.value} (known: {known})")
        grid = partial(grid, **spec.mutations[corrupt])
    if bindings:
        given = {}
        for key, value in bindings.items():
            given[key if isinstance(key, Var) else var_from_symbol(key)] = as_scalar(value)
        passes = [given]
    elif mode == "rational":
        passes = spot_grid(identity)
    else:
        passes = [{}]

    labels = [{v.symbol: str(c) for v, c in bound.items()} for bound in passes]
    records = [[] for _ in passes]  # per pass, in grid order
    fail_count = 0
    first = None  # (pass index, record, lhs, rhs) of the first failure
    for cell, lhs, rhs in grid(n_max, m_max):
        # equal sides, the common case, cost no subtraction
        diff = None if lhs == rhs else lhs - rhs
        for i, bound in enumerate(passes):
            records[i].append(record := {**cell, **labels[i]})
            if diff is not None and not diff.eval(bound).is_zero():
                fail_count += 1
                if first is None or i < first[0]:
                    first = (i, record, lhs, rhs)
    if first is not None:
        i, record, lhs, rhs = first
        first = Counterexample(record, lhs.eval(passes[i]), rhs.eval(passes[i]))
    checked = tuple(itertools.chain.from_iterable(records))
    return VerifyReport(identity, checked, len(checked) - fail_count, fail_count, first)
