"""Exact verification of the Spivey-type recurrences and their relatives.

Every identity handled here is a polynomial identity in the deformation
parameter ``l`` (and possibly an argument ``x``/``t``), so the strongest
check is exact symbolic equality of both sides as `Poly` values.  Rational
mode is a view of the same exact sides at rational points, not an
independent route: it checks strictly less than symbolic mode.

Seven of the checked identities are Spivey-type, and one sum,
`_spivey_sides`, builds both sides of each of them:

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
F_j their classical (l = 0) forms from `classical` (a head "-" is the
unit, so H_k = B, and a shift "-" is none):

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
F^(k)_{j,l}(-l*t) is ``fubini_deg(j, k, -LAM * T)``.  Each H_k(i) is
built once per (i, k), each K_k(s) once per (s, k), each Q_m(s) once per
(m, s) and each W(m, k) once per (m, k), in module-level memos whose keys
name one identity's parts; `run_identity` clears them when it returns.
Each tail (k)_{j,l} is a ``falling_factorial_deg`` call, made once per
(j, k), which reads the one running list of each k that four identities
share, and each shift P_m(r) is built once per (r, m).  Only
fubini-spivey's classical head, the independent classical route,
substitutes (y = 0, then x -> t), once per (j, k).

The other three have builders of their own:

  deg-vandermonde  (x+y)_{n,l} = sum_j C(n,j) (x)_{j,l} (y)_{n-j,l}
  exp-splitting    e_l(u+v) = e_l(u) e_l(v / (1 + l*u)), per bivariate EGF entry (j, k)
  fubini-x-zero    F^(a)_{n,l}(0, y) = (y)_{n,l}  and
                   F^(a)_{n,l}(x, 0) = sum_k <a>_k S2_l(n,k) x^k

Each identity has one entry in a registry: its grid cells, its side
builder, the variables its sides contain (all swept by its rational spot
grid, except x of fubini-x-zero) and its named mutations.  A mutation is data: it swaps one part of the side builder.
``drop-unit-weight`` replaces W of fully-deg-bell by S2_l(m,k), and
``unshifted-y-arg`` drops the shift P of deg-fubini-spivey, so that its
tail is (k)_{j,l} and its G becomes F^(k)_{j,l}(t, k).
`run_identity` is the single entry point.  It builds each cell's sides
once and keeps only their difference lhs - rhs; the sides of the first
counterexample are built again for its report.  Bindings given to it are
evaluated in either mode; without them, ``rational`` mode evaluates the
difference at every point of `spot_grid` and ``symbolic`` mode compares
the exact polynomials.  A point where a nonzero difference vanishes
counts as a pass there.  fubini-x-zero's grid sweeps only (l, y), so in
rational mode without a binding of x its y = 0 difference is still a
polynomial in x at each point: for that side the check stays symbolic in
x, not a point check.

A failing cell is reported, never raised: the harness must also be able
to demonstrate that a wrong identity fails, which ``run_identity(...,
corrupt=<mutation>)`` does.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, prod
from types import MappingProxyType
from typing import NamedTuple

from . import classical
from .algebra import LAM, ONE, ZERO, Poly, T, Var, X, Y, as_scalar, var_from_symbol
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


# -- the Spivey-type double sum and its parts ----------------------------------


def _spivey_sides(n: int, m: int, outer, weight, head, tail, shift):
    """Both sides of B_{n+m} = sum_{r<=n} C(n,r) P_m(r) Q_m(n-r).

    The parts are called as ``outer(j)`` = B_j, ``weight(m, k)`` = W(m, k),
    ``head(j, k)`` = A_k(j), ``tail(j, k)`` = T_k(j) and ``shift(r, m)`` =
    P_m(r); a head of None is the unit, so H_k = B, and a shift of None
    is the unit, so the right side is Q_m(n).  Q_m is read from
    `_weighted_sum`, so each Q_m(s) is built once for every cell that reads
    it.  The sum goes through `Poly.sum_of_products`, which takes int parts
    (the classical numbers) as scalars.
    """
    q = partial(_weighted_sum, outer, weight, head, tail, m)
    if shift is None:
        rhs = q(n)
    else:
        rhs = Poly.sum_of_products((comb(n, r), shift(r, m), q(n - r)) for r in range(n, -1, -1))
    # adding the zero polynomial makes an int side a Poly
    return outer(n + m) + Poly.zero(), rhs


@cache
def _weighted_sum(outer, weight, head, tail, m: int, s: int) -> Poly:
    """Q_m(s) = sum_{k<=m} W(m,k) K_k(s), built once per (m, s).  A zero
    weight, W(m, 0) for m > 0, adds nothing, and its K_0(s) is the one m = 0
    reads."""
    return Poly.sum_of_products(
        (_weight(weight, m, k), _tail_sum(outer, head, tail, s, k)) for k in range(m, -1, -1)
    )


@cache
def _tail_sum(outer, head, tail, s: int, k: int) -> Poly:
    """K_k(s) = sum_{i<=s} C(s,i) H_k(i) T_k(s-i), built once per (s, k) and
    shared by every m."""
    h = (lambda i, k: outer(i)) if head is None else partial(_head_sum, outer, head)
    return Poly.sum_of_products((comb(s, i), h(i, k), tail(s - i, k)) for i in range(s, -1, -1))


@cache
def _weight(weight, m: int, k: int) -> Poly | int:
    """W(m, k), built once per (weight, m, k)."""
    return weight(m, k)


@cache
def _head_sum(outer, head, i: int, k: int) -> Poly:
    """H_k(i) = sum_{l<=i} C(i,l) B_l A_k(i-l), built once per (outer, head, i, k)."""
    return Poly.sum_of_products((comb(i, l), outer(l), head(i - l, k)) for l in range(i, -1, -1))


# The memos of the Spivey sums.  Their keys name one identity's parts, so no
# other identity reads them, and `run_identity` clears them when it returns.
_SPIVEY_MEMOS = (_weighted_sum, _tail_sum, _weight, _head_sum)

# the arguments of the fully degenerate heads, one object each, so the
# fubini_deg memo keys hash once
_NEG_LAM = -LAM
_NEG_LAM_T = -LAM * T


@cache
def _classical_head(j: int, k: int) -> Poly:
    """F^(k)_j(t), fubini-spivey's A_k(j): substituted once per (j, k)."""
    return classical.two_var_fubini_poly(j, k).eval({Var.Y: 0}).substitute(Var.X, T)


@cache
def _deg_tail(j: int, k: int) -> Poly:
    """T_k(j) = (k)_{j,l}, read once per (j, k) from the one running list of
    each k."""
    return falling_factorial_deg(k, j)


@cache
def _deg_shift(r: int, m: int) -> Poly:
    """P_m(r) = (-m*l)_{r,l} = (-1)^r <m>_r l^r, one term, built once per (r, m)."""
    return _NEG_LAM**r * prod(range(m, m + r))


# -- the other identities' builders --------------------------------------------


def _deg_vandermonde_sides(n: int):
    rhs = Poly.sum_of_products(
        (comb(n, j), falling_factorial_deg(X, j), falling_factorial_deg(Y, n - j))
        for j in range(n + 1)
    )
    return falling_factorial_deg(X + Y, n), rhs


def _fubini_x_zero_sides(n: int, alpha: int, side: str):
    p = fubini_two_var_alpha(n, alpha)
    if side == "x=0":
        return p.eval({Var.X: 0}), falling_factorial_deg(Y, n)
    return p.eval({Var.Y: 0}), fubini_deg(n, alpha)


# -- registry and runner -------------------------------------------------------


class _Spec(NamedTuple):
    """One identity's check: each cell of ``cells(n_max, m_max)`` is checked as
    ``sides(**cell)``.  A mutation maps the keyword parts of ``sides`` that it
    swaps to their replacements.
    """

    cells: Callable[[int, int], list[dict]]
    sides: Callable[..., tuple[Poly, Poly]]
    spot_vars: tuple[Var, ...]  # swept by the rational spot grid
    mutations: Mapping[str, dict[str, Callable]] = MappingProxyType({})  # shared, so read-only
    unswept: tuple[Var, ...] = ()  # free in the sides but not swept


def _nm_cells(n_max: int, m_max: int):
    # m outer, n inner: the documented counterexample ordering
    return [{"n": n, "m": m} for m in range(m_max + 1) for n in range(n_max + 1)]


def _n_cells(n_max: int, m_max: int):
    return [{"n": n} for n in range(n_max + 1)]


def _jk_cells(j_max: int, k_max: int):
    return [{"j": j, "k": k} for k in range(k_max + 1) for j in range(j_max + 1)]


def _fubini_x_zero_cells(n_max: int, alpha_max: int):
    return [
        {"n": n, "alpha": a, "side": side}
        for a in range(alpha_max + 1)
        for n in range(n_max + 1)
        for side in ("x=0", "y=0")
    ]


def _spivey(spot_vars, outer, weight, tail, head=None, shift=None, **fields) -> _Spec:
    """A Spivey-type identity from its parts B (outer), W (weight), T (tail),
    A (head, None for the unit) and P (shift, None for the unit); further
    `_Spec` fields (its mutations) pass through."""
    sides = partial(
        _spivey_sides, outer=outer, weight=weight, head=head, tail=tail, shift=shift
    )
    return _Spec(_nm_cells, sides, spot_vars, **fields)


# The parts, and exp-splitting's sides, are lambdas or module functions, so
# every call looks the builders up by their module-global names (which
# perfbench's tracer patches).
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
    Identity.DEG_VANDERMONDE: _Spec(_n_cells, _deg_vandermonde_sides, (Var.LAMBDA, Var.X, Var.Y)),
    Identity.EXP_SPLITTING: _Spec(_jk_cells, lambda j, k: exp_splitting_sides(j, k), (Var.LAMBDA,)),
    # x occurs only on the y = 0 side; the spot grid has never swept it
    Identity.FUBINI_X_ZERO: _Spec(
        _fubini_x_zero_cells, _fubini_x_zero_sides, (Var.LAMBDA, Var.Y), unswept=(Var.X,)
    ),
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
    exact polynomials.  Each cell's sides are built once and only their
    difference is kept for all passes; a pass evaluates only the difference,
    and a cell passes where it is zero.  The sides of the first
    counterexample are built again and evaluated for its report.  The
    Spivey memos are cleared on return.
    The two bounds bound (j, k) for exp-splitting and (n, alpha) for
    fubini-x-zero, and a negative bound raises ValueError.  ``corrupt``
    names one of the identity's mutations, which must make the check fail.
    Cells run in a fixed order (bindings outer, then the grid), so the
    first counterexample is deterministic.
    """
    if mode not in ("symbolic", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, bound in (("n_max", n_max), ("m_max", m_max)):
        if bound < 0:
            raise ValueError(f"{name} must be nonnegative")
    spec = _SPECS[identity]
    sides = spec.sides
    if corrupt is not None:
        if corrupt not in spec.mutations:
            known = ", ".join(spec.mutations) or "none"
            raise ValueError(f"unknown mutation {corrupt!r} for {identity.value} (known: {known})")
        sides = partial(sides, **spec.mutations[corrupt])
    if bindings:
        given = {}
        for key, value in bindings.items():
            given[key if isinstance(key, Var) else var_from_symbol(key)] = as_scalar(value)
        passes = [given]
    elif mode == "rational":
        passes = spot_grid(identity)
    else:
        passes = [{}]

    cells = spec.cells(n_max, m_max)
    try:
        diffs = []
        for cell in cells:
            lhs, rhs = sides(**cell)
            # equal sides, the common case, cost no subtraction
            diffs.append(ZERO if lhs == rhs else lhs - rhs)
        grid = []
        pass_count = fail_count = 0
        first = None
        for bound in passes:
            labels = {v.symbol: str(c) for v, c in bound.items()}
            for cell, diff in zip(cells, diffs):
                record = {**cell, **labels}
                if bound:
                    diff = diff.eval(bound)
                grid.append(record)
                if diff.is_zero():
                    pass_count += 1
                else:
                    fail_count += 1
                    if first is None:
                        lhs, rhs = sides(**cell)
                        first = Counterexample(record, lhs.eval(bound), rhs.eval(bound))
    finally:
        for memo in _SPIVEY_MEMOS:
            memo.cache_clear()
    return VerifyReport(identity, tuple(grid), pass_count, fail_count, first)
