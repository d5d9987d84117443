"""Exact verification of the Spivey-type recurrences and their relatives.

Every identity handled here is a polynomial identity in the deformation
parameter ``l`` (and possibly an argument ``x``/``t``), so the strongest
check is exact symbolic equality of both sides as `Poly` values.  Rational
mode is a view of the same exact sides at rational points, not an
independent route: it checks strictly less than symbolic mode.

Seven of the checked identities are Spivey-type, and one double sum,
`_spivey_sides`, builds both sides of each of them:

    B_{n+m} = sum_{k<=m} sum_{l<=n} C(n,l) W(m,k) G(n-l,k,m) B_l

An identity is the choice of three parts: the outer family B, the weight
W and the inner factor G.  With S2_l / phi / Bel / F as in `sequences`
and S, phi_j, F_j their classical (l = 0) forms from `classical`:

  identity             B_j           W(m, k)                  G(j, k, m)
  spivey-bell          phi_j(1)      S(m,k)                   k^j
  spivey-bell-poly     phi_j(x)      S(m,k) x^k               k^j
  deg-bell-spivey      phi_{j,l}(x)  S2_l(m,k) x^k            (k - m*l)_{j,l}
  fully-deg-bell       Bel_{j,l}(1)  (1)_{k,l} S2_l(m,k)      F^(k)_{j,l}(-l, k - m*l)
  fully-deg-bell-poly  Bel_{j,l}(t)  (1)_{k,l} S2_l(m,k) t^k  F^(k)_{j,l}(-l*t, k - m*l)
  deg-fubini-spivey    F_{j,l}(t)    k! S2_l(m,k) t^k         F^(k)_{j,l}(t, k - m*l)
  fubini-spivey        F_j(t)        k! S(m,k) t^k            F^(k)_j(t, k)

Each family in the table is built at its argument by its own builder, the
one the tables use: Bel_{j,l}(t) is ``bell_fully_deg(j, T)`` and
F^(k)_{j,l}(-l*t, k - m*l) is ``fubini_two_var_alpha(j, k, -LAM * T,
_shift(k, m))``.  Each inner factor is built once per distinct argument,
its (k - m*l)_{j,l} a plain ``falling_factorial_deg`` call, which reads
the one running list per k - m*l that four identities share.  Only
fubini-spivey's classical inner factor, the independent classical route,
substitutes (x -> t, then y = k), once per (j, k).

The other three have builders of their own:

  deg-vandermonde  (x+y)_{n,l} = sum_j C(n,j) (x)_{j,l} (y)_{n-j,l}
  exp-splitting    e_l(u+v) = e_l(u) e_l(v / (1 + l*u)) as nested series
  fubini-x-zero    F^(a)_{n,l}(0, y) = (y)_{n,l}  and
                   F^(a)_{n,l}(x, 0) = sum_k <a>_k S2_l(n,k) x^k

Each identity has one entry in a registry: its grid cells, its side
builder, the variables its sides contain (all swept by its rational spot
grid, except x of fubini-x-zero) and its named mutations.  A mutation is data: it swaps one part of the side builder.
``drop-unit-weight`` replaces W of fully-deg-bell by S2_l(m,k), and
``unshifted-y-arg`` replaces G of deg-fubini-spivey by F^(k)_{j,l}(t, k).
`run_identity` is the single entry point.  It builds each cell's sides
once and their difference lhs - rhs once.  Bindings given to it are
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
from math import comb, factorial
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


def _spivey_sides(n: int, m: int, outer, weight, inner):
    """Both sides of B_{n+m} = sum_{k<=m} sum_{l<=n} C(n,l) W(m,k) G(n-l,k,m) B_l.

    The parts are called as ``outer(j)`` = B_j, ``weight(m, k)`` = W(m, k)
    and ``inner(j, k, m)`` = G(j, k, m).  W multiplies the inner sum over l
    once per k, and a k whose weight is zero is skipped.  Both sums go
    through `Poly.sum_of_products`, which takes int parts (the classical
    numbers) as scalars.
    """
    weighted = []  # (W(m,k), the inner sum over l) per k
    for k in range(m, -1, -1):
        w = weight(m, k)
        if w != 0:
            terms = ((comb(n, l), outer(l), inner(n - l, k, m)) for l in range(n, -1, -1))
            weighted.append((w, Poly.sum_of_products(terms)))
    # adding the zero polynomial makes an int side a Poly
    return outer(n + m) + Poly.zero(), Poly.sum_of_products(weighted)


@cache
def _shift(k: int, m: int) -> Poly:
    """k - m*l, the shifted argument of the degenerate inner factors (memoized,
    so the memo keys built from it, running lists included, hash once)."""
    return Poly.const(k) - m * LAM


def _two_var_inner(x_arg: Poly, shifted: bool = True):
    """G(j, k, m) = F^(k)_{j,l}(x_arg, k - m*l), or F^(k)_{j,l}(x_arg, k) unshifted."""
    return lambda j, k, m: fubini_two_var_alpha(j, k, x_arg, _shift(k, m if shifted else 0))


@cache
def _classical_inner(j: int, k: int) -> Poly:
    """F^(k)_j(t, k), fubini-spivey's G(j, k, m) for every m: substituted once per (j, k)."""
    return classical.two_var_fubini_poly(j, k).substitute(Var.X, T).eval({Var.Y: k})


# -- the other identities' builders --------------------------------------------


def _deg_vandermonde_sides(n: int):
    rhs = Poly.sum_of_products(
        (comb(n, j), falling_factorial_deg(X, j), falling_factorial_deg(Y, n - j))
        for j in range(n + 1)
    )
    return falling_factorial_deg(X + Y, n), rhs


@cache
def _splitting_grids(j_order: int, k_order: int):
    return exp_splitting_sides(j_order, k_order)


def _exp_splitting_sides(j: int, k: int, j_order: int, k_order: int):
    left, right = _splitting_grids(j_order, k_order)
    return left.entry(j, k), right.entry(j, k)


def _fubini_x_zero_sides(n: int, alpha: int, side: str):
    p = fubini_two_var_alpha(n, alpha)
    if side == "x=0":
        return p.eval({Var.X: 0}), falling_factorial_deg(Y, n)
    return p.eval({Var.Y: 0}), fubini_deg(n, alpha)


# -- registry and runner -------------------------------------------------------


class _Spec(NamedTuple):
    """One identity's check: each cell of ``cells(n_max, m_max)`` is checked as
    ``sides(**cell, **context)``, with the grid bounds passed under the names
    in ``orders``.  A mutation maps the keyword parts of ``sides`` that it
    swaps to their replacements.
    """

    cells: Callable[[int, int], list[dict]]
    sides: Callable[..., tuple[Poly, Poly]]
    spot_vars: tuple[Var, ...]  # swept by the rational spot grid
    mutations: Mapping[str, dict[str, Callable]] = MappingProxyType({})  # shared, so read-only
    orders: tuple[str, ...] = ()
    unswept: tuple[Var, ...] = ()  # free in the sides but not swept


def _nm_cells(n_max: int, m_max: int):
    # m outer, n inner: the documented counterexample ordering
    return [{"n": n, "m": m} for m in range(m_max + 1) for n in range(n_max + 1)]


def _n_cells(n_max: int, m_max: int):
    return [{"n": n} for n in range(n_max + 1)]


def _jk_cells(j_order: int, k_order: int):
    return [{"j": j, "k": k} for k in range(k_order + 1) for j in range(j_order + 1)]


def _fubini_x_zero_cells(n_max: int, alpha_max: int):
    return [
        {"n": n, "alpha": a, "side": side}
        for a in range(alpha_max + 1)
        for n in range(n_max + 1)
        for side in ("x=0", "y=0")
    ]


def _spivey(spot_vars, outer, weight, inner, **fields) -> _Spec:
    """A Spivey-type identity from its parts B (outer), W (weight) and G (inner);
    further `_Spec` fields (its mutations) pass through."""
    sides = partial(_spivey_sides, outer=outer, weight=weight, inner=inner)
    return _Spec(_nm_cells, sides, spot_vars, **fields)


# The parts are lambdas, so every call looks the family builders up by their
# module-global names (which perfbench's tracer patches).
_SPECS = {
    Identity.SPIVEY_BELL: _spivey(
        (),
        outer=lambda j: classical.bell_number(j),
        weight=lambda m, k: classical.stirling2(m, k),
        inner=lambda j, k, m: k**j,
    ),
    Identity.SPIVEY_BELL_POLY: _spivey(
        (Var.X,),
        outer=lambda j: classical.bell_poly(j),
        weight=lambda m, k: classical.stirling2(m, k) * X**k,
        inner=lambda j, k, m: k**j,
    ),
    Identity.DEG_BELL_SPIVEY: _spivey(
        (Var.LAMBDA, Var.X),
        outer=lambda j: bell_deg(j),
        weight=lambda m, k: stirling2_deg(m, k) * X**k,
        inner=lambda j, k, m: falling_factorial_deg(_shift(k, m), j),
    ),
    Identity.FULLY_DEG_BELL: _spivey(
        (Var.LAMBDA,),
        outer=lambda j: bell_fully_deg(j, ONE),
        weight=lambda m, k: unit_falling_factorial_deg(k) * stirling2_deg(m, k),
        inner=_two_var_inner(-LAM),
        mutations={"drop-unit-weight": {"weight": lambda m, k: stirling2_deg(m, k)}},
    ),
    Identity.FULLY_DEG_BELL_POLY: _spivey(
        (Var.LAMBDA, Var.T),
        outer=lambda j: bell_fully_deg(j, T),
        weight=lambda m, k: unit_falling_factorial_deg(k) * stirling2_deg(m, k) * T**k,
        inner=_two_var_inner(-LAM * T),
    ),
    Identity.DEG_FUBINI_SPIVEY: _spivey(
        (Var.LAMBDA, Var.T),
        outer=lambda j: fubini_deg(j, 1, T),
        weight=lambda m, k: factorial(k) * stirling2_deg(m, k) * T**k,
        inner=_two_var_inner(T),
        mutations={"unshifted-y-arg": {"inner": _two_var_inner(T, shifted=False)}},
    ),
    Identity.FUBINI_SPIVEY: _spivey(
        (Var.T,),
        outer=lambda j: classical.fubini_poly(j, T),
        weight=lambda m, k: factorial(k) * classical.stirling2(m, k) * T**k,
        inner=lambda j, k, m: _classical_inner(j, k),
    ),
    Identity.DEG_VANDERMONDE: _Spec(_n_cells, _deg_vandermonde_sides, (Var.LAMBDA, Var.X, Var.Y)),
    Identity.EXP_SPLITTING: _Spec(
        _jk_cells, _exp_splitting_sides, (Var.LAMBDA,), orders=("j_order", "k_order")
    ),
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
    exact polynomials.  Each cell's sides and their difference are built
    once for all passes; a pass evaluates only the difference, and a cell
    passes where it is zero.  The sides themselves are evaluated only for
    the first counterexample, which reports them, not their difference.
    The second bound doubles as the order bound K for exp-splitting and as
    alpha_max for fubini-x-zero.  ``corrupt`` names one of the identity's
    mutations, which must make the check fail.
    Cells run in a fixed order (bindings outer, then the grid), so the
    first counterexample is deterministic.
    """
    if mode not in ("symbolic", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
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
    context = dict(zip(spec.orders, (n_max, m_max)))
    built = []
    for cell in cells:
        lhs, rhs = sides(**cell, **context)
        # equal sides, the common case, cost no subtraction
        built.append((lhs, rhs, ZERO if lhs == rhs else lhs - rhs))
    grid = []
    pass_count = fail_count = 0
    first = None
    for bound in passes:
        for cell, (lhs, rhs, diff) in zip(cells, built):
            record = dict(cell)
            if bound:
                diff = diff.eval(bound)
                record.update({v.symbol: str(c) for v, c in bound.items()})
            grid.append(record)
            if diff.is_zero():
                pass_count += 1
            else:
                fail_count += 1
                if first is None:
                    first = Counterexample(record, lhs.eval(bound), rhs.eval(bound))
    return VerifyReport(identity, tuple(grid), pass_count, fail_count, first)
