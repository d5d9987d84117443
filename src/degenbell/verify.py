"""Exact verification of the Spivey-type recurrences and their relatives.

Every identity handled here is a polynomial identity in the deformation
parameter ``l`` (and possibly an argument ``x``/``t``), so the strongest
check is exact symbolic equality of both sides as `Poly` values; rational
parameter grids exist as a fast smoke layer over the same cells.

The checked identities, with S2_l / phi / Bel / F as in `sequences`:

  spivey-bell           phi_{n+m} = sum_{k<=m, l<=n} S(m,k) C(n,l) k^(n-l) phi_l
  spivey-bell-poly      the same with x^k weights and Bell polynomials
  deg-bell-spivey       phi_{n+m,l}(x) = sum S2_l(m,k) C(n,l) x^k
                            (k - m*l)_{n-l,l} phi_{l,l}(x)
  fully-deg-bell        Bel_{n+m,l} = sum (1)_{k,l} S2_l(m,k) C(n,l)
                            Bel_{l,l} F^(k)_{n-l,l}(-l, k - m*l)
  fully-deg-bell-poly   Bel_{n+m,l}(t) = sum (1)_{k,l} S2_l(m,k) C(n,l) t^k
                            F^(k)_{n-l,l}(-l*t, k - m*l) Bel_{l,l}(t)
  deg-fubini-spivey     F_{n+m,l}(t) = sum k! S2_l(m,k) C(n,l) t^k
                            F^(k)_{n-l,l}(t, k - m*l) F_{l,l}(t)
  fubini-spivey         the l = 0 form of the previous line
  deg-vandermonde       (x+y)_{n,l} = sum_j C(n,j) (x)_{j,l} (y)_{n-j,l}
  exp-splitting         e_l(u+v) = e_l(u) e_l(v / (1 + l*u)) as nested series
  fubini-x-zero         F^(a)_{n,l}(0, y) = (y)_{n,l}  and
                        F^(a)_{n,l}(x, 0) = sum_k <a>_k S2_l(n,k) x^k

Each identity has one entry in a registry: its grid cells, its side
builder, the free variables of its rational spot grid and its named
mutations.  `run_identity` is the single entry point.  Bindings given to
it are evaluated in either mode; without them, ``rational`` mode sweeps
`spot_grid` and ``symbolic`` mode compares exact polynomials.

A failing cell is reported, never raised: the harness must also be able
to demonstrate that a wrong identity fails, which ``run_identity(...,
corrupt=<mutation>)`` does.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from . import classical
from .algebra import LAM, ONE, Poly, T, Var, X, Y, as_scalar, var_from_symbol
from .sequences import (
    bell_deg,
    bell_fully_deg,
    falling_factorial_deg,
    fubini_deg,
    fubini_two_var_alpha,
    rising_factorial,
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


@dataclass(frozen=True)
class Counterexample:
    bindings: dict
    lhs: Poly
    rhs: Poly


@dataclass(frozen=True)
class VerifyReport:
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


# -- cell builders, one per identity ------------------------------------------


def _spivey_bell_sides(n: int, m: int):
    lhs = classical.bell_number(n + m)
    rhs = 0
    for k in range(m, -1, -1):
        s2 = classical.stirling2(m, k)
        if not s2:
            continue
        for l in range(n, -1, -1):
            rhs += s2 * comb(n, l) * k ** (n - l) * classical.bell_number(l)
    return Poly.const(lhs), Poly.const(rhs)


def _spivey_bell_poly_sides(n: int, m: int):
    lhs = classical.bell_poly(n + m)
    rhs = Poly.zero()
    for k in range(m, -1, -1):
        s2 = classical.stirling2(m, k)
        if not s2:
            continue
        xk = s2 * X**k
        for l in range(n, -1, -1):
            rhs = rhs + comb(n, l) * k ** (n - l) * xk * classical.bell_poly(l)
    return lhs, rhs


@cache
def _deg_bell_spivey_sides(n: int, m: int):
    lhs = bell_deg(n + m)
    rhs = Poly.zero()
    for k in range(m, -1, -1):
        s2 = stirling2_deg(m, k)
        if s2.is_zero():
            continue
        base = Poly.const(k) - m * LAM
        xk = s2 * X**k
        for l in range(n, -1, -1):
            rhs = rhs + comb(n, l) * xk * falling_factorial_deg(base, n - l) * bell_deg(l)
    return lhs, rhs


@cache
def _bel_number_deg(l: int) -> Poly:
    return bell_fully_deg(l).eval({Var.X: 1})


@cache
def _fub_arg_neg_lambda(j: int, k: int, m: int) -> Poly:
    # F^(k)_{j,l}(-l, k - m*l)
    p = fubini_two_var_alpha(j, k)
    return p.substitute(Var.X, -LAM).substitute(Var.Y, Poly.const(k) - m * LAM)


def _fully_deg_bell_sides(n: int, m: int, corrupt: str | None = None):
    lhs = _bel_number_deg(n + m)
    rhs = Poly.zero()
    for k in range(m, -1, -1):
        s2 = stirling2_deg(m, k)
        if s2.is_zero():
            continue
        weight = ONE if corrupt == "drop-unit-weight" else unit_falling_factorial_deg(k)
        ws = weight * s2
        for l in range(n, -1, -1):
            rhs = rhs + comb(n, l) * ws * _bel_number_deg(l) * _fub_arg_neg_lambda(n - l, k, m)
    return lhs, rhs


@cache
def _bel_poly_t(l: int) -> Poly:
    return bell_fully_deg(l).substitute(Var.X, T)


@cache
def _fub_arg_neg_lambda_t(j: int, k: int, m: int) -> Poly:
    # F^(k)_{j,l}(-l*t, k - m*l)
    p = fubini_two_var_alpha(j, k)
    return p.substitute(Var.X, -LAM * T).substitute(Var.Y, Poly.const(k) - m * LAM)


@cache
def _fully_deg_bell_poly_sides(n: int, m: int):
    lhs = _bel_poly_t(n + m)
    rhs = Poly.zero()
    for k in range(m, -1, -1):
        s2 = stirling2_deg(m, k)
        if s2.is_zero():
            continue
        wk = unit_falling_factorial_deg(k) * s2 * T**k
        for l in range(n, -1, -1):
            rhs = rhs + comb(n, l) * wk * _fub_arg_neg_lambda_t(n - l, k, m) * _bel_poly_t(l)
    return lhs, rhs


@cache
def _fubini_poly_t(l: int) -> Poly:
    return fubini_deg(l).substitute(Var.X, T)


@cache
def _fub_arg_t(j: int, k: int, m: int, shifted: bool) -> Poly:
    # F^(k)_{j,l}(t, k - m*l); the unshifted variant drops the -m*l term
    p = fubini_two_var_alpha(j, k)
    y_arg = Poly.const(k) - m * LAM if shifted else Poly.const(k)
    return p.substitute(Var.X, T).substitute(Var.Y, y_arg)


def _deg_fubini_spivey_sides(n: int, m: int, corrupt: str | None = None):
    shifted = corrupt != "unshifted-y-arg"
    lhs = _fubini_poly_t(n + m)
    rhs = Poly.zero()
    for k in range(m, -1, -1):
        s2 = stirling2_deg(m, k)
        if s2.is_zero():
            continue
        wk = factorial(k) * s2 * T**k
        for l in range(n, -1, -1):
            rhs = rhs + comb(n, l) * wk * _fub_arg_t(n - l, k, m, shifted) * _fubini_poly_t(l)
    return lhs, rhs


@cache
def _classical_fubini_t(l: int) -> Poly:
    return classical.fubini_poly(l).substitute(Var.X, T)


def _fubini_spivey_sides(n: int, m: int):
    lhs = _classical_fubini_t(n + m)
    rhs = Poly.zero()
    for k in range(m, -1, -1):
        s2 = classical.stirling2(m, k)
        if not s2:
            continue
        fk = factorial(k) * s2 * T**k
        for l in range(n, -1, -1):
            two_var = classical.two_var_fubini_poly(n - l, k)
            two_var = two_var.substitute(Var.X, T).eval({Var.Y: k})
            rhs = rhs + comb(n, l) * fk * two_var * _classical_fubini_t(l)
    return lhs, rhs


def _deg_vandermonde_sides(n: int):
    lhs = falling_factorial_deg(X + Y, n)
    rhs = Poly.zero()
    for j in range(n + 1):
        rhs = rhs + comb(n, j) * falling_factorial_deg(X, j) * falling_factorial_deg(Y, n - j)
    return lhs, rhs


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
    rhs = Poly.zero()
    for k in range(n + 1):
        rhs = rhs + rising_factorial(alpha, k).const_value() * stirling2_deg(n, k) * X**k
    return p.eval({Var.Y: 0}), rhs


# -- registry and runner -------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """One identity's check: each cell of ``cells(n_max, m_max)`` is checked as
    ``sides(**cell, **context)``, with the grid bounds passed under the names
    in ``orders`` and a requested mutation as ``corrupt``.
    """

    cells: Callable[[int, int], list[dict]]
    sides: Callable[..., tuple[Poly, Poly]]
    spot_vars: tuple[Var, ...]  # swept by the rational spot grid
    mutations: tuple[str, ...] = ()
    orders: tuple[str, ...] = ()


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


_SPECS = {
    Identity.SPIVEY_BELL: _Spec(_nm_cells, _spivey_bell_sides, ()),
    Identity.SPIVEY_BELL_POLY: _Spec(_nm_cells, _spivey_bell_poly_sides, (Var.X,)),
    Identity.DEG_BELL_SPIVEY: _Spec(_nm_cells, _deg_bell_spivey_sides, (Var.LAMBDA, Var.X)),
    Identity.FULLY_DEG_BELL: _Spec(
        _nm_cells, _fully_deg_bell_sides, (Var.LAMBDA,), mutations=("drop-unit-weight",)
    ),
    Identity.FULLY_DEG_BELL_POLY: _Spec(
        _nm_cells, _fully_deg_bell_poly_sides, (Var.LAMBDA, Var.T)
    ),
    Identity.DEG_FUBINI_SPIVEY: _Spec(
        _nm_cells, _deg_fubini_spivey_sides, (Var.LAMBDA, Var.T), mutations=("unshifted-y-arg",)
    ),
    Identity.FUBINI_SPIVEY: _Spec(_nm_cells, _fubini_spivey_sides, (Var.T,)),
    Identity.DEG_VANDERMONDE: _Spec(_n_cells, _deg_vandermonde_sides, (Var.LAMBDA, Var.X, Var.Y)),
    Identity.EXP_SPLITTING: _Spec(
        _jk_cells, _exp_splitting_sides, (Var.LAMBDA,), orders=("j_order", "k_order")
    ),
    Identity.FUBINI_X_ZERO: _Spec(_fubini_x_zero_cells, _fubini_x_zero_sides, (Var.LAMBDA, Var.Y)),
}

LAMBDA_SPOT = (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2))
ARG_SPOT = (Fraction(1), Fraction(2), Fraction(-1, 2))


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
    exact polynomials.  The second bound doubles as the order bound K for
    exp-splitting and as alpha_max for fubini-x-zero.  ``corrupt`` names
    one of the identity's mutations, which must make the check fail.
    Cells run in a fixed order (bindings outer, then the grid), so the
    first counterexample is deterministic.
    """
    if mode not in ("symbolic", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    spec = _SPECS[identity]
    context = dict(zip(spec.orders, (n_max, m_max)))
    if corrupt is not None:
        if corrupt not in spec.mutations:
            known = ", ".join(spec.mutations) or "none"
            raise ValueError(f"unknown mutation {corrupt!r} for {identity.value} (known: {known})")
        context["corrupt"] = corrupt
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
    grid = []
    pass_count = fail_count = 0
    first = None
    for bound in passes:
        for cell in cells:
            lhs, rhs = spec.sides(**cell, **context)
            record = dict(cell)
            if bound:
                lhs, rhs = lhs.eval(bound), rhs.eval(bound)
                record.update({v.symbol: str(c) for v, c in bound.items()})
            grid.append(record)
            if lhs == rhs:
                pass_count += 1
            else:
                fail_count += 1
                if first is None:
                    first = Counterexample(bindings=record, lhs=lhs, rhs=rhs)
    return VerifyReport(
        identity=identity,
        grid=tuple(grid),
        pass_count=pass_count,
        fail_count=fail_count,
        first_counterexample=first,
    )
