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
where (a <*> b)(n) = sum_i C(n,i) a(i) b(n-i) is `Poly.convolve`: the
factorisation D^m B(u) = sum_k W(m,k) B(u) A_k(u) e_l^{k-m*l}(u) of the
generating functions.  Since e_l^{k-m*l}(u) = e_l^k(u) (1 + l*u)^{-m}, the
degenerate tail splits as Y_{k,m} = T_k <*> P_m, with T_k(j) = (k)_{j,l}
and the one-term shift P_m(r) = (-m*l)_{r,l} = (-1)^r <m>_r l^r
(deg-vandermonde at x = k, y = -m*l).  The convolution is associative and
commutative, so the sum is taken as

    B_{n+m} = sum_{r<=n} C(n,r) P_m(r) Q_m(n-r),
    Q_m = sum_{k<=m} W(m,k) K_k,   K_k = H_k <*> T_k,   H_k = B <*> A_k,

in which only the weights depend on m.  Each of the seven is a record,
`_Spivey`, of three facts: its family B_j(z) = sum_k c(k) S(j,k) z^k, its
argument z and its form.  With S2_l / phi / Bel / F as in `sequences` and
S, phi_j, F_j their classical (l = 0) forms from `classical`:

  identity             family, c(k)     z  form
  spivey-bell          phi, 1           1  classical
  spivey-bell-poly     phi, 1           x  classical
  deg-bell-spivey      phi, 1           x  degenerate
  fully-deg-bell       Bel, (1)_{k,l}   1  degenerate
  fully-deg-bell-poly  Bel, (1)_{k,l}   t  degenerate
  deg-fubini-spivey    F, k!            t  degenerate
  fubini-spivey        F, k!            t  classical

One function per part derives it from the record: B_j is the family's
own builder (the tables') at z; W(m, k) is B_m's term k, c(k) S(m,k) z^k;
A_k(j) = F^(k)_j(h), at h = -l*z for Bel and h = z for F, and phi has the
unit head, so H_k = B.  The degenerate form reads S2_l, T_k(j) = (k)_{j,l}
and P_m(r) = (-m*l)_{r,l}; the classical one reads S, k^j and no shift,
so its right side is Q_m(n), and its head, the independent route, is
``fubini_poly(j, X, k)`` with t substituted for x.  A grid pass builds
each H_k(i), K_k(s) and Q_m(s) once, m outer, so K_m is kept to its end
and Q_m for m's cells.  Nothing else outlives it but what the builders
keep in `algebra._kept`: each tail (k)_{j,l} and shift (-m*l)_{r,l} is
read from the one running list of k, or of -m*l, that the four shifted
identities and exp-splitting share.

The other three have grids of their own:

  deg-vandermonde  (x+y)_{n,l} = sum_j C(n,j) (x)_{j,l} (y)_{n-j,l}
  exp-splitting    e_l(u+v) = e_l(u) e_l(v / (1 + l*u)), per bivariate EGF entry (j, k)
  fubini-x-zero    F^(a)_{n,l}(0, y) = (y)_{n,l}  and
                   F^(a)_{n,l}(x, 0) = sum_k <a>_k S2_l(n,k) x^k

Each identity has one entry in a registry: its grid, which yields each
cell with its two sides, the variables its sides contain (all swept by
its rational spot grid, except x of fubini-x-zero) and its named
mutations.  A mutation is data, the fields of the record that it
replaces: ``drop-unit-weight`` clears fully-deg-bell's ``factor``, so W is
S2_l(m,k), and ``unshifted-y-arg`` clears deg-fubini-spivey's ``shifted``,
so that its tail is (k)_{j,l} and its G becomes F^(k)_{j,l}(t, k).
`run_identity`, the single entry point, walks the grid once and checks
each cell at every binding pass as it is built (its docstring gives the
modes).  fubini-x-zero's grid sweeps only (l, y), so in rational mode
without a binding of x its y = 0 difference is still a polynomial in x at
each point: for that side the check stays symbolic in x, not a point
check.

A failing cell is reported, never raised: the harness must also be able
to demonstrate that a wrong identity fails, which ``run_identity(...,
corrupt=<mutation>)`` does.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from math import factorial
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

    def to_json(self, leaf: Callable[[Poly], object] = Poly.to_json) -> dict:
        """The report as JSON data, each side of the counterexample as ``leaf(side)``."""
        ce = None
        if self.first_counterexample is not None:
            c = self.first_counterexample
            ce = {"bindings": c.bindings, "lhs": leaf(c.lhs), "rhs": leaf(c.rhs)}
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


class _Spivey(NamedTuple):
    """A Spivey-type identity as data, one field per named mutation too; called
    as ``grid(n_max, m_max)``, it is the identity's `_spivey_grid`."""

    family: str  # "bell" phi (c = 1), "fully-bell" Bel (c = (1)_{k,l}), "fubini" F (c = k!)
    z: Poly  # the argument: ONE, X or T
    degenerate: bool  # S2_l, (k)_{j,l} and the shift; else S, k^j and no shift
    factor: bool = True  # W carries c(k); drop-unit-weight clears it
    shifted: bool = True  # a degenerate tail is shifted; unshifted-y-arg clears it

    def __call__(self, n_max: int, m_max: int) -> Iterator[Cell]:
        return _spivey_grid(n_max, m_max, self)


def _spivey_grid(n_max: int, m_max: int, s: _Spivey) -> Iterator[Cell]:
    """Each cell (n, m) of record s, m outer and n inner, with both sides of
    B_{n+m} = sum_{r<=n} C(n,r) P_m(r) Q_m(n-r).  The list of P_m(r) is read
    once per m, each other part once per index, and the sums take the
    classical int weights and tails as scalars."""
    js = range(n_max + 1)
    b = [_outer(s, j) for j in range(n_max + m_max + 1)]
    h = _NEG_LAM * s.z if s.family == "fully-bell" else s.z
    tail_sums = []  # K_k(i) for k <= m: each m adds K_m, so its parts are read at k = m
    for m in range(m_max + 1):
        heads = b  # phi has the unit head, so H_m = B
        if s.family != "bell":
            a = [_head(s, h, j, m) for j in js]
            heads = [Poly.convolve(b, a, i) for i in js]
        t = [_tail(s, j, m) for j in js]
        tail_sums.append([Poly.convolve(heads, t, i) for i in js])
        # a zero weight, W(m, 0) for m > 0, adds nothing
        w = [_weight(s, m, k) for k in range(m + 1)]
        q = [Poly.sum_of_products((w[k], tail_sums[k][i]) for k in range(m, -1, -1)) for i in js]
        p = _shifts(s, m, js)
        for n in js:
            yield {"n": n, "m": m}, b[n + m], q[n] if p is None else Poly.convolve(p, q, n)


# Each part looks its builders up by their module-global names (which
# perfbench's tracer patches).
def _outer(s: _Spivey, j: int) -> Poly:
    """B_j, built at z by the family's own builder, the one the tables use."""
    if s.family == "bell":
        return bell_deg(j, s.z) if s.degenerate else classical.bell_poly(j, s.z)
    if s.family == "fubini":
        return fubini_deg(j, 1, s.z) if s.degenerate else classical.fubini_poly(j, s.z)
    return bell_fully_deg(j, s.z)  # Bel has only its degenerate form


def _weight(s: _Spivey, m: int, k: int) -> Poly | int:
    """W(m, k) = c(k) S(m, k) z^k, B_m's term k.  A factor of 1, c(k) at k <= 1
    and z^k at k = 0 or z = 1, costs no product."""
    w = stirling2_deg(m, k) if s.degenerate else classical.stirling2(m, k)
    c = 1  # phi's, and each family's without its factor
    if s.factor and s.family != "bell":
        c = factorial(k) if s.family == "fubini" else unit_falling_factorial_deg(k)
    for f in (c, s.z**k):
        if f != 1:
            w = w * f
    return w


def _head(s: _Spivey, h: Poly, j: int, k: int) -> Poly:
    """A_k(j) = F^(k)_j(h); the classical one, the independent route, substitutes h for x."""
    if s.degenerate:
        return fubini_deg(j, k, h)
    return classical.fubini_poly(j, X, k).substitute(Var.X, h)


def _tail(s: _Spivey, j: int, k: int) -> Poly | int:
    """T_k(j) = (k)_{j,l}, read from the one running list of k, or k^j."""
    return falling_factorial_deg(k, j) if s.degenerate else k**j


_NEG_LAM = -LAM  # -l, the step of each shift's base and Bel's head argument


def _shifts(s: _Spivey, m: int, rs) -> list[Poly] | None:
    """[P_m(r) for r in rs], P_m(r) = (-m*l)_{r,l} = (-1)^r <m>_r l^r from the one
    running list of -m*l, its base formed once per m; None when unshifted."""
    if not (s.degenerate and s.shifted):
        return None
    base = m * _NEG_LAM
    return [falling_factorial_deg(base, r) for r in rs]


# -- the other identities' grids -----------------------------------------------


def _deg_vandermonde_grid(n_max: int, m_max: int) -> Iterator[Cell]:
    xs, ys = ([falling_factorial_deg(v, j) for j in range(n_max + 1)] for v in (X, Y))
    for n in range(n_max + 1):
        yield {"n": n}, falling_factorial_deg(X + Y, n), Poly.convolve(xs, ys, n)


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
    and its two sides, in the documented order.  A mutation maps the fields
    of the `_Spivey` grid that it swaps to their replacements."""

    grid: Callable[[int, int], Iterator[Cell]]
    spot_vars: tuple[Var, ...]  # swept by the rational spot grid
    mutations: Mapping[str, dict[str, bool]] = MappingProxyType({})  # shared, so read-only
    unswept: tuple[Var, ...] = ()  # free in the sides but not swept


_SPECS = {
    Identity.SPIVEY_BELL: _Spec(_Spivey("bell", ONE, False), ()),
    Identity.SPIVEY_BELL_POLY: _Spec(_Spivey("bell", X, False), (Var.X,)),
    Identity.DEG_BELL_SPIVEY: _Spec(_Spivey("bell", X, True), (Var.LAMBDA, Var.X)),
    Identity.FULLY_DEG_BELL: _Spec(
        _Spivey("fully-bell", ONE, True), (Var.LAMBDA,), {"drop-unit-weight": {"factor": False}}
    ),
    Identity.FULLY_DEG_BELL_POLY: _Spec(_Spivey("fully-bell", T, True), (Var.LAMBDA, Var.T)),
    Identity.DEG_FUBINI_SPIVEY: _Spec(
        _Spivey("fubini", T, True), (Var.LAMBDA, Var.T), {"unshifted-y-arg": {"shifted": False}}
    ),
    Identity.FUBINI_SPIVEY: _Spec(_Spivey("fubini", T, False), (Var.T,)),
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

    Given bindings, ``{}`` too, are one pass in either mode.  Each must bind
    a variable of `free_vars` (identity), or ValueError names the stray ones,
    and the values go through `algebra.as_scalar`, so a float raises
    TypeError.  Without them (None), rational mode sweeps the identity's
    `spot_grid` and symbolic mode compares the exact polynomials.  The grid
    is walked once, and each cell is checked at every binding pass as it is
    built: equal sides pass everywhere, and otherwise their difference is
    evaluated at each pass and passes where it is zero.  Only the sides of
    the first counterexample are kept, and evaluated for its report; no cell
    is built twice.
    The two bounds bound (j, k) for exp-splitting and (n, alpha) for
    fubini-x-zero; deg-vandermonde has the one index n, so m_max bounds
    nothing there.  A negative bound raises ValueError.  ``corrupt``
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
        grid = grid._replace(**spec.mutations[corrupt])
    if bindings is not None:
        given = {
            k if isinstance(k, Var) else var_from_symbol(k): as_scalar(v) for k, v in bindings.items()
        }
        if stray := ", ".join(v.symbol for v in given if v not in free_vars(identity)):
            raise ValueError(f"bindings {stray}: no such variable in {identity.value}")
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
