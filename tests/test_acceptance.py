"""Acceptance suite: one test per exit criterion, exact equality throughout.

Every check here is symbolic or exact-rational, so the tolerance is zero
everywhere; the only numeric bars are the stated runtime budgets.  Each
test prints its own pass/fail line so a full run reads as a checklist.
"""

import time

from degenbell import classical
from degenbell.algebra import Poly, Var, X, Y
from degenbell.sequences import (
    bell_fully_deg,
    build_table,
    classical_counterpart,
    fubini_deg,
    fubini_two_var_alpha,
    stirling2_deg,
)
from degenbell.series import Series, deg_exp_of
from degenbell.verify import Identity, run_identity
from oracles import pow_over_factorial, stirling2_deg_basis_table
from strategies import sides

CLASSICAL_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def _report(criterion: str, ok: bool) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_fully_deg_bell_numbers_symbolic():
    start = time.monotonic()
    report = run_identity(Identity.FULLY_DEG_BELL, 8, 8)
    elapsed = time.monotonic() - start
    ok = report.ok and len(report.grid) == 81 and elapsed < 60
    assert _report(f"1 fully-deg-bell numbers, grid 9x9 symbolic ({elapsed:.1f}s)", ok)


def test_criterion_2_fully_deg_bell_polynomials_symbolic():
    start = time.monotonic()
    report = run_identity(Identity.FULLY_DEG_BELL_POLY, 6, 6)
    elapsed = time.monotonic() - start
    ok = report.ok and len(report.grid) == 49 and elapsed < 120
    assert _report(f"2 fully-deg-bell polynomials, grid 7x7 symbolic ({elapsed:.1f}s)", ok)


def test_criterion_3_deg_fubini_symbolic():
    start = time.monotonic()
    report = run_identity(Identity.DEG_FUBINI_SPIVEY, 6, 6)
    elapsed = time.monotonic() - start
    ok = report.ok and len(report.grid) == 49 and elapsed < 120
    assert _report(f"3 deg-fubini recurrence, grid 7x7 symbolic ({elapsed:.1f}s)", ok)


def test_criterion_4_deg_bell_recurrence_and_classical_reduction():
    symbolic = run_identity(Identity.DEG_BELL_SPIVEY, 6, 6)
    ok = symbolic.ok and len(symbolic.grid) == 49

    # the l = 0, x = 1 specialization must reproduce the classical Bell
    # number identity, with the numbers from the independent oracle
    assert [classical.bell_number(n) for n in range(9)] == CLASSICAL_BELL
    bound = {Var.LAMBDA: 0, Var.X: 1}
    for m in range(9):
        for n in range(9 - m):
            lhs, rhs = sides(Identity.DEG_BELL_SPIVEY, n, m)
            expected = Poly.const(CLASSICAL_BELL[n + m])
            ok = ok and lhs.eval(bound) == expected and rhs.eval(bound) == expected
    ok = ok and run_identity(Identity.SPIVEY_BELL, 4, 4).ok
    assert _report("4 deg-bell recurrence + classical Bell reduction", ok)


def test_criterion_5_stirling_triple_oracle():
    n_max = 12
    basis = dict(stirling2_deg_basis_table(n_max).values)
    em1 = Series.deg_exp(1, n_max) - Series.unit(n_max)
    ok = True
    for k in range(n_max + 1):
        gf = pow_over_factorial(em1, k)
        for n in range(n_max + 1):
            if k <= n:
                recurrence = stirling2_deg(n, k)
                ok = ok and recurrence == basis[(n, k)] == gf.coeff(n)
            else:
                ok = ok and gf.coeff(n).is_zero() and stirling2_deg(n, k).is_zero()
    assert _report("5 Stirling triple oracle (recurrence/basis/EGF), n <= 12", ok)


def test_criterion_6_closed_forms_match_series_oracles():
    n_max = 12
    unit = Series.unit(n_max)
    em1 = Series.deg_exp(1, n_max) - unit

    ok = True
    bell_gf = deg_exp_of(X * em1)
    fubini_gf = (unit - X * em1).reciprocal()
    for n in range(n_max + 1):
        ok = ok and bell_gf.coeff(n) == bell_fully_deg(n)
        ok = ok and fubini_gf.coeff(n) == fubini_deg(n)

    recip = (unit - X * em1).reciprocal()
    ey = Series.deg_exp(Y, n_max)
    for alpha in range(5):
        gf = recip.int_pow(alpha) * ey
        for n in range(n_max + 1):
            ok = ok and gf.coeff(n) == fubini_two_var_alpha(n, alpha)
    assert _report("6 closed forms vs series oracles, n <= 12, alpha <= 4", ok)


def test_criterion_7_limit_suite():
    n_max = 10
    ok = True
    for kind in ("deg-bell", "fully-deg-bell", "deg-fubini", "deg-falling-factorial"):
        degenerate = build_table(kind, n_max)
        reference = classical_counterpart(kind, n_max)
        for (index, poly), (_, ref) in zip(degenerate.values, reference.values):
            ok = ok and poly.eval({Var.LAMBDA: 0}) == ref
    for n in range(n_max + 1):
        for k in range(n + 1):
            at_zero = stirling2_deg(n, k).eval({Var.LAMBDA: 0})
            ok = ok and at_zero == Poly.const(classical.stirling2(n, k))
    for alpha in range(3):
        for n in range(n_max + 1):
            at_zero = fubini_two_var_alpha(n, alpha).eval({Var.LAMBDA: 0})
            ok = ok and at_zero == classical.two_var_fubini_poly(n, alpha)
    assert _report("7 limit suite: every family at l = 0 vs classical, n <= 10", ok)


def test_criterion_8_two_var_specializations():
    report = run_identity(Identity.FUBINI_X_ZERO, 10, 4)
    ok = report.ok and len(report.grid) == 11 * 5 * 2
    assert _report("8 two-var Fubini x=0 / y=0 specializations, n <= 10, alpha <= 4", ok)


def test_criterion_9_vandermonde_and_splitting():
    vandermonde = run_identity(Identity.DEG_VANDERMONDE, 10)
    splitting = run_identity(Identity.EXP_SPLITTING, 6, 6)
    ok = vandermonde.ok and splitting.ok and len(splitting.grid) == 49
    assert _report("9 degenerate Vandermonde + exponential splitting (6,6)", ok)


def test_criterion_10_mutation_sensitivity():
    dropped = run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-weight")
    unshifted = run_identity(Identity.DEG_FUBINI_SPIVEY, 3, 3, corrupt="unshifted-y-arg")
    ok = dropped.fail_count > 0 and unshifted.fail_count > 0
    for report in (dropped, unshifted):
        ce = report.first_counterexample
        ok = ok and ce is not None and ce.bindings["n"] + ce.bindings["m"] <= 3
        ok = ok and ce.lhs != ce.rhs
    assert _report("10 mutation sensitivity with concrete counterexamples", ok)
