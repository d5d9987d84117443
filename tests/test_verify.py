"""Identity verification harness: reports, cross-reductions, mutation detection."""

from fractions import Fraction

import pytest

from degenbell import classical
from degenbell.algebra import LAM, ONE, Poly, T, Var, X, Y
from degenbell.sequences import (
    bell_fully_deg,
    fubini_two_var_alpha,
    stirling2_deg,
    unit_falling_factorial_deg,
)
from degenbell.verify import (
    Identity,
    VerifyReport,
    run_identity,
    spot_grid,
)
from math import comb
from strategies import sides


class TestReportShape:
    def test_counts_add_up(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 2, 2)
        assert report.pass_count + report.fail_count == len(report.grid)
        assert report.ok
        assert report.first_counterexample is None

    def test_grid_order_m_outer(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 1, 2)
        assert [(c["n"], c["m"]) for c in report.grid] == [
            (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2),
        ]

    def test_json_schema(self):
        report = run_identity(Identity.DEG_VANDERMONDE, 3)
        data = report.to_json()
        assert data == {
            "identity": "deg-vandermonde",
            "grid_size": 4,
            "pass": 4,
            "fail": 0,
            "first_counterexample": None,
        }

    def test_json_counterexample(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-weight")
        data = report.to_json()
        ce = data["first_counterexample"]
        assert ce is not None
        assert ce["bindings"] == {"n": 0, "m": 2}
        assert Poly.from_json(ce["lhs"]) == 2 - 2 * LAM
        assert Poly.from_json(ce["rhs"]) == 2 - LAM


class TestSpiveyBellNumbers:
    def test_small_grid(self):
        assert run_identity(Identity.SPIVEY_BELL, 6, 6).ok

    def test_base_cell(self):
        lhs, rhs = sides(Identity.SPIVEY_BELL, 0, 0)
        assert lhs == rhs == ONE

    def test_lhs_values_are_bell_numbers(self):
        for n, m in [(0, 0), (2, 1), (4, 4)]:
            lhs, _ = sides(Identity.SPIVEY_BELL, n, m)
            assert lhs.const_value() == classical.bell_number(n + m)

    def test_polynomial_variant(self):
        assert run_identity(Identity.SPIVEY_BELL_POLY, 5, 5).ok


class TestFullyDegBellNumbers:
    def test_symbolic_grid(self):
        assert run_identity(Identity.FULLY_DEG_BELL, 4, 4).ok

    def test_hand_cell(self):
        lhs, rhs = sides(Identity.FULLY_DEG_BELL, 1, 1)
        assert lhs == 2 - 2 * LAM
        assert rhs == 2 - 2 * LAM

    def test_base_cell(self):
        lhs, rhs = sides(Identity.FULLY_DEG_BELL, 0, 0)
        assert lhs == rhs == ONE

    def test_lambda_zero_is_classical_spivey(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.FULLY_DEG_BELL, n, m)
                classical_lhs, classical_rhs = sides(Identity.SPIVEY_BELL, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == classical_lhs
                assert rhs.eval({Var.LAMBDA: 0}) == classical_rhs

    def test_rational_binding(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 3, 3, bindings={"l": Fraction(1, 2)})
        assert report.ok
        assert report.grid[0]["l"] == "1/2"

    def test_binding_applies_in_symbolic_mode(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 1, 1, bindings={"l": "1/2"})
        assert report.grid[0] == {"n": 0, "m": 0, "l": "1/2"}
        assert report.ok

    def test_float_binding_rejected(self):
        for mode in ("symbolic", "rational"):
            with pytest.raises(TypeError):
                run_identity(Identity.FULLY_DEG_BELL, 1, 1, mode=mode, bindings={"l": 0.1})


class TestFullyDegBellPolynomials:
    def test_symbolic_grid(self):
        assert run_identity(Identity.FULLY_DEG_BELL_POLY, 3, 3).ok

    def test_cell_equals_family_polynomial(self):
        lhs, _ = sides(Identity.FULLY_DEG_BELL_POLY, 1, 1)
        assert lhs == bell_fully_deg(2).substitute(Var.X, T)

    def test_t_equals_one_reduces_to_number_version(self):
        for m in range(4):
            for n in range(4):
                poly_lhs, poly_rhs = sides(Identity.FULLY_DEG_BELL_POLY, n, m)
                num_lhs, num_rhs = sides(Identity.FULLY_DEG_BELL, n, m)
                assert poly_lhs.eval({Var.T: 1}) == num_lhs
                assert poly_rhs.eval({Var.T: 1}) == num_rhs

    def test_lambda_zero_is_classical_polynomial_spivey(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.FULLY_DEG_BELL_POLY, n, m)
                cl_lhs, cl_rhs = sides(Identity.SPIVEY_BELL_POLY, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == cl_lhs.substitute(Var.X, T)
                assert rhs.eval({Var.LAMBDA: 0}) == cl_rhs.substitute(Var.X, T)


class TestDegBellSpivey:
    def test_symbolic_grid(self):
        assert run_identity(Identity.DEG_BELL_SPIVEY, 4, 4).ok

    def test_lambda_zero_matches_classical_polynomial_cells(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.DEG_BELL_SPIVEY, n, m)
                cl_lhs, cl_rhs = sides(Identity.SPIVEY_BELL_POLY, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == cl_lhs
                assert rhs.eval({Var.LAMBDA: 0}) == cl_rhs

    def test_lambda_zero_x_one_gives_bell_numbers(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.DEG_BELL_SPIVEY, n, m)
                bound = {Var.LAMBDA: 0, Var.X: 1}
                expected = Poly.const(classical.bell_number(n + m))
                assert lhs.eval(bound) == expected
                assert rhs.eval(bound) == expected


class TestDegFubiniSpivey:
    def test_symbolic_grid(self):
        assert run_identity(Identity.DEG_FUBINI_SPIVEY, 3, 3).ok

    def test_hand_cell(self):
        report = run_identity(Identity.DEG_FUBINI_SPIVEY, 0, 1)
        assert report.ok
        lhs, rhs = sides(Identity.DEG_FUBINI_SPIVEY, 0, 1)
        assert lhs == T
        assert rhs == T

    def test_classical_limit_identity(self):
        assert run_identity(Identity.FUBINI_SPIVEY, 4, 4).ok

    def test_lambda_zero_matches_classical_cells(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.DEG_FUBINI_SPIVEY, n, m)
                cl_lhs, cl_rhs = sides(Identity.FUBINI_SPIVEY, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == cl_lhs
                assert rhs.eval({Var.LAMBDA: 0}) == cl_rhs


class TestVandermondeAndSplitting:
    def test_vandermonde_symbolic(self):
        assert run_identity(Identity.DEG_VANDERMONDE, 10).ok

    def test_vandermonde_n2(self):
        from degenbell.verify import _deg_vandermonde_sides

        lhs, rhs = _deg_vandermonde_sides(2)
        assert lhs == (X + Y) * (X + Y - LAM)
        assert lhs == rhs

    def test_vandermonde_second_argument_zero(self):
        # only the j = n summand survives at y = 0
        from degenbell.sequences import falling_factorial_deg
        from degenbell.verify import _deg_vandermonde_sides

        for n in range(6):
            _, rhs = _deg_vandermonde_sides(n)
            assert rhs.eval({Var.Y: 0}) == falling_factorial_deg(X, n)

    def test_splitting_grid(self):
        report = run_identity(Identity.EXP_SPLITTING, 6, 6)
        assert report.ok
        assert len(report.grid) == 49
        # the truncation orders reach the sides, not the grid records
        assert report.grid[-1] == {"j": 6, "k": 6}


class TestFubiniSpecializations:
    def test_symbolic(self):
        assert run_identity(Identity.FUBINI_X_ZERO, 8, 4).ok

    def test_hand_cell(self):
        from degenbell.verify import _fubini_x_zero_sides

        lhs, rhs = _fubini_x_zero_sides(2, 3, "x=0")
        assert lhs == Y * (Y - LAM)
        assert rhs == Y * (Y - LAM)

    def test_alpha_zero_column(self):
        from degenbell.verify import _fubini_x_zero_sides

        for n in range(5):
            lhs, rhs = _fubini_x_zero_sides(n, 0, "x=0")
            assert lhs == rhs


class TestMutationDetection:
    def test_dropped_unit_weight_detected(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-weight")
        assert report.fail_count > 0
        ce = report.first_counterexample
        assert ce is not None
        assert ce.bindings["n"] + ce.bindings["m"] <= 3
        assert ce.lhs != ce.rhs

    def test_unshifted_y_argument_detected(self):
        report = run_identity(Identity.DEG_FUBINI_SPIVEY, 3, 3, corrupt="unshifted-y-arg")
        assert report.fail_count > 0
        ce = report.first_counterexample
        assert ce.bindings["n"] + ce.bindings["m"] <= 3

    def test_mutants_survive_at_lambda_zero(self):
        # both corruptions vanish at l = 0, so the rational smoke layer
        # must pass there while the symbolic layer fails
        report = run_identity(
            Identity.FULLY_DEG_BELL, 3, 3, bindings={"l": 0}, corrupt="drop-unit-weight"
        )
        assert report.ok

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="drop-unit-wieght"):
            run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-wieght")
        # a mutation belongs to its own identity only
        with pytest.raises(ValueError):
            run_identity(Identity.SPIVEY_BELL, 3, 3, corrupt="drop-unit-weight")


class TestSpecializationCoherence:
    def test_verify_then_bind_equals_bind_then_verify(self):
        lam0 = Fraction(1, 3)
        for n, m in [(1, 2), (2, 2), (3, 1)]:
            lhs, rhs = sides(Identity.FULLY_DEG_BELL, n, m)
            sym_lhs = lhs.eval({Var.LAMBDA: lam0}).const_value()
            sym_rhs = rhs.eval({Var.LAMBDA: lam0}).const_value()

            # independent route: bind lambda in every ingredient first
            bind = {Var.LAMBDA: lam0}
            lhs2 = bell_fully_deg(n + m).eval({Var.X: 1, **bind}).const_value()
            rhs2 = Fraction(0)
            for k in range(m + 1):
                s2 = stirling2_deg(m, k).eval(bind).const_value()
                w = unit_falling_factorial_deg(k).eval(bind).const_value()
                for l in range(n + 1):
                    bel = bell_fully_deg(l).eval({Var.X: 1, **bind}).const_value()
                    fub = (
                        fubini_two_var_alpha(n - l, k)
                        .eval({Var.X: -lam0, Var.Y: k - m * lam0, **bind})
                        .const_value()
                    )
                    rhs2 += w * s2 * comb(n, l) * bel * fub
            assert sym_lhs == lhs2
            assert sym_rhs == rhs2
            assert lhs2 == rhs2


class TestDispatch:
    @pytest.mark.parametrize("identity", list(Identity))
    def test_every_identity_runs_symbolically(self, identity):
        report = run_identity(identity, n_max=2, m_max=2)
        assert isinstance(report, VerifyReport)
        assert report.ok, identity

    @pytest.mark.parametrize("identity", list(Identity))
    def test_every_identity_runs_on_spot_grid(self, identity):
        report = run_identity(identity, n_max=2, m_max=2, mode="rational")
        assert report.ok, identity
        expected = len(spot_grid(identity)) * _cells_for(identity, 2, 2)
        assert len(report.grid) == expected

    def test_explicit_bindings(self):
        report = run_identity(
            Identity.DEG_BELL_SPIVEY, 2, 2, mode="rational", bindings={"l": "1/2", "x": 2}
        )
        assert report.ok
        assert len(report.grid) == 9

    def test_rational_spot_layer_up_to_nm_ten(self):
        # symbolic cells cover n+m <= 10 under the default spot values
        report = run_identity(Identity.FULLY_DEG_BELL, 5, 5, mode="rational")
        assert report.ok
        assert len(report.grid) == 36 * len(spot_grid(Identity.FULLY_DEG_BELL))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_identity(Identity.SPIVEY_BELL, mode="numeric")


def _cells_for(identity, n_max, m_max):
    if identity is Identity.DEG_VANDERMONDE:
        return n_max + 1
    if identity is Identity.EXP_SPLITTING:
        return (n_max + 1) * (m_max + 1)
    if identity is Identity.FUBINI_X_ZERO:
        return (n_max + 1) * (m_max + 1) * 2
    return (n_max + 1) * (m_max + 1)
