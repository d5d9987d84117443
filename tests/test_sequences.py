"""Degenerate families: factorials, Stirling routes, Bell/Fubini polynomials."""

import inspect
import sys
from fractions import Fraction

import pytest

from degenbell import classical, sequences
from degenbell.algebra import LAM, ONE, Poly, T, Var, X, Y
from degenbell.sequences import (
    KINDS,
    LIMIT_KINDS,
    LINEAR_KINDS,
    TABLE_KINDS,
    TRIANGULAR_KINDS,
    SeqTable,
    bell_deg,
    bell_fully_deg,
    build_table,
    classical_counterpart,
    falling_factorial,
    falling_factorial_deg,
    fubini_deg,
    fubini_two_var_alpha,
    rising_factorial,
    specialize,
    stirling2_deg,
    stirling2_deg_basis_table,
    unit_falling_factorial_deg,
)
from degenbell.series import Series


class TestFactorials:
    def test_falling_deg(self):
        assert falling_factorial_deg(X, 2) == X**2 - LAM * X
        assert falling_factorial_deg(ONE, 3) == 1 - 3 * LAM + 2 * LAM**2
        assert falling_factorial_deg(Y + T, 0) == ONE

    def test_falling_classical(self):
        assert falling_factorial(X, 3) == X**3 - 3 * X**2 + 2 * X
        assert falling_factorial(X, 0) == ONE
        assert falling_factorial(X, 1) == X

    def test_rising(self):
        assert rising_factorial(1, 4) == Poly.const(24)
        assert rising_factorial(X, 0) == ONE
        assert rising_factorial(2, 3) == Poly.const(24)

    def test_negative_count_rejected(self):
        for fn in (falling_factorial_deg, falling_factorial, rising_factorial):
            with pytest.raises(ValueError):
                fn(X, -1)

    def test_scalar_base_promotion(self):
        assert falling_factorial_deg(2, 2) == 2 * (2 - LAM)


class TestStirlingDeg:
    def test_base_cases(self):
        assert stirling2_deg(0, 0) == ONE
        for n in range(1, 6):
            assert stirling2_deg(n, 0).is_zero()
        assert stirling2_deg(2, 5).is_zero()
        assert stirling2_deg(-1, 0).is_zero()

    def test_hand_values(self):
        assert stirling2_deg(2, 1) == ONE - LAM
        assert stirling2_deg(3, 2) == 3 - 3 * LAM
        assert stirling2_deg(3, 1) == 1 - 3 * LAM + 2 * LAM**2

    def test_boundary_identities(self):
        # top of each column is 1; first column is (1)_{n,l}
        for n in range(1, 10):
            assert stirling2_deg(n, n) == ONE
            assert stirling2_deg(n, 1) == unit_falling_factorial_deg(n)

    def test_lambda_degree_bound(self):
        for n in range(10):
            for k in range(n + 1):
                assert stirling2_deg(n, k).degree_in(Var.LAMBDA) <= n - k

    def test_row_past_lowered_recursion_limit(self, monkeypatch):
        # rows are built bottom-up: row 100 from a cold memo needs no deep stack
        expected = unit_falling_factorial_deg(100)
        monkeypatch.setattr(sequences, "_STIRLING_DEG_ROWS", [(ONE,)])
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            first, top = stirling2_deg(100, 1), stirling2_deg(100, 100)
        finally:
            sys.setrecursionlimit(limit)
        assert first == expected
        assert top == ONE

    def test_classical_limit_triangle(self):
        for n in range(9):
            for k in range(n + 1):
                at_zero = stirling2_deg(n, k).eval({Var.LAMBDA: 0})
                assert at_zero == Poly.const(classical.stirling2(n, k))


class TestStirlingOracles:
    def test_change_of_basis_rows(self):
        table = dict(stirling2_deg_basis_table(2).values)
        assert table[(1, 0)].is_zero()
        assert table[(1, 1)] == ONE
        assert table[(2, 0)].is_zero()
        assert table[(2, 1)] == ONE - LAM
        assert table[(2, 2)] == ONE

    def test_recurrence_matches_change_of_basis(self):
        table = dict(stirling2_deg_basis_table(8).values)
        for (n, k), value in table.items():
            assert value == stirling2_deg(n, k), (n, k)

    def test_recurrence_matches_egf_route(self):
        order = 8
        em1 = Series.deg_exp(1, order) - Series.unit(order)
        for k in range(order + 1):
            gf = em1.pow_over_factorial(k)
            for n in range(order + 1):
                assert gf.coeff(n) == stirling2_deg(n, k), (n, k)


class TestBellFamilies:
    def test_bell_deg_values(self):
        assert bell_deg(0) == ONE
        assert bell_deg(2) == (ONE - LAM) * X + X**2

    def test_bell_deg_classical_numbers(self):
        values = [
            bell_deg(n).eval({Var.LAMBDA: 0, Var.X: 1}).const_value() for n in range(5)
        ]
        assert values == [1, 1, 2, 5, 15]

    def test_bell_fully_deg_values(self):
        assert bell_fully_deg(0) == ONE
        assert bell_fully_deg(1) == X
        assert bell_fully_deg(2) == (ONE - LAM) * (X + X**2)

    def test_bell_fully_deg_classical_limit(self):
        for n in range(9):
            assert bell_fully_deg(n).eval({Var.LAMBDA: 0}) == classical.bell_poly(n)

    def test_families_agree_at_lambda_zero(self):
        for n in range(9):
            assert bell_fully_deg(n).eval({Var.LAMBDA: 0}) == bell_deg(n).eval(
                {Var.LAMBDA: 0}
            )


class TestFubiniFamilies:
    def test_fubini_deg_values(self):
        assert fubini_deg(1) == X
        assert fubini_deg(2) == (ONE - LAM) * X + 2 * X**2

    def test_fubini_classical_limit(self):
        for n in range(9):
            assert fubini_deg(n).eval({Var.LAMBDA: 0}) == classical.fubini_poly(n)
        at_one = fubini_deg(2).eval({Var.LAMBDA: 0, Var.X: 1})
        assert at_one.const_value() == 3

    def test_two_var_at_x_zero(self):
        for n in range(7):
            for alpha in range(4):
                reduced = fubini_two_var_alpha(n, alpha).eval({Var.X: 0})
                assert reduced == falling_factorial_deg(Y, n)

    def test_two_var_small(self):
        assert fubini_two_var_alpha(1, 1) == X + Y

    def test_two_var_at_y_zero(self):
        for n in range(7):
            for alpha in range(4):
                reduced = fubini_two_var_alpha(n, alpha).eval({Var.Y: 0})
                expected = Poly.zero()
                for k in range(n + 1):
                    expected = expected + (
                        rising_factorial(alpha, k).const_value()
                        * stirling2_deg(n, k)
                        * X**k
                    )
                assert reduced == expected

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            fubini_two_var_alpha(2, -1)


class TestSeriesOracleAgreement:
    N = 10

    def setup_method(self):
        self.unit = Series.unit(self.N)
        self.em1 = Series.deg_exp(1, self.N) - self.unit

    def test_bell_fully_deg_gf(self):
        from degenbell.series import deg_exp_of

        gf = deg_exp_of(X * self.em1)
        for n in range(self.N + 1):
            assert gf.coeff(n) == bell_fully_deg(n)

    def test_bell_deg_gf(self):
        from degenbell.series import exp_of

        gf = exp_of(X * self.em1)
        for n in range(self.N + 1):
            assert gf.coeff(n) == bell_deg(n)

    def test_fubini_deg_gf(self):
        gf = (self.unit - X * self.em1).reciprocal()
        for n in range(self.N + 1):
            assert gf.coeff(n) == fubini_deg(n)

    def test_two_var_gf(self):
        recip = (self.unit - X * self.em1).reciprocal()
        ey = Series.deg_exp(Y, self.N)
        for alpha in range(4):
            gf = recip.int_pow(alpha) * ey
            for n in range(self.N + 1):
                assert gf.coeff(n) == fubini_two_var_alpha(n, alpha)


class TestSpecialize:
    def test_polynomial_argument(self):
        assert specialize(fubini_two_var_alpha(1, 1), x=-LAM, y=ONE - LAM) == 1 - 2 * LAM

    def test_rational_binding(self):
        assert specialize(bell_fully_deg(2), x=1) == 2 - 2 * LAM

    def test_string_binding(self):
        assert specialize(X**2, x="1/2") == Poly.const(Fraction(1, 4))

    def test_empty(self):
        p = bell_deg(3)
        assert specialize(p) == p

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            specialize(X, z=1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            specialize(bell_fully_deg(2), l=0.1)


class TestTables:
    def test_build_triangular(self):
        table = build_table("deg-stirling2", 3)
        assert table.kind == "deg-stirling2"
        values = dict(table.values)
        assert values[(3, 2)] == 3 - 3 * LAM
        assert len(table.values) == 10

    def test_build_triangular_with_k_cap(self):
        table = build_table("deg-stirling2", 4, k_max=1)
        assert table.bounds == {"n_max": 4, "k_max": 1}
        assert all(k <= 1 for (_, k), _ in table.values)
        assert dict(table.values)[(4, 1)] == unit_falling_factorial_deg(4)

    def test_k_max_rejected_for_linear_kinds(self):
        for kind in ("deg-bell", "two-var-deg-fubini", "classical-bell"):
            with pytest.raises(ValueError, match="triangular"):
                build_table(kind, 2, k_max=0)

    def test_alpha_rejected_for_kinds_without_order(self):
        for kind in ("deg-bell", "deg-stirling2", "classical-fubini"):
            with pytest.raises(ValueError, match="alpha"):
                build_table(kind, 2, alpha=5)
        with pytest.raises(ValueError, match="alpha"):
            classical_counterpart("deg-bell", 2, alpha=7)

    def test_alpha_defaults_to_one(self):
        assert build_table("two-var-deg-fubini", 3) == build_table("two-var-deg-fubini", 3, alpha=1)
        reference = classical_counterpart("two-var-deg-fubini", 3)
        assert reference == classical_counterpart("two-var-deg-fubini", 3, alpha=1)
        assert reference.bounds == {"n_max": 3, "alpha": 1}

    def test_build_linear_with_alpha(self):
        table = build_table("two-var-deg-fubini", 2, alpha=2)
        assert table.bounds == {"n_max": 2, "alpha": 2}
        assert dict(table.values)[(1,)] == 2 * X + Y

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_table("nope", 3)
        with pytest.raises(ValueError):
            build_table("deg-bell", -1)

    def test_json_round_trip(self):
        table = build_table("deg-stirling2", 4)
        data = table.to_json()
        assert data["provenance"] == "recurrence"
        assert SeqTable.from_json(data) == table

    def test_csv_rows(self):
        rows = build_table("fully-deg-bell", 2).to_csv_rows()
        assert rows[0] == ["n", "value"]
        assert rows[3] == ["2", "x - l*x + x^2 - l*x^2"]
        triangle = build_table("deg-stirling2", 1).to_csv_rows()
        assert triangle[0] == ["n", "k", "value"]

    def test_basis_table_provenance(self):
        assert stirling2_deg_basis_table(3).provenance == "closed-form"

    def test_classical_counterpart_pairs(self):
        for kind in ("deg-bell", "fully-deg-bell", "deg-fubini", "deg-falling-factorial"):
            degenerate = build_table(kind, 6)
            reference = classical_counterpart(kind, 6)
            for (index, poly), (_, ref) in zip(degenerate.values, reference.values):
                assert poly.eval({Var.LAMBDA: 0}) == ref, (kind, index)

    def test_no_counterpart_rejected(self):
        for kind in ("falling-factorial", "classical-bell", "nope"):
            with pytest.raises(ValueError, match="counterpart"):
                classical_counterpart(kind, 2)

    def test_kind_tuples_derive_from_registry(self):
        assert TABLE_KINDS == TRIANGULAR_KINDS + LINEAR_KINDS == tuple(KINDS)
        assert TRIANGULAR_KINDS == ("deg-stirling2", "classical-stirling2")
        assert LIMIT_KINDS == (
            "deg-stirling2",
            "deg-bell",
            "fully-deg-bell",
            "deg-fubini",
            "two-var-deg-fubini",
            "deg-falling-factorial",
        )
        assert [kind for kind in KINDS if KINDS[kind].ordered] == ["two-var-deg-fubini"]

    def test_memoization_transparent(self):
        first = fubini_two_var_alpha(5, 2)
        second = fubini_two_var_alpha(5, 2)
        assert first == second
        assert first is second  # cached, same object
        assert stirling2_deg(6, 3) == stirling2_deg(6, 3)
