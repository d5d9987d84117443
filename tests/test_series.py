"""EGF series engine: products, reciprocals, degenerate exponentials, splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell.algebra import LAM, ONE, Poly, Var, X, Y
from degenbell.series import (
    NotInvertibleError,
    Series,
    ValuationError,
    deg_exp_of,
    exp_of,
    exp_splitting_sides,
)
from strategies import polys


def unit_series(order=8):
    return Series.unit(order)


small_series = st.builds(
    lambda coeffs: Series(coeffs),
    st.lists(polys(max_terms=2, max_exp=1), min_size=4, max_size=5),
)


class TestProduct:
    def test_deg_exp_addition_law_coefficient(self):
        # e_l^x * e_l^y has n=2 EGF coefficient (x+y)(x+y-l)
        prod = Series.deg_exp(X, 6) * Series.deg_exp(Y, 6)
        assert prod.coeff(2) == (X + Y) * (X + Y - LAM)

    def test_unit_is_identity(self):
        a = Series.deg_exp(X, 5)
        assert a * unit_series(5) == a

    def test_valuation_adds(self):
        a = Series([0, 1, Fraction(1, 2), 0, 3])
        sq = a * a
        assert sq.coeff(0).is_zero()
        assert sq.coeff(1).is_zero()

    def test_truncates_to_smaller_order(self):
        a = Series.deg_exp(X, 8)
        b = Series.deg_exp(Y, 3)
        assert (a * b).order == 3

    @given(a=small_series, b=small_series)
    @settings(max_examples=30)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(a=small_series, b=small_series, c=small_series)
    @settings(max_examples=20)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestReciprocal:
    def test_reciprocal_of_unit(self):
        assert unit_series().reciprocal() == unit_series()

    def test_defining_property(self):
        em1 = Series.deg_exp(1, 8) - unit_series(8)
        a = unit_series(8) - X * em1
        assert a * a.reciprocal() == unit_series(8)
        assert a.reciprocal() * a == unit_series(8)

    def test_first_fubini_coefficient(self):
        em1 = Series.deg_exp(1, 6) - unit_series(6)
        gf = (unit_series(6) - X * em1).reciprocal()
        assert gf.coeff(1) == X

    def test_non_unit_constant_term_rejected(self):
        with pytest.raises(NotInvertibleError):
            Series([2, 1, 1]).reciprocal()
        with pytest.raises(NotInvertibleError):
            Series([X, 1, 1]).reciprocal()


class TestPowers:
    def test_int_pow_trivial(self):
        a = Series.deg_exp(X, 5)
        assert a.int_pow(0) == unit_series(5)
        assert a.int_pow(1) == a

    def test_squared_deg_exp_linear_coefficient(self):
        # (e_l)^2 = e_l^2, whose n=1 EGF coefficient is (2)_{1,l} = 2
        sq = Series.deg_exp(1, 4).int_pow(2)
        assert sq.coeff(1) == Poly.const(2)
        assert sq == Series.deg_exp(2, 4)

    def test_pow_over_factorial_base_cases(self):
        em1 = Series.deg_exp(1, 6) - unit_series(6)
        assert em1.pow_over_factorial(0) == unit_series(6)
        assert em1.pow_over_factorial(1).coeff(2) == ONE - LAM

    def test_pow_over_factorial_is_stirling_gf(self):
        em1 = Series.deg_exp(1, 6) - unit_series(6)
        assert em1.pow_over_factorial(2).coeff(2) == ONE
        # coefficients below k vanish
        assert em1.pow_over_factorial(3).coeff(2).is_zero()

    def test_pow_over_factorial_needs_zero_constant_term(self):
        with pytest.raises(ValuationError):
            Series.deg_exp(1, 4).pow_over_factorial(2)


class TestDegExp:
    def test_unit_exponent_coefficients(self):
        s = Series.deg_exp(1, 4)
        assert s.coeff(0) == ONE
        assert s.coeff(1) == ONE
        assert s.coeff(2) == ONE - LAM
        assert s.coeff(3) == 1 - 3 * LAM + 2 * LAM**2

    def test_zero_exponent_is_unit(self):
        assert Series.deg_exp(0, 6) == unit_series(6)

    def test_symbolic_exponent(self):
        s = Series.deg_exp(X, 4)
        assert s.coeff(2) == X * (X - LAM)

    def test_addition_law_symbolic(self):
        # e_l^x e_l^y = e_l^(x+y) coefficientwise
        n = 6
        assert Series.deg_exp(X, n) * Series.deg_exp(Y, n) == Series.deg_exp(X + Y, n)

    def test_classical_limit(self):
        s = Series.deg_exp(X, 6)
        for n in range(7):
            assert s.coeff(n).eval({Var.LAMBDA: 0}) == X**n

    def test_coefficient_bounds(self):
        s = Series.deg_exp(1, 3)
        with pytest.raises(IndexError):
            s.coeff(4)
        with pytest.raises(IndexError):
            s.coeff(-1)


class TestComposedExponentials:
    def test_deg_exp_of_rejects_nonzero_constant(self):
        with pytest.raises(ValuationError):
            deg_exp_of(unit_series())

    def test_exp_of_classical_bell_numbers(self):
        # e^(e^s - 1) generates the Bell numbers
        em1_classical = Series([Poly.const(int(n > 0)) for n in range(9)])
        gf = exp_of(em1_classical)
        values = [gf.coeff(n).const_value() for n in range(9)]
        assert values == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestSplitting:
    def test_corner_entries(self):
        left, right = exp_splitting_sides(2, 2)
        assert left.entry(0, 0) == ONE
        assert right.entry(0, 0) == ONE
        assert left.entry(1, 0) == ONE
        assert right.entry(1, 0) == ONE

    def test_hand_entries(self):
        # left (j, k) is (1)_{j+k,l}; right (2, 1) is
        # (1)_{1,l} [(1)_{2,l} + 2 (-1) l (1)_{1,l} + (-1)(-2) l^2] = 1 - 3l + 2l^2
        left, right = exp_splitting_sides(2, 2)
        assert left.entry(1, 1) == right.entry(1, 1) == ONE - LAM
        assert left.entry(2, 1) == right.entry(2, 1) == 1 - 3 * LAM + 2 * LAM**2
        assert left.entry(0, 2) == right.entry(0, 2) == ONE - LAM

    def test_full_grids_equal(self):
        left, right = exp_splitting_sides(6, 6)
        assert left == right

    def test_classical_limit_grid(self):
        # at l = 0 both sides are e^(u+v), all EGF entries 1
        left, right = exp_splitting_sides(4, 4)
        for j in range(5):
            for k in range(5):
                assert left.entry(j, k).eval({Var.LAMBDA: 0}) == ONE
                assert right.entry(j, k).eval({Var.LAMBDA: 0}) == ONE


class TestSerialization:
    def test_round_trip(self):
        s = Series.deg_exp(X, 4)
        data = s.to_json()
        assert data["order"] == 4
        assert Series.from_json(data) == s

    def test_from_json_validates_length(self):
        with pytest.raises(ValueError):
            Series.from_json({"order": 3, "egf_coeffs": [[]]})
