"""EGF series engine: products, reciprocals, degenerate exponentials, splitting."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbell.algebra import LAM, ONE, ZERO, Poly, Var, X, Y
from degenbell.series import (
    NotInvertibleError,
    Series,
    ValuationError,
    deg_exp_of,
    exp_of,
    exp_splitting_sides,
)
from oracles import const_value, pow_over_factorial, product_plain, series_from_json
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


class TestSquare:
    @given(a=small_series)
    @settings(max_examples=40)
    @example(Series([Fraction(1, 2), Fraction(-2, 3) * X, LAM + Fraction(3, 4), Y]))
    def test_square_equals_general_product(self, a):
        # a * a takes the square path, a * (a copy) the general convolution
        assert a * a == a * Series(a.coeffs)

    def test_square_of_unit_plus_s(self):
        # (1 + s)^2 = 1 + 2 s + s^2, EGF coefficients 1, 2, 2
        a = Series([1, 1, 0, 0])
        assert (a * a).coeffs == (ONE, Poly.const(2), Poly.const(2), ZERO)


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

    @given(a=small_series, e=st.integers(min_value=0, max_value=6))
    @settings(max_examples=30)
    def test_int_pow_equals_repeated_product(self, a, e):
        product = unit_series(a.order)
        for _ in range(e):
            product = product * a
        assert a.int_pow(e) == product

    @given(
        coeffs=st.lists(polys(max_terms=2, max_exp=1), min_size=1, max_size=5),
        e=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_of_power_is_power_of_reciprocal(self, coeffs, e):
        # (f^e)^-1 = (f^-1)^e for f with constant term 1
        f = Series([ONE, *coeffs])
        assert f.int_pow(e).reciprocal() == f.reciprocal().int_pow(e)

    def test_huge_power_takes_logarithmically_many_products(self, monkeypatch):
        e, calls, mul = 10**20, [], Series.__mul__

        def counting_mul(self, other):
            calls.append(other is self)
            if len(calls) > 2 * e.bit_length():  # stop a linear loop instead of hanging
                raise AssertionError(f"more than {2 * e.bit_length()} series products")
            return mul(self, other)

        monkeypatch.setattr(Series, "__mul__", counting_mul)
        # (1 + x s)^e has EGF coefficients 1, e x, e (e - 1) x^2
        assert Series([1, X, 0]).int_pow(e).coeffs == (ONE, e * X, e * (e - 1) * X**2)
        assert len(calls) <= 2 * 67 and e.bit_length() == 67
        assert calls.count(True) == 66  # one square per bit below the top one

    def test_pow_over_factorial_base_cases(self):
        em1 = Series.deg_exp(1, 6) - unit_series(6)
        assert pow_over_factorial(em1, 0) == unit_series(6)
        assert pow_over_factorial(em1, 1).coeff(2) == ONE - LAM

    def test_pow_over_factorial_is_stirling_gf(self):
        em1 = Series.deg_exp(1, 6) - unit_series(6)
        assert pow_over_factorial(em1, 2).coeff(2) == ONE
        # coefficients below k vanish
        assert pow_over_factorial(em1, 3).coeff(2).is_zero()

    def test_pow_over_factorial_needs_zero_constant_term(self):
        with pytest.raises(ValuationError):
            pow_over_factorial(Series.deg_exp(1, 4), 2)


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

    def test_coefficients_are_the_plain_products(self):
        for w in (1, Y, X + Y):
            expected = tuple(product_plain(w, n, -LAM) for n in range(13))
            assert Series.deg_exp(w, 12).coeffs == expected

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
        values = [const_value(gf.coeff(n)) for n in range(9)]
        assert values == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestSplitting:
    def test_corner_entries(self):
        assert exp_splitting_sides(0, 0) == (ONE, ONE)
        assert exp_splitting_sides(1, 0) == (ONE, ONE)

    def test_hand_entries(self):
        # left (j, k) is (1)_{j+k,l}; right (2, 1) is
        # (1)_{1,l} [(1)_{2,l} + 2 (-1) l (1)_{1,l} + (-1)(-2) l^2] = 1 - 3l + 2l^2
        assert exp_splitting_sides(1, 1) == (ONE - LAM, ONE - LAM)
        assert exp_splitting_sides(2, 1) == (1 - 3 * LAM + 2 * LAM**2,) * 2
        assert exp_splitting_sides(0, 2) == (ONE - LAM, ONE - LAM)

    def test_full_grids_equal(self):
        for j in range(7):
            for k in range(7):
                left, right = exp_splitting_sides(j, k)
                assert left == right, (j, k)

    def test_classical_limit_grid(self):
        # at l = 0 both sides are e^(u+v), all EGF entries 1
        for j in range(5):
            for k in range(5):
                for side in exp_splitting_sides(j, k):
                    assert side.eval({Var.LAMBDA: 0}) == ONE


class TestSerialization:
    def test_round_trip(self):
        s = Series.deg_exp(X, 4)
        data = s.to_json()
        assert data["order"] == 4
        assert series_from_json(data) == s

    def test_from_json_validates_length(self):
        with pytest.raises(ValueError):
            series_from_json({"order": 3, "egf_coeffs": [[]]})
