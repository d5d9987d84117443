"""Polynomial ring: arithmetic, canonical form, evaluation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell.algebra import LAM, ONE, Poly, T, Var, X, Y, ZERO, as_scalar, parse_rational
from strategies import full_bindings, polys, rationals


def assert_stored_form(p):
    # every coefficient is a nonzero int, or a Fraction that is not integral
    for c in p._terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


class TestArithmetic:
    def test_additive_inverse(self):
        assert X + (-X) == ZERO
        assert (X + (-X)).is_zero()

    def test_cancellation(self):
        assert (ONE - LAM) + LAM == ONE

    def test_mixed_sum(self):
        # (x^2 - l*x) + (l*x) collapses to x^2
        assert (X * X - LAM * X) + LAM * X == X**2

    def test_two_term_product(self):
        assert X * (X - LAM) == X**2 - LAM * X

    def test_square_of_sum(self):
        expected = X**2 + 2 * X * Y + Y**2 - LAM * X - LAM * Y
        assert (X + Y) * (X + Y - LAM) == expected

    def test_multiplicative_identity(self):
        p = 3 * X**2 - Fraction(1, 2) * Y * T + 7
        assert p * ONE == p
        assert ONE * p == p

    def test_scalar_promotion(self):
        assert 2 + X == Poly({(0, 0, 0, 0): 2, (0, 1, 0, 0): 1})
        assert X - 1 == X + (-1)
        assert Fraction(1, 2) * X * 2 == X

    def test_pow(self):
        assert (X + 1) ** 0 == ONE
        assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
        with pytest.raises(ValueError):
            X ** (-1)

    def test_truediv_scalar(self):
        assert (2 * X) / 4 == Fraction(1, 2) * X

    @given(a=polys(), b=polys(), c=polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(p=polys())
    @settings(max_examples=40)
    def test_canonicalization_idempotent(self, p):
        rebuilt = Poly(dict(p.terms()))
        assert rebuilt == p
        assert list(rebuilt.terms()) == list(p.terms())


class TestCoefficientDomain:
    @given(
        a=polys(),
        b=polys(),
        bindings=full_bindings(),
        e=st.integers(min_value=0, max_value=3),
        d=rationals.filter(bool),
    )
    @settings(max_examples=60)
    def test_stored_form_after_every_operation(self, a, b, bindings, e, d):
        results = [
            a,
            a + b,
            a - b,
            a * b,
            -a,
            a**e,
            a / d,
            a * d,
            a + d,
            a.eval({Var.X: bindings[Var.X]}),
            a.eval(bindings),
            a.substitute(Var.X, b),
            Poly.from_json(a.to_json()),
        ]
        for p in results:
            assert_stored_form(p)

    def test_integral_fraction_is_stored_as_int(self):
        m = (1, 0, 2, 0)
        as_fraction, as_int = Poly({m: Fraction(6, 2)}), Poly({m: 3})
        assert type(as_fraction._terms[m]) is int
        assert as_fraction == as_int
        assert hash(as_fraction) == hash(as_int)
        assert str(as_fraction) == str(as_int) == "3*l*y^2"
        assert as_fraction.to_json() == as_int.to_json()

    def test_division_back_to_integers(self):
        p = (3 * X - LAM) / 2 * 2
        assert_stored_form(p)
        assert all(type(c) is int for c in p._terms.values())
        assert (3 * X) / 4 == Fraction(3, 4) * X

    def test_const_value_types(self):
        assert type(ZERO.const_value()) is int and ZERO.const_value() == 0
        assert type(Poly.const(Fraction(4, 2)).const_value()) is int
        assert Poly.const("2/3").const_value() == Fraction(2, 3)

    @pytest.mark.parametrize(
        "value,expected",
        [(3, 3), (Fraction(8, 4), 2), (Fraction(1, 3), Fraction(1, 3)), ("-5/10", Fraction(-1, 2))],
    )
    def test_as_scalar_accepts_exact_values(self, value, expected):
        out = as_scalar(value)
        assert out == expected
        assert type(out) is type(expected)

    @pytest.mark.parametrize("value", [0.1, 2.0, None, X])
    def test_as_scalar_refuses_inexact_values(self, value):
        with pytest.raises(TypeError):
            as_scalar(value)

    @pytest.mark.parametrize("text", ["1e-3", "0.5", "1/0"])
    def test_from_json_refuses_inexact_text(self, text):
        with pytest.raises(ValueError):
            Poly.from_json([{"m": {}, "c": text}])

    def test_const_refuses_float(self):
        with pytest.raises(TypeError):
            Poly.const(0.1)
        with pytest.raises(TypeError):
            Poly({(0, 1, 0, 0): 0.5})
        with pytest.raises(TypeError):
            X.eval({Var.X: 0.5})


class TestEval:
    def test_lambda_to_zero_is_substitution(self):
        assert (X**2 - LAM * X).eval({Var.LAMBDA: 0}) == X**2

    def test_partial_binding(self):
        p = (ONE - LAM) * (X + X**2)
        assert p.eval({Var.X: 1}) == 2 * (ONE - LAM)

    def test_empty_binding(self):
        p = X * Y - T
        assert p.eval({}) == p

    def test_full_binding_gives_constant(self):
        p = X * Y + LAM
        out = p.eval({Var.X: 2, Var.Y: Fraction(1, 2), Var.LAMBDA: -1})
        assert out.is_const()
        assert out.const_value() == 0

    @given(a=polys(), b=polys(), bindings=full_bindings())
    @settings(max_examples=60)
    def test_eval_is_ring_homomorphism(self, a, b, bindings):
        assert (a * b).eval(bindings) == a.eval(bindings) * b.eval(bindings)
        assert (a + b).eval(bindings) == a.eval(bindings) + b.eval(bindings)


class TestSubstitute:
    def test_linear(self):
        assert (X + Y).substitute(Var.X, -LAM * T) == -LAM * T + Y

    def test_binomial_square(self):
        assert (X**2).substitute(Var.X, ONE + LAM) == 1 + 2 * LAM + LAM**2

    def test_absent_variable(self):
        p = Y**2 - 3 * Y
        assert p.substitute(Var.X, LAM * T + 5) == p

    @given(p=polys(), q=polys(max_terms=2, max_exp=1), bindings=full_bindings())
    @settings(max_examples=40)
    def test_substitute_commutes_with_eval(self, p, q, bindings):
        lhs = p.substitute(Var.X, q).eval(bindings)
        inner = dict(bindings)
        inner[Var.X] = q.eval(bindings).const_value()
        assert lhs == p.eval(inner)


class TestInspection:
    def test_coefficient_of(self):
        p = (ONE - LAM) * X + 2 * X**2 + Y
        assert p.coefficient_of(Var.X, 1) == ONE - LAM
        assert p.coefficient_of(Var.X, 2) == Poly.const(2)
        assert p.coefficient_of(Var.X, 0) == Y

    def test_degrees(self):
        p = LAM**2 * X - T
        assert p.degree_in(Var.LAMBDA) == 2
        assert p.degree_in(Var.Y) == 0
        assert p.total_degree() == 3
        assert ZERO.degree_in(Var.X) == -1

    def test_variables(self):
        assert (LAM * X - T).variables() == {Var.LAMBDA, Var.X, Var.T}

    def test_const_value_raises_on_nonconstant(self):
        with pytest.raises(ValueError):
            X.const_value()


class TestRendering:
    def test_canonical_string(self):
        assert str(ONE - 3 * LAM + 2 * LAM**2) == "1 - 3*l + 2*l^2"
        assert str(2 * ONE - 2 * LAM) == "2 - 2*l"
        assert str(ZERO) == "0"
        assert str(-X) == "-x"
        assert str(Fraction(1, 2) * X * Y**2) == "1/2*x*y^2"

    def test_term_order_graded(self):
        # ascending total degree, lambda-heaviest within a degree
        p = X**2 + LAM * X + X + 1
        assert str(p) == "1 + x + l*x + x^2"


class TestSerialization:
    def test_json_shape(self):
        p = (ONE - LAM) * X
        assert p.to_json() == [
            {"m": {"x": 1}, "c": "1"},
            {"m": {"l": 1, "x": 1}, "c": "-1"},
        ]

    def test_zero_exponents_omitted(self):
        for term in (X * Y - 2).to_json():
            assert 0 not in term["m"].values()

    @given(p=polys(max_terms=6, max_exp=3))
    @settings(max_examples=60)
    def test_round_trip(self, p):
        assert Poly.from_json(p.to_json()) == p

    def test_rational_coefficients_exact(self):
        p = Poly.const(Fraction(-7, 3))
        assert p.to_json() == [{"m": {}, "c": "-7/3"}]
        assert Poly.from_json(p.to_json()) == p


class TestParseRational:
    @pytest.mark.parametrize("text,value", [("3", 3), ("-2", -2), ("1/2", Fraction(1, 2)), ("-7/3", Fraction(-7, 3))])
    def test_valid(self, text, value):
        assert parse_rational(text) == Fraction(value)

    @pytest.mark.parametrize("text", ["0.5", "1e3", "x", "1/0", ""])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
