"""Polynomial ring: arithmetic, canonical form, evaluation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbell.algebra import (
    LAM,
    MAX_DEGREE,
    ONE,
    Poly,
    T,
    Var,
    X,
    Y,
    ZERO,
    as_scalar,
    parse_rational,
)
from oracles import (
    assert_stored_form,
    coefficient_of,
    const_value,
    eval_term_by_term,
    is_const,
    poly_from_json,
    poly_str,
)
from strategies import full_bindings, polys, rationals


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

    def test_constant_hashes_as_its_scalar(self):
        # equal objects must hash alike, so a constant and its scalar are one key
        for scalar in (0, 1, 3, -7, 2**100, Fraction(1, 2), Fraction(-5, 3)):
            const = Poly.const(scalar)
            assert const == scalar and hash(const) == hash(scalar)
            assert len({const, scalar}) == 1
            assert {const: "v"}.get(scalar) == "v" and {scalar: "v"}.get(const) == "v"
        assert len({ONE, 1}) == len({ZERO, 0}) == len({ZERO, Fraction(0)}) == 1
        assert {Poly.const(3): "v"}.get(3) == "v"
        assert hash(Poly.const(Fraction(4, 2))) == hash(2)
        assert len({X, ONE, 1, ZERO, 0}) == 3

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
    # a one-term Fraction base, at the zeroth power and above it: the two
    # branches of `**` that a drawn example reaches only by chance
    @example(Fraction(3, 2) * X * Y, T - 1, {v: Fraction(1, 2) for v in Var}, 0, Fraction(2, 3))
    @example(Fraction(-1, 3) * LAM, X, {v: Fraction(-2, 5) for v in Var}, 3, 2)
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
            poly_from_json(a.to_json()),
        ]
        for p in results:
            assert_stored_form(p)

    def test_integral_fraction_is_stored_as_int(self):
        m = (1, 0, 2, 0)
        as_fraction, as_int = Poly({m: Fraction(6, 2)}), Poly({m: 3})
        assert type(dict(as_fraction.terms())[m]) is int
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
        assert type(const_value(ZERO)) is int and const_value(ZERO) == 0
        assert type(const_value(Poly.const(Fraction(4, 2)))) is int
        assert const_value(Poly.const("2/3")) == Fraction(2, 3)

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
            poly_from_json([{"m": {}, "c": text}])

    def test_const_refuses_float(self):
        with pytest.raises(TypeError):
            Poly.const(0.1)
        with pytest.raises(TypeError):
            Poly({(0, 1, 0, 0): 0.5})
        with pytest.raises(TypeError):
            X.eval({Var.X: 0.5})


def naive_product(a, b):
    """a*b term pair by term pair, canonicalised by Poly's own intake."""
    out = {}
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return Poly(out)


def naive_sum_of_products(products):
    """The reference for the fused kernel: total = total + c*p*q, one term at a time."""
    total = ZERO
    for factors in products:
        term = ONE
        for f in factors:
            term = term * f
        total = total + term
    return total


factor = st.one_of(polys(max_terms=3), rationals, st.integers(min_value=-2, max_value=2))


class TestMonomialIntake:
    @pytest.mark.parametrize("mono", [(0, -1, 0, 0), (0, 1.5, 0, 0), (1, 0, 0), (0, 0, 0, 0, 1), (True, 0, 0, 0)])
    def test_malformed_monomial_is_refused(self, mono):
        with pytest.raises(ValueError):
            Poly({mono: 1})
        with pytest.raises(ValueError):
            Poly({mono: 0})  # also when its coefficient is zero

    def test_negative_exponent_from_json_is_refused(self):
        with pytest.raises(ValueError):
            poly_from_json([{"m": {"x": -2}, "c": "3"}])

    def test_degree_up_to_the_cap_is_exact(self):
        assert dict((X**MAX_DEGREE).terms()) == {(0, MAX_DEGREE, 0, 0): 1}
        assert (X**MAX_DEGREE).degree_in(Var.X) == MAX_DEGREE
        p = LAM ** (MAX_DEGREE - 1) * T
        assert dict(p.terms()) == {(MAX_DEGREE - 1, 0, 0, 1): 1}
        assert Poly({(0, 0, MAX_DEGREE, 0): 2}) == 2 * Y**MAX_DEGREE
        assert str(Y**MAX_DEGREE * 3) == f"3*y^{MAX_DEGREE}"

    def test_power_past_the_cap_overflows(self):
        with pytest.raises(OverflowError):
            X ** (MAX_DEGREE + 1)
        with pytest.raises(OverflowError):
            (Fraction(1, 2) * T ** (MAX_DEGREE // 2 + 1)) ** 2
        with pytest.raises(OverflowError):
            Poly({(0, 0, MAX_DEGREE, 1): 1})

    def test_product_crossing_the_cap_overflows(self):
        top = LAM ** (MAX_DEGREE - 1) * X
        with pytest.raises(OverflowError):
            top * T  # a shift of keys
        with pytest.raises(OverflowError):
            (top + 1) * (Y - 1)  # the general product
        with pytest.raises(OverflowError):
            Poly.sum_of_products([(X, Y)] * 2 + [(3, top, T + 1)])
        with pytest.raises(OverflowError):
            (Y ** (MAX_DEGREE // 2) + 1) ** 3  # repeated squaring


class TestMulFastPath:
    @given(p=polys(max_terms=6, max_exp=3), one_term=polys(max_terms=1, max_exp=3), d=rationals)
    @settings(max_examples=100)
    def test_one_term_operand(self, p, one_term, d):
        for short in (one_term, Poly.const(d), d):
            product = p * short
            assert_stored_form(product)
            assert product._terms == (short * p)._terms
            assert product == naive_product(p, short if isinstance(short, Poly) else Poly.const(short))

    @given(a=polys(max_terms=5), b=polys(max_terms=5))
    @settings(max_examples=60)
    def test_general_product(self, a, b):
        assert_stored_form(a * b)
        assert (a * b)._terms == (b * a)._terms == naive_product(a, b)._terms

    def test_scaling_back_to_an_integer(self):
        half_x = Fraction(1, 2) * X
        for product in (half_x * 2, 2 * half_x, half_x * Poly.const(2)):
            assert dict(product.terms()) == {(0, 1, 0, 0): 1}
            assert type(dict(product.terms())[(0, 1, 0, 0)]) is int
        shifted = (Fraction(2, 3) * X * Y) * (Fraction(3, 2) * LAM + 3 * T)
        assert dict(shifted.terms()) == {(1, 1, 1, 0): 1, (0, 1, 1, 1): 2}
        assert_stored_form(shifted)


class TestPowFastPath:
    def test_zeroth_power_is_one_with_an_int_coefficient(self):
        p = (Fraction(3, 2) * X) ** 0
        assert p == ONE
        assert dict(p.terms()) == {(0, 0, 0, 0): 1}
        assert type(dict(p.terms())[(0, 0, 0, 0)]) is int

    @given(
        one_term=polys(max_terms=1, max_exp=3).filter(lambda p: not p.is_zero()),
        c=st.one_of(st.integers(min_value=-5, max_value=5).filter(bool), rationals.filter(bool)),
        e=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100)
    def test_equals_the_repeated_product(self, one_term, c, e):
        base = one_term * c  # an int or Fraction coefficient
        power = base**e
        assert_stored_form(power)
        expected = ONE
        for _ in range(e):
            expected = naive_product(expected, base)
        assert power._terms == expected._terms


class TestSumOfProducts:
    @given(products=st.lists(st.lists(factor, max_size=5), max_size=6))
    @settings(max_examples=200)
    def test_equals_the_naive_loop(self, products):
        fused = Poly.sum_of_products(tuple(f) for f in products)  # any iterable
        assert_stored_form(fused)
        assert fused._terms == naive_sum_of_products(products)._terms

    def test_empty_iterable(self):
        assert Poly.sum_of_products([]).is_zero()
        assert Poly.sum_of_products([()]) == ONE  # the empty product

    def test_scalar_only_tuples(self):
        out = Poly.sum_of_products([(2, Fraction(1, 2)), (3,), (Fraction(1, 3), 0)])
        assert dict(out.terms()) == {(0, 0, 0, 0): 4}
        assert type(const_value(out)) is int

    def test_zero_factors(self):
        assert Poly.sum_of_products([(0, X), (X, ZERO, Y), (ZERO,), (X, Y, T, ZERO)]).is_zero()

    def test_three_or_more_poly_factors(self):
        products = [(X + 1, Y - LAM, T, 2), (LAM, X, X, Y - 1, Fraction(1, 3))]
        assert Poly.sum_of_products(products) == naive_sum_of_products(products)

    def test_fractions_cancel_to_stored_form(self):
        products = [
            (Fraction(1, 2), X),
            (X, Fraction(1, 2)),
            (Fraction(1, 3), Y, 3),
            (Fraction(1, 2), LAM, T + 1),
            (Fraction(-1, 2), T + 1, LAM),
        ]
        out = Poly.sum_of_products(products)
        assert dict(out.terms()) == {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1}
        assert_stored_form(out)

    def test_refuses_inexact_factor(self):
        with pytest.raises(TypeError):
            Poly.sum_of_products([(X, 0.5)])


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
        assert is_const(out)
        assert const_value(out) == 0

    @given(a=polys(), b=polys(), bindings=full_bindings())
    @settings(max_examples=60)
    def test_eval_is_ring_homomorphism(self, a, b, bindings):
        assert (a * b).eval(bindings) == a.eval(bindings) * b.eval(bindings)
        assert (a + b).eval(bindings) == a.eval(bindings) + b.eval(bindings)


# values a binding draws from: 0 (a term filter), ints and Fractions
binding_values = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4), rationals)


class TestEvalOracle:
    @given(data=st.data())
    @settings(max_examples=100)
    def test_equals_term_by_term(self, data):
        bindings = data.draw(st.dictionaries(st.sampled_from(Var), binding_values, max_size=4))
        # half the time only bound variables occur, so the value is a constant
        variables = data.draw(st.sampled_from((tuple(Var), tuple(bindings))))
        p = data.draw(polys(max_terms=6, max_exp=3, variables=variables))
        out = p.eval(bindings)
        assert out == eval_term_by_term(p, bindings)
        assert_stored_form(out)

    def test_every_variable_bound_two_of_them_to_zero(self):
        p = X**2 * Y - Fraction(2, 3) * LAM * T + 5 * X * T**2 - 7
        bindings = {Var.LAMBDA: 0, Var.X: Fraction(1, 2), Var.Y: -3, Var.T: 0}
        assert p.eval(bindings) == eval_term_by_term(p, bindings) == Fraction(-31, 4)


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
        inner[Var.X] = const_value(q.eval(bindings))
        assert lhs == p.eval(inner)


class TestInspection:
    def test_coefficient_of(self):
        p = (ONE - LAM) * X + 2 * X**2 + Y
        assert coefficient_of(p, Var.X, 1) == ONE - LAM
        assert coefficient_of(p, Var.X, 2) == Poly.const(2)
        assert coefficient_of(p, Var.X, 0) == Y

    def test_degrees(self):
        p = LAM**2 * X - T
        assert p.degree_in(Var.LAMBDA) == 2
        assert p.degree_in(Var.Y) == 0
        assert max(sum(mono) for mono, _ in p.terms()) == 3  # total degree
        assert ZERO.degree_in(Var.X) == -1

    def test_variables(self):
        assert (LAM * X - T).variables() == {Var.LAMBDA, Var.X, Var.T}

    def test_const_value_raises_on_nonconstant(self):
        with pytest.raises(ValueError):
            const_value(X)


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

    @given(p=polys(max_terms=8, max_exp=12))
    @settings(max_examples=200)
    def test_equals_term_by_term_reference(self, p):
        # constants, unit and Fraction coefficients, multi-digit exponents
        assert str(p) == poly_str(p)

    @given(p=polys(max_terms=8, max_exp=3))
    @settings(max_examples=60)
    def test_terms_in_canonical_order(self, p):
        # total degree first, then the exponent vector descending, l heaviest
        monos = [mono for mono, _ in p.terms()]
        assert monos == sorted(monos, key=lambda m: (sum(m), *(-e for e in m)))


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
        assert poly_from_json(p.to_json()) == p

    def test_rational_coefficients_exact(self):
        p = Poly.const(Fraction(-7, 3))
        assert p.to_json() == [{"m": {}, "c": "-7/3"}]
        assert poly_from_json(p.to_json()) == p


class TestParseRational:
    @pytest.mark.parametrize("text,value", [("3", 3), ("-2", -2), ("1/2", Fraction(1, 2)), ("-7/3", Fraction(-7, 3))])
    def test_valid(self, text, value):
        assert parse_rational(text) == Fraction(value)

    @pytest.mark.parametrize("text", ["0.5", "1e3", "x", "1/0", ""])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
