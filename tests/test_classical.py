"""Classical oracle families: frozen small values, standard recurrences."""

import inspect
import sys
from math import factorial

import pytest

from degenbell import classical
from degenbell.algebra import ONE, Poly, T, Var, X, Y, _kept
from degenbell.series import Series
from oracles import const_value
from test_sequences import _read_in_racing_threads


def test_stirling_triangle():
    rows = [[classical.stirling2(n, k) for k in range(n + 1)] for n in range(5)]
    assert rows == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1]]
    assert classical.stirling2(3, 5) == 0
    assert classical.stirling2(5, -1) == 0


@pytest.fixture
def cold_stirling_rows():
    """The kept Stirling rows back at row 0 for one test, and dropped after it:
    rows up to 1200 hold about 335 MiB."""
    rows = _kept("stirling-rows")
    rows.clear()
    yield rows
    rows.clear()


def test_stirling_row_past_recursion_limit(cold_stirling_rows):
    # S(n, 2) = 2^(n-1) - 1; row 1200 is built from cold rows
    assert classical.stirling2(1200, 2) == 2**1199 - 1


def test_bell_numbers():
    assert [classical.bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_bell_number_negative_n_rejected():
    classical.bell_number(6)  # not a read of the kept numbers from their end
    for n in (-1, -3):
        with pytest.raises(ValueError):
            classical.bell_number(n)


def test_bell_numbers_are_row_sums():
    for n in range(10):
        assert classical.bell_number(n) == sum(
            classical.stirling2(n, k) for k in range(n + 1)
        )


def test_ordered_bell_past_recursion_limit():
    # a(n) = sum_k k! S(n, k); a(400) is built in a loop (about 0.3 s), so
    # it needs no deep stack
    expected = sum(factorial(k) * classical.stirling2(400, k) for k in range(401))
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        value = classical.ordered_bell_number(400)
    finally:
        sys.setrecursionlimit(limit)
    assert value == expected


def test_memos_under_racing_threads(cold_stirling_rows):
    n = 199
    _read_in_racing_threads(lambda j: classical.stirling2(j, 1), n)
    # a row lost, doubled or written at the wrong index would show here
    raced = dict(cold_stirling_rows)
    assert list(raced) == list(range(n + 1))
    cold_stirling_rows.clear()
    classical.stirling2(n, 0)  # the same rows, stepped up in one thread
    assert raced == cold_stirling_rows


def test_ordered_bell_numbers():
    assert [classical.ordered_bell_number(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_ordered_bell_negative_n_rejected():
    # not a read of a list from its end
    for n in (-1, -3):
        with pytest.raises(ValueError):
            classical.ordered_bell_number(n)


@pytest.mark.parametrize(
    "build",
    [
        lambda: classical.bell_poly(-1),
        lambda: classical.fubini_poly(-2),
        lambda: classical.fubini_poly(-1, X, 3),
        lambda: classical.two_var_fubini_poly(-1, 1),
    ],
    ids=["bell_poly", "fubini_poly", "fubini_poly-alpha", "two_var_fubini_poly"],
)
def test_polynomial_oracles_reject_negative_n(build):
    # as bell_number and every degenerate builder do, rather than returning 0
    classical.stirling2(6, 2)  # not a read of the kept rows from their end
    with pytest.raises(ValueError, match="n must be nonnegative"):
        build()
    assert classical.stirling2(-1, 0) == 0  # outside the triangle, as documented


def test_bell_poly():
    assert classical.bell_poly(3) == X + 3 * X**2 + X**3
    assert classical.bell_poly(0) == ONE


def test_bell_poly_at_one_is_bell_number():
    for n in range(31):
        assert classical.bell_poly(n, ONE) == Poly.const(classical.bell_number(n))


def test_fubini_poly_at_one_is_ordered_bell():
    for n in range(9):
        value = const_value(classical.fubini_poly(n).eval({Var.X: 1}))
        assert value == classical.ordered_bell_number(n)


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("x", [X, T], ids=["x", "t"])
def test_fubini_poly_of_order_alpha_gf(x, alpha):
    # EGF coefficient n of (1 - x(e^s - 1))^(-alpha), by the series route at l = 0
    order = 8
    unit = Series.unit(order)
    gf = (unit - x * (Series.deg_exp(1, order) - unit)).int_pow(alpha).reciprocal()
    for n in range(order + 1):
        assert classical.fubini_poly(n, x, alpha) == gf.coeff(n).eval({Var.LAMBDA: 0})


def test_rising_factorial_int():
    assert classical.rising_factorial_int(1, 4) == 24
    assert classical.rising_factorial_int(2, 3) == 24
    assert classical.rising_factorial_int(5, 0) == 1
    assert classical.rising_factorial_int(0, 3) == 0


def test_two_var_fubini_reductions():
    # alpha = 0 leaves only the exponential factor
    assert classical.two_var_fubini_poly(3, 0) == Y**3
    # y = 0, alpha = 1 recovers the ordinary Fubini polynomial
    for n in range(7):
        reduced = classical.two_var_fubini_poly(n, 1).eval({Var.Y: 0})
        assert reduced == classical.fubini_poly(n)
