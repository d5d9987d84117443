"""Classical oracle families: frozen small values, standard recurrences."""

from math import factorial

from degenbell import classical
from degenbell.algebra import Poly, Var, X


def test_stirling_triangle():
    rows = [[classical.stirling2(n, k) for k in range(n + 1)] for n in range(5)]
    assert rows == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1]]
    assert classical.stirling2(3, 5) == 0
    assert classical.stirling2(5, -1) == 0


def test_stirling_row_past_recursion_limit(monkeypatch):
    # S(n, 2) = 2^(n-1) - 1; row 1200 is built from a cold memo
    monkeypatch.setattr(classical, "_STIRLING_ROWS", [(1,)])
    assert classical.stirling2(1200, 2) == 2**1199 - 1


def test_bell_numbers():
    assert [classical.bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_bell_numbers_are_row_sums():
    for n in range(10):
        assert classical.bell_number(n) == sum(
            classical.stirling2(n, k) for k in range(n + 1)
        )


def test_ordered_bell_past_recursion_limit(monkeypatch):
    # a(n) = sum_k k! S(n, k); a(400) is built from a cold memo (about 0.3 s)
    monkeypatch.setattr(classical, "_ORDERED_BELL", [1])
    expected = sum(factorial(k) * classical.stirling2(400, k) for k in range(401))
    assert classical.ordered_bell_number(400) == expected


def test_ordered_bell_numbers():
    assert [classical.ordered_bell_number(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_bell_poly():
    assert classical.bell_poly(3) == X + 3 * X**2 + X**3
    assert classical.bell_poly(0) == Poly.one()


def test_fubini_poly_at_one_is_ordered_bell():
    for n in range(9):
        value = classical.fubini_poly(n).eval({Var.X: 1}).const_value()
        assert value == classical.ordered_bell_number(n)


def test_rising_factorial_int():
    assert classical.rising_factorial_int(1, 4) == 24
    assert classical.rising_factorial_int(2, 3) == 24
    assert classical.rising_factorial_int(5, 0) == 1
    assert classical.rising_factorial_int(0, 3) == 0


def test_two_var_fubini_reductions():
    y = Poly.variable(Var.Y)
    # alpha = 0 leaves only the exponential factor
    assert classical.two_var_fubini_poly(3, 0) == y**3
    # y = 0, alpha = 1 recovers the ordinary Fubini polynomial
    for n in range(7):
        reduced = classical.two_var_fubini_poly(n, 1).eval({Var.Y: 0})
        assert reduced == classical.fubini_poly(n)
