"""Classical Stirling / Bell / Fubini families as independent oracles.

Everything here is computed from textbook integer recurrences with no
reference to the degenerate machinery, so these values can be used to
check the l -> 0 specialization of every degenerate family.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial

from .algebra import Poly, X, Y


_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row n of S(n, k); memoized rows are extended in a loop, never by recursion."""
    rows = _STIRLING_ROWS
    while len(rows) <= n:
        prev, m = rows[-1], len(rows)
        # S(m, k) = S(m-1, k-1) + k * S(m-1, k); S(m, 0) = 0 and S(m, m) = 1
        rows.append((0,) + tuple(prev[k - 1] + k * prev[k] for k in range(1, m)) + (1,))
    return rows[n]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, 0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling_row(n)[k]


@cache
def bell_number(n: int) -> int:
    """Via the binomial recurrence B(n+1) = sum_k C(n,k) B(k)."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell_number(k) for k in range(n))


_ORDERED_BELL: list[int] = [1]


def ordered_bell_number(n: int) -> int:
    """Fubini numbers a(n) = sum_{k>=1} C(n,k) a(n-k), a(0) = 1; memoized values
    are extended in a loop, never by recursion."""
    a = _ORDERED_BELL
    while len(a) <= n:
        m = len(a)
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


@cache
def bell_poly(n: int) -> Poly:
    """phi_n(x) = sum_k S(n,k) x^k."""
    return Poly.sum_of_products((stirling2(n, k), X**k) for k in range(n + 1))


@cache
def fubini_poly(n: int, x: Poly = X) -> Poly:
    """F_n(x) = sum_k k! S(n,k) x^k at the argument x; F_n(1) is the ordered Bell number."""
    return Poly.sum_of_products((factorial(k) * stirling2(n, k), x**k) for k in range(n + 1))


def rising_factorial_int(a: int, k: int) -> int:
    """<a>_k = a (a+1) ... (a+k-1), empty product 1."""
    out = 1
    for i in range(k):
        out *= a + i
    return out


@cache
def two_var_fubini_poly(n: int, alpha: int) -> Poly:
    """Order-alpha two-variable Fubini polynomial in x and y.

    EGF (1 - x(e^s - 1))^(-alpha) e^(y s); assembled here from the
    Cauchy product of the two factors with classical Stirling weights.
    """
    return Poly.sum_of_products(
        (comb(n, j) * rising_factorial_int(alpha, k) * stirling2(j, k), X**k, Y ** (n - j))
        for j in range(n + 1)
        for k in range(j + 1)
    )
