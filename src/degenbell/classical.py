"""Classical Stirling / Bell / Fubini families as independent oracles.

Everything here is computed from textbook integer recurrences with no
reference to the degenerate machinery, so these values can be used to
check the l -> 0 specialization of every degenerate family.  Only the
Stirling rows and the Bell numbers are kept for the process.
"""

from __future__ import annotations

from functools import cache
from math import comb, prod

from .algebra import Poly, X, Y


_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row n of S(n, k); memoized rows are extended in a loop, never by
    recursion.  Row m is assigned to the slice at index m, so a racing
    extension rewrites an equal row where an append would add a second copy."""
    rows = _STIRLING_ROWS
    while (m := len(rows)) <= n:
        prev = rows[m - 1]
        # S(m, k) = S(m-1, k-1) + k * S(m-1, k); S(m, 0) = 0 and S(m, m) = 1
        rows[m : m + 1] = [(0,) + tuple(prev[k - 1] + k * prev[k] for k in range(1, m)) + (1,)]
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


def ordered_bell_number(n: int) -> int:
    """Fubini numbers a(n) = sum_{k>=1} C(n,k) a(n-k), a(0) = 1, in a loop over
    a local list, never by recursion; ValueError for n < 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def bell_poly(n: int) -> Poly:
    """phi_n(x) = sum_k S(n,k) x^k."""
    return Poly.sum_of_products((stirling2(n, k), X**k) for k in range(n + 1))


def fubini_poly(n: int, x: Poly = X, alpha: int = 1) -> Poly:
    """F^(alpha)_n(x) = sum_k <alpha>_k S(n,k) x^k at the argument x; alpha = 1
    (<1>_k = k!) gives F_n(x), and F_n(1) is the ordered Bell number."""
    weights = (rising_factorial_int(alpha, k) * stirling2(n, k) for k in range(n + 1))
    return Poly.sum_of_products((w, x**k) for k, w in enumerate(weights))


def rising_factorial_int(a: int, k: int) -> int:
    """<a>_k = a (a+1) ... (a+k-1), empty product 1."""
    return prod(range(a, a + k))


def two_var_fubini_poly(n: int, alpha: int) -> Poly:
    """F^(alpha)_n(x, y) = sum_j C(n,j) F^(alpha)_j(x) y^(n-j), of EGF
    (1 - x(e^s - 1))^(-alpha) e^(y s), the Cauchy product of its two factors."""
    return Poly.sum_of_products(
        (comb(n, j), fubini_poly(j, X, alpha), Y ** (n - j)) for j in range(n + 1)
    )
