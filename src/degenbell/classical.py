"""Classical Stirling / Bell / Fubini families as independent oracles.

Everything here is computed from textbook integer recurrences with no
reference to the degenerate machinery, so these values can be used to
check the l -> 0 specialization of every degenerate family.  Only the
Stirling rows and the Bell numbers are kept for the process, in the one
store `algebra._kept`.
"""

from __future__ import annotations

from math import comb, prod

from .algebra import Poly, X, Y, _kept_entry


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, 0 outside 0 <= k <= n, from the rows
    kept under "stirling-rows", extended in a loop, never by recursion."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _kept_entry("stirling-rows", n, (1,), _next_stirling_row)[k]


def _next_stirling_row(rows: dict[int, tuple[int, ...]], m: int) -> tuple[int, ...]:
    # S(m+1, k) = S(m, k-1) + k * S(m, k); S(m+1, 0) = 0 and S(m+1, m+1) = 1
    prev = rows[m]
    return (0,) + tuple(prev[k - 1] + k * prev[k] for k in range(1, m + 1)) + (1,)


def bell_number(n: int) -> int:
    """Via the binomial recurrence B(n+1) = sum_k C(n,k) B(k), kept under
    "bell-numbers" and extended in a loop; ValueError for n < 0."""
    return _kept_entry(
        "bell-numbers", n, 1, lambda bell, m: sum(comb(m, k) * bell[k] for k in range(m + 1))
    )


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
