"""Independent routes and readers that only the tests use to check the
package's results: factorials as plain products, S2_l(n, k) by the change
of basis, by the EGF route (e_l(s) - 1)^k / k! and by the plain
recurrence, Bel_{n,l}(x) as a sum of products, `Poly.eval` term by term,
the inverses of `Poly.to_json`, `SeqTable.to_json` and `Series.to_json`,
the text of `str(Poly)`, views of a `Poly` through its public `terms`, a
check of its coefficients' stored form, and the Spivey-type identities as
the plain double sum over (k, l)."""

from fractions import Fraction
from math import comb, factorial

from degenbell import classical
from degenbell.algebra import LAM, ONE, ZERO, Poly, T, Var, X, var_from_symbol
from degenbell.sequences import (
    SeqTable,
    bell_deg,
    bell_fully_deg,
    falling_factorial,
    falling_factorial_deg,
    fubini_deg,
    fubini_two_var_alpha,
    stirling2_deg,
    unit_falling_factorial_deg,
)
from degenbell.series import Series, ValuationError

CONST_MONO = (0, 0, 0, 0)


def assert_stored_form(p: Poly) -> None:
    # every coefficient is a nonzero int, or a Fraction that is not integral;
    # == cannot see it, since Fraction(2, 1) == 2
    for c in p._terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def is_const(p: Poly) -> bool:
    return all(mono == CONST_MONO for mono, _ in p.terms())


def const_value(p: Poly):
    """The constant p as an int or Fraction; 0 for the zero polynomial."""
    if not is_const(p):
        raise ValueError(f"not a constant polynomial: {p}")
    return dict(p.terms()).get(CONST_MONO, 0)


def coefficient_of(p: Poly, var: Var, power: int) -> Poly:
    """The polynomial in the remaining variables multiplying var**power in p."""
    out = {}
    for mono, c in p.terms():
        if mono[var] == power:
            rest = list(mono)
            rest[var] = 0
            out[tuple(rest)] = c
    return Poly(out)


def poly_from_json(data: list) -> Poly:
    """The polynomial that `Poly.to_json` wrote as ``data``; exponents and
    coefficients go through `Poly`'s own intake."""
    terms = {}
    for item in data:
        mono = [0, 0, 0, 0]
        for sym, e in item["m"].items():
            mono[var_from_symbol(sym)] = e
        terms[tuple(mono)] = item["c"]
    return Poly(terms)


def eval_term_by_term(p: Poly, bindings: dict) -> Poly:
    """What `Poly.eval` must return, read off `terms()`: each bound variable's
    exponent e becomes the factor value**e (0**0 = 1) and is dropped."""
    out = {}
    for mono, c in p.terms():
        rest = list(mono)
        for var, value in bindings.items():
            c *= Fraction(value) ** mono[var]
            rest[var] = 0
        out[tuple(rest)] = out.get(tuple(rest), 0) + c
    return Poly(out)


def poly_str(p: Poly) -> str:
    """The text `str(p)` must be, read off `terms()`: each term is the
    magnitude of its coefficient (left out before a monomial when it is 1)
    and its variables as ``v`` or ``v^e``, joined by ``*``; the first term
    carries a leading ``-`` when negative, and each later term is joined by
    `` + `` or `` - ``."""
    text = ""
    for mono, c in p.terms():
        factors = []
        for var in Var:
            if mono[var] == 1:
                factors.append(var.symbol)
            elif mono[var] > 1:
                factors.append(f"{var.symbol}^{mono[var]}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not text:
            text = body if c > 0 else "-" + body
        else:
            text += (" + " if c > 0 else " - ") + body
    return text or "0"


def product_plain(base, n: int, step) -> Poly:
    """prod_{i<n} (base + i*step) written with ring operators, keeping nothing:
    the reference for every factorial of `sequences`."""
    out = ONE
    for i in range(n):
        out = out * (base + i * step)
    return out


def stirling2_deg_rows_plain(n_max: int) -> list[list[Poly]]:
    """Rows 0..n_max of S2_l by the triangular recurrence written with ring
    operators, its factor (k - (m-1) l) built as a polynomial."""
    rows = [[ONE]]
    for m in range(1, n_max + 1):
        prev = rows[-1]
        inner = [prev[k - 1] + (k - (m - 1) * LAM) * prev[k] for k in range(1, m)]
        rows.append([ZERO, *inner, ONE])
    return rows


def bell_fully_deg_products(n: int, x: Poly) -> Poly:
    """Bel_{n,l}(x) = sum_k (1)_{k,l} x^k S2_l(n,k), each term a product of
    the weight, the power and the Stirling entry."""
    return Poly.sum_of_products(
        (unit_falling_factorial_deg(k), x**k, stirling2_deg(n, k)) for k in range(n + 1)
    )


def stirling2_deg_basis_table(n_max: int) -> SeqTable:
    """All S2_l(n, k) for n <= n_max by the defining change of basis.

    Expands (x)_{n,l} and peels off classical falling factorials (x)_k
    from the top degree down; independent of the recurrence route.
    """
    values = []
    basis = [falling_factorial(X, k) for k in range(n_max + 1)]
    for n in range(n_max + 1):
        residual = falling_factorial_deg(X, n)
        row = [ZERO] * (n + 1)
        for d in range(n, -1, -1):
            c = coefficient_of(residual, Var.X, d)
            row[d] = c
            residual = residual - c * basis[d]
        if not residual.is_zero():
            raise ArithmeticError("change-of-basis solve left a nonzero residual")
        values.extend((((n, k), row[k]) for k in range(n + 1)))
    return SeqTable("deg-stirling2", {"n_max": n_max}, "closed-form", tuple(values))


def pow_over_factorial(a: Series, k: int) -> Series:
    """a^k / k! for a series a with zero constant term.

    Because the valuation of a is at least 1, the result has zero
    coefficients below index k; its EGF coefficients are exact even
    though 1/k! is not an integer.  For a = e_l(s) - 1 they are the
    S2_l(n, k), by the EGF route.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    if not a.coeff(0).is_zero():
        raise ValuationError("series has nonzero constant term")
    inv = Fraction(1, factorial(k))
    return Series([c * inv for c in a.int_pow(k).coeffs])


def table_from_json(data: dict) -> SeqTable:
    """The table that `SeqTable.to_json` wrote as ``data``."""
    values = tuple(
        (tuple(row[name] for name in ("n", "k") if name in row), poly_from_json(row["poly"]))
        for row in data["values"]
    )
    return SeqTable(data["kind"], dict(data["bounds"]), data["provenance"], values)


def series_from_json(data: dict) -> Series:
    """The series that `Series.to_json` wrote as ``data``; ValueError if its
    coefficient count does not match its order."""
    coeffs = [poly_from_json(c) for c in data["egf_coeffs"]]
    if len(coeffs) != data["order"] + 1:
        raise ValueError("coefficient count does not match declared order")
    return Series(coeffs)


def _two_var_inner(x_arg: Poly):
    """G(j, k, m) = F^(k)_{j,l}(x_arg, k - m*l), the two-variable family built
    whole and substituted at its arguments."""
    return lambda j, k, m: (
        fubini_two_var_alpha(j, k).substitute(Var.X, x_arg).substitute(Var.Y, k - m * LAM)
    )


def _classical_inner(j: int, k: int, m: int) -> Poly:
    """G(j, k, m) = F^(k)_j(t, k), the classical two-variable Fubini polynomial."""
    return classical.two_var_fubini_poly(j, k).substitute(Var.X, T).eval({Var.Y: k})


# The seven Spivey-type identities by name: (B_j, W(m, k), G(j, k, m)).
SPIVEY_PARTS = {
    "spivey-bell": (
        classical.bell_number,
        classical.stirling2,
        lambda j, k, m: k**j,
    ),
    "spivey-bell-poly": (
        classical.bell_poly,
        lambda m, k: classical.stirling2(m, k) * X**k,
        lambda j, k, m: k**j,
    ),
    "deg-bell-spivey": (
        bell_deg,
        lambda m, k: stirling2_deg(m, k) * X**k,
        lambda j, k, m: falling_factorial_deg(k - m * LAM, j),
    ),
    "fully-deg-bell": (
        lambda j: bell_fully_deg(j, ONE),
        lambda m, k: unit_falling_factorial_deg(k) * stirling2_deg(m, k),
        _two_var_inner(-LAM),
    ),
    "fully-deg-bell-poly": (
        lambda j: bell_fully_deg(j, T),
        lambda m, k: unit_falling_factorial_deg(k) * stirling2_deg(m, k) * T**k,
        _two_var_inner(-LAM * T),
    ),
    "deg-fubini-spivey": (
        lambda j: fubini_deg(j, 1, T),
        lambda m, k: factorial(k) * stirling2_deg(m, k) * T**k,
        _two_var_inner(T),
    ),
    "fubini-spivey": (
        lambda j: classical.fubini_poly(j, T),
        lambda m, k: factorial(k) * classical.stirling2(m, k) * T**k,
        _classical_inner,
    ),
}


def spivey_double_sum(identity: str, n: int, m: int) -> tuple[Poly, Poly]:
    """Both sides of B_{n+m} = sum_{k<=m} sum_{l<=n} C(n,l) W(m,k) G(n-l,k,m) B_l
    for the Spivey-type identity named ``identity``, with the parts of
    `SPIVEY_PARTS`: each term a product written with ring operators, its
    inner factor G built whole, and nothing shared between terms."""
    outer, weight, inner = SPIVEY_PARTS[identity]
    rhs = ZERO
    for k in range(m + 1):
        for l in range(n + 1):
            rhs = rhs + comb(n, l) * weight(m, k) * outer(l) * inner(n - l, k, m)
    return outer(n + m) + ZERO, rhs
