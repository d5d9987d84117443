"""Shared test helpers: hypothesis strategies for exact polynomials and
series, and the registry accessor for one cell of an identity's grid."""

from fractions import Fraction

from hypothesis import strategies as st

from degenbell.algebra import Poly, Var
from degenbell.verify import _SPECS

rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@st.composite
def polys(draw, max_terms=4, max_exp=2, variables=tuple(Var)):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) if v in variables else 0
            for v in Var
        )
        terms[mono] = draw(rationals)
    return Poly(terms)


@st.composite
def full_bindings(draw):
    return {v: draw(rationals) for v in Var}


def sides(identity, n, m):
    """Both sides of the last cell of an identity's grid up to (n, m), as
    run_identity builds them: cell (n, m) of a Spivey-type identity."""
    *_, (_, lhs, rhs) = _SPECS[identity].grid(n, m)
    return lhs, rhs
