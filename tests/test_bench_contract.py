"""The benchmark's traced run resolves program names by getattr.

``perfbench/layers.py`` wraps the functions listed in its ``LAYERS`` table
and reads ``Poly._terms`` coefficients through ``numerator`` and
``denominator``; ``perfbench/workloads.py`` checks reports against its own
list of identity names.  Both are read here, never changed, so that
renaming or removing one of those names, or a coefficient type the tracer
cannot read, fails a test instead of the traced run.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from degenbell.algebra import Poly
from degenbell.verify import Identity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_resolves(perfbench):
    layers, _ = perfbench
    for module, names in layers.LAYERS.values():
        obj = importlib.import_module(f"degenbell.{module}")
        for name in names:
            target = obj
            for part in name.split("."):
                target = getattr(target, part)
            assert callable(target), f"{module}.{name}"


def test_identity_names_match(perfbench):
    _, workloads = perfbench
    assert workloads.IDENTITIES == tuple(i.value for i in Identity)


def test_tracer_reads_int_and_fraction_coefficients(perfbench):
    layers, _ = perfbench
    ints = Poly({(1, 0, 0, 0): 5, (0, 0, 0, 0): -3})  # 5*l - 3
    fractions = Poly({(0, 1, 0, 0): Fraction(7, 4)})  # 7/4*x
    assert layers._coeff_bits(ints) == 3
    assert layers._coeff_bits(fractions) == 3
    tracer = layers.Tracer(Poly)
    tracer.observe_mul((ints, fractions), ints * fractions)  # 35/4*l*x - 21/4*x
    tracer.observe_mul((fractions, 2), fractions * 2)
    assert tracer.term_products == 2 * 1 + 1
    assert tracer.terms_max == 2
    assert tracer.coeff_bits_max == 6
