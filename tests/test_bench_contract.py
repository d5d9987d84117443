"""The benchmark's traced run resolves program names by getattr.

``perfbench/layers.py`` wraps the functions listed in its ``LAYERS`` table
and ``perfbench/workloads.py`` checks reports against its own list of
identity names.  Both are read here, never changed, so that renaming or
removing one of those names fails a test instead of the traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
