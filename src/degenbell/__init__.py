"""Exact calculus for degenerate Bell and Fubini polynomial families.

The package computes the degenerate Stirling numbers of the second kind
and the Bell / Fubini polynomial families built on them, entirely over
exact rational arithmetic, and verifies the Spivey-type recurrences these
families satisfy as exact polynomial identities.

Importing the package loads none of its submodules.  Each name of ``__all__``,
and each submodule, resolves on first use (PEP 562), by importing the submodule
that owns it: ``from degenbell import run_identity``, ``degenbell.verify`` and
``dir(degenbell)`` work as before, and a process loads only what it uses.
"""

import sys

_OWNED = {
    "algebra": ("LAM", "ONE", "T", "X", "Y", "ZERO", "Poly", "Var"),
    "sequences": (
        "SeqTable", "bell_deg", "bell_fully_deg", "falling_factorial", "falling_factorial_deg",
        "fubini_deg", "fubini_two_var_alpha", "rising_factorial", "stirling2_deg",
    ),
    "series": ("Series", "deg_exp_of", "exp_of", "exp_splitting_sides"),
    "verify": ("Identity", "VerifyReport", "run_identity"),
}
_SUBMODULES = (*_OWNED, "classical", "cli")
_OWNER = {name: module for module, names in _OWNED.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The submodule ``name``, or the ``__all__`` name from its owner, imported on first use."""
    owner = _OWNER.get(name, name)
    if owner not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{owner}")  # the C import, which -X importtime reports
    module = sys.modules[f"{__name__}.{owner}"]
    globals()[name] = value = module if owner == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
