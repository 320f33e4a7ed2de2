"""Exact bookkeeping for endoscopic multiplicity bounds on unitary groups.

Everything is computed in exact integer and rational arithmetic: parameter
shapes and their sign characters, elliptic endoscopic data, refinement
chains and the inversion of the stable recursion, cohomological packets
with their Poincare polynomials, decay profiles, and the step-by-step
exponent derivation.  The ``endoscopylab`` console script exposes each
piece; ``selftest`` runs the acceptance checks.

Importing the package loads no submodule.  A public name of a submodule's
``__all__`` (``endoscopylab.expand_stable``, ``from endoscopylab import
Bipartition``) imports the submodules it needs on first use (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Dependency order: resolving a name imports the modules up to the one that
# exports it, and those import nothing later in the list.
_MODULES = (
    "guards",
    "params",
    "cohomology",
    "decay",
    "endoscopy",
    "hyperendoscopy",
    "bounds",
    "selftest",
)


def __getattr__(name: str):
    # private names and submodules (cli included) are left to the import system
    if not name.startswith("_") and name not in _MODULES and name != "cli":
        for module in _MODULES:
            mod = _import_module(f"{__name__}.{module}")
            if name in mod.__all__:
                value = globals()[name] = getattr(mod, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    names = set(globals())
    for module in _MODULES:
        names.update(_import_module(f"{__name__}.{module}").__all__)
    return sorted(names)
