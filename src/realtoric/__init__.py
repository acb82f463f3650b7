"""Topology of the real point set of a smooth complete toric surface.

Exact pipeline: validate a fan, glue four polygon copies into a cell
complex, take integral homology, classify the closed surface, and check
the answer against the parity prediction read off the fan. A small
floating-point module ties the combinatorics back to moment-map numerics.
"""

from importlib import import_module as _import_module

from . import errors, fan, gluing, homology, intmat, rng

# The polygon layer loads on first use of one of its names (PEP 562), so a
# classify process loads the exact pipeline alone. Each tuple is the one
# list of its module's names: the module sets its __all__ from it, which it
# can, as this package always finishes before a submodule loads.
_LAZY = {
    "moment": (
        "sign_profile",
        "moment_map",
        "sample_T_epsilon",
        "MomentCheckReport",
        "run_moment_checks",
    ),
    "polytope": (
        "ToricDivisor",
        "LatticePolygon",
        "intersection_numbers",
        "is_ample",
        "find_ample",
        "polygon_from_divisor",
        "lattice_points",
        "translate_divisor",
        "divisor_to_json",
        "divisor_from_json",
    ),
}
# name -> the module that defines it; a module owns its own name too.
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}

# The package API is the union of the modules' lists. It is read before the
# star imports, as ``from .homology import *`` rebinds ``homology`` here.
__all__ = sorted(
    [
        name
        for module in (errors, fan, gluing, homology, intmat, rng)
        for name in module.__all__
    ]
    + [name for names in _LAZY.values() for name in names]
)

from .errors import *
from .fan import *
from .gluing import *
from .homology import *
from .intmat import *
from .rng import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only the owner is fixed: the value is read from the module on every
    # lookup, so a patch of the module's binding shows here, and so does
    # its undo. Importing a submodule binds it here, hence globals() first.
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(owner) or _import_module(f"{__name__}.{owner}")
    return module if name == owner else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
