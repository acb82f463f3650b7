"""Topology of the real point set of a smooth complete toric surface.

Exact pipeline: validate a fan, glue four polygon copies into a cell
complex, take integral homology, classify the closed surface, and check
the answer against the parity prediction read off the fan. A small
floating-point module ties the combinatorics back to moment-map numerics.
"""

from . import corpus, errors, fan, gluing, homology, intmat, moment, polytope, rng

# The package API is the union of the modules' lists. It is read before the
# star imports, as ``from .homology import *`` rebinds ``homology`` here.
__all__ = sorted(
    name
    for module in (corpus, errors, fan, gluing, homology, intmat, moment, polytope, rng)
    for name in module.__all__
)

from .corpus import *
from .errors import *
from .fan import *
from .gluing import *
from .homology import *
from .intmat import *
from .moment import *
from .polytope import *
from .rng import *

__version__ = "0.1.0"
