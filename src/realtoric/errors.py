"""Exception types shared across the package.

Every error raised on a bad input derives from :class:`ToricError` and
carries a stable ``code`` string, its class name, that the command line
interface reports verbatim, so scripted callers can match on it.
"""

__all__ = [
    "ToricError",
    "InvalidInput",
    "NonPrimitiveRay",
    "DuplicateRay",
    "NotComplete",
    "NotSmooth",
    "NotUnimodular",
    "IndexOutOfRange",
    "TooFewRays",
    "NotExceptional",
    "LengthMismatch",
    "NotAmple",
    "PolygonFanMismatch",
    "InvalidComplex",
    "NotAClosedSurfaceProfile",
    "DegenerateWeights",
]


class ToricError(Exception):
    """Base class for all input and validation errors in this package."""

    code = "Error"

    def __init_subclass__(cls):
        cls.code = cls.__name__


class InvalidInput(ToricError):
    """Malformed data: wrong JSON shape, non-integer entries, bad types."""


class NonPrimitiveRay(ToricError):
    """A ray generator whose coordinates share a factor (or the zero vector)."""


class DuplicateRay(ToricError):
    """The same ray generator was supplied more than once."""


class NotComplete(ToricError):
    """The rays do not surround the origin with positively oriented cones."""


class NotSmooth(ToricError):
    """Some pair of adjacent rays spans a proper sublattice."""


class NotUnimodular(ToricError):
    """A lattice map whose determinant is not +1 or -1."""


class IndexOutOfRange(ToricError):
    """A cone or ray index outside ``0..d-1``."""


class TooFewRays(ToricError):
    """Contraction requested on a fan that is already as small as possible."""


class NotExceptional(ToricError):
    """Contraction requested at a ray whose self-intersection is not -1."""


class LengthMismatch(ToricError):
    """A coefficient list whose length differs from the number of rays."""


class NotAmple(ToricError):
    """A divisor that fails the positivity test needed for a polygon."""


class PolygonFanMismatch(ToricError):
    """A polygon built over a different fan than the one supplied."""


class InvalidComplex(ToricError):
    """Boundary data that is not a chain complex or has impossible ranks."""


class NotAClosedSurfaceProfile(ToricError):
    """Homology groups that no closed connected surface realizes."""


class DegenerateWeights(ToricError):
    """A weighted average whose weights are empty or sum to zero."""
