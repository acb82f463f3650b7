"""Exception types shared across the package.

Every error raised on a bad input derives from :class:`ToricError` and
carries a stable ``code`` string that the command line interface reports
verbatim, so scripted callers can match on it.
"""


class ToricError(Exception):
    """Base class for all input and validation errors in this package."""

    code = "Error"


class InvalidInput(ToricError):
    """Malformed data: wrong JSON shape, non-integer entries, bad types."""

    code = "InvalidInput"


class NonPrimitiveRay(ToricError):
    """A ray generator whose coordinates share a factor (or the zero vector)."""

    code = "NonPrimitiveRay"


class DuplicateRay(ToricError):
    """The same ray generator was supplied more than once."""

    code = "DuplicateRay"


class NotComplete(ToricError):
    """The rays do not surround the origin with positively oriented cones."""

    code = "NotComplete"


class NotSmooth(ToricError):
    """Some pair of adjacent rays spans a proper sublattice."""

    code = "NotSmooth"


class NotUnimodular(ToricError):
    """A lattice map whose determinant is not +1 or -1."""

    code = "NotUnimodular"


class IndexOutOfRange(ToricError):
    """A cone or ray index outside ``0..d-1``."""

    code = "IndexOutOfRange"


class TooFewRays(ToricError):
    """Contraction requested on a fan that is already as small as possible."""

    code = "TooFewRays"


class NotExceptional(ToricError):
    """Contraction requested at a ray whose self-intersection is not -1."""

    code = "NotExceptional"


class LengthMismatch(ToricError):
    """A coefficient list whose length differs from the number of rays."""

    code = "LengthMismatch"


class NotAmple(ToricError):
    """A divisor that fails the positivity test needed for a polygon."""

    code = "NotAmple"


class PolygonFanMismatch(ToricError):
    """A polygon built over a different fan than the one supplied."""

    code = "PolygonFanMismatch"


class InvalidComplex(ToricError):
    """Boundary data that is not a chain complex or has impossible ranks."""

    code = "InvalidComplex"


class NotAClosedSurfaceProfile(ToricError):
    """Homology groups that no closed connected surface realizes."""

    code = "NotAClosedSurfaceProfile"


class DegenerateWeights(ToricError):
    """A weighted average whose weights are empty or sum to zero."""

    code = "DegenerateWeights"
