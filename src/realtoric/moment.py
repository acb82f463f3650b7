"""Floating-point checks tying the real points to the moment polygon.

Sign profiles and the weighted-average moment map

    mu_A(x) = sum_u |x^u| * u / sum_u |x^u|,   u over a finite set A,

evaluated stably by shifting log-weights before exponentiating. The
checks take A to be the polygon's vertices: by Birch's theorem, mu_A is a
homeomorphism from the positive orthant onto the interior of P for every
finite A with conv(A) = P (Sottile, "Toric ideals, real toric varieties,
and the moment map", 2003; Fulton, Introduction to Toric Varieties, 4.2),
so the d vertices serve as well as the lattice points, of which there can
be many more. Sample points on the four sign components come from the
package's seeded generator, so every run is reproducible; their
log-coordinates lie in ``[-3, 3]``. The injectivity grid takes
log-coordinates in ``[-3/W, 3/W]``, where ``W`` is the polygon's larger
side of its bounding box (at least 1), so that no vertex weight falls
below ``exp(-6)`` of the largest and the images stay apart however wide
the polygon is. The samples, which do not depend on the fan, are drawn
once per ``(seed, samples)``. A flat kernel builds the grid's 1,024
images from one factor table per axis, and a sweep finds their closest
pair, with the float operations, in the order, of a loop over single
images, but for the grid's additions of an exact +0.0, which change no
bit and are left out (see ``_grid_images``).
Sums are ``math.fsum`` or explicit ``+`` left to right, never ``sum``,
which compensates since Python 3.12, so reports are bit-identical on 3.10
to 3.13. The numerics back up the exact combinatorics; nothing downstream
consumes these floats.

No monomial ``x^u`` is formed as a float: its sign is exactly
``evaluate(sign_profile(x), u)``, which reads ``u`` only mod 2. So the
signs agree with a component's sign vector on every lattice point of the
polygon exactly when the sample's sign profile is that vector: a corner
``w`` and its two edge steps ``e1``, ``e2`` (a lattice basis) give the
parity classes of ``w``, ``w + e1`` and ``w + e2``, and no character of
``(Z/2)^2`` other than the trivial one is 1 on all three.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import chain
from operator import itemgetter, mul, truediv
from typing import NamedTuple, Sequence

from . import _LAZY
from .errors import DegenerateWeights, InvalidInput
from .fan import Fan, Vec, integer_argument
from .gluing import ALL_SIGN_HOMS, SignHom
from .rng import SplitMix64
from .polytope import ToricDivisor, find_ample, polygon_from_divisor

__all__ = _LAZY["moment"]

TorusPoint = tuple[float, float]

# Half-width of the log-coordinate window for samples; the grid divides it
# by the polygon's width.
_RADIUS = 3.0
# 32 evenly spaced log-coordinates for the injectivity grid, before that
# division. The last is set, not computed, so it is exactly _RADIUS.
_GRID = [-_RADIUS + i * (2.0 * _RADIUS / 31) for i in range(31)] + [_RADIUS]
# Sample points whose images are held at once.
_BLOCK = 4 * 1024
# Ray, offset and vertex coordinates below this bound convert to floats, and
# sums of up to 2**23 of them stay finite.
_COORD_BOUND = 2**1000


def sign_profile(x: TorusPoint) -> SignHom:
    """The sign component containing ``x``; ValueError when a coordinate
    is 0, infinite or NaN, which lies on no component."""
    if not (0.0 < abs(x[0]) < math.inf and 0.0 < abs(x[1]) < math.inf):
        raise ValueError("torus points have finite, nonzero coordinates")
    return SignHom(1 if x[0] > 0 else -1, 1 if x[1] > 0 else -1)


def moment_map(x: TorusPoint, points: Sequence[Vec]) -> tuple[float, float]:
    """Weighted average of ``points`` with weights ``|x^u|``.

    Weights are computed as ``exp(<u, log|x|> - max)`` so the largest is
    exactly 1 and nothing overflows. Depends on the coordinates only
    through their absolute values, bit for bit. Raises DegenerateWeights
    when ``points`` is empty, ValueError when a coordinate of ``x`` is 0,
    and InvalidInput when ``x`` is not two finite numbers, naming the
    first point that is not two numbers below 2**1000 in magnitude.
    """
    if not points:
        raise DegenerateWeights("no points to average")
    try:
        x0, x1 = x
        magnitudes = abs(x0), abs(x1)
    except (TypeError, ValueError):
        raise InvalidInput("x must be two numbers") from None
    if not (magnitudes[0] < math.inf and magnitudes[1] < math.inf):  # inf, NaN
        raise InvalidInput(f"x must be two numbers, both finite, got {x!r}")
    if 0.0 in magnitudes:
        raise ValueError("torus points have nonzero coordinates")
    coords = []
    for k, u in enumerate(points):
        try:
            a, b = u
            if abs(a) < _COORD_BOUND and abs(b) < _COORD_BOUND:
                coords.append((float(a), float(b)))
                continue
        except (TypeError, ValueError):
            pass
        raise InvalidInput(f"point {k} must be two numbers below 2**1000 in magnitude")
    xs, ys = zip(*coords)
    return _average(magnitudes, xs, ys)


def _average(
    x: TorusPoint, xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float]:
    # moment_map's arithmetic on the points' coordinate lists, unchecked.
    lx = math.log(abs(x[0]))
    ly = math.log(abs(x[1]))
    logs = [a * lx + b * ly for a, b in zip(xs, ys)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = math.fsum(weights)
    if total == 0.0 or not math.isfinite(total):
        raise DegenerateWeights("weights degenerated to zero or infinity")
    mx = math.fsum(map(mul, weights, xs))
    my = math.fsum(map(mul, weights, ys))
    return (mx / total, my / total)


def sample_T_epsilon(eps: SignHom, seed: int, n: int) -> list[TorusPoint]:
    """``n`` reproducible points on the sign component of ``eps``.

    Coordinates are ``s * exp(r)`` with ``r`` uniform on ``[-3, 3]``,
    drawn first for the x and then for the y coordinate of each point.
    """
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        r1 = -_RADIUS + 2.0 * _RADIUS * rng.uniform()
        r2 = -_RADIUS + 2.0 * _RADIUS * rng.uniform()
        out.append((eps.s1 * math.exp(r1), eps.s2 * math.exp(r2)))
    return out


class MomentCheckReport(NamedTuple):
    """Aggregated results of the numeric suite for one fan and divisor."""

    fan: Fan
    divisor: ToricDivisor
    samples: int
    max_inequality_violation: float
    translation_exact: bool
    min_mu_separation: float
    signs_exact: bool


@lru_cache(maxsize=4)
def _draws(seed: int, samples: int) -> tuple[bool, Sequence]:
    """Whether each sign profile is its component's, and the magnitudes, x
    and y in turn, of ``samples`` points on ``ALL_SIGN_HOMS[k]`` from
    ``seed + k``, as 8-byte doubles: what the sample checks need that does
    not depend on the fan."""
    signs_exact = True
    magnitudes = array("d")
    for k, eps in enumerate(ALL_SIGN_HOMS):
        for x in sample_T_epsilon(eps, seed + k, samples):
            signs_exact = sign_profile(x) == eps and signs_exact
            magnitudes.extend((abs(x[0]), abs(x[1])))
    return signs_exact, magnitudes


def _min_separation(points: Sequence[tuple[float, float]]) -> float:
    """Smallest Euclidean distance between two entries of ``points``, which
    must be finite, as grid images always are.

    Sorts by x into two flat coordinate lists and scans forward from each
    point until the squared x gap alone reaches the best squared distance
    so far. The x list ends at ``inf``, whose gap from any finite x is
    ``inf``, so every scan ends there at the latest with no bound check.
    Rounding is monotone and ``dy*dy`` is nonnegative, so no
    skipped pair is closer, and a pair's ``dx*dx + dy*dy`` does not depend
    on its order: the result equals the all-pairs minimum of
    ``sqrt(dx*dx + dy*dy)`` bit for bit, however ties in x are ordered.
    Repeated points give 0.0; fewer than two give ``inf``.
    """
    pts = sorted(points, key=itemgetter(0))
    xs = [p[0] for p in pts] + [math.inf]
    ys = [p[1] for p in pts]
    best = math.inf
    for j, (x0, y0) in enumerate(pts, 1):
        while True:
            dx = xs[j] - x0
            dx2 = dx * dx
            if dx2 >= best:
                break
            dy = ys[j] - y0
            dist2 = dx2 + dy * dy
            if dist2 < best:
                best = dist2
            j += 1
    return math.sqrt(best)


def _axis_table(coords: Sequence[float], width: int) -> tuple[list, list]:
    """Per ``g`` of ``_GRID``, a row of the factors ``exp(c * (g/width) - max)``
    over ``coords``, the max taken over that row, and a row of those times
    ``coords``: two flat lists of rows, so that coordinate ``k``'s factors
    are the slice ``[k::d]``. One pass builds each list, with ``g / width``
    once per row and the float operations of a loop over single rows.
    """
    d = len(coords)
    logs = [c * t for t in [g / width for g in _GRID] for c in coords]
    rows = list(zip(*[iter(logs)] * d))
    w = [math.exp(v - top) for top, row in zip(map(max, rows), rows) for v in row]
    return w, list(map(mul, w, coords * len(_GRID)))


def _sums(pairs: list) -> list[float]:
    """Per image, the products ``p * q`` of the factor lists ``(p, q)`` in
    ``pairs``, one pair per vertex, added from 0.0 left to right.

    A pass takes four vertices, ``t + p0*q0 + p1*q1 + p2*q2 + p3*q3``,
    which Python evaluates as ``(((t + p0*q0) + p1*q1) + p2*q2) + p3*q3``:
    the float operations, in the order, of four one-vertex passes. The
    last ``len(pairs) % 4`` vertices take one pass of that many, in the
    same way.
    """
    s = [0.0] * len(_GRID) ** 2
    left = len(pairs) % 4
    for k in range(0, len(pairs) - left, 4):
        s = [
            t + p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3
            for t, p0, q0, p1, q1, p2, q2, p3, q3 in zip(s, *chain(*pairs[k : k + 4]))
        ]
    rest = chain(*pairs[len(pairs) - left :])
    if left == 3:
        s = [
            t + p0 * q0 + p1 * q1 + p2 * q2
            for t, p0, q0, p1, q1, p2, q2 in zip(s, *rest)
        ]
    elif left == 2:
        s = [t + p0 * q0 + p1 * q1 for t, p0, q0, p1, q1 in zip(s, *rest)]
    elif left == 1:
        s = [t + p0 * q0 for t, p0, q0 in zip(s, *rest)]
    return s


def _by_row(factors: Sequence[float]) -> list[float]:
    # A vertex's row factors in image order: each once per column.
    n = len(_GRID)
    out = [0.0] * n * n
    for j in range(n):
        out[j::n] = factors
    return out


def _grid_images(vertices: Sequence[Vec]) -> list[tuple[float, float]]:
    """Moment images over ``vertices`` of ``(exp(a/W), exp(b/W))`` for
    ``a``, then ``b``, in ``_GRID``, where ``W`` is the larger side of the
    vertices' bounding box, at least 1.

    A vertex's weight is the product of one x-table and one y-table entry.
    Each factor lies in ``[exp(-3), 1]``, as ``|c * g/W - max| <= 3``, so
    no weight underflows or dominates however wide the polygon is, and
    plain sums of the d products agree with ``moment_map``'s per-point
    form to rounding. Each vertex gets its factors, strided slices of the
    tables, in image order: its row factors, each repeated once per
    column, and its column factors, repeated once per row. ``_sums`` then
    adds each image's products from 0.0, left to right: the float
    operations of ``sum`` before Python 3.12, but for the products that
    are exactly +0.0.

    Those are left out: a vertex with x = 0 adds ``(wx * 0.0) * wy``, which
    is +0.0, to the x sum, and one with y = 0 adds +0.0 to the y sum, and
    no partial sum is -0.0, so ``t + 0.0`` is ``t`` bit for bit. Each
    factor is a float of at least ``exp(-3) > 2**-5`` and each nonzero
    coordinate has ``|c| >= 1``, so each product is at least
    ``exp(-6) > 2**-9`` in size, a multiple of ``2**-61``, and so is every
    rounded partial sum. A sum that cancels is therefore +0.0, never a
    subnormal or -0.0. The total keeps every vertex, in order; the factor
    lists of the left-out products are never built.
    """
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    width = max(max(xs) - min(xs), max(ys) - min(ys), 1)
    n, d = len(_GRID), len(vertices)
    row_w, row_u = _axis_table(list(map(float, xs)), width)
    col_w, col_u = _axis_table(list(map(float, ys)), width)
    wx = [_by_row(row_w[v::d]) for v in range(d)]
    wy = [col_w[v::d] * n for v in range(d)]
    total = _sums(list(zip(wx, wy)))
    mx = _sums([(_by_row(row_u[v::d]), wy[v]) for v, c in enumerate(xs) if c])
    my = _sums([(wx[v], col_u[v::d] * n) for v, c in enumerate(ys) if c])
    return list(zip(map(truediv, mx, total), map(truediv, my, total)))


def run_moment_checks(
    fan: Fan,
    divisor: ToricDivisor | None = None,
    seed: int = 0,
    samples: int = 256,
) -> MomentCheckReport:
    """Numeric suite: signs, containment, sign-flip invariance, injectivity.

    The moment map here is ``mu_A`` with ``A`` the polygon's vertices,
    which Birch's theorem makes a homeomorphism onto the interior of the
    polygon (see the module docstring). For each of the four sign
    components, ``samples`` seeded points with log-coordinates in
    ``[-3, 3]`` are checked for (a) a sign profile equal to the
    component's sign vector, which makes ``sign(x^u)`` agree with it on
    every polygon lattice point, and (b) the moment image lying inside the
    polygon up to float slack. (c) Each image is ``moment_map``'s
    arithmetic at the point's magnitudes, which no sign flip moves, so
    ``translation_exact`` is true by construction. The points and their
    sign verdicts are drawn once per ``(seed, samples)``, and their images
    are taken ``_BLOCK`` points at a time.
    Separately, a fixed 32 x 32 grid of evenly spaced log-coordinates in
    ``[-3/W, 3/W]`` on the positive component, ``W`` the larger side of
    the polygon's bounding box and at least 1, measures the smallest
    distance between the moment images of two distinct grid points, found
    by a closest-pair sweep. Raises InvalidInput when ``seed`` or
    ``samples`` is no integer, ``samples`` is less than 1, or a ray, offset
    or vertex coordinate is 2**1000 or more in absolute value.
    """
    seed = integer_argument("seed", seed)
    samples = integer_argument("samples", samples)
    if samples < 1:
        raise InvalidInput("samples must be at least 1")
    if divisor is None:
        divisor = find_ample(fan)
    polygon = polygon_from_divisor(fan, divisor)
    vertices = polygon.vertices
    entries = chain(polygon.offsets, *polygon.fan.rays, *vertices)
    if max(map(abs, entries)) >= _COORD_BOUND:
        raise InvalidInput(
            "polygon offsets and coordinates must be below 2**1000 in absolute value"
        )

    signs_exact, magnitudes = _draws(seed, samples)
    vx, vy = (list(map(float, c)) for c in zip(*vertices))
    worst_violation = 0.0
    for i in range(0, len(magnitudes), 2 * _BLOCK):
        pairs = iter(magnitudes[i : i + 2 * _BLOCK])
        images = [_average(m, vx, vy) for m in zip(pairs, pairs)]
        for (a, c), b in zip(polygon.fan.rays, polygon.offsets):
            slack = min([x * a + y * c + b for x, y in images])
            worst_violation = max(worst_violation, -slack)

    min_sep = _min_separation(_grid_images(vertices))

    return MomentCheckReport(
        fan=fan,
        divisor=divisor,
        samples=samples,
        max_inequality_violation=worst_violation,
        translation_exact=True,
        min_mu_separation=min_sep,
        signs_exact=signs_exact,
    )
