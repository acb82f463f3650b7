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
the polygon is. Its smallest separation comes from a closest-pair sweep
in pure Python. The numerics here back up the exact combinatorics;
nothing downstream consumes these floats.

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
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Sequence

from .errors import DegenerateWeights
from .fan import Fan, Vec
from .gluing import ALL_SIGN_HOMS, SignHom
from .rng import SplitMix64
from .polytope import LatticePolygon, ToricDivisor, find_ample, polygon_from_divisor

__all__ = [
    "sign_profile",
    "moment_map",
    "sample_T_epsilon",
    "MomentCheckReport",
    "run_moment_checks",
]

TorusPoint = tuple[float, float]

# Half-width of the log-coordinate window for samples; the grid divides it
# by the polygon's width.
_RADIUS = 3.0
# 32 evenly spaced log-coordinates for the injectivity grid, before that
# division. The last is set, not computed, so it is exactly _RADIUS.
_GRID = [-_RADIUS + i * (2.0 * _RADIUS / 31) for i in range(31)] + [_RADIUS]
# Ray, offset and vertex coordinates below this bound convert to floats, and
# sums of up to 2**23 of them stay finite.
_COORD_BOUND = 2**1000


def sign_profile(x: TorusPoint) -> SignHom:
    """The sign component containing ``x``."""
    if x[0] == 0.0 or x[1] == 0.0:
        raise ValueError("torus points have nonzero coordinates")
    return SignHom(1 if x[0] > 0 else -1, 1 if x[1] > 0 else -1)


def moment_map(x: TorusPoint, points: Sequence[Vec]) -> tuple[float, float]:
    """Weighted average of ``points`` with weights ``|x^u|``.

    Weights are computed as ``exp(<u, log|x|> - max)`` so the largest is
    exactly 1 and nothing overflows. Depends on the coordinates only
    through their absolute values, bit for bit.
    """
    if not points:
        raise DegenerateWeights("no points to average")
    if x[0] == 0.0 or x[1] == 0.0:
        raise ValueError("torus points have nonzero coordinates")
    lx = math.log(abs(x[0]))
    ly = math.log(abs(x[1]))
    xs = [u[0] for u in points]
    ys = [u[1] for u in points]
    logs = [a * lx + b * ly for a, b in points]
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


@dataclass(frozen=True)
class MomentCheckReport:
    """Aggregated results of the numeric suite for one fan and divisor."""

    fan: Fan
    divisor: ToricDivisor
    samples: int
    max_inequality_violation: float
    translation_exact: bool
    min_mu_separation: float
    signs_exact: bool


def _max_violation(polygon: LatticePolygon, mu: tuple[float, float]) -> float:
    worst = 0.0
    for v, b in zip(polygon.fan.rays, polygon.offsets):
        slack = mu[0] * v[0] + mu[1] * v[1] + b
        if -slack > worst:
            worst = -slack
    return worst


def _min_separation(points: Sequence[tuple[float, float]]) -> float:
    """Smallest Euclidean distance between two entries of ``points``.

    Sorts by x and scans forward from each point until the squared x gap
    alone reaches the best squared distance so far. Rounding is monotone
    and ``dy*dy`` is nonnegative, so no skipped pair is closer: the result
    equals the all-pairs minimum of ``sqrt(dx*dx + dy*dy)`` bit for bit.
    Repeated points give 0.0; fewer than two give ``inf``.
    """
    pts = sorted(points)
    n = len(pts)
    best = math.inf
    for i in range(n):
        x0, y0 = pts[i]
        for j in range(i + 1, n):
            x1, y1 = pts[j]
            dx = x1 - x0
            dx2 = dx * dx
            if dx2 >= best:
                break
            dy = y1 - y0
            dist2 = dx2 + dy * dy
            if dist2 < best:
                best = dist2
    return math.sqrt(best)


def _axis_table(
    coords: Sequence[int], width: int
) -> list[tuple[list[float], list[float]]]:
    """Per log-coordinate ``g`` of ``_GRID``: the factors
    ``exp(c * g/width - max)`` over ``coords``, and those times ``coords``.
    """
    rows = []
    for g in _GRID:
        logs = [c * (g / width) for c in coords]
        top = max(logs)
        weights = [math.exp(v - top) for v in logs]
        rows.append((weights, list(map(mul, weights, coords))))
    return rows


def _grid_images(vertices: Sequence[Vec]) -> list[tuple[float, float]]:
    """Moment images over ``vertices`` of ``(exp(a/W), exp(b/W))`` for
    ``a``, then ``b``, in ``_GRID``, where ``W`` is the larger side of the
    vertices' bounding box, at least 1.

    A vertex's weight is the product of one x-table and one y-table entry.
    Each factor lies in ``[exp(-3), 1]``, as ``|c * g/W - max| <= 3``, so
    no weight underflows or dominates however wide the polygon is, and
    plain sums of the d products agree with ``moment_map``'s per-point
    form to rounding.
    """
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    width = max(max(xs) - min(xs), max(ys) - min(ys), 1)
    columns = _axis_table(ys, width)
    images = []
    for wx, ux in _axis_table(xs, width):
        for wy, uy in columns:
            total = sum(map(mul, wx, wy))
            mx = sum(map(mul, ux, wy))
            my = sum(map(mul, wx, uy))
            images.append((mx / total, my / total))
    return images


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
    every polygon lattice point (see the module docstring), (b) the moment
    image lying inside the polygon up to float slack, and (c) bit-exact
    equality of the moment image across all four sign flips of the same
    magnitudes.
    Separately, a fixed 32 x 32 grid of evenly spaced log-coordinates in
    ``[-3/W, 3/W]`` on the positive component, ``W`` the larger side of
    the polygon's bounding box and at least 1, measures the smallest
    distance between the moment images of two distinct grid points, found
    by a closest-pair sweep. Raises ValueError when ``samples`` is less
    than 1 or a ray, offset or vertex coordinate is 2**1000 or more in
    absolute value.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if divisor is None:
        divisor = find_ample(fan)
    polygon = polygon_from_divisor(fan, divisor)
    vertices = polygon.vertices
    entries = chain(polygon.offsets, *polygon.fan.rays, *vertices)
    if max(map(abs, entries)) >= _COORD_BOUND:
        raise ValueError(
            "polygon offsets and coordinates must be below 2**1000 in absolute value"
        )

    signs_exact = True
    worst_violation = 0.0
    translation_exact = True
    for k, eps in enumerate(ALL_SIGN_HOMS):
        for x in sample_T_epsilon(eps, seed + k, samples):
            if sign_profile(x) != eps:
                signs_exact = False
            mu = moment_map(x, vertices)
            worst_violation = max(worst_violation, _max_violation(polygon, mu))
            magnitudes = (abs(x[0]), abs(x[1]))
            if moment_map(magnitudes, vertices) != mu:
                translation_exact = False

    min_sep = _min_separation(_grid_images(vertices))

    return MomentCheckReport(
        fan=fan,
        divisor=divisor,
        samples=samples,
        max_inequality_violation=worst_violation,
        translation_exact=translation_exact,
        min_mu_separation=min_sep,
        signs_exact=signs_exact,
    )
