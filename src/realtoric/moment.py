"""Floating-point checks tying the real points to the moment polygon.

Monomials, sign profiles, and the weighted-average moment map

    mu(x) = sum_u |x^u| * u / sum_u |x^u|,   u over lattice points of P,

evaluated stably by shifting log-weights before exponentiating. Sample
points on the four sign components come from the package's seeded
generator, so every run is reproducible. Log-coordinates lie in
``[-3, 3]``; the injectivity grid's smallest separation comes from a
closest-pair sweep in pure Python. The numerics here back up the exact
combinatorics; nothing downstream consumes these floats.

``run_moment_checks`` computes what several evaluations share once, and
otherwise performs the float operations of ``character`` and
``moment_map`` on the same operands in the same order, so its report is
bit-identical to evaluating them point by point. The grid multiplies
each lattice point's coordinates by each of its 32 log-coordinates once,
not once per cell (``int * float`` converts the int and then multiplies,
so the product does not depend on where it is taken), and the sign check
raises each sample coordinate to each distinct exponent once. It tests
each monomial for leaving the float range only when the extreme powers
do not already rule that out. Every sum is one ``math.fsum``, which
rounds the exact sum once, so how the terms are produced does not change
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, itemgetter, mul, ne, sub
from typing import Iterable, Sequence

from .errors import CharacterOverflow, DegenerateWeights
from .fan import Fan, Vec
from .gluing import ALL_SIGN_HOMS, SignHom, evaluate
from .rng import SplitMix64
from .polytope import (
    LatticePolygon,
    ToricDivisor,
    find_ample,
    lattice_points,
    polygon_from_divisor,
)

__all__ = [
    "TorusPoint",
    "character",
    "sign_profile",
    "moment_map",
    "sample_T_epsilon",
    "MomentCheckReport",
    "run_moment_checks",
]

TorusPoint = tuple[float, float]

# Half-width of the log-coordinate window for samples and the grid.
_RADIUS = 3.0
# 32 evenly spaced log-coordinates for the injectivity grid. The last is
# set, not computed, so it is exactly _RADIUS.
_GRID = [-_RADIUS + i * (2.0 * _RADIUS / 31) for i in range(31)] + [_RADIUS]


def character(x: TorusPoint, u: Vec) -> float:
    """Evaluate the monomial ``x1**u1 * x2**u2`` by repeated squaring.

    Both coordinates must be nonzero. Raises CharacterOverflow when the
    result is not a finite nonzero float.
    """
    if x[0] == 0.0 or x[1] == 0.0:
        raise ValueError("torus points have nonzero coordinates")
    return _checked_monomial(_ipow(x[0], u[0]) * _ipow(x[1], u[1]), x, u)


def _checked_monomial(value: float, x: TorusPoint, u: Vec) -> float:
    if not math.isfinite(value) or value == 0.0:
        raise CharacterOverflow(f"monomial {u} at {x} left the float range")
    return value


def _products_in_range(first: Iterable[float], second: Iterable[float]) -> bool:
    """True when ``p * q`` is finite and nonzero for every ``p`` in
    ``first`` and ``q`` in ``second`` (none of them NaN).

    Rounding is monotone, so the products of the smallest and of the
    largest magnitudes bound the magnitude of every other product.
    """
    a = [abs(p) for p in first]
    b = [abs(q) for q in second]
    return min(a) * min(b) != 0.0 and math.isfinite(max(a) * max(b))


def _ipow(base: float, e: int) -> float:
    if e < 0:
        base = 1.0 / base
        e = -e
    out = 1.0
    while e:
        if e & 1:
            out *= base
        e >>= 1
        if e:
            base *= base
    return out


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
        raise DegenerateWeights("no lattice points to average")
    if x[0] == 0.0 or x[1] == 0.0:
        raise ValueError("torus points have nonzero coordinates")
    lx = math.log(abs(x[0]))
    ly = math.log(abs(x[1]))
    xs = [u[0] for u in points]
    ys = [u[1] for u in points]
    return _weighted_mean([a * lx for a in xs], [b * ly for b in ys], xs, ys)


def _weighted_mean(
    px: Sequence[float], py: Sequence[float], xs: Sequence[int], ys: Sequence[int]
) -> tuple[float, float]:
    """Moment image of the points ``(xs[k], ys[k])`` with log-weights
    ``px[k] + py[k]``, the two terms of ``<u, log|x|>``, which callers
    compute so that the grid can share them between cells.
    """
    logs = list(map(add, px, py))
    top = max(logs)
    weights = list(map(math.exp, map(sub, logs, repeat(top))))
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


def _grid_images(xs: Sequence[int], ys: Sequence[int]) -> list[tuple[float, float]]:
    """``moment_map((exp(a), exp(b)), points)`` for ``a``, then ``b``, in
    ``_GRID``, with each coordinate times each log-coordinate taken once.
    """
    # moment_map takes log|exp(g)|, which need not equal g; keep that
    # value so the images stay bit-identical.
    log_grid = [math.log(abs(math.exp(g))) for g in _GRID]
    py = [[b * lg for b in ys] for lg in log_grid]
    images = []
    for lg in log_grid:
        px = [a * lg for a in xs]
        images.extend(_weighted_mean(px, q, xs, ys) for q in py)
    return images


def run_moment_checks(
    fan: Fan,
    divisor: ToricDivisor | None = None,
    seed: int = 0,
    samples: int = 256,
) -> MomentCheckReport:
    """Numeric suite: signs, containment, sign-flip invariance, injectivity.

    For each of the four sign components, ``samples`` seeded points are
    checked for (a) exact agreement of ``sign(x^u)`` with the component's
    sign vector on every polygon lattice point, (b) the moment image lying
    inside the polygon up to float slack, and (c) bit-exact equality of
    the moment image across all four sign flips of the same magnitudes.
    Separately, a fixed 32 x 32 grid of evenly spaced log-coordinates in
    ``[-3, 3]`` on the positive component measures the smallest distance
    between the moment images of two distinct grid points, found by a
    closest-pair sweep. The first monomial outside the float range, in the
    order of ``lattice_points``, raises CharacterOverflow as ``character``
    would. Raises ValueError when ``samples`` is less than 1.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if divisor is None:
        divisor = find_ample(fan)
    polygon = polygon_from_divisor(fan, divisor)
    points = lattice_points(polygon)
    distinct_xs = {u[0] for u in points}
    distinct_ys = {u[1] for u in points}

    signs_exact = True
    worst_violation = 0.0
    translation_exact = True
    for k, eps in enumerate(ALL_SIGN_HOMS):
        signs = [evaluate(eps, u) for u in points]
        for x in sample_T_epsilon(eps, seed + k, samples):
            # The products character(x, u) takes, with each power once,
            # made lazily so that no list of them sits beside ``points``.
            pa = {a: _ipow(x[0], a) for a in distinct_xs}
            pb = {b: _ipow(x[1], b) for b in distinct_ys}
            values = map(
                mul,
                map(pa.__getitem__, map(itemgetter(0), points)),
                map(pb.__getitem__, map(itemgetter(1), points)),
            )
            if not _products_in_range(pa.values(), pb.values()):
                # Some product may leave the float range: test each, in
                # point order, so the first one raises as character would.
                values = [_checked_monomial(v, x, u) for u, v in zip(points, values)]
            if any(map(ne, map(math.copysign, repeat(1.0), values), signs)):
                signs_exact = False
            mu = moment_map(x, points)
            violation = _max_violation(polygon, mu)
            if violation > worst_violation:
                worst_violation = violation
            magnitudes = (abs(x[0]), abs(x[1]))
            if moment_map(magnitudes, points) != mu:
                translation_exact = False

    xs = [u[0] for u in points]
    ys = [u[1] for u in points]
    min_sep = _min_separation(_grid_images(xs, ys))

    return MomentCheckReport(
        fan=fan,
        divisor=divisor,
        samples=samples,
        max_inequality_violation=worst_violation,
        translation_exact=translation_exact,
        min_mu_separation=min_sep,
        signs_exact=signs_exact,
    )
