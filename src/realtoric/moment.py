"""Floating-point checks tying the real points to the moment polygon.

Sign profiles and the weighted-average moment map

    mu(x) = sum_u |x^u| * u / sum_u |x^u|,   u over lattice points of P,

evaluated stably by shifting log-weights before exponentiating. Sample
points on the four sign components come from the package's seeded
generator, so every run is reproducible. Log-coordinates lie in
``[-3, 3]``; the injectivity grid's smallest separation comes from a
closest-pair sweep in pure Python. The numerics here back up the exact
combinatorics; nothing downstream consumes these floats.

No monomial ``x^u`` is formed as a float: its sign is exactly
``evaluate(sign_profile(x), u)``, which reads ``u`` only mod 2. The grid
takes each lattice coordinate times each log-coordinate once, not once
per cell (``int * float`` converts the int and then multiplies), and
every sum is one ``math.fsum``, so its images equal ``moment_map``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, sub
from typing import Sequence

from .errors import DegenerateWeights
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
    checked for (a) exact agreement of ``sign(x^u)``, read off the parity
    of ``u``, with the component's sign vector on every polygon lattice
    point, (b) the moment image lying inside the polygon up to float
    slack, and (c) bit-exact equality of the moment image across all four
    sign flips of the same magnitudes.
    Separately, a fixed 32 x 32 grid of evenly spaced log-coordinates in
    ``[-3, 3]`` on the positive component measures the smallest distance
    between the moment images of two distinct grid points, found by a
    closest-pair sweep. Raises ValueError when ``samples`` is less than 1.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if divisor is None:
        divisor = find_ample(fan)
    polygon = polygon_from_divisor(fan, divisor)
    points = lattice_points(polygon)
    # sign(x^u) = evaluate(sign_profile(x), u) depends on u only mod 2.
    parities = {(u[0] & 1, u[1] & 1) for u in points}

    signs_exact = True
    worst_violation = 0.0
    translation_exact = True
    for k, eps in enumerate(ALL_SIGN_HOMS):
        for x in sample_T_epsilon(eps, seed + k, samples):
            profile = sign_profile(x)
            if any(evaluate(profile, c) != evaluate(eps, c) for c in parities):
                signs_exact = False
            mu = moment_map(x, points)
            worst_violation = max(worst_violation, _max_violation(polygon, mu))
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
