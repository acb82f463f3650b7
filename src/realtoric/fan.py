"""Complete smooth fans in the plane, with exact integer arithmetic.

A fan is stored as the cyclically ordered tuple of its primitive ray
generators. Validity means: every generator is primitive, no generator
repeats, and every adjacent pair ``(v[i], v[i+1])`` (indices mod ``d``)
satisfies ``det(v[i], v[i+1]) == +1``. That single determinant condition
forces the rays to run counterclockwise, to surround the origin, and to
span the full lattice pairwise, so the associated surface is smooth and
complete.

Canonical form: counterclockwise order, starting from the ray that is
least under the key ``(quadrant, x, y)``. Quadrants are numbered
counterclockwise starting from the positive x-axis:

    0: x > 0,  y >= 0        2: x < 0,  y <= 0
    1: x <= 0, y > 0         3: x >= 0, y < 0

All arithmetic is on Python integers, so nothing here ever rounds.
Construct :class:`Fan` values through :func:`normalize_fan` (or the
surgery functions, which re-normalize); the dataclass itself does not
re-validate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DuplicateRay,
    IndexOutOfRange,
    InvalidInput,
    NonPrimitiveRay,
    NotComplete,
    NotExceptional,
    NotSmooth,
    NotUnimodular,
    TooFewRays,
)
from .rng import SplitMix64

__all__ = [
    "Fan",
    "normalize_fan",
    "fan_to_json",
    "fan_from_json",
    "self_intersections",
    "apply_map",
    "cyclically_equal",
    "fans_isomorphic",
    "reconstruct_fan",
    "projective_plane_fan",
    "hirzebruch_fan",
    "blow_up",
    "blow_down",
    "BlowDownStep",
    "minimal_model",
    "random_fan",
]

Vec = tuple[int, int]
# A 2x2 integer matrix given by rows; it acts on column vectors.
Mat2 = tuple[tuple[int, int], tuple[int, int]]


def det2(u: Vec, v: Vec) -> int:
    """Determinant of the 2x2 matrix with columns ``u`` and ``v``."""
    return u[0] * v[1] - u[1] * v[0]


def rot90(v: Vec) -> Vec:
    """Counterclockwise quarter turn: ``(x, y) -> (-y, x)``."""
    return (-v[1], v[0])


def is_primitive(v: Vec) -> bool:
    """True when the coordinates are coprime (the zero vector is not)."""
    return gcd(v[0], v[1]) == 1


def quadrant(v: Vec) -> int:
    """Quadrant index 0..3, counterclockwise from the positive x-axis."""
    x, y = v
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    if x >= 0 and y < 0:
        return 3
    raise ValueError("zero vector has no quadrant")


def _ccw_cmp(u: Vec, v: Vec) -> int:
    qu, qv = quadrant(u), quadrant(v)
    if qu != qv:
        return -1 if qu < qv else 1
    c = det2(u, v)
    if c == 0:
        return 0
    return -1 if c > 0 else 1


@dataclass(frozen=True)
class Fan:
    """A complete smooth fan, canonically ordered. Build via normalize_fan."""

    rays: tuple[Vec, ...]

    @property
    def d(self) -> int:
        """Number of rays."""
        return len(self.rays)


def normalize_fan(raw_rays: Iterable[Sequence[int]]) -> Fan:
    """Validate a set of ray generators and put them in canonical order.

    Input order is arbitrary. Raises InvalidInput for an entry that is not
    a pair of integers, then NonPrimitiveRay, DuplicateRay, NotComplete,
    or NotSmooth (checked in that order). ``d >= 3`` is part of
    completeness.
    """
    rays: list[Vec] = []
    for raw in raw_rays:
        try:
            entries = tuple(raw)
        except TypeError:  # not iterable, such as a bare integer or null
            entries = ()
        if len(entries) != 2 or any(
            isinstance(c, bool) or not isinstance(c, int) for c in entries
        ):
            raise InvalidInput(f"a ray must be a pair of integers, got {raw!r}")
        rays.append((entries[0], entries[1]))

    for v in rays:
        if not is_primitive(v):
            raise NonPrimitiveRay(f"ray {list(v)} is not primitive")
    if len(set(rays)) != len(rays):
        seen: set[Vec] = set()
        for v in rays:
            if v in seen:
                raise DuplicateRay(f"ray {list(v)} appears more than once")
            seen.add(v)
    if len(rays) < 3:
        raise NotComplete(f"a complete fan needs at least 3 rays, got {len(rays)}")

    rays.sort(key=functools.cmp_to_key(_ccw_cmp))
    start = min(range(len(rays)), key=lambda i: (quadrant(rays[i]),) + rays[i])
    rays = rays[start:] + rays[:start]

    d = len(rays)
    dets = [det2(rays[i], rays[(i + 1) % d]) for i in range(d)]
    if any(c <= 0 for c in dets):
        raise NotComplete(
            "adjacent rays must be positively oriented; "
            f"got determinants {dets}"
        )
    if any(c >= 2 for c in dets):
        raise NotSmooth(
            "some adjacent pair spans a proper sublattice; "
            f"got determinants {dets}"
        )
    return Fan(tuple(rays))


def fan_to_json(fan: Fan) -> dict:
    """JSON-ready mapping ``{"rays": [[x, y], ...]}`` in canonical order."""
    return {"rays": [list(v) for v in fan.rays]}


def fan_from_json(obj: object) -> Fan:
    """Parse ``{"rays": [[x, y], ...]}`` and normalize."""
    if not isinstance(obj, dict) or "rays" not in obj:
        raise InvalidInput('expected an object with a "rays" key')
    rays = obj["rays"]
    if not isinstance(rays, list):
        raise InvalidInput('"rays" must be a list of [x, y] pairs')
    return normalize_fan(rays)


def self_intersections(fan: Fan) -> tuple[int, ...]:
    """Self-intersection number of each ray's divisor, in ray order.

    The number ``a[i]`` is defined by ``v[i-1] + v[i+1] == -a[i] * v[i]``;
    the neighbor sum is always an integer multiple of ``v[i]`` in a valid
    fan, and the quotient is computed exactly.
    """
    rays = fan.rays
    d = len(rays)
    out = []
    for i in range(d):
        v = rays[i]
        p, q = rays[i - 1], rays[(i + 1) % d]
        w = (p[0] + q[0], p[1] + q[1])
        if det2(w, v) != 0:
            raise RuntimeError(f"neighbor sum {w} not parallel to ray {v}")
        if v[0] != 0:
            c, r = divmod(w[0], v[0])
        else:
            c, r = divmod(w[1], v[1])
        if r != 0 or w != (c * v[0], c * v[1]):
            raise RuntimeError(f"neighbor sum {w} not a multiple of ray {v}")
        out.append(-c)
    return tuple(out)


def apply_map(fan: Fan, m: Mat2) -> Fan:
    """Image fan under the lattice map with rows ``m`` (columns transform).

    Raises NotUnimodular unless ``det(m)`` is +1 or -1. The result is
    re-normalized, so a determinant -1 map (which reverses the cyclic
    order) still yields a canonical fan.
    """
    (a, b), (c, e) = m
    for entry in (a, b, c, e):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise InvalidInput("map entries must be integers")
    if a * e - b * c not in (1, -1):
        raise NotUnimodular(f"matrix {m} has determinant {a * e - b * c}")
    return normalize_fan([(a * x + b * y, c * x + e * y) for x, y in fan.rays])


def _cyclic_views(seq: Sequence[int], reverse: bool) -> Iterable[tuple[int, tuple[int, ...]]]:
    d = len(seq)
    base = tuple(seq)
    for j in range(d):
        if reverse:
            yield j, tuple(base[(j - i) % d] for i in range(d))
        else:
            yield j, tuple(base[(j + i) % d] for i in range(d))


def cyclically_equal(a: Sequence[int], b: Sequence[int], reversal: bool = True) -> bool:
    """True when two cyclic sequences agree up to rotation (and reversal)."""
    if len(a) != len(b):
        return False
    target = tuple(a)
    if not target:
        return True
    for _, view in _cyclic_views(b, False):
        if view == target:
            return True
    if reversal:
        for _, view in _cyclic_views(b, True):
            if view == target:
                return True
    return False


def _solve_map(src0: Vec, src1: Vec, dst0: Vec, dst1: Vec) -> Mat2:
    # The source pair is adjacent, so the column matrix [src0 src1] has
    # determinant 1 and an integer inverse.
    inv = ((src1[1], -src1[0]), (-src0[1], src0[0]))
    g = ((dst0[0], dst1[0]), (dst0[1], dst1[1]))
    return (
        (g[0][0] * inv[0][0] + g[0][1] * inv[1][0],
         g[0][0] * inv[0][1] + g[0][1] * inv[1][1]),
        (g[1][0] * inv[0][0] + g[1][1] * inv[1][0],
         g[1][0] * inv[0][1] + g[1][1] * inv[1][1]),
    )


def fans_isomorphic(f: Fan, g: Fan) -> bool:
    """Whether some unimodular lattice map carries ``f`` onto ``g``.

    Matching is driven by the cyclic self-intersection sequences (rotations
    for orientation-preserving maps, reversals for orientation-reversing
    ones). Every sequence match is then certified by building the explicit
    map from one adjacent ray pair and checking it carries every ray of
    ``f`` to the matched ray of ``g``.
    """
    if f.d != g.d:
        return False
    sf = self_intersections(f)
    sg = self_intersections(g)
    d = f.d
    certified = False
    for reverse in (False, True):
        for j, view in _cyclic_views(sg, reverse):
            if view != sf:
                continue
            if reverse:
                dst0, dst1 = g.rays[j], g.rays[(j - 1) % d]
            else:
                dst0, dst1 = g.rays[j], g.rays[(j + 1) % d]
            m = _solve_map(f.rays[0], f.rays[1], dst0, dst1)
            ok = all(
                (
                    m[0][0] * vx + m[0][1] * vy,
                    m[1][0] * vx + m[1][1] * vy,
                )
                == g.rays[(j - i) % d if reverse else (j + i) % d]
                for i, (vx, vy) in enumerate(f.rays)
            )
            if not ok:
                raise RuntimeError(
                    "self-intersection sequences matched but the induced "
                    "map failed to carry the rays across"
                )
            certified = True
    return certified


def reconstruct_fan(seq: Sequence[int]) -> Fan:
    """Rebuild a fan from a cyclic self-intersection sequence.

    Starts from the adjacent pair ``(1, 0), (0, 1)`` and unrolls the
    recurrence ``v[i+1] = -seq[i] * v[i] - v[i-1]``. Raises the usual
    validation errors if the sequence does not close up into a valid fan.
    """
    d = len(seq)
    if d < 3:
        raise NotComplete("need at least 3 self-intersection numbers")
    rays: list[Vec] = [(1, 0), (0, 1)]
    for i in range(1, d - 1):
        a = seq[i]
        vx, vy = rays[i]
        px, py = rays[i - 1]
        rays.append((-a * vx - px, -a * vy - py))
    fan = normalize_fan(rays)
    if not cyclically_equal(self_intersections(fan), tuple(seq)):
        raise RuntimeError("reconstruction did not reproduce the sequence")
    return fan


def projective_plane_fan() -> Fan:
    """Canonical 3-ray fan: ``(1,0), (0,1), (-1,-1)``."""
    return normalize_fan([(1, 0), (0, 1), (-1, -1)])


def hirzebruch_fan(a: int) -> Fan:
    """Canonical 4-ray fan ``(1,0), (0,1), (-1,a), (0,-1)`` for ``a >= 0``."""
    if a < 0:
        raise ValueError("the canonical 4-ray fan takes a >= 0")
    return normalize_fan([(1, 0), (0, 1), (-1, a), (0, -1)])


def blow_up(fan: Fan, i: int) -> Fan:
    """Subdivide the cone between rays ``i`` and ``i+1`` by their sum."""
    d = fan.d
    if not 0 <= i < d:
        raise IndexOutOfRange(f"cone index {i} out of range for {d} rays")
    v, w = fan.rays[i], fan.rays[(i + 1) % d]
    new = (v[0] + w[0], v[1] + w[1])
    rays = list(fan.rays)
    rays.insert(i + 1, new)
    return normalize_fan(rays)


def blow_down(fan: Fan, i: int) -> Fan:
    """Remove ray ``i``; requires ``d >= 4`` and self-intersection -1 there."""
    d = fan.d
    if not 0 <= i < d:
        raise IndexOutOfRange(f"ray index {i} out of range for {d} rays")
    if d < 4:
        raise TooFewRays("cannot contract a 3-ray fan")
    if self_intersections(fan)[i] != -1:
        raise NotExceptional(f"ray {i} has self-intersection != -1")
    rays = list(fan.rays)
    del rays[i]
    return normalize_fan(rays)


@dataclass(frozen=True)
class BlowDownStep:
    """One contraction: the removed ray and its neighbors at removal time."""

    ray: Vec
    left: Vec
    right: Vec
    index: int


def minimal_model(fan: Fan) -> tuple[Fan, tuple[BlowDownStep, ...]]:
    """Contract -1 rays (always the lowest index) until none remain.

    The result has 3 or 4 rays; undoing the recorded steps in reverse
    order reproduces the input fan exactly.
    """
    steps: list[BlowDownStep] = []
    current = fan
    while current.d >= 4:
        selfints = self_intersections(current)
        try:
            i = selfints.index(-1)
        except ValueError:
            break
        steps.append(
            BlowDownStep(
                ray=current.rays[i],
                left=current.rays[i - 1],
                right=current.rays[(i + 1) % current.d],
                index=i,
            )
        )
        current = blow_down(current, i)
    if current.d >= 5:
        raise RuntimeError("no -1 ray found on a fan with 5 or more rays")
    return current, tuple(steps)


def random_fan(seed: int, n_blowups: int) -> Fan:
    """Seeded random fan: a random small base, then random subdivisions.

    The base is drawn from the 3-ray fan and the canonical 4-ray fans with
    parameter 0..4; each subdivision picks a uniformly random cone. Output
    depends only on ``(seed, n_blowups)``.
    """
    if n_blowups < 0:
        raise ValueError("n_blowups must be nonnegative")
    rng = SplitMix64(seed)
    choice = rng.below(6)
    fan = projective_plane_fan() if choice == 0 else hirzebruch_fan(choice - 1)
    for _ in range(n_blowups):
        fan = blow_up(fan, rng.below(fan.d))
    return fan
