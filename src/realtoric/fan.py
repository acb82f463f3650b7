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
``Fan(rays)`` is :func:`normalize_fan`'s answer, when that keeps the rays
as given, or its refusal, so every :class:`Fan` is a valid fan in
canonical form. ``Fan._make``, which only this module calls, skips that check.
"""

from __future__ import annotations

import functools
from math import gcd
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    "projective_plane_fan",
    "hirzebruch_fan",
    "blow_up",
    "blow_down",
    "BlowDownStep",
    "minimal_model",
    "random_fan",
    "corpus_tasks",
    "corpus_fans",
]

Vec = tuple[int, int]
# A 2x2 integer matrix given by rows; it acts on column vectors.
Mat2 = tuple[tuple[int, int], tuple[int, int]]


def det2(u: Vec, v: Vec) -> int:
    """Determinant of the 2x2 matrix with columns ``u`` and ``v``."""
    return u[0] * v[1] - u[1] * v[0]


def parity_codes(points: Iterable[Vec]) -> list[int]:
    """Codes ``(x mod 2) << 1 | (y mod 2)``; on the rays, λ_i = v_i mod 2."""
    return [(x & 1) << 1 | (y & 1) for x, y in points]


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
    # Never 0: normalize_fan sorts distinct primitive rays, and two of them
    # in one quadrant are never parallel.
    return -1 if det2(u, v) > 0 else 1


class _Rays(NamedTuple):
    rays: tuple[Vec, ...]


class Fan(_Rays):
    """A complete smooth fan in canonical order. ``Fan(rays)`` is
    ``normalize_fan(rays)`` when that keeps the rays in the given order, else
    its error, or InvalidInput; ``_make`` and ``_replace`` skip the check."""

    __slots__ = ()

    def __new__(cls, rays: Iterable[Sequence[int]]) -> Fan:
        # normalize_fan and the order check below each read every ray once.
        given = tuple(tuple(v) if hasattr(v, "__next__") else v for v in rays)
        fan = normalize_fan(given)
        for i, (v, w) in enumerate(zip(fan.rays, given)):
            if v != tuple(w):
                raise InvalidInput(f"ray {i} is out of canonical order")
        return fan

    @property
    def d(self) -> int:
        """Number of rays."""
        return len(self.rays)


def normalize_fan(raw_rays: Iterable[Sequence[int]]) -> Fan:
    """Validate a set of ray generators and put them in canonical order.

    Input order is arbitrary. Raises InvalidInput for an entry that is not
    a pair of integers, then NonPrimitiveRay, DuplicateRay, NotComplete,
    or NotSmooth (checked in that order; InvalidInput when their
    determinants pass the digit limit). ``d >= 3`` is part of completeness.
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

    dets = [det2(v, w) for v, w in zip(rays, rays[1:] + rays[:1])]
    if any(c != 1 for c in dets):
        try:
            got = f"got determinants {dets}"
        except ValueError as exc:  # a determinant past the integer digit limit
            raise InvalidInput(str(exc)) from exc
        if any(c <= 0 for c in dets):
            raise NotComplete(f"adjacent rays must be positively oriented; {got}")
        raise NotSmooth(f"some adjacent pair spans a proper sublattice; {got}")
    return Fan._make((tuple(rays),))


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
    """Self-intersection number of each ray's divisor, in ray order:
    ``a[i] = det(v[i+1], v[i-1])``, since ``v[i-1] + v[i+1] == -a[i] * v[i]``
    where every adjacent pair is a lattice basis.
    """
    rays = fan.rays
    return tuple(det2(q, p) for p, q in zip(rays[-1:] + rays[:-1], rays[1:] + rays[:1]))


def apply_map(fan: Fan, m: Mat2) -> Fan:
    """Image fan under the lattice map with rows ``m`` (columns transform).

    Raises NotUnimodular unless ``det(m)`` is +1 or -1. The result is
    re-normalized, so a determinant -1 map (which reverses the cyclic
    order) still yields a canonical fan. Raises InvalidInput unless ``m``
    is two pairs of integers.
    """
    try:
        (a, b), (c, e) = m
    except (TypeError, ValueError):  # not two rows of two entries
        raise InvalidInput(f"a map must be two pairs of integers, got {m!r}") from None
    for entry in (a, b, c, e):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise InvalidInput("map entries must be integers")
    if a * e - b * c not in (1, -1):
        raise NotUnimodular(f"matrix {m} has determinant {a * e - b * c}")
    return normalize_fan([(a * x + b * y, c * x + e * y) for x, y in fan.rays])


def cyclically_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when two cyclic sequences agree up to rotation and reversal."""
    if len(a) != len(b):
        return False
    target, base = tuple(a), tuple(b)
    d = len(target)
    if not d:
        return True
    # The rotations of b are the length-d windows of b twice over.
    views = [base * 2, base[::-1] * 2]
    return any(view[j:j + d] == target for view in views for j in range(d))


def projective_plane_fan() -> Fan:
    """Canonical 3-ray fan: ``(1,0), (0,1), (-1,-1)``."""
    return normalize_fan([(1, 0), (0, 1), (-1, -1)])


def integer_argument(name: str, value: object) -> int:
    """``value`` read through ``operator.index``; InvalidInput naming the
    argument when it is no integer or is a bool."""
    try:
        return index(None if isinstance(value, bool) else value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


def hirzebruch_fan(a: int) -> Fan:
    """Canonical 4-ray fan ``(1,0), (0,1), (-1,a), (0,-1)`` for ``a >= 0``.

    Raises InvalidInput when ``a`` is no integer or negative.
    """
    a = integer_argument("a", a)
    if a < 0:
        raise InvalidInput("the canonical 4-ray fan takes a >= 0")
    return normalize_fan([(1, 0), (0, 1), (-1, a), (0, -1)])


# The bases random_fan draws from, in the order of its first draw: the
# 3-ray fan, then the canonical 4-ray fans with parameter 0..4.
_BASES = (projective_plane_fan(), *map(hirzebruch_fan, range(5)))


def blow_up(fan: Fan, i: int) -> Fan:
    """Subdivide the cone between rays ``i`` and ``i+1`` by their sum."""
    i = integer_argument("cone index", i)
    d = fan.d
    if not 0 <= i < d:
        raise IndexOutOfRange(f"cone index {i} out of range for {d} rays")
    v, w = fan.rays[i], fan.rays[(i + 1) % d]
    new = (v[0] + w[0], v[1] + w[1])
    rays = list(fan.rays)
    rays.insert(i + 1, new)
    return normalize_fan(rays)


def blow_down(fan: Fan, i: int) -> Fan:
    """Remove ray ``i``; requires ``d >= 4`` and self-intersection -1 there.

    Only ray ``i`` and its two neighbors are read: in a valid fan
    ``a[i] == -1`` exactly when ``v[i-1] + v[i+1] == v[i]``.
    """
    i = integer_argument("ray index", i)
    d = fan.d
    if not 0 <= i < d:
        raise IndexOutOfRange(f"ray index {i} out of range for {d} rays")
    if d < 4:
        raise TooFewRays("cannot contract a 3-ray fan")
    rays = list(fan.rays)
    (p0, p1), (q0, q1) = rays[i - 1], rays[(i + 1) % d]
    if (p0 + q0, p1 + q1) != rays[i]:
        raise NotExceptional(f"ray {i} has self-intersection != -1")
    del rays[i]
    return normalize_fan(rays)


class BlowDownStep(NamedTuple):
    """One contraction: the removed ray and its neighbors at removal time."""

    ray: Vec
    left: Vec
    right: Vec
    index: int


def minimal_model(fan: Fan) -> tuple[Fan, tuple[BlowDownStep, ...]]:
    """Contract -1 rays with :func:`blow_down`, always the lowest index,
    until none remain.

    The result has 3 or 4 rays; undoing the recorded steps in reverse
    order reproduces the input fan exactly.
    """
    steps: list[BlowDownStep] = []
    current = fan
    while current.d >= 4:
        try:
            i = self_intersections(current).index(-1)
        except ValueError:
            break
        rays = current.rays
        steps.append(BlowDownStep(rays[i], rays[i - 1], rays[(i + 1) % current.d], i))
        current = blow_down(current, i)
    if current.d >= 5:
        raise RuntimeError("no -1 ray found on a fan with 5 or more rays")
    return current, tuple(steps)


def random_fan(seed: int, n_blowups: int) -> Fan:
    """Seeded random fan: a random small base, then random subdivisions.

    The base is drawn from the 3-ray fan and the canonical 4-ray fans with
    parameter 0..4; each subdivision picks a uniformly random cone. Output
    depends only on ``(seed, n_blowups)``. Raises InvalidInput when either
    is no integer or ``n_blowups`` is negative.
    """
    seed = integer_argument("seed", seed)
    n_blowups = integer_argument("n_blowups", n_blowups)
    if n_blowups < 0:
        raise InvalidInput("n_blowups must be nonnegative")
    rng = SplitMix64(seed)
    fan = _BASES[rng.below(len(_BASES))]
    for _ in range(n_blowups):
        fan = blow_up(fan, rng.below(fan.d))
    return fan


# A corpus: a master stream derives one ``(seed, n_blowups)`` pair per fan,
# so the corpus for a given ``(seed, count, max_blowups)`` triple is fixed
# forever and each entry can be verified independently (and in parallel)
# without changing the output. The pairs are drawn as they are consumed.
def corpus_tasks(
    seed: int, count: int, max_blowups: int
) -> Iterator[tuple[int, int]]:
    """The ``(seed, n_blowups)`` pair of each corpus entry, in order, as a
    lazy stream: a corpus of any size takes constant memory, and
    ``list(corpus_tasks(...))`` gives the pairs as a list.

    The arguments are checked here, before the first pair is drawn:
    InvalidInput when one is no integer, or ``count`` or ``max_blowups``
    is negative.
    """
    master = SplitMix64(integer_argument("seed", seed))
    count = integer_argument("count", count)
    max_blowups = integer_argument("max_blowups", max_blowups)
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    if max_blowups < 0:
        raise InvalidInput("max_blowups must be nonnegative")
    return _draw_tasks(master, count, max_blowups + 1)


def _draw_tasks(
    master: SplitMix64, count: int, bound: int
) -> Iterator[tuple[int, int]]:
    for _ in range(count):
        n = master.below(bound)
        yield master.next_u64(), n


def corpus_fans(seed: int, count: int, max_blowups: int) -> list[Fan]:
    """The corpus itself, in order."""
    return [random_fan(s, n) for s, n in corpus_tasks(seed, count, max_blowups)]
