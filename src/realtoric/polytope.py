"""Divisors on a fan and the lattice polygons cut out by ample ones.

A divisor is a coefficient per ray, ``b[i]`` on ray ``v[i]``. Its degree
against the ray divisors is ``b[i-1] + b[i+1] + a[i] * b[i]`` where ``a``
is the self-intersection sequence; ample means every such degree is
positive. An ample divisor cuts out the polygon

    P = { u : <u, v[i]> >= -b[i] for all i },

whose vertex between rays ``i`` and ``i+1`` is the exact integer solution
of the two incident equalities.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import _LAZY
from .errors import InvalidInput, LengthMismatch, NotAmple
from .fan import Fan, Vec, det2, integer_argument, self_intersections

__all__ = _LAZY["polytope"]


class ToricDivisor(NamedTuple):
    """Integer coefficients, one per ray, in the fan's canonical ray order."""

    coeffs: tuple[int, ...]


class LatticePolygon(NamedTuple):
    """Polygon of an ample divisor: defining offsets plus integer vertices.

    ``vertices[i]`` lies on the boundary lines of rays ``i`` and ``i+1``,
    so consecutive vertices run counterclockwise and ``offsets`` has the
    same length.
    """

    fan: Fan
    offsets: tuple[int, ...]
    vertices: tuple[Vec, ...]


def _check_divisor(fan: Fan, div: ToricDivisor) -> None:
    if len(div.coeffs) != fan.d:
        raise LengthMismatch(
            f"divisor has {len(div.coeffs)} coefficients for {fan.d} rays"
        )
    # An int, as divisor_from_json asks: an __index__ type brings its own
    # arithmetic, which may wrap around.
    for i, c in enumerate(div.coeffs):
        if isinstance(c, bool) or not isinstance(c, int):
            raise InvalidInput(f"coefficient {i} must be an integer, got {c!r}")


def intersection_numbers(fan: Fan, div: ToricDivisor) -> tuple[int, ...]:
    """Degree of the divisor against each ray divisor, exactly.

    Raises LengthMismatch, or InvalidInput naming a coefficient that is no
    integer or is a bool.
    """
    _check_divisor(fan, div)
    b = div.coeffs
    a = self_intersections(fan)
    d = fan.d
    return tuple(b[i - 1] + b[(i + 1) % d] + a[i] * b[i] for i in range(d))


def is_ample(fan: Fan, div: ToricDivisor) -> bool:
    """True when every intersection number is strictly positive."""
    return all(x > 0 for x in intersection_numbers(fan, div))


def find_ample(fan: Fan) -> ToricDivisor:
    """Construct an ample divisor from the lattice lengths of its edges.

    The intersection numbers ``l`` of a divisor are the lattice lengths of
    its polygon's edges. Any integers with ``sum(l[i] * v[i]) == 0`` occur,
    for one divisor up to characters, and it is ample exactly when every
    ``l[i] >= 1`` (Fulton, *Introduction to Toric Varieties*, 3.4 and 5.2).
    So take every length 1 and close the polygon up: with ``w = sum(v)``,
    in the cone ``(v[j], v[j+1])`` that holds ``-w``, add
    ``det(-w, v[j+1]) >= 0`` to ``l[j]`` and ``det(v[j], -w) >= 0`` to
    ``l[j+1]``. Then ``b[0] = b[1] = 0`` and
    ``l[i] = b[i-1] + b[i+1] + a[i] * b[i]`` give the other coefficients;
    the two equations left over hold because the lengths close up.
    """
    rays = fan.rays
    d = fan.d
    minus_w = (-sum(v[0] for v in rays), -sum(v[1] for v in rays))
    lengths = [1] * d
    for j in range(d):
        k = (j + 1) % d
        alpha, beta = det2(minus_w, rays[k]), det2(rays[j], minus_w)
        if alpha >= 0 and beta >= 0:
            lengths[j] += alpha
            lengths[k] += beta
            break
    a = self_intersections(fan)
    b = [0, 0]
    for i in range(1, d - 1):
        b.append(lengths[i] - b[i - 1] - a[i] * b[i])
    div = ToricDivisor(tuple(b))
    if not is_ample(fan, div):
        raise RuntimeError("constructed divisor failed the ampleness check")
    return div


def polygon_from_divisor(fan: Fan, div: ToricDivisor) -> LatticePolygon:
    """Exact polygon of an ample divisor. Raises NotAmple otherwise.

    Self-check in O(d): edge ``i`` (vertex ``i-1`` to ``i``) must be
    ``l[i] >= 1`` steps of ``(v[i][1], -v[i][0])``, ``l`` the intersection
    numbers; the rays turn once, so the polygon is then convex.
    """
    lengths = intersection_numbers(fan, div)
    if min(lengths) < 1:
        raise NotAmple(f"divisor {list(div.coeffs)} is not ample on this fan")
    b = div.coeffs
    rays = fan.rays
    d = fan.d
    vertices = []
    for i in range(d):
        vi, vj = rays[i], rays[(i + 1) % d]
        bi, bj = b[i], b[(i + 1) % d]
        # Cramer on <u, vi> = -bi, <u, vj> = -bj; det(vi, vj) = 1.
        x = -bi * vj[1] + bj * vi[1]
        y = -bj * vi[0] + bi * vj[0]
        vertices.append((x, y))
    for i, (v, length) in enumerate(zip(rays, lengths)):
        w, w_prev = vertices[i], vertices[i - 1]
        if (w[0] - w_prev[0], w[1] - w_prev[1]) != (length * v[1], -length * v[0]):
            raise RuntimeError("polygon edge disagrees with its length")
    return LatticePolygon(fan=fan, offsets=tuple(b), vertices=tuple(vertices))


def lattice_points(polygon: LatticePolygon) -> list[Vec]:
    """Integer points of the polygon in lexicographic (x, then y) order.

    Column by column: on the line of abscissa ``x`` each inequality
    ``x*v0 + y*v1 >= -b`` bounds ``y`` from below (``v1 > 0``) or above
    (``v1 < 0``) by an exact integer ceiling or floor, or holds or fails
    for the whole column (``v1 == 0``). That gives exactly the
    bounding-box cells passing every inequality, at O(d) work per column
    instead of per cell.
    """
    xs = [w[0] for w in polygon.vertices]
    ys = [w[1] for w in polygon.vertices]
    rays = polygon.fan.rays
    b = polygon.offsets
    y_min, y_max = min(ys), max(ys)
    points = []
    for x in range(min(xs), max(xs) + 1):
        lo, hi = y_min, y_max
        for v, bk in zip(rays, b):
            # y * v[1] >= c, with c exact
            c = -bk - x * v[0]
            if v[1] > 0:
                lo = max(lo, -(-c // v[1]))
            elif v[1] < 0:
                hi = min(hi, c // v[1])
            elif c > 0:
                hi = lo - 1
        points.extend((x, y) for y in range(lo, hi + 1))
    return points


def translate_divisor(fan: Fan, div: ToricDivisor, u: Vec) -> ToricDivisor:
    """Shift coefficients by the character ``u``: ``b[i] += <u, v[i]>``.

    This translates the polygon by ``-u`` and leaves every intersection
    number unchanged. Raises InvalidInput when ``u`` is not two integers.
    """
    _check_divisor(fan, div)
    try:
        u0, u1 = u
    except (TypeError, ValueError):
        raise InvalidInput(f"u must be two integers, got {u!r}") from None
    u0, u1 = integer_argument("u[0]", u0), integer_argument("u[1]", u1)
    return ToricDivisor(
        tuple(b + u0 * v[0] + u1 * v[1] for b, v in zip(div.coeffs, fan.rays))
    )


def divisor_to_json(div: ToricDivisor) -> dict:
    return {"coeffs": list(div.coeffs)}


def divisor_from_json(obj: object) -> ToricDivisor:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InvalidInput('expected an object with a "coeffs" key')
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or any(
        isinstance(c, bool) or not isinstance(c, int) for c in coeffs
    ):
        raise InvalidInput('"coeffs" must be a list of integers')
    return ToricDivisor(tuple(coeffs))
