"""Cell complexes for the real point set, glued from four polygon copies.

The real points away from the axes fall into four components, one per
sign vector ``(s1, s2)`` with ``s1, s2 in {+1, -1}``. Each component
closes up to a copy of the moment polygon, and the copies are glued along
boundary faces. A sign vector acts on a character ``u = (u1, u2)`` by

    evaluate((s1, s2), u) = s1**u1 * s2**u2,

which depends only on ``u mod 2``.

Two copies are glued along a face when their sign vectors agree on the
characters parallel to that face. Read mod 2, that is a grouping of the
four copies: along the edge on ray ``v`` they are grouped by their value
on its quarter-turn, and at a vertex, whose only parallel character is
zero, nothing separates them, so all four meet. The rule never reads the
divisor: :func:`build_real_complex` builds ``d`` vertices, ``2d`` edges
(two classes per ray) and the four faces straight from the fan.

:func:`build_affine_span_complex` is a known-wrong variant kept for
demonstration: the same rule plus one anchor, a lattice point of each
face (the polygon corner), on which the copies must also agree. That
drags the divisor's offsets into the answer and breaks translation
invariance. Both are one construction; the parallel rule is the affine
one anchored at the origin.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from contextlib import suppress
from functools import lru_cache
from itertools import accumulate
from operator import index, itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import IndexOutOfRange, InvalidComplex, PolygonFanMismatch
from .fan import Fan, Vec, integer_argument, self_intersections
from .intmat import Matrix

if TYPE_CHECKING:  # an annotation only: classify never loads the polygon layer
    from .polytope import LatticePolygon

__all__ = [
    "SignHom",
    "ALL_SIGN_HOMS",
    "evaluate",
    "CellComplex",
    "NeighborhoodType",
    "build_real_complex",
    "build_affine_span_complex",
    "tubular_neighborhood",
    "complex_to_json",
    "complex_to_dot",
]


class _Signs(NamedTuple):
    s1: int
    s2: int


class SignHom(_Signs):
    """A homomorphism from the character lattice to ``{+1, -1}``.

    Determined by its values ``s1`` on ``(1, 0)`` and ``s2`` on ``(0, 1)``,
    each +1 or -1, else ValueError (``_replace`` and ``_make`` skip that
    check, as ``tuple.__new__`` does). Ordered as the pair ``(s1, s2)``.
    """

    __slots__ = ()

    def __new__(cls, s1: int, s2: int):
        if s1 not in (1, -1) or s2 not in (1, -1):
            raise ValueError("sign values must be +1 or -1")
        return super().__new__(cls, s1, s2)

    def __str__(self) -> str:
        return ("+" if self.s1 == 1 else "-") + ("+" if self.s2 == 1 else "-")


ALL_SIGN_HOMS: tuple[SignHom, ...] = (
    SignHom(1, 1),
    SignHom(1, -1),
    SignHom(-1, 1),
    SignHom(-1, -1),
)


def evaluate(eps: SignHom, u: Vec) -> int:
    """Value of the sign homomorphism on the character ``u``."""
    out = 1
    if u[0] % 2:
        out *= eps.s1
    if u[1] % 2:
        out *= eps.s2
    return out


class NeighborhoodType(enum.Enum):
    """Homeomorphism type of the glued strip around a ray's boundary circle."""

    CYLINDER = "cylinder"
    MOEBIUS_BAND = "moebius-band"


@lru_cache(maxsize=16)
def _signed_indices(num_edges: int) -> tuple:
    # By signed entry, itself if it names an edge: (None, 1..E, -E..-1).
    # One table per edge count, E = 2d on a real complex.
    return (None, *range(1, num_edges + 1), *range(-num_edges, 0))


def _names(table, x) -> bool:
    # Whether x is an integer, as operator.index judges it, and table[x] == x.
    try:
        return table[x] == x
    except (IndexError, TypeError):
        return False


def _sequence(cells, name: str, what: str, size: int | None = None) -> Sequence:
    # cells, if it is a sequence (of ``size`` entries, when one is given);
    # else InvalidComplex naming it.
    if not isinstance(cells, Sequence) or size not in (None, len(cells)):
        raise InvalidComplex(f"{name} is {cells!r}, not {what}")
    return cells


class CellComplex(NamedTuple):
    """A 2-dimensional CW complex with oriented edges and faces.

    Vertices are ``0 .. num_vertices - 1``. Edges are pairs ``(tail, head)``
    of vertex indices. Faces are tuples of signed 1-based edge indices in
    traversal order (positive means the edge is traversed tail to head),
    each a 2-cell attached along a closed walk: each signed edge starts
    where the one before it ends, cyclically. A single loop edge and the
    empty word are closed walks. The boundary matrices, ``homology``,
    ``euler_from_cells``, ``complex_to_json`` and ``complex_to_dot`` refuse
    what ``check_chain_complex`` refuses.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]

    def boundary_matrix_1(self) -> Matrix:
        """Vertices-by-edges boundary: head gets +1, tail gets -1."""
        self.check_chain_complex()
        rows = [[0] * len(self.edges) for _ in range(self.num_vertices)]
        for j, (tail, head) in enumerate(self.edges):
            rows[head][j] += 1
            rows[tail][j] -= 1
        return tuple(tuple(r) for r in rows)

    def boundary_matrix_2(self) -> Matrix:
        """Edges-by-faces boundary, built face by face and transposed."""
        self.check_chain_complex()
        rows = [[0] * len(self.edges) for _ in self.faces]
        for row, word in zip(rows, self.faces):
            for s in word:
                if s > 0:
                    row[s - 1] += 1
                else:
                    row[-s - 1] -= 1
        # Listed first: tuple() over the zip grows its result step by step,
        # and on a long run those reallocations raise peak memory by 2 MB.
        return tuple([*zip(*rows)]) if rows else ((),) * len(self.edges)

    def check_chain_complex(self) -> None:
        """Raise InvalidComplex unless ``num_vertices`` is an integer >= 0,
        every index names a cell, each integer as ``operator.index`` judges
        it, and every face word is a closed walk, so that ∂1∂2 = 0 with
        neither matrix formed.

        The count is checked first. C-level lookups then accept tuple or
        list fields, edges that are sequences of two int endpoints in range,
        and words of 2 or more entries. Else one pass decides: bad indices
        first, edges then faces, then the first break of a walk from face
        1, its closing step last. A field, an edge or a face that is no
        sequence, or an edge of other than two entries, is refused in that
        pass, in its place.
        """
        try:
            nv = index(self.num_vertices)
        except TypeError:
            nv = -1
        if nv < 0:
            raise InvalidComplex(
                f"num_vertices is {self.num_vertices!r}, not an integer >= 0"
            )
        edges, faces = self.edges, self.faces
        with suppress(IndexError, TypeError, ValueError):
            tails, heads = zip(*edges) if edges else ((), ())
            # By signed entry: its edge's start, its end, and itself if valid.
            # They exist once the edges pass the loop below.
            starts = (None,) + tails + heads[::-1]
            ends = (None,) + heads + tails[::-1]
            named = _signed_indices(len(edges))
            # Only tuple or list fields, and edges that the sequence pattern
            # matches: a set, a mapping or an iterator takes the pass below.
            arrays = type(edges) in (tuple, list) and type(faces) in (tuple, list)
            if arrays and type(sum(tails, sum(heads))) is int and all(
                len(w) > 1 and (at := itemgetter(*w))(named) == w
                and at(starts) == itemgetter(w[-1], *w[:-1])(ends)
                for w in faces
            ):
                for edge in edges:  # ints, so compared as they are
                    match edge:
                        case (tail, head) if 0 <= tail < nv and 0 <= head < nv:
                            continue
                    break
                else:
                    return
        for j, edge in enumerate(_sequence(edges, "edges", "a sequence"), 1):
            tail, head = _sequence(edge, f"edge {j}", "a pair of vertex indices", 2)
            if not (_names(range(nv), tail) and _names(range(nv), head)):
                raise InvalidComplex(
                    f"edge {j} is {(tail, head)}, with an endpoint outside 0..{nv - 1}"
                )
        for j, word in enumerate(_sequence(faces, "faces", "a sequence"), 1):
            for signed in _sequence(word, f"face {j}", "a word of signed edge indices"):
                if not _names(named, signed):
                    raise InvalidComplex(
                        f"face {j} has entry {signed!r}, not a signed edge index "
                        f"in 1..{len(edges)}"
                    )
        for j, word in enumerate(faces, 1):
            for k, (s, t) in enumerate(zip(word, (*word[1:], *word[:1])), 1):
                if starts[t] != ends[s]:
                    raise InvalidComplex(
                        f"face {j} is no closed walk: entry {k % len(word) + 1} starts"
                        f" at vertex {starts[t]}, entry {k} ends at vertex {ends[s]}"
                    )


def _grouping(key) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Each copy's class under ``key``, and the first copy of each class;
    # classes are numbered as they first appear in the fixed sign order.
    keys = [key(eps) for eps in ALL_SIGN_HOMS]
    first = [keys.index(k) for k in keys]
    reps = sorted(set(first))
    return tuple(reps.index(f) for f in first), tuple(reps)


_PARITIES = ((0, 0), (0, 1), (1, 0), (1, 1))

# Groupings by parity code (x & 1) << 1 | (y & 1), an index of _PARITIES:
# at a corner the anchor's; along a ray (never even) 4 * its code plus the
# anchor's, split by its quarter-turn (-y, x), of parity (y, x), and anchor.
_CORNER_CLASSES = [_grouping(lambda eps: evaluate(eps, a)) for a in _PARITIES]
_EDGE_CLASSES = [
    _grouping(lambda eps: (evaluate(eps, (y, x)), evaluate(eps, a))) if x | y else None
    for x, y in _PARITIES
    for a in _PARITIES
]


def _glue(fan: Fan, codes: Sequence[int]) -> CellComplex:
    # The layout both builders share, and complex_to_dot reads back. Corner
    # i joins rays i and i+1, codes[i] is the parity code of an anchor on
    # it, and its vertex classes are numbered in one block, corner by
    # corner. The edge classes of ray i follow ray by ray, each running
    # from corner i-1 to corner i. Face k is the copy ALL_SIGN_HOMS[k], and
    # its i-th entry is its class on ray i, always positive. Consecutive
    # anchors differ by a multiple of the ray's quarter-turn, so an edge
    # class lies in one class at each end, and its first copy finds them.
    corners = list(map(_CORNER_CLASSES.__getitem__, codes))
    rays = [_EDGE_CLASSES[(x & 1) << 3 | (y & 1) << 2 | a]
            for (x, y), a in zip(fan.rays, codes)]
    heads = [classes for classes, _ in corners]
    first_vertex = list(accumulate([len(r) for _, r in corners], initial=0))
    num_vertices = first_vertex.pop()
    first_edge = accumulate([len(r) for _, r in rays], initial=1)
    edges = [
        (t + tails[k], h + hs[k])
        for (_, reps), tails, hs, t, h in zip(
            rays, heads[-1:] + heads[:-1], heads,
            first_vertex[-1:] + first_vertex[:-1], first_vertex,
        )
        for k in reps
    ]
    # Copy k's entry on a ray is the ray's first edge plus its class there.
    words = zip(*[
        (e + c[0], e + c[1], e + c[2], e + c[3]) for e, (c, _) in zip(first_edge, rays)
    ])
    return CellComplex(num_vertices, tuple(edges), tuple(words))


def build_real_complex(fan: Fan) -> CellComplex:
    """Glued complex under the parallel-subgroup rule, divisor-free.

    All four copies meet at each corner, and along each ray they split in
    two by their value on the ray's quarter-turn: ``d`` vertices, ``2d``
    edges and four faces, numbered as laid out in ``_glue``.
    """
    return _glue(fan, [0] * fan.d)


def build_affine_span_complex(fan: Fan, polygon: LatticePolygon) -> CellComplex:
    """Glue the four polygon copies under the affine-span rule.

    Beyond the parallel subgroup, the copies must also agree at a lattice
    point of each face, the polygon corner, so the result depends on where
    the polygon sits in the lattice. Raises PolygonFanMismatch unless the
    polygon was built over this fan with edge ``i`` perpendicular to ray
    ``i``, as ``polygon_from_divisor`` builds it.
    """
    w = polygon.vertices
    if polygon.fan != fan or len(w) != fan.d or any(
        (b[0] - a[0]) * v[0] + (b[1] - a[1]) * v[1]
        for a, b, v in zip(w[-1:] + w[:-1], w, fan.rays)
    ):
        raise PolygonFanMismatch("polygon does not fit this fan")
    return _glue(fan, [(x & 1) << 1 | (y & 1) for x, y in w])


def tubular_neighborhood(fan: Fan, i: int) -> NeighborhoodType:
    """Strip around the glued boundary circle of ray ``i``.

    The two edge copies close up to a circle whose neighborhood twists
    exactly when the ray's self-intersection number is odd.
    """
    i = integer_argument("ray index", i)
    if not 0 <= i < fan.d:
        raise IndexOutOfRange(f"ray index {i} out of range for {fan.d} rays")
    a = self_intersections(fan)[i]
    return NeighborhoodType.MOEBIUS_BAND if a % 2 else NeighborhoodType.CYLINDER


def complex_to_json(c: CellComplex) -> dict:
    """JSON-ready mapping with vertex count, edge pairs, and face words,
    each number read through ``operator.index``, as the check reads it.

    A complex that ``check_chain_complex`` refuses is InvalidComplex.
    """
    c.check_chain_complex()
    return {
        "vertices": index(c.num_vertices),
        "edges": [list(map(index, e)) for e in c.edges],
        "faces": [list(map(index, w)) for w in c.faces],
    }


def _copy_labels(c: CellComplex) -> dict[tuple[str, int], str]:
    # Labels by copies, keyed ("w", vertex) or ("E", edge), when the valid
    # complex follows the builders' layout (see _glue): four faces of equal
    # length and positive entries, whose i-th edge and its head appear at
    # position i only. Empty for any other complex.
    if (len(c.faces) != len(ALL_SIGN_HOMS) or len({len(w) for w in c.faces}) != 1
            or any(s < 0 for w in c.faces for s in w)):
        return {}
    seen: dict[tuple[str, int], tuple[int, list[SignHom]]] = {}
    for eps, word in zip(ALL_SIGN_HOMS, c.faces):
        for i, j in enumerate(word):
            for cell in (("E", j - 1), ("w", c.edges[j - 1][1])):
                pos, members = seen.setdefault(cell, (i, []))
                if pos != i:
                    return {}
                members.append(eps)
    return {
        (kind, n): f"w{i}"
        if kind == "w" and len(members) == len(ALL_SIGN_HOMS)
        else f"{kind}{i}[{','.join(map(str, members))}]"
        for (kind, n), (i, members) in seen.items()
    }


def complex_to_dot(c: CellComplex) -> str:
    """Graphviz digraph of the 1-skeleton.

    On a complex laid out as the builders make it (see ``_glue``), each
    cell is labelled by the copies that meet there: an edge on ray ``i`` is
    ``E{i}[copies]``, and a vertex at corner ``i`` is ``w{i}[copies]``, or
    ``w{i}`` where all four copies meet. Any other complex, and a cell in
    no face, keeps ``v{n}`` and ``e{j}``. A complex that
    ``check_chain_complex`` refuses is InvalidComplex.
    """
    c.check_chain_complex()
    labels = _copy_labels(c)
    lines = ["digraph real_complex {"]
    for v in range(c.num_vertices):
        lines.append(f'  v{v} [label="{labels.get(("w", v), f"v{v}")}"];')
    for j, (tail, head) in enumerate(c.edges):
        label = labels.get(("E", j), f"e{j}")
        lines.append(f'  v{index(tail)} -> v{index(head)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
