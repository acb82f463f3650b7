"""Cell complexes for the real point set, glued from four polygon copies.

The real points away from the axes fall into four components, one per
sign vector ``(s1, s2)`` with ``s1, s2 in {+1, -1}``. Each component
closes up to a copy of the moment polygon, and the copies are glued along
boundary faces. A sign vector acts on a character ``u = (u1, u2)`` by

    evaluate((s1, s2), u) = s1**u1 * s2**u2,

which depends only on ``u mod 2``.

The correct rule glues two copies along a face when their sign vectors
agree on the subgroup of characters parallel to that face. For an edge
with outward ray ``v`` this subgroup is generated by the quarter-turn
``rot90(v)``; for a vertex it is the whole character lattice, so all four
copies meet at every vertex. The rule never reads the divisor, so the
complex has one construction, :func:`build_real_complex`, straight from
the fan: ``d`` vertices, ``2d`` edges (two parallel classes per fan ray),
and the four polygon faces.

:func:`build_affine_span_complex` is a known-wrong variant kept for
demonstration: the copies must also agree on the lattice points of the
face's affine span, which drags the divisor's offsets into the answer and
breaks translation invariance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import IndexOutOfRange, InvalidComplex, PolygonFanMismatch
from .fan import Fan, Vec, rot90, self_intersections
from .intmat import Matrix
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


@dataclass(frozen=True, order=True)
class SignHom:
    """A homomorphism from the character lattice to ``{+1, -1}``.

    Determined by its values ``s1`` on ``(1, 0)`` and ``s2`` on ``(0, 1)``.
    """

    s1: int
    s2: int

    def __post_init__(self):
        if self.s1 not in (1, -1) or self.s2 not in (1, -1):
            raise ValueError("sign values must be +1 or -1")

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


@dataclass(frozen=True)
class CellComplex:
    """A 2-dimensional cell complex with oriented edges and faces.

    Edges are pairs ``(tail, head)`` of vertex indices. Faces are tuples
    of signed 1-based edge indices in traversal order (positive means the
    edge is traversed tail to head). Labels are documentation only and do
    not take part in equality.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]
    vertex_labels: tuple[str, ...] = field(default=(), compare=False)
    edge_labels: tuple[str, ...] = field(default=(), compare=False)
    face_labels: tuple[str, ...] = field(default=(), compare=False)

    def _checked_edges(self) -> tuple[tuple[int, int], ...]:
        # The edges, once every endpoint is known to be a vertex index.
        nv = self.num_vertices
        for j, (tail, head) in enumerate(self.edges):
            if not (0 <= tail < nv and 0 <= head < nv):
                raise InvalidComplex(
                    f"edge {j + 1} is {(tail, head)}, with an endpoint "
                    f"outside 0..{nv - 1}"
                )
        return self.edges

    def _checked_faces(self) -> tuple[tuple[int, ...], ...]:
        # The faces, once every entry is known to name an edge.
        ne = len(self.edges)
        for j, word in enumerate(self.faces):
            for signed in word:
                if not 0 < abs(signed) <= ne:
                    raise InvalidComplex(
                        f"face {j + 1} has entry {signed}, not a signed "
                        f"edge index in 1..{ne}"
                    )
        return self.faces

    def boundary_matrix_1(self) -> Matrix:
        """Vertices-by-edges boundary: head gets +1, tail gets -1.

        An endpoint outside ``0..num_vertices-1`` is InvalidComplex.
        """
        rows = [[0] * len(self.edges) for _ in range(self.num_vertices)]
        for j, (tail, head) in enumerate(self._checked_edges()):
            rows[head][j] += 1
            rows[tail][j] -= 1
        return tuple(tuple(r) for r in rows)

    def boundary_matrix_2(self) -> Matrix:
        """Edges-by-faces boundary from the signed traversal words.

        An entry that is 0 or names no edge is InvalidComplex.
        """
        rows = [[0] * len(self.faces) for _ in range(len(self.edges))]
        for j, word in enumerate(self._checked_faces()):
            for signed in word:
                idx = abs(signed) - 1
                rows[idx][j] += 1 if signed > 0 else -1
        return tuple(tuple(r) for r in rows)

    def check_chain_complex(self) -> None:
        """Raise InvalidComplex unless the boundary of every face is zero.

        This is ``boundary_matrix_1() @ boundary_matrix_2() == 0``, one
        column at a time, read straight off the face words without forming
        either matrix: each signed edge adds +-(head - tail) to a count per
        vertex, and every count must end at zero. It takes time linear in
        the total word length. Bad indices are refused as in the builders.
        """
        edges = self._checked_edges()
        for j, word in enumerate(self._checked_faces()):
            count: dict[int, int] = {}
            for signed in word:
                tail, head = edges[abs(signed) - 1]
                s = 1 if signed > 0 else -1
                count[head] = count.get(head, 0) + s
                count[tail] = count.get(tail, 0) - s
            if any(count.values()):
                raise InvalidComplex(
                    f"boundary of a boundary is not zero on face {j + 1}"
                )


def build_real_complex(fan: Fan) -> CellComplex:
    """Glued complex under the parallel-subgroup rule, divisor-free.

    Vertices: one per 2-dimensional cone (all four copies meet there).
    Edges: two per ray, indexed ``2*i`` for the class where the glued sign
    vectors evaluate ``+1`` on ``rot90(v[i])`` and ``2*i + 1`` for ``-1``.
    Edge ``(i, s)`` runs from the vertex of cone ``i-1`` to that of cone
    ``i``. Faces: the four copies in the fixed sign order ``++ +- -+ --``.
    """
    d = fan.d
    edges = []
    edge_labels = []
    for i in range(d):
        for s in (1, -1):
            edges.append(((i - 1) % d, i))
            edge_labels.append(f"({i},{'+' if s == 1 else '-'})")
    faces = []
    face_labels = []
    for eps in ALL_SIGN_HOMS:
        word = []
        for i in range(d):
            s = evaluate(eps, rot90(fan.rays[i]))
            idx = 2 * i + (0 if s == 1 else 1)
            word.append(idx + 1)
        faces.append(tuple(word))
        face_labels.append(f"P[{eps}]")
    return CellComplex(
        num_vertices=d,
        edges=tuple(edges),
        faces=tuple(faces),
        vertex_labels=tuple(f"w{i}" for i in range(d)),
        edge_labels=tuple(edge_labels),
        face_labels=tuple(face_labels),
    )


def _classes(keys: dict[SignHom, object]) -> list[tuple[SignHom, ...]]:
    # Group the four sign vectors by key, ordered by first appearance in
    # the fixed sign order.
    out: list[tuple[SignHom, ...]] = []
    seen: list[object] = []
    for eps in ALL_SIGN_HOMS:
        k = keys[eps]
        if k not in seen:
            seen.append(k)
            out.append(tuple(e for e in ALL_SIGN_HOMS if keys[e] == k))
    return out


def build_affine_span_complex(fan: Fan, polygon: LatticePolygon) -> CellComplex:
    """Glue the four polygon copies under the affine-span rule.

    The copies are merged class by class: beyond the parallel subgroup,
    they must also agree at a lattice point of each face's affine span, so
    the result depends on where the polygon sits in the lattice. Raises
    PolygonFanMismatch when the polygon was built over another fan.
    """
    if polygon.fan != fan:
        raise PolygonFanMismatch("polygon was built over a different fan")
    d = fan.d
    verts = polygon.vertices

    # Vertex classes. verts[i] is the corner between rays i and i+1; the
    # copies that agree on the corner itself are merged.
    vertex_class_of: dict[tuple[int, SignHom], int] = {}
    vertex_labels = []
    for i in range(d):
        keys = {eps: evaluate(eps, verts[i]) for eps in ALL_SIGN_HOMS}
        for members in _classes(keys):
            index = len(vertex_labels)
            for eps in members:
                vertex_class_of[(i, eps)] = index
            if len(members) == 4:
                vertex_labels.append(f"w{i}")
            else:
                vertex_labels.append(f"w{i}[{','.join(map(str, members))}]")

    # Edge classes. Edge i lies on the boundary line of ray i and joins
    # the corners i-1 and i; its parallel subgroup is generated by the
    # quarter-turn of the ray, and verts[i] serves as a lattice point of
    # its affine span.
    edge_class_of: dict[tuple[int, SignHom], int] = {}
    edges = []
    edge_labels = []
    for i in range(d):
        u = rot90(fan.rays[i])
        keys = {
            eps: (evaluate(eps, u), evaluate(eps, verts[i]))
            for eps in ALL_SIGN_HOMS
        }
        for members in _classes(keys):
            index = len(edges)
            for eps in members:
                edge_class_of[(i, eps)] = index
            endpoints = {
                (
                    vertex_class_of[((i - 1) % d, eps)],
                    vertex_class_of[(i, eps)],
                )
                for eps in members
            }
            if len(endpoints) != 1:
                raise RuntimeError(
                    "edge identification would tear its endpoints apart"
                )
            edges.append(next(iter(endpoints)))
            edge_labels.append(f"E{i}[{','.join(map(str, members))}]")

    faces = []
    face_labels = []
    for eps in ALL_SIGN_HOMS:
        faces.append(tuple(edge_class_of[(i, eps)] + 1 for i in range(d)))
        face_labels.append(f"P[{eps}]")

    return CellComplex(
        num_vertices=len(vertex_labels),
        edges=tuple(edges),
        faces=tuple(faces),
        vertex_labels=tuple(vertex_labels),
        edge_labels=tuple(edge_labels),
        face_labels=tuple(face_labels),
    )


def tubular_neighborhood(fan: Fan, i: int) -> NeighborhoodType:
    """Strip around the glued boundary circle of ray ``i``.

    The two edge copies close up to a circle whose neighborhood twists
    exactly when the ray's self-intersection number is odd.
    """
    if not 0 <= i < fan.d:
        raise IndexOutOfRange(f"ray index {i} out of range for {fan.d} rays")
    a = self_intersections(fan)[i]
    return NeighborhoodType.MOEBIUS_BAND if a % 2 else NeighborhoodType.CYLINDER


def complex_to_json(c: CellComplex) -> dict:
    """JSON-ready mapping with vertex count, edge pairs, and face words."""
    return {
        "vertices": c.num_vertices,
        "edges": [list(e) for e in c.edges],
        "faces": [list(w) for w in c.faces],
    }


def complex_to_dot(c: CellComplex) -> str:
    """Graphviz digraph of the 1-skeleton with edge-class labels."""
    lines = ["digraph real_complex {"]
    for i in range(c.num_vertices):
        label = c.vertex_labels[i] if i < len(c.vertex_labels) else f"v{i}"
        lines.append(f'  v{i} [label="{label}"];')
    for j, (tail, head) in enumerate(c.edges):
        label = c.edge_labels[j] if j < len(c.edge_labels) else f"e{j}"
        lines.append(f'  v{tail} -> v{head} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
