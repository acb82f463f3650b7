"""Integral homology of the glued complex, and surface classification.

Everything is exact. The 1-skeleton is a graph, so the vertex-edge
boundary ∂1 is its incidence matrix: its rank is the number of vertices
minus the number of connected components, read off a union-find over the
edges, and it adds no torsion (an incidence matrix is totally unimodular,
so every invariant factor is 1 and H0 is free). Only the edge-face
boundary ∂2 gets a Smith form, for its rank and the torsion of H1, on
its distinct columns up to sign: 4 or 6 on the real complex at any d,
and only two such inputs arise, so the factors are memoized on them.
Closed-surface recognition goes through the standard homology profiles

    orientable genus g:      Z, Z^(2g), Z
    nonorientable genus k:   Z, Z^(k-1) + Z/2, 0

``verify`` compares the classified homology with the type predicted from
the fan, and the parity rule for orientability with ``b2 == 1``; a
profile that is no closed surface fails the comparison. The
complex has ``d``, ``2d`` and ``4`` cells by construction, so its Euler
characteristic ``4 - d`` is not compared with anything.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, neg
from typing import NamedTuple

from .errors import InvalidComplex, NotAClosedSurfaceProfile
from .fan import Fan, fan_to_json, self_intersections
from .gluing import CellComplex, build_real_complex
from .intmat import Matrix, smith_normal_form

__all__ = [
    "HomologyProfile",
    "SurfaceType",
    "VerificationReport",
    "homology",
    "euler_from_cells",
    "classify_surface",
    "predict_theorem",
    "orientable_fast",
    "verify",
    "report_to_json",
]


class HomologyProfile(NamedTuple):
    """Betti numbers plus the torsion invariant factors of degree 1."""

    b0: int
    b1: int
    b2: int
    torsion: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        return self.b0 - self.b1 + self.b2


def _spanning_forest_size(
    num_vertices: int, edges: tuple[tuple[int, int], ...]
) -> int:
    # rank ∂1: the edges that join two components, by union-find with
    # path halving. A loop edge or a second edge between the same two
    # components merges nothing.
    parent = list(range(num_vertices))
    merges = 0
    for a, b in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _distinct_columns(c: CellComplex) -> Matrix:
    # The faces-by-edges transpose of ∂2, with one copy of each distinct
    # nonzero column (a row of ∂2), signed so that its first nonzero entry
    # is positive, in sorted order. Dropping a zero column or a repeat up
    # to sign is unimodular, so the invariant factors are unchanged.
    # InvalidComplex unless check_chain_complex accepts c.
    distinct = {max(row, tuple(map(neg, row))) for row in set(c.boundary_matrix_2())}
    distinct.discard((0,) * len(c.faces))
    return tuple(zip(*sorted(distinct)))


@lru_cache(maxsize=8)
def _factors(m: Matrix) -> tuple[int, ...]:
    # The real complex gives one of two inputs at any d: nearly all hits.
    return smith_normal_form(m).diag


def homology(c: CellComplex) -> HomologyProfile:
    """Exact integral homology of a 2-dimensional cell complex.

    Raises InvalidComplex unless the vertex count is an integer >= 0,
    every index names a cell and every face word is a closed walk
    (``CellComplex.check_chain_complex``).

    rank ∂1 is the size of a spanning forest of the 1-skeleton, so
    ``b0`` is its number of components; H0 is free because ∂1, a graph's
    incidence matrix, has every invariant factor 1. No ∂1 matrix is
    built. The rank of ∂2 and the torsion of H1 come from one Smith form,
    taken on the faces-by-edges transpose of ∂2 (``boundary_matrix_2``,
    with zero columns and repeats up to sign dropped), which has the same
    invariant factors; a small memo keyed on those columns serves repeats.
    Closed walks give ∂1∂2 = 0, so no rank exceeds its chain group's.
    """
    # ∂2 is read first: it refuses c unless check_chain_complex accepts it.
    diag = _factors(_distinct_columns(c))
    r1 = _spanning_forest_size(c.num_vertices, c.edges)
    b0 = index(c.num_vertices) - r1
    b1 = len(c.edges) - r1 - len(diag)
    b2 = len(c.faces) - len(diag)
    torsion = tuple(x for x in diag if x > 1)
    return HomologyProfile(b0=b0, b1=b1, b2=b2, torsion=torsion)


def euler_from_cells(c: CellComplex) -> int:
    """Alternating cell count ``V - E + F`` of a complex that
    ``check_chain_complex`` accepts, else InvalidComplex; ``V`` is read
    through ``operator.index``, as the check reads it."""
    c.check_chain_complex()
    return index(c.num_vertices) - len(c.edges) + len(c.faces)


class _Surface(NamedTuple):
    orientable: bool
    genus: int


class SurfaceType(_Surface):
    """A closed connected surface: orientable of genus ``g >= 0``, or a
    connect sum of ``genus >= 1`` projective planes.

    Any other genus is a ValueError; ``_replace`` and ``_make`` skip that
    check, as ``tuple.__new__`` does.
    """

    __slots__ = ()

    def __new__(cls, orientable: bool, genus: int):
        if orientable and genus < 0:
            raise ValueError("orientable genus must be >= 0")
        if not orientable and genus < 1:
            raise ValueError("nonorientable genus must be >= 1")
        return super().__new__(cls, orientable, genus)

    def __str__(self) -> str:
        if self.orientable:
            if self.genus == 0:
                return "sphere S²"
            if self.genus == 1:
                return "torus S¹×S¹"
            return f"orientable surface of genus {self.genus}"
        if self.genus == 1:
            return "RP²"
        if self.genus == 2:
            return "Klein bottle"
        return f"connect sum of {self.genus} copies of RP²"


def classify_surface(profile: HomologyProfile) -> SurfaceType:
    """Match a homology profile to the closed surface realizing it.

    Raises NotAClosedSurfaceProfile when no closed connected surface has
    the given groups.
    """
    if profile.b0 != 1:
        raise NotAClosedSurfaceProfile(
            f"b0 = {profile.b0}, want a connected space with b0 = 1"
        )
    chi = profile.euler_characteristic
    if profile.b2 == 1 and not profile.torsion:
        if profile.b1 % 2 == 0 and profile.b1 >= 0:
            return SurfaceType(orientable=True, genus=profile.b1 // 2)
    if profile.b2 == 0 and profile.torsion == (2,) and profile.b1 >= 0:
        return SurfaceType(orientable=False, genus=2 - chi)
    raise NotAClosedSurfaceProfile(
        f"betti ({profile.b0}, {profile.b1}, {profile.b2}) with torsion "
        f"{list(profile.torsion)} is not a closed surface profile"
    )


def predict_theorem(fan: Fan) -> SurfaceType:
    """Predicted type straight from the fan, no chains involved.

    A 4-ray fan whose largest absolute self-intersection is even (an even
    Hirzebruch surface) gives the torus; every other valid fan gives the
    connect sum of ``d - 2`` projective planes.
    """
    if fan.d == 4 and max(abs(a) for a in self_intersections(fan)) % 2 == 0:
        return SurfaceType(orientable=True, genus=1)
    return SurfaceType(orientable=False, genus=fan.d - 2)


def orientable_fast(fan: Fan) -> bool:
    """Orientability without homology: no ray has odd self-intersection.

    In a valid fan ``v[i-1] + v[i+1] == -a[i] * v[i]``, ``v[i]`` primitive,
    so ``a[i]`` is odd exactly when ``v[i-1]`` and ``v[i+1]`` differ mod 2.
    """
    p = [(x & 1) << 1 | (y & 1) for x, y in fan.rays]
    return p[2:] + p[:2] == p


class VerificationReport(NamedTuple):
    """Everything computed for one fan, plus the cross-check verdict.

    ``computed`` is None when the homology is no closed surface's.
    """

    fan: Fan
    predicted: SurfaceType
    computed: SurfaceType | None
    profile: HomologyProfile
    orientable_fast: bool
    orientable_homology: bool
    all_consistent: bool


def verify(fan: Fan) -> VerificationReport:
    """Run the whole pipeline on one fan and compare every view.

    Consistency means: the homology classification equals the predicted
    type, and the parity shortcut for orientability agrees with
    ``b2 == 1``. The fan is valid, so a complex whose homology is not a
    closed surface's is a fault of the construction, not of the input: it
    gives ``computed=None`` and an inconsistent report, not an error; an
    InvalidComplex from its own complex is re-raised as a RuntimeError.
    """
    try:
        profile = homology(build_real_complex(fan))
    except InvalidComplex as exc:
        raise RuntimeError(f"the glued complex is invalid: {exc}") from exc
    try:
        computed = classify_surface(profile)
    except NotAClosedSurfaceProfile:
        computed = None
    predicted = predict_theorem(fan)
    fast = orientable_fast(fan)
    by_homology = profile.b2 == 1
    return VerificationReport(
        fan=fan,
        predicted=predicted,
        computed=computed,
        profile=profile,
        orientable_fast=fast,
        orientable_homology=by_homology,
        all_consistent=computed == predicted and fast == by_homology,
    )


def report_to_json(report: VerificationReport) -> dict:
    """Flat JSON-ready mapping with a stable key order."""
    return {
        "fan": fan_to_json(report.fan)["rays"],
        "d": report.fan.d,
        "predicted": str(report.predicted),
        "computed": None if report.computed is None else str(report.computed),
        "orientable_fast": report.orientable_fast,
        "betti": [report.profile.b0, report.profile.b1, report.profile.b2],
        "torsion": list(report.profile.torsion),
        "all_consistent": report.all_consistent,
    }
