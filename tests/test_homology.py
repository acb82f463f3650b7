"""Homology profiles, surface recognition, and the verification pipeline."""

import importlib
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realtoric import (
    CellComplex,
    HomologyProfile,
    InvalidComplex,
    NotAClosedSurfaceProfile,
    SurfaceType,
    apply_map,
    blow_up,
    build_affine_span_complex,
    build_real_complex,
    classify_surface,
    complex_to_dot,
    complex_to_json,
    corpus_fans,
    euler_from_cells,
    find_ample,
    hirzebruch_fan,
    homology,
    mat_mul,
    normalize_fan,
    orientable_fast,
    polygon_from_divisor,
    predict_theorem,
    projective_plane_fan,
    random_fan,
    report_to_json,
    smith_normal_form,
    verify,
)

P2 = projective_plane_fan()


def rational_rank(a):
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    row = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col] / m[row][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


class TestProfiles:
    def test_plane(self):
        h = homology(build_real_complex(P2))
        assert (h.b0, h.b1, h.b2) == (1, 0, 0)
        assert h.torsion == (2,)

    @pytest.mark.parametrize("a", [0, 2, 4])
    def test_even_four_ray_fans(self, a):
        h = homology(build_real_complex(hirzebruch_fan(a)))
        assert (h.b0, h.b1, h.b2) == (1, 2, 1)
        assert h.torsion == ()

    @pytest.mark.parametrize("a", [1, 3])
    def test_odd_four_ray_fans(self, a):
        h = homology(build_real_complex(hirzebruch_fan(a)))
        assert (h.b0, h.b1, h.b2) == (1, 1, 0)
        assert h.torsion == (2,)

    def test_euler_agreement(self):
        fan = random_fan(4, 6)
        h = homology(build_real_complex(fan))
        assert h.euler_characteristic == 4 - fan.d

    def test_rejects_non_chain_complex(self):
        broken = CellComplex(
            num_vertices=2,
            edges=((0, 1),),
            faces=((1,),),
        )
        with pytest.raises(InvalidComplex):
            homology(broken)

    def test_smith_rank_matches_rational_rank(self):
        for seed in range(5):
            c = build_real_complex(random_fan(seed, 5))
            for boundary in [c.boundary_matrix_1(), c.boundary_matrix_2()]:
                assert smith_normal_form(boundary).rank == rational_rank(boundary)


def _entry_points(c):
    # Each reads the complex only once check_chain_complex accepts it.
    return (
        c.boundary_matrix_1,
        c.boundary_matrix_2,
        c.check_chain_complex,
        lambda: homology(c),
        lambda: euler_from_cells(c),
        lambda: complex_to_json(c),
        lambda: complex_to_dot(c),
    )


class TestCellIndices:
    # Python's negative indexing used to read these as other cells.
    def test_negative_vertex(self):
        c = CellComplex(2, ((0, -1),), ())
        for build in (c.boundary_matrix_1, c.check_chain_complex, lambda: homology(c)):
            with pytest.raises(InvalidComplex, match=r"edge 1 is \(0, -1\)"):
                build()

    def test_vertex_past_the_last(self):
        c = CellComplex(2, ((0, 2),), ())
        for build in (c.boundary_matrix_1, c.check_chain_complex, lambda: homology(c)):
            with pytest.raises(InvalidComplex, match=r"outside 0\.\.1"):
                build()

    @pytest.mark.parametrize("entry", [0, 3, -3])
    def test_face_entry_that_names_no_edge(self, entry):
        c = CellComplex(2, ((0, 1), (1, 0)), ((entry, 2),))
        for build in (c.boundary_matrix_2, c.check_chain_complex, lambda: homology(c)):
            with pytest.raises(InvalidComplex, match=f"face 1 has entry {entry}"):
                build()

    @pytest.mark.parametrize(
        "c, message",
        [
            # A float endpoint compares equal to a vertex index, but homology
            # used to fail on it with a TypeError.
            pytest.param(
                CellComplex(2, ((0.0, 1), (1, 0.0)), ((1, 2),)),
                r"edge 1 is \(0\.0, 1\)",
                id="float endpoints",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (None, 0)), ((1, 2),)),
                r"edge 2 is \(None, 0\)",
                id="endpoint None",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (1, 0)), ((1.0, 2),)),
                "face 1 has entry 1.0,",
                id="float face entry",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (1, 0)), ((1, "2"),)),
                "face 1 has entry '2',",
                id="string face entry",
            ),
            # The vertex count is checked first; range() used to fail on a
            # float one with a TypeError, and on a string one the check did.
            pytest.param(
                CellComplex(2.0, ((0, 1), (1, 0)), ((1, 2),)),
                "num_vertices is 2.0, not an integer >= 0",
                id="float vertex count",
            ),
            pytest.param(
                CellComplex("3", ((0, 1), (1, 0)), ((1.0, 2),)),
                "num_vertices is '3', not an integer >= 0",
                id="string vertex count",
            ),
            pytest.param(
                CellComplex(None, ((0, 1), (None, 0)), ((1, 2),)),
                "num_vertices is None, not an integer >= 0",
                id="vertex count None",
            ),
            # The JSON export once returned it as it was, and the cell count
            # raised a bare TypeError.
            pytest.param(
                CellComplex("3", ((0, 5),), ((7,),)),
                "num_vertices is '3', not an integer >= 0",
                id="string vertex count and bad indices",
            ),
        ],
    )
    def test_index_that_is_no_integer(self, c, message):
        # Each entry point checks every index of the complex.
        for build in _entry_points(c):
            with pytest.raises(InvalidComplex, match=message):
                build()

    @pytest.mark.parametrize(
        "c",
        [
            # Once homology's rank guard and an empty DOT graph saw it, and
            # the cell count gave -1.
            pytest.param(CellComplex(-1, (), ()), id="empty"),
            # Checked before the endpoints, which lie outside 0..-2.
            pytest.param(CellComplex(-1, ((0, 1), (1, 0)), ((1, 2),)), id="edges"),
        ],
    )
    def test_negative_vertex_count(self, c):
        for build in _entry_points(c):
            with pytest.raises(InvalidComplex, match="num_vertices is -1, not an"):
                build()

    def test_integers_as_operator_index_judges_them(self):
        # A bool or an int subclass is an integer index, and so is a count
        # that only has __index__. The cell count used to raise a bare
        # TypeError on such a count, and the JSON export returned it as it
        # was, which json.dumps refuses, and true for the bool entries.
        class Index(int):
            pass

        class Count:
            def __index__(self):
                return 2

        c = CellComplex(Count(), ((0, True), (Index(1), 0)), ((True, Index(2)),))
        plain = CellComplex(2, ((0, 1), (1, 0)), ((1, 2),))
        assert c.check_chain_complex() is None
        assert homology(c) == homology(plain)
        assert complex_to_dot(c) == complex_to_dot(plain)
        assert c.boundary_matrix_1() == plain.boundary_matrix_1()
        assert c.boundary_matrix_2() == plain.boundary_matrix_2()
        assert euler_from_cells(c) == euler_from_cells(plain) == 1
        assert json.dumps(complex_to_json(c)) == json.dumps(complex_to_json(plain))

    @pytest.mark.parametrize(
        "c, message",
        [
            pytest.param(
                CellComplex(2, ((0, 1), (1, 0, 5)), ((1, 2),)),
                r"edge 2 is \(1, 0, 5\), not a pair of vertex indices",
                id="edge of three entries",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (1,)), ((1, 2),)),
                r"edge 2 is \(1,\), not a pair",
                id="edge of one entry",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), 7), ()),
                "edge 2 is 7, not a pair",
                id="int edge",
            ),
            pytest.param(
                CellComplex(2, None, ()), "edges is None, not a sequence", id="no edges"
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (1, 0)), None),
                "faces is None, not a sequence",
                id="no faces",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (1, 0)), ((1, 2), 5)),
                "face 2 is 5, not a word of signed edge indices",
                id="int face",
            ),
            pytest.param(
                CellComplex(2, ((0, 1), (1, 0)), ({1, 2},)),
                r"face 1 is \{1, 2\}, not a word",
                id="set face",
            ),
            # Edges are checked before faces.
            pytest.param(
                CellComplex(2, ((0, 1), (1,)), None),
                r"edge 2 is \(1,\), not a pair",
                id="short edge and no faces",
            ),
        ],
    )
    def test_cell_that_is_no_sequence(self, c, message):
        # Each used to escape as a bare ValueError or TypeError.
        for build in _entry_points(c):
            with pytest.raises(InvalidComplex, match=message):
                build()

    def test_any_sequence_is_a_cell(self):
        # A walk is read off any sequence, not only off a tuple.
        c = CellComplex(2, [[0, 1], range(1, -1, -1)], [range(1, 3), [1, 2]])
        plain = CellComplex(2, ((0, 1), (1, 0)), ((1, 2),) * 2)
        assert homology(c) == homology(plain)
        assert complex_to_json(c) == complex_to_json(plain)


def closed_walk(draw, edges):
    # A walk of up to 4 steps along the edges, either way round, closed by
    # going back the way it came unless it has already come back; a loop
    # edge alone is a closed walk of one entry.
    start = at = draw(st.sampled_from([tail for tail, _ in edges]))
    word = []
    for _ in range(draw(st.integers(1, 4))):
        steps = [j for j, (tail, _) in enumerate(edges, 1) if tail == at]
        steps += [-j for j, (_, head) in enumerate(edges, 1) if head == at]
        s = draw(st.sampled_from(steps))
        word.append(s)
        at = edges[s - 1][1] if s > 0 else edges[-s - 1][0]
    if at != start or draw(st.booleans()):
        word += [-s for s in reversed(word)]
    return word


def is_closed_walk(edges, word):
    # Each signed edge starts where the one before it ends, cyclically.
    steps = [edges[s - 1] if s > 0 else edges[-s - 1][::-1] for s in word]
    return all(before[1] == step[0] for before, step in zip(steps[-1:] + steps, steps))


@st.composite
def small_complexes(draw):
    """Complexes on up to 4 vertices and 5 edges, with valid indices.

    A face word is a closed walk, or random, so mostly not a walk, or a
    random word followed by its reverse with signs flipped, which always
    has zero boundary but is seldom a walk.
    """
    nv = draw(st.integers(1, 4))
    ne = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    edges = tuple((draw(vertex), draw(vertex)) for _ in range(ne))
    signed = st.integers(1, ne).flatmap(lambda k: st.sampled_from([k, -k]))
    faces = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            word = closed_walk(draw, edges)
        else:
            word = draw(st.lists(signed, max_size=5))
            if draw(st.booleans()):
                word += [-x for x in reversed(word)]
        faces.append(tuple(word))
    return CellComplex(nv, edges, tuple(faces))


@given(c=small_complexes())
@example(c=CellComplex(2, ((0, 1), (1, 0)), ((1, 2),)))
@example(c=CellComplex(2, ((0, 1), (1, 0)), ((1, 2), (1, -2))))
# Each face has a nonzero boundary, but the two boundaries cancel.
@example(c=CellComplex(2, ((0, 1),), ((1,), (-1,))))
# Two components, {0, 1} and {2}, and a loop at 2 that bounds the face.
@example(c=CellComplex(3, ((0, 1), (2, 2)), ((2,),)))
# Zero boundary, but the word jumps from vertex 0 to vertex 2.
@example(c=CellComplex(3, ((0, 1), (1, 0), (2, 2)), ((1, 2, 3),)))
@settings(max_examples=300, deadline=None)
def test_boundary_check_agrees_with_the_matrix_product(c):
    # A complex of closed walks has ∂1∂2 = 0 and the homology of the Smith
    # forms; any other is refused.
    if not all(is_closed_walk(c.edges, word) for word in c.faces):
        with pytest.raises(InvalidComplex, match="is no closed walk"):
            homology(c)
        return
    d1, d2 = c.boundary_matrix_1(), c.boundary_matrix_2()
    assert not any(x for row in mat_mul(d1, d2) for x in row)
    s1, s2 = smith_normal_form(d1), smith_normal_form(d2)
    assert set(s1.diag) <= {1}
    assert homology(c) == HomologyProfile(
        c.num_vertices - s1.rank,
        len(c.edges) - s1.rank - s2.rank,
        len(c.faces) - s2.rank,
        tuple(x for x in s2.diag if x > 1),
    )


def components(c):
    # The connected components of the 1-skeleton, by depth-first search.
    neighbours = [[] for _ in range(c.num_vertices)]
    for tail, head in c.edges:
        neighbours[tail].append(head)
        neighbours[head].append(tail)
    seen = [False] * c.num_vertices
    count = 0
    for start in range(c.num_vertices):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def full_smith_profile(c):
    """The homology of ``c`` from a Smith form of all the columns of ∂2's
    transpose, zero and repeated ones included, and rank ∂1 from the
    components of the 1-skeleton."""
    r1 = c.num_vertices - components(c)
    s2 = smith_normal_form(tuple(zip(*c.boundary_matrix_2())))
    return HomologyProfile(
        c.num_vertices - r1,
        len(c.edges) - r1 - s2.rank,
        len(c.faces) - s2.rank,
        tuple(x for x in s2.diag if x > 1),
    )


def ladder_fan(d):
    # d rays, built directly: random_fan is quadratic in its blow-ups.
    return normalize_fan([(1, j) for j in range(d - 3)] + [(0, 1), (-1, 0), (0, -1)])


# The one-vertex cell structures of three closed surfaces, with their
# homology: every edge is a loop, and the one face reads the usual word.
HAND_BUILT = {
    "RP2": (CellComplex(1, ((0, 0),), ((1, 1),)), HomologyProfile(1, 0, 0, (2,))),
    "Klein bottle": (
        CellComplex(1, ((0, 0), (0, 0)), ((1, 2, -1, 2),)),
        HomologyProfile(1, 1, 0, (2,)),
    ),
    "torus": (
        CellComplex(1, ((0, 0), (0, 0)), ((1, 2, -1, -2),)),
        HomologyProfile(1, 2, 1, ()),
    ),
}

# The acceptance corpus, F_0 ... F_60 and the projective plane.
ORACLE_FANS = (
    corpus_fans(20260817, 200, 16) + [hirzebruch_fan(a) for a in range(61)] + [P2]
)


class TestAgainstTheFullSmithForm:
    # homology factors only the distinct columns of ∂2's transpose, up to
    # sign; the oracle factors all of them.
    def test_real_complexes(self):
        for fan in ORACLE_FANS:
            c = build_real_complex(fan)
            assert homology(c) == full_smith_profile(c), fan

    @pytest.mark.parametrize("d", [4, 5, 8, 16, 64, 128, 192, 512, 1004, 1504])
    def test_d_sweep(self, d):
        fans = [ladder_fan(d)]
        if d <= 192:
            fans.append(random_fan(d, d - random_fan(d, 0).d))
        for fan in fans:
            assert fan.d == d
            c = build_real_complex(fan)
            assert homology(c) == full_smith_profile(c), fan

    def test_affine_span_complexes(self):
        for fan in ORACLE_FANS:
            c = build_affine_span_complex(fan, polygon_from_divisor(fan, find_ample(fan)))
            assert homology(c) == full_smith_profile(c), fan

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_surfaces(self, name):
        c, profile = HAND_BUILT[name]
        assert homology(c) == full_smith_profile(c) == profile


def loop_complex(num_faces, columns):
    """One vertex, a loop per column, and a face per row: face ``i`` runs
    ``|a|`` times around loop ``j``, forwards when ``a = columns[j][i]`` is
    positive, so the faces-by-edges transpose of ∂2 has these columns."""
    faces = tuple(
        tuple(
            (j + 1 if a > 0 else -(j + 1))
            for j, column in enumerate(columns)
            for a in [column[i]] * abs(column[i])
        )
        for i in range(num_faces)
    )
    return CellComplex(1, ((0, 0),) * len(columns), faces)


@st.composite
def repeated_columns(draw):
    """Up to 4 rows, and columns drawn from up to 3 base columns, each
    maybe negated or repeated, mixed with zero columns."""
    num_rows = draw(st.integers(0, 4))
    column = st.tuples(*[st.integers(-3, 3)] * num_rows)
    base = draw(st.lists(column, min_size=1, max_size=3)) + [(0,) * num_rows]
    picks = st.tuples(st.sampled_from(base), st.sampled_from([1, -1]))
    columns = [
        tuple(sign * x for x in col) for col, sign in draw(st.lists(picks, max_size=8))
    ]
    return num_rows, columns


@given(shape=repeated_columns())
@example(shape=(0, []))
@example(shape=(3, []))
@example(shape=(2, [(0, 0), (0, 0)]))
@example(shape=(2, [(1, -2), (-1, 2), (1, -2), (0, 0), (2, 2)]))
@example(shape=(1, [(2,), (-2,)]))
@settings(max_examples=300, deadline=None)
def test_dropping_zero_and_repeated_columns_keeps_the_smith_form(shape):
    num_rows, columns = shape
    full = tuple(zip(*columns)) if columns else ((),) * num_rows
    c = loop_complex(num_rows, columns)
    assert c.boundary_matrix_2() == tuple(columns)
    reduced = importlib.import_module("realtoric.homology")._distinct_columns(c)
    kept = list(zip(*reduced))
    assert all(any(col) for col in kept)
    assert len({frozenset((col, tuple(-x for x in col))) for col in kept}) == len(kept)
    assert smith_normal_form(reduced).diag == smith_normal_form(full).diag
    assert homology(c) == full_smith_profile(c)


# Two more one-vertex complexes: a sphere, two disks on one loop, and a
# disk. The disk's one distinct column is (1), RP2's is (2): equal shapes.
SPHERE = (CellComplex(1, ((0, 0),), ((1,), (-1,))), HomologyProfile(1, 0, 1, ()))
DISK = (CellComplex(1, ((0, 0),), ((1,),)), HomologyProfile(1, 0, 0, ()))


def test_cold_and_warm_memo_agree():
    # homology memoizes the invariant factors on the distinct columns of
    # ∂2's transpose. Each profile with the memo emptied first must equal
    # the profile in one run through a mixed sequence, warm or not.
    memo = importlib.import_module("realtoric.homology")._factors
    known = [SPHERE, HAND_BUILT["RP2"], HAND_BUILT["Klein bottle"]]
    known += [HAND_BUILT["torus"], DISK]
    complexes = [c for c, _ in known] + [
        build_affine_span_complex(fan, polygon_from_divisor(fan, find_ample(fan)))
        for fan in ORACLE_FANS[:200]
    ]
    cold = []
    for c in complexes:
        memo.cache_clear()
        cold.append(homology(c))
    assert cold[: len(known)] == [profile for _, profile in known]
    memo.cache_clear()
    for _ in range(2):
        assert [homology(c) for c in complexes] == cold


def normal_form(surface):
    """The one-face complex of a closed surface's normal-form polygon word:
    a a⁻¹ on two vertices for the sphere; on one vertex,
    a1 b1 a1⁻¹ b1⁻¹ ... for orientable genus g and a1 a1 a2 a2 ... for the
    connect sum of k projective planes (Massey, ch. 1)."""
    if surface == SurfaceType(True, 0):
        return CellComplex(2, ((0, 1),), ((1, -1),))
    if surface.orientable:
        pairs = range(1, 2 * surface.genus, 2)
        word = [s for i in pairs for s in (i, i + 1, -i, -i - 1)]
    else:
        word = [i for i in range(1, surface.genus + 1) for _ in range(2)]
    return CellComplex(1, ((0, 0),) * max(word), (tuple(word),))


def subdivide(c, e):
    # Edge e now ends at a new vertex, and a new last edge runs on from it
    # to e's old head; each face crosses both where it crossed e.
    tail, head = c.edges[e - 1]
    v, new = c.num_vertices, len(c.edges) + 1
    edges = c.edges[: e - 1] + ((tail, v),) + c.edges[e:] + ((v, head),)
    crossing = {e: (e, new), -e: (-new, -e)}
    faces = tuple(
        tuple(x for s in word for x in crossing.get(s, (s,))) for word in c.faces
    )
    return CellComplex(v + 1, edges, faces)


def split(c, f, i, j):
    # Face f cut in two along a new edge from the start of its entry i to
    # the start of its entry j, for i < j.
    word = c.faces[f]
    starts = [c.edges[s - 1][0] if s > 0 else c.edges[-s - 1][1] for s in word]
    new = len(c.edges) + 1
    halves = (word[i:j] + (-new,), word[j:] + word[:i] + (new,))
    return CellComplex(
        c.num_vertices,
        c.edges + ((starts[i], starts[j]),),
        c.faces[:f] + halves + c.faces[f + 1 :],
    )


def surface_profile(surface):
    # The homology of a closed surface: Z, Z^(2g), Z when orientable of
    # genus g, and Z, Z^(k-1) + Z/2, 0 for k projective planes.
    if surface.orientable:
        return HomologyProfile(1, 2 * surface.genus, 1, ())
    return HomologyProfile(1, surface.genus - 1, 0, (2,))


def expected_profile(parts, wedged):
    # Homology adds over a disjoint union, and reduced homology adds over a
    # wedge: either way b1, b2 and the torsion are the sums of the parts'.
    profiles = [surface_profile(s) for s in parts]
    return HomologyProfile(
        1 if wedged else len(parts),
        sum(p.b1 for p in profiles),
        sum(p.b2 for p in profiles),
        tuple(sorted(x for p in profiles for x in p.torsion)),
    )


def join(c, other, at=None):
    # The disjoint union of two complexes, or their wedge at ``at``, a
    # vertex of each. The other's cells are numbered after this one's, and
    # its vertex ``at[1]`` becomes this one's ``at[0]``.
    nv, ne = c.num_vertices, len(c.edges)
    new = list(range(nv, nv + other.num_vertices))
    if at is not None:
        mine, theirs = at
        new = new[:theirs] + [mine] + [v - 1 for v in new[theirs + 1 :]]
    return CellComplex(
        nv + other.num_vertices - (at is not None),
        c.edges + tuple((new[t], new[h]) for t, h in other.edges),
        c.faces
        + tuple(tuple(s + ne if s > 0 else s - ne for s in w) for w in other.faces),
    )


@st.composite
def one_surface(draw):
    """A closed surface, orientable of genus 0 to 5 or nonorientable of
    genus 1 to 5, and a complex for it: its normal form, then up to 11
    random edge subdivisions and face splits along a diagonal. Every face
    word keeps 2 or more entries."""
    orientable = draw(st.booleans())
    surface = SurfaceType(orientable, draw(st.integers(0 if orientable else 1, 5)))
    c = normal_form(surface)
    for _ in range(draw(st.integers(0, 11))):
        if draw(st.booleans()):
            c = subdivide(c, draw(st.integers(1, len(c.edges))))
        else:
            f = draw(st.integers(0, len(c.faces) - 1))
            i = draw(st.integers(0, len(c.faces[f]) - 2))
            c = split(c, f, i, draw(st.integers(i + 1, len(c.faces[f]) - 1)))
    return surface, c


@st.composite
def closed_surfaces(draw):
    """``(parts, wedged, c)``: one drawn surface, half the time, as
    ``((surface,), False, c)``; else two, ``c`` their disjoint union or,
    when ``wedged``, the two wedged at a drawn vertex of each."""
    first, c = draw(one_surface())
    if draw(st.booleans()):
        return (first,), False, c
    second, other = draw(one_surface())
    at = None
    if draw(st.booleans()):
        at = (
            draw(st.integers(0, c.num_vertices - 1)),
            draw(st.integers(0, other.num_vertices - 1)),
        )
    return (first, second), at is not None, join(c, other, at)


@given(drawn=closed_surfaces())
@settings(max_examples=300, deadline=None)
def test_closed_surfaces_classify_as_drawn(drawn):
    # The classification of surfaces is an oracle for homology on complexes
    # no fan builds: many Smith inputs, loops, and more than four faces. A
    # union or a wedge of two surfaces is no closed surface.
    parts, wedged, c = drawn
    assert c.check_chain_complex() is None
    profile = homology(c)
    assert profile == expected_profile(parts, wedged)
    if len(parts) == 1:
        assert classify_surface(profile) == parts[0]
    else:
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(profile)


class TestEuler:
    def test_cells_match_formula(self):
        # d vertices, 2d edges and 4 faces
        for seed in range(8):
            fan = random_fan(seed, seed % 5)
            assert euler_from_cells(build_real_complex(fan)) == 4 - fan.d


class TestClassify:
    def test_projective_plane_profile(self):
        assert classify_surface(HomologyProfile(1, 0, 0, (2,))) == SurfaceType(
            orientable=False, genus=1
        )

    def test_torus_profile(self):
        assert classify_surface(HomologyProfile(1, 2, 1, ())) == SurfaceType(
            orientable=True, genus=1
        )

    def test_klein_bottle_profile(self):
        t = classify_surface(HomologyProfile(1, 1, 0, (2,)))
        assert t == SurfaceType(orientable=False, genus=2)
        assert str(t) == "Klein bottle"

    def test_four_fold_sum_profile(self):
        t = classify_surface(HomologyProfile(1, 3, 0, (2,)))
        assert t == SurfaceType(orientable=False, genus=4)

    def test_sphere_profile(self):
        t = classify_surface(HomologyProfile(1, 0, 1, ()))
        assert t == SurfaceType(orientable=True, genus=0)
        assert str(t) == "sphere S²"

    def test_rejects_disconnected(self):
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(HomologyProfile(2, 0, 0, ()))

    def test_rejects_odd_first_betti_with_top_class(self):
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(HomologyProfile(1, 1, 1, ()))

    def test_rejects_torsion_with_top_class(self):
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(HomologyProfile(1, 2, 1, (2,)))

    def test_rejects_wrong_torsion(self):
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(HomologyProfile(1, 1, 0, (3,)))
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(HomologyProfile(1, 2, 0, (2, 2)))

    def test_rejects_extra_top_classes(self):
        with pytest.raises(NotAClosedSurfaceProfile):
            classify_surface(HomologyProfile(1, 4, 2, ()))

    @pytest.mark.parametrize(
        "profile, betti",
        [
            (HomologyProfile(1, -2, 1, ()), "(1, -2, 1) with torsion []"),
            (HomologyProfile(1, -1, 0, (2,)), "(1, -1, 0) with torsion [2]"),
        ],
    )
    def test_rejects_negative_first_betti(self, profile, betti):
        # No surface has a negative genus; the profile is refused as input,
        # not left to SurfaceType's internal ValueError.
        with pytest.raises(NotAClosedSurfaceProfile, match=re.escape(betti)):
            classify_surface(profile)

    def test_display_strings(self):
        assert str(SurfaceType(True, 1)) == "torus S¹×S¹"
        assert str(SurfaceType(False, 1)) == "RP²"
        assert str(SurfaceType(False, 2)) == "Klein bottle"
        assert str(SurfaceType(False, 5)) == "connect sum of 5 copies of RP²"

    @pytest.mark.parametrize(
        "genus, text",
        [(2, "orientable surface of genus 2"), (7, "orientable surface of genus 7")],
    )
    def test_orientable_display_strings_past_the_torus(self, genus, text):
        assert str(SurfaceType(True, genus)) == text

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            SurfaceType(orientable=False, genus=0)
        with pytest.raises(ValueError):
            SurfaceType(False, 0)
        with pytest.raises(ValueError):
            SurfaceType(True, -1)
        with pytest.raises(ValueError):
            SurfaceType(orientable=True, genus=-1)

    def test_replace_skips_validation(self):
        # _replace builds through tuple.__new__, not SurfaceType.__new__.
        assert SurfaceType(False, 1)._replace(genus=0) == (False, 0)

    def test_records_hash_as_their_field_tuple(self):
        # As the tuple of its fields, so set and dict orders follow the values.
        assert hash(HomologyProfile(1, 0, 0, (2,))) == hash((1, 0, 0, (2,)))
        assert hash(SurfaceType(False, 1)) == hash((False, 1))


class TestPredict:
    def test_even_four_ray_fans_give_torus(self):
        for a in (0, 2, 4):
            assert predict_theorem(hirzebruch_fan(a)) == SurfaceType(True, 1)

    def test_even_four_ray_fan_after_map_gives_torus(self):
        image = apply_map(hirzebruch_fan(4), ((1, 2), (0, 1)))
        assert predict_theorem(image) == SurfaceType(True, 1)

    def test_odd_four_ray_fans_give_klein_bottle(self):
        for a in (1, 3):
            assert predict_theorem(hirzebruch_fan(a)) == SurfaceType(False, 2)

    def test_plane(self):
        assert predict_theorem(P2) == SurfaceType(False, 1)

    def test_big_fans(self):
        fan = random_fan(6, 7)
        assert predict_theorem(fan) == SurfaceType(False, fan.d - 2)


class TestOrientableFast:
    def test_examples(self):
        assert orientable_fast(hirzebruch_fan(2))
        assert not orientable_fast(hirzebruch_fan(3))
        assert not orientable_fast(P2)
        assert not orientable_fast(blow_up(hirzebruch_fan(0), 0))

    def test_verify_reads_self_intersections_only_to_predict(self, monkeypatch):
        # orientable_fast reads ray parities, so a verify computes the
        # self-intersections once on a 4-ray fan, in predict_theorem, and
        # never on any other. Wrapped in every module that binds them.
        original = sys.modules["realtoric.fan"].self_intersections
        calls = []

        def counting(fan):
            calls.append(fan)
            return original(fan)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "realtoric" and (
                getattr(module, "self_intersections", None) is original
            ):
                monkeypatch.setattr(module, "self_intersections", counting)
        fans = [P2, blow_up(P2, 0), random_fan(3, 5), ladder_fan(64)]
        fans += [hirzebruch_fan(a) for a in range(6)]
        for fan in fans:
            calls.clear()
            verify(fan)
            assert len(calls) == (1 if fan.d == 4 else 0), fan


class TestVerify:
    def test_canonical_fans_consistent(self):
        fans = [P2] + [hirzebruch_fan(a) for a in range(5)]
        for fan in fans:
            report = verify(fan)
            assert report.all_consistent
            assert report.computed == report.predicted

    def test_report_json_schema(self):
        obj = report_to_json(verify(P2))
        assert list(obj.keys()) == [
            "fan",
            "d",
            "predicted",
            "computed",
            "orientable_fast",
            "betti",
            "torsion",
            "all_consistent",
        ]
        assert obj["fan"] == [[1, 0], [0, 1], [-1, -1]]
        assert obj["d"] == 3
        assert obj["computed"] == "RP²"
        assert obj["betti"] == [1, 0, 0]
        assert obj["torsion"] == [2]
        assert obj["all_consistent"] is True

    def test_orientability_flags_agree(self):
        for seed in range(10):
            report = verify(random_fan(seed, seed % 6))
            assert report.orientable_fast == report.orientable_homology

    @pytest.mark.parametrize("d", [*range(32, 321, 32), 512, 1004])
    def test_large_fans_match_the_closed_form(self, d):
        # Every blow-up makes the surface nonorientable: a connect sum of
        # d - 2 projective planes, so b = (1, d - 3, 0) with torsion (2).
        fan = random_fan(d, d - random_fan(d, 0).d)
        assert fan.d == d
        report = verify(fan)
        assert report.profile == HomologyProfile(1, d - 3, 0, (2,))
        assert report.computed == SurfaceType(False, d - 2)
        assert report.all_consistent

    def test_ten_thousand_rays(self):
        # A fan of 10,004 rays built directly: random_fan's blow-ups would
        # take minutes at this size, and verify itself is linear in d.
        fan = normalize_fan(
            [(1, j) for j in range(10_001)] + [(0, 1), (-1, 0), (0, -1)]
        )
        assert fan.d == 10_004
        report = verify(fan)
        assert report.profile == HomologyProfile(1, 10_001, 0, (2,))
        assert report.computed == SurfaceType(False, 10_002)
        assert report.all_consistent


def mod2_word(fan):
    # Each ray's parity class as a code (x mod 2) << 1 | (y mod 2), 1 to 3,
    # in ray order. The glued complex reads a fan only through it.
    return tuple((x & 1) << 1 | (y & 1) for x, y in fan.rays)


def mod2_class(word):
    # The least word under rotation, reversal and GL2(Z/2), which permutes
    # the three codes as S3: one key per class.
    d = len(word)
    return min(
        view[j : j + d]
        for p in permutations((1, 2, 3))
        for mapped in [tuple(p[c - 1] for c in word)]
        for view in (mapped * 2, mapped[::-1] * 2)
        for j in range(d)
    )


@lru_cache(maxsize=None)
def mod2_classes(max_rays):
    """One fan per mod-2 class of smooth complete fans with at most
    ``max_rays`` rays, keyed by its class.

    Every such fan is a blow-up of P2 or of some F_a (Oda, Convex Bodies
    and Algebraic Geometry, 1988), F_a is F_0 or F_1 mod 2, and a blow-up
    inserts between two neighbours the sum of their codes. So blowing up
    one fan per class at d rays, in every cone, reaches every class at
    d + 1, and only the class of each result is computed before it is new.
    """
    level = {
        mod2_class(mod2_word(fan)): fan
        for fan in (P2, hirzebruch_fan(0), hirzebruch_fan(1))
    }
    classes = dict(level)
    while level:
        new = {}
        for fan in level.values():
            if fan.d == max_rays:
                continue
            word = mod2_word(fan)
            for i, code in enumerate(word):
                inserted = code ^ word[(i + 1) % fan.d]
                key = mod2_class((*word[: i + 1], inserted, *word[i + 1 :]))
                if key not in classes and key not in new:
                    new[key] = blow_up(fan, i)
        classes.update(new)
        level = new
    return classes


# Classes by number of rays; 305 in all.
MOD2_CLASS_COUNTS = {
    3: 1, 4: 2, 5: 1, 6: 3, 7: 3, 8: 7, 9: 8, 10: 17, 11: 21, 12: 47, 13: 63, 14: 132
}


def test_every_mod2_class_up_to_fourteen_rays_verifies():
    # Every smooth complete fan of up to 14 rays glues the complex of one of
    # these fans, so verify is consistent on all of them, not only on a
    # sample.
    classes = mod2_classes(14)
    assert Counter(fan.d for fan in classes.values()) == MOD2_CLASS_COUNTS
    for key, fan in classes.items():
        assert mod2_class(mod2_word(fan)) == key
        assert verify(fan).all_consistent, fan
