"""Homology profiles, surface recognition, and the verification pipeline."""

import importlib
from fractions import Fraction

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


@st.composite
def small_complexes(draw):
    """Complexes on up to 4 vertices and 5 edges, with valid indices.

    A face word is random, so mostly not a cycle, or a random word followed
    by its reverse with signs flipped, which always has zero boundary.
    """
    nv = draw(st.integers(1, 4))
    ne = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    edges = tuple((draw(vertex), draw(vertex)) for _ in range(ne))
    signed = st.integers(1, ne).flatmap(lambda k: st.sampled_from([k, -k]))
    faces = []
    for _ in range(draw(st.integers(0, 3))):
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
@settings(max_examples=300, deadline=None)
def test_boundary_check_agrees_with_the_matrix_product(c):
    d1, d2 = c.boundary_matrix_1(), c.boundary_matrix_2()
    product = mat_mul(d1, d2)
    if any(x for row in product for x in row):
        with pytest.raises(InvalidComplex, match="boundary of a boundary"):
            homology(c)
    else:
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

    def test_display_strings(self):
        assert str(SurfaceType(True, 1)) == "torus S¹×S¹"
        assert str(SurfaceType(False, 1)) == "RP²"
        assert str(SurfaceType(False, 2)) == "Klein bottle"
        assert str(SurfaceType(False, 5)) == "connect sum of 5 copies of RP²"

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            SurfaceType(orientable=False, genus=0)


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
