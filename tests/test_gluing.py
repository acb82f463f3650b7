"""Sign vectors, the glued complex, and the two identification rules."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtoric import (
    ALL_SIGN_HOMS,
    CellComplex,
    IndexOutOfRange,
    InvalidComplex,
    LatticePolygon,
    NeighborhoodType,
    PolygonFanMismatch,
    SignHom,
    ToricDivisor,
    blow_up,
    build_affine_span_complex,
    build_real_complex,
    complex_to_dot,
    complex_to_json,
    corpus_fans,
    evaluate,
    find_ample,
    hirzebruch_fan,
    polygon_from_divisor,
    projective_plane_fan,
    random_fan,
    self_intersections,
    translate_divisor,
    tubular_neighborhood,
)
from test_homology import HAND_BUILT, mod2_class, mod2_classes, mod2_word

P2 = projective_plane_fan()
PAIRS = list(itertools.combinations(enumerate(ALL_SIGN_HOMS), 2))


def assert_glued_by_rule(fan, anchors, c):
    # Copies k and k' share their i-th face entry exactly when they agree
    # on the quarter-turn of ray i and on corner i, and their i-th edges
    # share a head exactly when they agree on corner i.
    for i, (x, y) in enumerate(fan.rays):
        for (k, e), (m, f) in PAIRS:
            corner = evaluate(e, anchors[i]) == evaluate(f, anchors[i])
            edge = corner and evaluate(e, (-y, x)) == evaluate(f, (-y, x))
            a, b = c.faces[k][i], c.faces[m][i]
            assert (a == b) == edge, (fan, anchors, i, k, m)
            heads = c.edges[a - 1][1], c.edges[b - 1][1]
            assert (heads[0] == heads[1]) == corner, (fan, anchors, i, k, m)


def connected(c):
    if c.num_vertices == 0:
        return True
    adjacency = {i: set() for i in range(c.num_vertices)}
    for tail, head in c.edges:
        adjacency[tail].add(head)
        adjacency[head].add(tail)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == c.num_vertices


class TestSignHom:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignHom(0, 1)
        with pytest.raises(ValueError):
            SignHom(s1=0, s2=1)
        with pytest.raises(ValueError):
            SignHom(1, 2)
        with pytest.raises(ValueError):
            SignHom(s1=1, s2=2)

    def test_replace_skips_validation(self):
        # _replace builds through tuple.__new__, not SignHom.__new__.
        assert SignHom(1, 1)._replace(s2=2) == (1, 2)

    def test_order_is_lexicographic_on_the_pair(self):
        assert sorted(ALL_SIGN_HOMS) == [
            SignHom(-1, -1),
            SignHom(-1, 1),
            SignHom(1, -1),
            SignHom(1, 1),
        ]

    def test_string_form(self):
        assert [str(e) for e in ALL_SIGN_HOMS] == ["++", "+-", "-+", "--"]

    def test_evaluate_depends_on_parity_only(self):
        eps = SignHom(-1, 1)
        assert evaluate(eps, (2, 0)) == 1
        assert evaluate(eps, (3, 0)) == -1
        assert evaluate(eps, (-3, 4)) == -1
        assert evaluate(eps, (1, 1)) == -1

    def test_evaluate_on_axis_character(self):
        # value on (a, 1) alternates with a for the all-minus vector
        eps = SignHom(-1, -1)
        for a in range(6):
            assert evaluate(eps, (a, 1)) == (-1) ** (a + 1)


@given(
    s1=st.sampled_from([1, -1]),
    s2=st.sampled_from([1, -1]),
    u=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    w=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
@settings(max_examples=80, deadline=None)
def test_evaluate_is_a_homomorphism(s1, s2, u, w):
    eps = SignHom(s1, s2)
    total = (u[0] + w[0], u[1] + w[1])
    assert evaluate(eps, total) == evaluate(eps, u) * evaluate(eps, w)


class TestCombinatorialComplex:
    def test_cell_counts(self):
        for fan in [P2, hirzebruch_fan(0), random_fan(3, 5)]:
            c = build_real_complex(fan)
            assert c.num_vertices == fan.d
            assert len(c.edges) == 2 * fan.d
            assert len(c.faces) == 4

    def test_boundary_composition_vanishes(self):
        for seed in range(6):
            c = build_real_complex(random_fan(seed, 4))
            d1 = c.boundary_matrix_1()
            d2 = c.boundary_matrix_2()
            rows = len(d1)
            cols = len(d2[0])
            prod = [
                [sum(d1[i][k] * d2[k][j] for k in range(len(d2))) for j in range(cols)]
                for i in range(rows)
            ]
            assert all(x == 0 for row in prod for x in row)

    def test_each_edge_lies_on_two_faces(self):
        c = build_real_complex(hirzebruch_fan(3))
        uses = [0] * len(c.edges)
        for word in c.faces:
            for signed in word:
                uses[abs(signed) - 1] += 1
        assert uses == [2] * len(c.edges)

    def test_connected(self):
        for seed in range(5):
            assert connected(build_real_complex(random_fan(seed, 3)))

    def test_edge_endpoints(self):
        c = build_real_complex(P2)
        assert c.edges == ((2, 0), (2, 0), (0, 1), (0, 1), (1, 2), (1, 2))

    def test_face_words_traverse_every_ray_once(self):
        fan = random_fan(11, 4)
        c = build_real_complex(fan)
        for word in c.faces:
            assert len(word) == fan.d
            rays_hit = sorted((abs(s) - 1) // 2 for s in word)
            assert rays_hit == list(range(fan.d))


class TestPolytopeBuilders:
    def test_affine_rule_on_even_corners_matches_combinatorial_builder(self):
        # With every corner in 2Z^2 the anchors read as the origin, so the
        # affine rule must reproduce the parallel one: numbering, endpoints
        # and face words.
        for s in range(40):
            fan = random_fan(s, s % 6)
            div = find_ample(fan)
            doubled = ToricDivisor(tuple(2 * b for b in div.coeffs))
            poly = polygon_from_divisor(fan, doubled)
            assert all(x % 2 == 0 and y % 2 == 0 for x, y in poly.vertices)
            built = build_affine_span_complex(fan, poly)
            assert built == build_real_complex(fan)

    def test_affine_rule_underglues_the_triangle(self):
        poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
        c = build_affine_span_complex(P2, poly)
        assert (c.num_vertices, len(c.edges), len(c.faces)) == (6, 12, 4)

    def test_affine_rule_depends_on_polygon_position(self):
        fan = hirzebruch_fan(0)
        unit = polygon_from_divisor(fan, ToricDivisor((0, 0, 1, 1)))
        symmetric = polygon_from_divisor(fan, ToricDivisor((1, 1, 1, 1)))
        a_unit = build_affine_span_complex(fan, unit)
        a_sym = build_affine_span_complex(fan, symmetric)
        assert a_unit != a_sym
        assert (a_unit.num_vertices, len(a_unit.edges)) == (7, 12)
        assert (a_sym.num_vertices, len(a_sym.edges)) == (8, 16)

    def test_affine_rule_not_translation_invariant(self):
        fan = hirzebruch_fan(0)
        div = ToricDivisor((1, 1, 1, 1))
        moved = translate_divisor(fan, div, (1, 1))
        a = build_affine_span_complex(fan, polygon_from_divisor(fan, div))
        b = build_affine_span_complex(fan, polygon_from_divisor(fan, moved))
        assert a != b

    def test_affine_rule_invariant_under_even_translation(self):
        fan = hirzebruch_fan(0)
        div = ToricDivisor((1, 1, 1, 1))
        moved = translate_divisor(fan, div, (2, -4))
        a = build_affine_span_complex(fan, polygon_from_divisor(fan, div))
        b = build_affine_span_complex(fan, polygon_from_divisor(fan, moved))
        assert a == b

    def test_rule_by_definition(self):
        # The anchors are the origin and the ample polygon moved by each
        # parity.
        fans = corpus_fans(20260817, 200, 16) + [hirzebruch_fan(a) for a in range(21)]
        for fan in fans:
            assert_glued_by_rule(fan, [(0, 0)] * fan.d, build_real_complex(fan))
            div = find_ample(fan)
            for u in ((0, 0), (1, 0), (0, 1), (1, 1)):
                poly = polygon_from_divisor(fan, translate_divisor(fan, div, u))
                c = build_affine_span_complex(fan, poly)
                assert_glued_by_rule(fan, poly.vertices, c)

    def test_rule_on_every_mod2_class(self):
        # A fault on one local pattern of parities, such as a long run of
        # two alternating ones, can leave the homology as it is and miss
        # the seeded fans; every class has each pattern up to 14 rays.
        for fan in mod2_classes(14).values():
            assert_glued_by_rule(fan, [(0, 0)] * fan.d, build_real_complex(fan))

    def test_fan_mismatch_rejected(self):
        poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
        with pytest.raises(PolygonFanMismatch):
            build_affine_span_complex(hirzebruch_fan(0), poly)
        # A hand-built polygon over the right fan must still have one
        # corner per cone, with edge i perpendicular to ray i.
        w = poly.vertices
        moved = (w[0], (w[1][0] + 1, w[1][1]), w[2])
        for vertices in (w + ((0, 0),), w[:2], moved):
            bad = LatticePolygon(fan=P2, offsets=poly.offsets, vertices=vertices)
            with pytest.raises(PolygonFanMismatch):
                build_affine_span_complex(P2, bad)


class TestTubularNeighborhood:
    def test_odd_parameter_gives_twisted_strips(self):
        fan = hirzebruch_fan(1)
        kinds = [tubular_neighborhood(fan, i) for i in range(4)]
        assert kinds == [
            NeighborhoodType.CYLINDER,
            NeighborhoodType.MOEBIUS_BAND,
            NeighborhoodType.CYLINDER,
            NeighborhoodType.MOEBIUS_BAND,
        ]

    def test_plane_is_fully_twisted(self):
        assert all(
            tubular_neighborhood(P2, i) is NeighborhoodType.MOEBIUS_BAND
            for i in range(3)
        )

    def test_even_parameter_gives_cylinders(self):
        fan = hirzebruch_fan(2)
        assert all(
            tubular_neighborhood(fan, i) is NeighborhoodType.CYLINDER
            for i in range(4)
        )

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            tubular_neighborhood(P2, 3)

    def test_strips_follow_the_self_intersections(self):
        # The strip reads only the parities of the ray's two neighbours;
        # the exact numbers twist it when they are odd. Every mod-2 class
        # up to 14 rays, and F_0 ... F_59.
        fans = [*mod2_classes(14).values(), *map(hirzebruch_fan, range(60))]
        for fan in fans:
            kinds = [tubular_neighborhood(fan, i) for i in range(fan.d)]
            odd = [a % 2 == 1 for a in self_intersections(fan)]
            assert [k is NeighborhoodType.MOEBIUS_BAND for k in kinds] == odd, fan


class TestExport:
    def test_json_shape(self):
        c = build_real_complex(P2)
        obj = complex_to_json(c)
        assert obj["vertices"] == 3
        assert obj["edges"] == [[2, 0], [2, 0], [0, 1], [0, 1], [1, 2], [1, 2]]
        assert len(obj["faces"]) == 4
        assert all(
            isinstance(s, int) and s != 0 and abs(s) <= 6
            for word in obj["faces"]
            for s in word
        )

    def test_dot_output(self):
        text = complex_to_dot(build_real_complex(blow_up(P2, 1)))
        assert text.startswith("digraph")
        assert '"E0[++,-+]"' in text and '"E3[+-,-+]"' in text
        assert text.count("->") == 8

    def test_dot_of_a_hand_built_complex(self):
        # Not in the builders' layout, so no cell is labelled by copies.
        assert complex_to_dot(HAND_BUILT["RP2"][0]) == (
            "digraph real_complex {\n"
            '  v0 [label="v0"];\n'
            '  v0 -> v0 [label="e0"];\n'
            "}\n"
        )
        with pytest.raises(InvalidComplex):
            complex_to_dot(CellComplex(1, ((0, 0),), ((2,),)))
        with pytest.raises(InvalidComplex):
            complex_to_dot(CellComplex(1, ((0, 1),), ()))

    def test_dot_labels_only_the_builders_layout(self):
        # The parallel complex of P2 with one face word reversed is still a
        # chain complex, but its faces no longer read ray by ray.
        c = build_real_complex(P2)
        reversed_0 = tuple(-s for s in c.faces[0][::-1])
        flipped = CellComplex(c.num_vertices, c.edges, (reversed_0,) + c.faces[1:])
        flipped.check_chain_complex()
        text = complex_to_dot(flipped)
        assert "[" not in text.replace("[label", "") and '"e5"' in text

    @pytest.mark.parametrize("a", range(6))
    def test_dot_labels_the_papers_hirzebruch_example(self, a):
        # The paper's F_a: its four copies P_eps are labelled
        # (eps(e1*), eps(e2*)), all four meet at each corner, and along the
        # edge on ray (x, y) the copies glued together are exactly those
        # with equal eps(u_F), u_F = (-y, x) being the edge's direction.
        # eps(u) = s1^(u1 mod 2) * s2^(u2 mod 2) is read off the label here,
        # not through evaluate or the gluing tables.
        def eps(label, u):
            s1, s2 = (1 if sign == "+" else -1 for sign in label)
            return s1 ** (u[0] % 2) * s2 ** (u[1] % 2)

        fan = hirzebruch_fan(a)
        text = complex_to_dot(build_real_complex(fan))
        vertices = re.findall(r'^  v\d+ \[label="([^"]*)"\]', text, re.M)
        assert vertices == ["w0", "w1", "w2", "w3"]
        edges = re.findall(r'-> v\d+ \[label="E(\d+)\[([^]]*)\]"\]', text)
        assert len(edges) == 8
        copies = ["++", "+-", "-+", "--"]
        for i, (x, y) in enumerate(fan.rays):
            on_ray = [sorted(labels.split(",")) for j, labels in edges if j == str(i)]
            assert [len(c) for c in on_ray] == [2, 2], i
            classes = [
                sorted(c for c in copies if eps(c, (-y, x)) == sign) for sign in (1, -1)
            ]
            assert sorted(on_ray) == sorted(classes), (i, on_ray)

    @pytest.mark.parametrize("k", range(4))
    def test_dot_of_a_rotated_face_keeps_plain_names(self, k):
        # Face k's word started one entry later is still a closed walk, but
        # its edges and their heads then sit at other positions than in
        # the faces that share them, so no cell is labelled by copies.
        c = build_real_complex(P2)
        word = c.faces[k][1:] + c.faces[k][:1]
        rotated = c._replace(faces=c.faces[:k] + (word,) + c.faces[k + 1 :])
        assert complex_to_dot(rotated) == (
            "digraph real_complex {\n"
            '  v0 [label="v0"];\n'
            '  v1 [label="v1"];\n'
            '  v2 [label="v2"];\n'
            '  v2 -> v0 [label="e0"];\n'
            '  v2 -> v0 [label="e1"];\n'
            '  v0 -> v1 [label="e2"];\n'
            '  v0 -> v1 [label="e3"];\n'
            '  v1 -> v2 [label="e4"];\n'
            '  v1 -> v2 [label="e5"];\n'
            "}\n"
        )


def test_fans_with_one_mod2_word_glue_one_complex():
    # The glued complex depends on the rays mod 2 alone: 6,040 fans in
    # 1,253 words, each fan's JSON the same bytes as the first of its word.
    # Each word's class is one the sweep over mod-2 classes verifies.
    fans = [random_fan(s, s % 9) for s in range(6000)]
    fans += [hirzebruch_fan(a) for a in range(40)]
    classes = mod2_classes(14)
    first = {}
    for fan in fans:
        word = mod2_word(fan)
        text = json.dumps(complex_to_json(build_real_complex(fan)))
        assert first.setdefault(word, text) == text, fan
        assert mod2_class(word) in classes, fan
    assert len(first) == 1253
