"""Divisors, ampleness, polygons, and Pick's theorem as a cross-check."""

import random
from math import gcd

import pytest

from realtoric import (
    LengthMismatch,
    NotAmple,
    ToricDivisor,
    blow_up,
    corpus_fans,
    divisor_from_json,
    divisor_to_json,
    find_ample,
    hirzebruch_fan,
    intersection_numbers,
    is_ample,
    lattice_points,
    normalize_fan,
    polygon_from_divisor,
    projective_plane_fan,
    random_fan,
    run_moment_checks,
    translate_divisor,
)
from realtoric.errors import InvalidInput

P2 = projective_plane_fan()


def shoelace_double_area(vertices):
    total = 0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def boundary_point_count(vertices):
    n = len(vertices)
    total = 0
    for i in range(n):
        dx = vertices[(i + 1) % n][0] - vertices[i][0]
        dy = vertices[(i + 1) % n][1] - vertices[i][1]
        total += gcd(abs(dx), abs(dy))
    return total


class TestIntersectionNumbers:
    def test_plane_unit_divisor(self):
        assert intersection_numbers(P2, ToricDivisor((1, 1, 1))) == (3, 3, 3)

    def test_four_ray_fan(self):
        fan = hirzebruch_fan(2)
        assert intersection_numbers(fan, ToricDivisor((3, 1, 3, 1))) == (2, 4, 2, 8)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            intersection_numbers(P2, ToricDivisor((1, 1)))

    def test_not_ample_when_a_degree_vanishes(self):
        fan = hirzebruch_fan(2)
        assert not is_ample(fan, ToricDivisor((1, 1, 1, 1)))

    def test_ample_examples(self):
        assert is_ample(P2, ToricDivisor((1, 1, 1)))
        assert not is_ample(P2, ToricDivisor((0, 0, 0)))


class TestFindAmple:
    def test_plane(self):
        # Every edge of the triangle has length 1. The earlier default,
        # (1, 1, 1), is the same triangle three times as large.
        div = find_ample(P2)
        assert div.coeffs == (0, 0, 1)
        assert intersection_numbers(P2, div) == (1, 1, 1)
        assert intersection_numbers(P2, ToricDivisor((1, 1, 1))) == (3, 3, 3)

    @pytest.mark.parametrize("a", range(5))
    def test_four_ray_fans(self, a):
        fan = hirzebruch_fan(a)
        div = find_ample(fan)
        assert is_ample(fan, div)

    def test_blown_up_plane_coefficients(self):
        fan = blow_up(P2, 0)
        div = find_ample(fan)
        assert div.coeffs == (0, 0, 1, 1)
        assert intersection_numbers(fan, div) == (1, 1, 1, 2)
        # the divisor find_ample gave when it undid the blow-down
        old = ToricDivisor((2, 3, 2, 2))
        assert intersection_numbers(fan, old) == (5, 1, 5, 6)

    def test_random_fans(self):
        for seed in range(15):
            fan = random_fan(seed, seed % 6)
            assert is_ample(fan, find_ample(fan))


def assert_edge_lengths_close_up_from_ones(fan):
    # All lengths 1, except where the polygon closes up: at most two
    # adjacent edges, of one cone, are longer.
    lengths = intersection_numbers(fan, find_ample(fan))
    assert min(lengths) >= 1
    longer = {i for i, x in enumerate(lengths) if x != 1}
    assert any(longer <= {j, (j + 1) % fan.d} for j in range(fan.d))


def test_find_ample_on_the_acceptance_corpus():
    for fan in corpus_fans(20260817, 200, 16):
        assert_edge_lengths_close_up_from_ones(fan)


@pytest.mark.parametrize("seed", range(4))
def test_find_ample_on_many_blow_ups(seed):
    for n in (1, 2, 5, 16, 31, 64, 128, 256):
        assert_edge_lengths_close_up_from_ones(random_fan(seed, n))


TEN_RAY_FAN = normalize_fan(
    [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4], [0, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1]]
)


@pytest.mark.parametrize(
    "fan, count",
    [
        (P2, 3),
        (hirzebruch_fan(3), 7),
        (TEN_RAY_FAN, 36),
        (random_fan(3, 9), 117),
        (random_fan(3, 10), 150),
    ],
    ids=["P2", "F3", "ten-ray", "random_fan(3, 9)", "random_fan(3, 10)"],
)
def test_find_ample_lattice_point_counts(fan, count):
    assert len(lattice_points(polygon_from_divisor(fan, find_ample(fan)))) == count


def test_find_ample_coefficients_stay_small():
    # 1,004 rays; undoing the blow-downs gave coefficients of 1,016 bits
    div = find_ample(random_fan(5, 1000))
    assert max(abs(c) for c in div.coeffs).bit_length() <= 32


class TestPolygon:
    def test_plane_triangle(self):
        poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
        assert poly.vertices == ((-1, -1), (2, -1), (-1, 2))
        assert len(lattice_points(poly)) == 10

    def test_square(self):
        fan = hirzebruch_fan(0)
        poly = polygon_from_divisor(fan, ToricDivisor((1, 1, 1, 1)))
        assert set(poly.vertices) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}
        assert len(lattice_points(poly)) == 9

    def test_trapezoid_point_count(self):
        fan = hirzebruch_fan(2)
        poly = polygon_from_divisor(fan, ToricDivisor((3, 1, 3, 1)))
        assert len(lattice_points(poly)) == 21
        poly = polygon_from_divisor(fan, find_ample(fan))
        assert len(lattice_points(poly)) == 6

    def test_rejects_non_ample(self):
        with pytest.raises(NotAmple):
            polygon_from_divisor(P2, ToricDivisor((0, 0, 0)))
        with pytest.raises(NotAmple):
            polygon_from_divisor(hirzebruch_fan(2), ToricDivisor((1, 1, 1, 1)))

    def test_vertices_satisfy_all_inequalities(self):
        for seed in range(8):
            fan = random_fan(seed, 3)
            div = find_ample(fan)
            poly = polygon_from_divisor(fan, div)
            for x, y in poly.vertices:
                for v, b in zip(fan.rays, div.coeffs):
                    assert x * v[0] + y * v[1] >= -b

    def test_counterclockwise_vertices(self):
        for seed in range(8):
            fan = random_fan(seed, 2)
            poly = polygon_from_divisor(fan, find_ample(fan))
            assert shoelace_double_area(poly.vertices) > 0

    def test_lattice_points_sorted_and_inside(self):
        poly = polygon_from_divisor(P2, ToricDivisor((2, 2, 2)))
        pts = lattice_points(poly)
        assert pts == sorted(pts)
        assert set(poly.vertices) <= set(pts)


class TestPick:
    def assert_pick(self, fan, div):
        poly = polygon_from_divisor(fan, div)
        double_area = shoelace_double_area(poly.vertices)
        boundary = boundary_point_count(poly.vertices)
        total = len(lattice_points(poly))
        # Pick: area = interior + boundary/2 - 1
        assert double_area == 2 * total - boundary - 2

    def test_canonical_fans(self):
        self.assert_pick(P2, ToricDivisor((1, 1, 1)))
        self.assert_pick(P2, ToricDivisor((3, 1, 2)))
        for a in range(5):
            fan = hirzebruch_fan(a)
            self.assert_pick(fan, find_ample(fan))

    def test_random_fans_with_translations(self):
        for seed in range(10):
            fan = random_fan(seed, 2)
            div = find_ample(fan)
            self.assert_pick(fan, div)
            self.assert_pick(fan, translate_divisor(fan, div, (1, -2)))


def brute_force_lattice_points(polygon):
    # Every cell of the bounding box, tested against every inequality.
    xs = [w[0] for w in polygon.vertices]
    ys = [w[1] for w in polygon.vertices]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(
            x * v[0] + y * v[1] >= -b
            for v, b in zip(polygon.fan.rays, polygon.offsets)
        )
    ]


@pytest.mark.parametrize("seed", range(16))
def test_lattice_points_match_bounding_box_scan(seed):
    rng = random.Random(seed)
    fan = random_fan(seed, rng.randint(0, 4))
    div = find_ample(fan)
    u = (rng.randint(-9, 9), rng.randint(-9, 9))
    shifted = translate_divisor(fan, div, u)
    for d in (div, shifted, ToricDivisor(tuple(2 * c for c in shifted.coeffs))):
        poly = polygon_from_divisor(fan, d)
        pts = lattice_points(poly)
        assert pts == brute_force_lattice_points(poly)
        double_area = shoelace_double_area(poly.vertices)
        boundary = boundary_point_count(poly.vertices)
        assert len(pts) == (double_area + boundary) // 2 + 1


def assert_vertices_satisfy_every_inequality(polygon):
    # O(d^2) oracle for the O(d) edge check of polygon_from_divisor.
    for x, y in polygon.vertices:
        for v, b in zip(polygon.fan.rays, polygon.offsets):
            assert x * v[0] + y * v[1] >= -b


def test_edge_check_agrees_with_vertex_scan_on_the_acceptance_corpus():
    for k, fan in enumerate(corpus_fans(20260817, 200, 16)):
        div = find_ample(fan)
        for u in ((0, 0), (k % 7 - 3, 5 - k % 11)):
            moved = translate_divisor(fan, div, u)
            assert_vertices_satisfy_every_inequality(polygon_from_divisor(fan, moved))


class TestTranslation:
    def test_polygon_shifts_opposite_to_character(self):
        div = ToricDivisor((1, 1, 1))
        before = polygon_from_divisor(P2, div)
        u = (2, -1)
        after = polygon_from_divisor(P2, translate_divisor(P2, div, u))
        assert after.vertices == tuple(
            (x - u[0], y - u[1]) for x, y in before.vertices
        )

    def test_intersection_numbers_unchanged(self):
        for seed in range(8):
            fan = random_fan(seed, 3)
            div = find_ample(fan)
            moved = translate_divisor(fan, div, (seed - 3, 2 * seed - 5))
            assert intersection_numbers(fan, moved) == intersection_numbers(fan, div)


class TestJson:
    def test_divisor_round_trip(self):
        div = ToricDivisor((3, 1, 3, 1))
        assert divisor_from_json(divisor_to_json(div)) == div

    def test_divisor_rejects_bad_shapes(self):
        with pytest.raises(InvalidInput):
            divisor_from_json({"coeffs": [1, "2"]})
        with pytest.raises(InvalidInput):
            divisor_from_json([1, 2])


F1 = hirzebruch_fan(1)
UNIT = ToricDivisor((0, 0, 1, 1))


# Each coefficient must be an int and each coordinate of u is read through
# operator.index: a float or a string is refused by name, where it used to
# give a float polygon, float coefficients or a bare TypeError. A bool
# coefficient is refused too, as divisor_from_json refuses it, and a u of
# other than two entries, which gave a bare IndexError or lost its third.
@pytest.mark.parametrize(
    "call, args, message",
    [
        (
            intersection_numbers,
            (F1, ToricDivisor((0, 0, 1.5, 1))),
            "coefficient 2 must be an integer, got 1.5",
        ),
        (
            is_ample,
            (F1, ToricDivisor((0, 0, "a", 1))),
            "coefficient 2 must be an integer, got 'a'",
        ),
        (
            polygon_from_divisor,
            (F1, ToricDivisor((0, 0, 1.5, 1))),
            "coefficient 2 must be an integer, got 1.5",
        ),
        (
            translate_divisor,
            (F1, ToricDivisor((0.5, 0, 1, 1)), (0, 0)),
            "coefficient 0 must be an integer, got 0.5",
        ),
        (translate_divisor, (F1, UNIT, (0.5, 0)), "u[0] must be an integer, got 0.5"),
        (translate_divisor, (F1, UNIT, (0, "1")), "u[1] must be an integer, got '1'"),
        (translate_divisor, (F1, UNIT, (True, 0)), "u[0] must be an integer, got True"),
        (translate_divisor, (F1, UNIT, (0, False)), "u[1] must be an integer, got False"),
        (translate_divisor, (F1, UNIT, (1,)), "u must be two integers, got (1,)"),
        (
            translate_divisor,
            (F1, UNIT, (1, 0, 5)),
            "u must be two integers, got (1, 0, 5)",
        ),
        (
            run_moment_checks,
            (F1, ToricDivisor((0, 0, 1.0, 1))),
            "coefficient 2 must be an integer, got 1.0",
        ),
        (
            intersection_numbers,
            (F1, ToricDivisor((0, 0, True, 1))),
            "coefficient 2 must be an integer, got True",
        ),
        (
            run_moment_checks,
            (F1, ToricDivisor((0, 0, True, 1)), 0, 1),
            "coefficient 2 must be an integer, got True",
        ),
    ],
    ids=[
        "intersection-numbers",
        "is-ample",
        "polygon",
        "translate-coefficient",
        "translate-u0",
        "translate-u1",
        "translate-u0-bool",
        "translate-u1-bool",
        "translate-u-short",
        "translate-u-long",
        "moment-checks",
        "intersection-numbers-bool",
        "moment-checks-bool",
    ],
)
def test_divisors_and_characters_must_be_integers(call, args, message):
    with pytest.raises(InvalidInput) as refused:
        call(*args)
    assert (type(refused.value), str(refused.value)) == (InvalidInput, message)


class Index:
    """An integer only through ``__index__``, as numpy's ``int64`` is: its
    arithmetic is its own, so the library must not run on it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


# A coefficient is an int that is not a bool, the rule of normalize_fan's
# rays and divisor_from_json's coefficients. An __index__ coefficient used
# to reach the arithmetic: a bare TypeError here, and numpy int64 wrapped
# around, so an ample divisor read as not ample.
@pytest.mark.parametrize(
    "call, extra",
    [
        (intersection_numbers, ()),
        (is_ample, ()),
        (polygon_from_divisor, ()),
        (translate_divisor, ((0, 0),)),
        (run_moment_checks, ()),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_an_index_coefficient_is_refused_by_name(call, extra):
    divisor = ToricDivisor((0, 0, Index(1), 1))
    with pytest.raises(InvalidInput) as refused:
        call(F1, divisor, *extra)
    assert str(refused.value) == "coefficient 2 must be an integer, got Index(1)"
