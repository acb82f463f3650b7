"""Numeric moment-map checks: signs, averages, sampling."""

import ast
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

from realtoric import (
    ALL_SIGN_HOMS,
    DegenerateWeights,
    InvalidInput,
    SignHom,
    ToricDivisor,
    corpus_fans,
    corpus_tasks,
    evaluate,
    find_ample,
    hirzebruch_fan,
    lattice_points,
    moment_map,
    normalize_fan,
    polygon_from_divisor,
    projective_plane_fan,
    random_fan,
    run_moment_checks,
    sample_T_epsilon,
    sign_profile,
)
from realtoric.moment import (
    _BLOCK,
    _GRID,
    _draws,
    _grid_images,
    _min_separation,
)

P2 = projective_plane_fan()
SRC = Path(__file__).resolve().parents[1] / "src"


# Torus points with an infinite or NaN coordinate, which lie on no component.
NOT_FINITE = [
    (c, 1.0) if first else (1.0, c)
    for first in (True, False)
    for c in (math.inf, -math.inf, math.nan)
]
NOT_FINITE_IDS = [
    f"{axis}-{name}" for axis in ("x0", "x1") for name in ("inf", "-inf", "nan")
]


class TestSignProfile:
    def test_quadrants(self):
        assert sign_profile((3.5, 0.1)) == SignHom(1, 1)
        assert sign_profile((-2.0, 5.0)) == SignHom(-1, 1)
        assert sign_profile((1.0, -1.0)) == SignHom(1, -1)
        assert sign_profile((-0.5, -0.5)) == SignHom(-1, -1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sign_profile((0.0, 1.0))

    @pytest.mark.parametrize("x", [(math.nan, 1.0), (-1.0, -math.nan)])
    def test_rejects_nan(self, x):
        # NaN compares false with 0 either way, so it read as negative.
        with pytest.raises(ValueError, match="nonzero coordinates"):
            sign_profile(x)

    @pytest.mark.parametrize("x", NOT_FINITE, ids=NOT_FINITE_IDS)
    def test_rejects_points_that_are_not_finite(self, x):
        # An infinite coordinate read as a point of the component.
        with pytest.raises(ValueError, match="finite, nonzero coordinates"):
            sign_profile(x)

    def test_sign_of_character_contract(self):
        # sign(x^u) is the sign vector of x evaluated on u, exactly
        points = [(0.3, 2.0), (-1.5, 0.25), (4.0, -0.75), (-2.0, -3.0)]
        chars = [(1, 0), (0, 1), (2, -3), (-1, -1), (5, 2)]
        for x in points:
            eps = sign_profile(x)
            for u in chars:
                monomial = x[0] ** u[0] * x[1] ** u[1]
                assert evaluate(eps, u) == math.copysign(1.0, monomial)


class TestMomentMap:
    def test_neutral_point_gives_centroid(self):
        poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
        pts = lattice_points(poly)
        mu = moment_map((1.0, 1.0), pts)
        assert mu == (0.0, 0.0)

    def test_sign_flips_do_not_move_the_image(self):
        poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
        pts = lattice_points(poly)
        x = (1.7, 0.3)
        base = moment_map(x, pts)
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                assert moment_map((sx * x[0], sy * x[1]), pts) == base

    def test_dominant_direction_approaches_a_vertex(self):
        poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
        pts = lattice_points(poly)
        distances = []
        for t in (math.e**4, math.e**8, math.e**16):
            mu = moment_map((t, 1.0), pts)
            distances.append(math.hypot(mu[0] - 2.0, mu[1] + 1.0))
        assert distances == sorted(distances, reverse=True)
        assert distances[-1] < 1e-6

    def test_image_stays_inside_polygon(self):
        fan = hirzebruch_fan(2)
        div = find_ample(fan)
        poly = polygon_from_divisor(fan, div)
        pts = lattice_points(poly)
        for x in sample_T_epsilon(SignHom(1, 1), 9, 50):
            mu = moment_map(x, pts)
            for v, b in zip(fan.rays, div.coeffs):
                assert mu[0] * v[0] + mu[1] * v[1] >= -b - 1e-9

    def test_rejects_empty_support(self):
        with pytest.raises(DegenerateWeights):
            moment_map((1.0, 1.0), [])

    @pytest.mark.parametrize(
        "x, points, message",
        [
            ((1.0, 1.0), [(0, 1), (2**2000, 0)], "point 1 must be two numbers"),
            ((1.0, 1.0), [("a", 0), (0, 1)], "point 0 must be two numbers"),
            ((1.0, 1.0), [(0, 1), (1, 0, 0)], "point 1 must be two numbers"),
            ((1.0, 1.0), [(math.nan, 0)], "point 0 must be two numbers"),
            ((1.0,), [(0, 0), (1, 0)], "x must be two numbers"),
            (("a", 1.0), [(0, 0), (1, 0)], "x must be two numbers"),
            ((1.0, 2.0, 3.0), [(0, 0), (1, 0)], "x must be two numbers"),
        ],
        ids=[
            "overflow", "string", "three-coordinates", "nan", "short-x", "string-x", "long-x"
        ],
    )
    def test_refuses_malformed_input(self, x, points, message):
        # These escaped as a bare OverflowError, TypeError or IndexError, or
        # were read in part.
        with pytest.raises(InvalidInput) as refused:
            moment_map(x, points)
        assert type(refused.value) is InvalidInput
        assert str(refused.value).startswith(message)

    @pytest.mark.parametrize("x", NOT_FINITE, ids=NOT_FINITE_IDS)
    def test_refuses_points_that_are_not_finite(self, x):
        # These ended in DegenerateWeights, which blames the points.
        pts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(InvalidInput) as refused:
            moment_map(x, pts)
        assert type(refused.value) is InvalidInput
        assert str(refused.value) == f"x must be two numbers, both finite, got {x!r}"

    def test_huge_exponents_stay_finite(self):
        # direct monomials would overflow; the shifted form must not
        pts = [(0, 0), (40, 0), (0, 40)]
        mu = moment_map((1e200, 1e-200), pts)
        assert all(math.isfinite(c) for c in mu)


class TestSampling:
    def test_deterministic(self):
        a = sample_T_epsilon(SignHom(-1, 1), 42, 16)
        b = sample_T_epsilon(SignHom(-1, 1), 42, 16)
        assert a == b

    def test_lands_in_the_right_component(self):
        for eps in ALL_SIGN_HOMS:
            for x in sample_T_epsilon(eps, 7, 32):
                assert sign_profile(x) == eps

    def test_magnitude_window(self):
        for x in sample_T_epsilon(SignHom(1, -1), 3, 64):
            for c in x:
                assert math.e**-3 <= abs(c) <= math.e**3

    def test_count_and_seed_sensitivity(self):
        assert len(sample_T_epsilon(SignHom(1, 1), 0, 10)) == 10
        assert sample_T_epsilon(SignHom(1, 1), 0, 10) != sample_T_epsilon(
            SignHom(1, 1), 1, 10
        )


class TestSuite:
    def test_plane_report(self):
        for divisor, coeffs in [(ToricDivisor((1, 1, 1)), (1, 1, 1)), (None, (0, 0, 1))]:
            report = run_moment_checks(P2, divisor, samples=64, seed=5)
            assert report.signs_exact
            assert report.translation_exact
            assert report.max_inequality_violation <= 1e-9
            assert report.min_mu_separation > 1e-9
            assert report.divisor.coeffs == coeffs
            assert report.samples == 64

    def test_explicit_divisor(self):
        fan = hirzebruch_fan(0)
        report = run_moment_checks(fan, ToricDivisor((1, 1, 1, 1)), samples=32)
        assert report.signs_exact and report.translation_exact

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_sample_counts_below_one(self, samples):
        with pytest.raises(InvalidInput, match="samples must be at least 1"):
            run_moment_checks(P2, samples=samples)


# The ample divisors find_ample gave before it built them from edge
# lengths (it undid the blow-downs to a minimal model, doubling every
# coefficient each time). The goldens below were recorded on them, so
# they are passed explicitly; corpus fans are named by their seed.
OLD_AMPLE = {
    "P2": (1, 1, 1),
    "F0": (1, 1, 1, 1),
    "F1": (2, 3, 2, 2),
    "F2": (3, 1, 3, 1),
    "F3": (4, 1, 4, 1),
    "F4": (5, 1, 5, 1),
    "4242:0": (31, 24, 8, 34, 28, 24, 8),
    "4242:1": (11, 10, 2, 10, 2),
    "4242:2": (1, 1, 1),
    "4242:3": (4, 1, 4, 1),
    "4242:4": (30, 45, 16, 28, 16, 24, 16),
    "4242:5": (15, 4, 12, 14, 4, 12),
    "5151:0": (2, 3, 2, 2),
    "5151:1": (31, 16, 28, 42, 16, 24, 16),
    "5151:2": (3, 1, 3, 1),
    "5151:3": (8, 14, 21, 8, 12, 8),
    "5151:4": (8, 2, 9, 8, 2),
    "5151:5": (4, 7, 4, 6, 4),
    "5151:6": (1, 1, 1),
    "5151:7": (3, 1, 3, 1),
    "5151:8": (55, 8, 48, 52, 58, 8, 48),
    "5151:9": (39, 8, 32, 8, 42, 36, 32),
    "5151:10": (15, 8, 14, 8, 12, 8),
    "5151:11": (1, 1, 1),
}


def _old_ample(key):
    return ToricDivisor(OLD_AMPLE[key])


# min_mu_separation for samples=1 on the divisors of OLD_AMPLE, as the
# grid gave it when it weighted every lattice point on a log window of
# [-3, 3] (recorded from a numpy all-pairs sweep). Weighting the vertices
# on [-3/W, 3/W] must separate the images at least as well.
GOLDEN_SEPARATIONS = [
    ("P2", "0.000752465133860777"),
    ("F0", "0.011616959921737613"),
    ("F1", "0.0007527140262133909"),
    ("F2", "5.8945269652335155e-05"),
    ("F3", "4.149233216156362e-06"),
    ("F4", "2.69341485190201e-07"),
    ("corpus0", "0.0007527140751500318"),
    ("corpus1", "4.149233216226578e-06"),
    ("corpus2", "0.000752465133860777"),
    ("corpus3", "4.149233216156362e-06"),
    ("corpus4", "0.00866042776804585"),
    ("corpus5", "5.894527040235838e-05"),
]


# min_mu_separation of the vertex grid, for the same fans and divisors.
VERTEX_SEPARATIONS = {
    "P2": "0.0020782728500010144",
    "F0": "0.01910132755231564",
    "F1": "0.010158815370130948",
    "F2": "0.01977474890273436",
    "F3": "0.015387876987697183",
    "F4": "0.012495849834314423",
    "corpus0": "0.12077471315653238",
    "corpus1": "0.021267807270495594",
    "corpus2": "0.0020782728500010144",
    "corpus3": "0.015387876987697183",
    "corpus4": "0.03776949593682835",
    "corpus5": "0.05438017218216057",
}


def _golden_fan(name):
    if name == "P2":
        return P2
    if name.startswith("F"):
        return hirzebruch_fan(int(name[1:]))
    seed, n = list(corpus_tasks(4242, 6, 3))[int(name[len("corpus") :])]
    return random_fan(seed, n)


@pytest.mark.parametrize("name, lattice_separation", GOLDEN_SEPARATIONS)
def test_min_separation_golden(name, lattice_separation):
    key = name.replace("corpus", "4242:")
    report = run_moment_checks(_golden_fan(name), _old_ample(key), samples=1)
    assert repr(report.min_mu_separation) == VERTEX_SEPARATIONS[name]
    assert report.min_mu_separation >= float(lattice_separation)


def _brute_force_separation(points):
    # Every pair's dx*dx + dy*dy, then one square root of the least: a
    # correctly rounded sqrt is monotone, so this is the least of the
    # per-pair distances bit for bit.
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    best = math.inf
    for i in range(1, len(points)):
        x0 = xs[i]
        y0 = ys[i]
        pairs = zip(xs[:i], ys[:i])
        best = min(best, *[(x - x0) * (x - x0) + (y - y0) * (y - y0) for x, y in pairs])
    return math.sqrt(best)


def _transposed(points):
    return [(y, x) for x, y in points]


@pytest.mark.parametrize("seed", range(40))
def test_min_separation_matches_all_pairs(seed):
    rng = random.Random(seed)
    scale = 10.0 ** rng.randint(-8, 3)
    n = rng.randint(2, 120)
    if seed % 2:
        # few distinct x values, so many points share one
        xs = [rng.uniform(-scale, scale) for _ in range(rng.randint(1, 6))]
        points = [(rng.choice(xs), rng.uniform(-scale, scale)) for _ in range(n)]
    else:
        points = [
            (rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)
        ]
    points += rng.sample(points, rng.randint(0, min(3, n)))
    rng.shuffle(points)
    want = _brute_force_separation(points)
    assert _min_separation(points) == _min_separation(_transposed(points)) == want


def test_min_separation_edge_cases():
    for points, want in [
        ([], math.inf),
        ([(1.0, 2.0)], math.inf),
        ([(1.0, 2.0), (1.0, 2.0)], 0.0),
        ([(0.0, 0.0), (3.0, 4.0)], 5.0),
        ([(0.0, 1.0), (2.0, 3.0), (0.0, 1.0), (2.0, -1.0)], 0.0),
        # exactly two points, the larger x first
        ([(2.0, 0.0), (-1.0, 4.0)], 5.0),
        # several points share the largest x, the closest pair among them
        ([(5.0, 1.0), (0.0, 0.0), (5.0, -3.0), (5.0, 4.0)], 3.0),
        # every point on one x
        ([(2.0, 7.0), (2.0, 1.0), (2.0, 3.5)], 2.5),
    ]:
        assert _min_separation(points) == _min_separation(_transposed(points)) == want


# (name, max_inequality_violation, min_mu_separation, translation_exact,
# signs_exact) at samples=16 on the divisors of OLD_AMPLE, as the checks
# gave them when they weighted every lattice point (the grid on a log
# window of [-3, 3]); corpus fans come from corpus_tasks(5151, 12, 3).
# Weighting the vertices must separate the grid images at least as well
# and keep the containment slack at the rounding level of these values.
GOLDEN_REPORTS = [
    ("P2", 0.0, 0.000752465133860777, True, True),
    ("F0", 0.0, 0.011616959921737613, True, True),
    ("F1", 0.0, 0.0007527140262133909, True, True),
    ("F2", 0.0, 5.8945269652335155e-05, True, True),
    ("F3", 0.0, 4.149233216156362e-06, True, True),
    ("F4", 0.0, 2.69341485190201e-07, True, True),
    ("corpus0", 0.0, 0.0007527140262133909, True, True),
    ("corpus1", 0.0, 0.008628202722276643, True, True),
    ("corpus2", 0.0, 5.8945269652335155e-05, True, True),
    ("corpus3", 0.0, 0.009667541407758102, True, True),
    ("corpus4", 0.0, 4.149233216226578e-06, True, True),
    ("corpus5", 0.0, 0.009185403975182166, True, True),
    ("corpus6", 0.0, 0.000752465133860777, True, True),
    ("corpus7", 0.0, 5.8945269652335155e-05, True, True),
    ("corpus8", 0.0, 2.693414822820998e-07, True, True),
    ("corpus9", 0.0, 2.693414960686539e-07, True, True),
    ("corpus10", 0.0, 0.008792387264840268, True, True),
    ("corpus11", 0.0, 0.000752465133860777, True, True),
]


# (max_inequality_violation, min_mu_separation) with vertex weights, for
# the fans and divisors of GOLDEN_REPORTS.
VERTEX_REPORTS = {
    "P2": (0.0, 0.0020782728500010144),
    "F0": (0.0, 0.01910132755231564),
    "F1": (0.0, 0.010158815370130948),
    "F2": (0.0, 0.01977474890273436),
    "F3": (0.0, 0.015387876987697183),
    "F4": (0.0, 0.012495849834314423),
    "corpus0": (0.0, 0.010158815370130948),
    "corpus1": (3.552713678800501e-15, 0.03866544728217034),
    "corpus2": (0.0, 0.01977474890273436),
    "corpus3": (0.0, 0.02676458242339701),
    "corpus4": (1.7763568394002505e-15, 0.026630714546031043),
    "corpus5": (0.0, 0.014200457789926372),
    "corpus6": (0.0, 0.0020782728500010144),
    "corpus7": (0.0, 0.01977474890273436),
    "corpus8": (1.4210854715202004e-14, 0.11029185363989175),
    "corpus9": (0.0, 0.10814690596938509),
    "corpus10": (1.7763568394002505e-15, 0.026588938966690817),
    "corpus11": (0.0, 0.0020782728500010144),
}


# The same fields for the default divisor, the one find_ample builds from
# edge lengths; its coefficients come first.
GOLDEN_DEFAULT_REPORTS = [
    ("P2", (0, 0, 1), 0.0, 0.0006927576166670079, True, True),
    ("F0", (0, 0, 1, 1), 0.0, 0.009550663776157764, True, True),
    ("F1", (0, 0, 1, 1), 0.0, 0.007736583307018529, True, True),
    ("F2", (0, 0, 1, 1), 0.0, 0.008923532181183406, True, True),
    ("F3", (0, 0, 1, 1), 0.0, 0.009175880610333722, True, True),
    ("F4", (0, 0, 1, 1), 0.0, 0.007698931758330154, True, True),
    ("corpus0", (0, 0, 1, 1), 0.0, 0.007736583307018529, True, True),
    ("corpus1", (0, 0, 1, 3, 3, 4, 2), 0.0, 0.02383725958797615, True, True),
    ("corpus2", (0, 0, 1, 1), 0.0, 0.008923532181183406, True, True),
    ("corpus3", (0, 0, 1, 2, 4, 3), 0.0, 0.022524901665798337, True, True),
    ("corpus4", (0, 0, 1, 2, 2), 0.0, 0.016896217497937578, True, True),
    ("corpus5", (0, 0, 1, 2, 2), 0.0, 0.013257013295810928, True, True),
    ("corpus6", (0, 0, 1), 0.0, 0.0006927576166670079, True, True),
    ("corpus7", (0, 0, 1, 1), 0.0, 0.008923532181183406, True, True),
    ("corpus8", (0, 0, 1, 2, 4, 3, 1), 0.0, 0.01807841414002407, True, True),
    ("corpus9", (0, 0, 1, 4, 6, 3, 1), 0.0, 0.01599012882656478, True, True),
    ("corpus10", (0, 0, 1, 2, 2, 1), 0.0, 0.016610559153679726, True, True),
    ("corpus11", (0, 0, 1), 0.0, 0.0006927576166670079, True, True),
    ("ten-ray", (0, 0, 1, 3, 6, 4, 11, 8, 6, 1), 0.0, 0.02713599476946604, True, True),
]


TEN_RAY_FAN = [
    [1, 0], [1, 1], [1, 2], [1, 3], [1, 4], [0, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1]
]


def _report_fan(name):
    if name == "ten-ray":
        return normalize_fan(TEN_RAY_FAN)
    if name.startswith("corpus"):
        seed, n = list(corpus_tasks(5151, 12, 3))[int(name[len("corpus") :])]
        return random_fan(seed, n)
    return _golden_fan(name)


def _assert_report(report, violation, separation, translation, signs):
    assert repr(report.max_inequality_violation) == repr(violation)
    assert repr(report.min_mu_separation) == repr(separation)
    assert report.translation_exact is translation
    assert report.signs_exact is signs


def _assert_golden_report(name, violation, separation, translation, signs):
    key = name.replace("corpus", "5151:")
    report = run_moment_checks(_report_fan(name), _old_ample(key), samples=16)
    _assert_report(report, *VERTEX_REPORTS[name], translation, signs)
    assert report.min_mu_separation >= separation
    assert report.max_inequality_violation <= violation + 1e-13


@pytest.mark.parametrize(
    "name, violation, separation, translation, signs", GOLDEN_REPORTS
)
def test_report_golden(name, violation, separation, translation, signs):
    _assert_golden_report(name, violation, separation, translation, signs)


@pytest.mark.parametrize(
    "name, coeffs, violation, separation, translation, signs",
    GOLDEN_DEFAULT_REPORTS,
    ids=[golden[0] for golden in GOLDEN_DEFAULT_REPORTS],
)
def test_default_report_golden(name, coeffs, violation, separation, translation, signs):
    report = run_moment_checks(_report_fan(name), samples=16)
    assert report.divisor.coeffs == coeffs
    _assert_report(report, violation, separation, translation, signs)


@pytest.mark.parametrize("a", [300, 400, 10**12])
def test_hirzebruch_fans_with_long_edges(a):
    # A float monomial x^u leaves the float range here (x^263 on F_300), so
    # no monomial may be formed; and F_(10^12) has about 5e11 lattice
    # points, so the checks may read only the d vertices.
    start = time.perf_counter()
    report = run_moment_checks(hirzebruch_fan(a), samples=1)
    assert time.perf_counter() - start < 0.5
    assert report.divisor.coeffs == (0, 0, 1, 1)
    assert report.signs_exact and report.translation_exact
    assert report.max_inequality_violation == 0.0
    assert report.min_mu_separation > 1e-9


def test_checks_list_no_lattice_points(monkeypatch):
    # The sign check needs no lattice points: a sample's sign profile
    # fixes sign(x^u) on all of them (see the module docstring).
    import realtoric.moment as moment

    def refuse(polygon):
        raise AssertionError("run_moment_checks listed the lattice points")

    monkeypatch.setattr(moment, "lattice_points", refuse, raising=False)
    report = run_moment_checks(hirzebruch_fan(3), samples=4)
    assert report.signs_exact and report.translation_exact


def test_grid_separates_every_hirzebruch_fan():
    # On a log window of [-3, 3] the grid weights saturated once the
    # polygon was about 12 wide, and the separation was 0.0 from F_11 up.
    for a in range(401):
        report = run_moment_checks(hirzebruch_fan(a), samples=1)
        assert report.min_mu_separation > 1e-9, a


def test_acceptance_corpus_runs_in_seconds():
    fans = corpus_fans(20260817, 200, 16)
    start = time.perf_counter()
    for fan in fans:
        report = run_moment_checks(fan, samples=16)
        assert report.max_inequality_violation <= 1e-9
        assert report.min_mu_separation > 1e-9
    assert time.perf_counter() - start < 5.0


def _reference_moment_map(x, points):
    # One point at a time, as the moment map is written down.
    lx = math.log(abs(x[0]))
    ly = math.log(abs(x[1]))
    logs = [u[0] * lx + u[1] * ly for u in points]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = math.fsum(weights)
    mx = math.fsum(w * u[0] for w, u in zip(weights, points))
    my = math.fsum(w * u[1] for w, u in zip(weights, points))
    return (mx / total, my / total)


@pytest.mark.parametrize("seed", range(12))
def test_moment_map_matches_per_point_reference(seed):
    rng = random.Random(seed)
    seed_fan, n = list(corpus_tasks(seed, 1, 3))[0]
    fan = random_fan(seed_fan, n)
    points = lattice_points(polygon_from_divisor(fan, find_ample(fan)))
    rng.shuffle(points)
    for _ in range(40):
        x = (
            rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-30.0, 30.0)),
            rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-30.0, 30.0)),
        )
        assert repr(moment_map(x, points)) == repr(_reference_moment_map(x, points))


@pytest.mark.parametrize("name", ["P2", "F3", "corpus1"])
def test_grid_images_match_moment_map(name):
    # The grid sums plain products of per-axis factors, so it agrees with
    # the per-point fsum form to rounding, not bit for bit. The error is
    # taken relative to the polygon's width: an image coordinate near 0
    # is a sum that cancels.
    fan = _golden_fan(name)
    vertices = polygon_from_divisor(fan, find_ample(fan)).vertices
    width = max(
        max(v[k] for v in vertices) - min(v[k] for v in vertices) for k in (0, 1)
    )
    grid = [math.exp(g / max(width, 1)) for g in _GRID]
    expected = [_reference_moment_map((a, b), vertices) for a in grid for b in grid]
    images = _grid_images(vertices)
    assert len(images) == len(expected) == 1024
    for got, want in zip(images, expected):
        for c in (0, 1):
            assert abs(got[c] - want[c]) <= 1e-12 * width


def _wedge(n):
    # The polygon is about 2n long and 1 high.
    return normalize_fan([[1, 0], [n, 1], [n - 1, 1], [-1, 0], [0, -1]])


# Named fans first, then corpus fans, for the grid kernel tests.
GRID_FANS = {
    "P2": P2,
    **{f"F{a}": hirzebruch_fan(a) for a in (0, 1, 2, 3, 4, 400)},
    "wedge-1e2": _wedge(10**2),
    "wedge-1e9": _wedge(10**9),
    **{f"corpus{k}": fan for k, fan in enumerate(corpus_fans(4040, 50, 6))},
}


def _grid_vertices(name):
    fan = GRID_FANS[name]
    return polygon_from_divisor(fan, find_ample(fan)).vertices


def _factor_rows(coords, width):
    # Per g of _GRID: the factors exp(c * (g / width) - max) over coords,
    # the max taken over that g alone, and those times coords.
    rows = []
    for g in _GRID:
        logs = [c * (g / width) for c in coords]
        top = max(logs)
        weights = [math.exp(v - top) for v in logs]
        rows.append((weights, [w * c for w, c in zip(weights, coords)]))
    return rows


def _per_image_grid(vertices):
    # One image at a time, three sums of all d products each, added from
    # 0.0 left to right as the builtin sum did before Python 3.12 (it
    # compensates its rounding from 3.12 on): the form the flat kernel
    # must reproduce bit for bit. The factor rows are its own, so that a
    # fault in the kernel's table shows too.
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    width = max(max(xs) - min(xs), max(ys) - min(ys), 1)
    columns = _factor_rows(ys, width)
    images = []
    for wx, ux in _factor_rows(xs, width):
        for wy, uy in columns:
            total = mx = my = 0.0
            for a, u, b, v in zip(wx, ux, wy, uy):
                total += a * b
                mx += u * b
                my += a * v
            images.append((mx / total, my / total))
    return images


def _bits(images):
    # The exact bits of every coordinate, -0.0 and NaN payloads included: a
    # stricter match than the reprs, cheaper to build, and on a mismatch
    # pytest names the first differing byte instead of diffing two 40 kB
    # strings, which can take seconds.
    return array("d", [c for image in images for c in image]).tobytes()


@pytest.mark.parametrize("name", list(GRID_FANS))
def test_grid_images_match_the_per_image_sums_bit_for_bit(name):
    vertices = _grid_vertices(name)
    images = _grid_images(vertices)
    assert len(images) == 1024
    assert _bits(images) == _bits(_per_image_grid(vertices))


def _translated(vertices):
    # Off the axes, mostly: the kernel then leaves no product out.
    return [(x + 3, y - 7) for x, y in vertices]


@pytest.mark.parametrize("start", range(0, 200, 25))
def test_grid_images_match_the_per_image_sums_on_random_fans(start):
    # Every default polygon has a corner at the origin, whose products the
    # kernel's x and y sums leave out, and most have another vertex on an
    # axis; 3 to 16 vertices give every remainder mod 4.
    for s in range(start, start + 25):
        fan = random_fan(s, s % 13)
        vertices = polygon_from_divisor(fan, find_ample(fan)).vertices
        for v in (vertices, _translated(vertices)):
            assert _bits(_grid_images(v)) == _bits(_per_image_grid(v)), (s, v)


# Convex lattice polygons with one, two and three vertices on the axes (the
# origin lies on both), and with 3 to 7 vertices: the sums over every
# vertex, and over those off each axis, take every remainder mod 4.
AXIS_POLYGONS = {
    "one on an axis": [(0, 2), (3, 5), (-2, 6)],
    "two on the x axis": [(1, 0), (4, 0), (3, 2), (2, 3)],
    "pentagon at the origin": [(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)],
    "hexagon at the origin": [(0, 0), (2, 0), (4, 1), (4, 3), (2, 4), (0, 2)],
    "heptagon at the origin": [(0, 0), (3, 0), (5, 1), (6, 3), (5, 5), (2, 5), (0, 2)],
}


def test_axis_polygons_cover_every_remainder():
    polygons = AXIS_POLYGONS.values()
    on_axes = [sum(1 for x, y in v if x * y == 0) for v in polygons]
    assert on_axes == [1, 2, 3, 3, 3]
    for axis in (0, 1):
        off = {sum(1 for u in v if u[axis]) % 4 for v in polygons}
        assert off == {0, 1, 2, 3}
    assert {len(v) % 4 for v in polygons} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", list(AXIS_POLYGONS))
def test_grid_images_match_the_per_image_sums_on_the_axes(name):
    for v in (AXIS_POLYGONS[name], _translated(AXIS_POLYGONS[name])):
        assert _bits(_grid_images(v)) == _bits(_per_image_grid(v))


# Grid images with many ties and a lopsided spread: the unit square's 1,024
# images share 106 x values; the wedge's spread wide in x, so transposed
# they stand tall.
SWEEP_POLYGONS = {
    "unit square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "wedge": _grid_vertices("wedge-1e2"),
}


@pytest.mark.parametrize("name", list(SWEEP_POLYGONS))
def test_min_separation_of_a_grid_does_not_depend_on_the_axis(name):
    images = _grid_images(SWEEP_POLYGONS[name])
    want = _brute_force_separation(images)
    assert repr(_min_separation(images)) == repr(want)
    assert repr(_min_separation(_transposed(images))) == repr(want)


@pytest.mark.parametrize("name", list(GRID_FANS)[:30])
def test_min_separation_of_grid_images_matches_all_pairs(name):
    images = _grid_images(_grid_vertices(name))
    assert _min_separation(images) == _brute_force_separation(images)


# P2, F0 ... F4 and corpus_tasks(777, 66, 3).
DIGEST_FANS = [P2, *(hirzebruch_fan(a) for a in range(5)), *corpus_fans(777, 66, 3)]
# sha256 of the reprs of run_moment_checks(fan, samples=16, seed=7) on
# DIGEST_FANS, one a line, as the per-image loops gave them: a change to
# the kernels that moves one bit of one report changes it.
REPORT_DIGEST = "b37226bf60251db798f9f2cbaa4ad12121d5f4a7c403c90ea4d46fbe5c73914d"


def digest_reports():
    return [run_moment_checks(fan, samples=16, seed=7) for fan in DIGEST_FANS]


def report_digest(reports):
    return hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()


def test_reports_keep_their_digest():
    assert len(DIGEST_FANS) == 72
    assert report_digest(digest_reports()) == REPORT_DIGEST


# The digest above recomputed with the standard library alone, in a child
# interpreter: argv[1] is the package's source directory.
DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import realtoric as rt
fans = [rt.projective_plane_fan(), *map(rt.hirzebruch_fan, range(5))]
fans += rt.corpus_fans(777, 66, 3)
reports = [rt.run_moment_checks(fan, samples=16, seed=7) for fan in fans]
print(hashlib.sha256("\\n".join(map(repr, reports)).encode()).hexdigest())
"""


def other_pythons():
    """One interpreter of each CPython version 3.10 to 3.13 other than this
    one's that starts here, found as ``python3.X`` on PATH or as
    ``bin/python3`` in a sibling of this interpreter's version directory
    (pyenv's ``versions/3.12.1/bin``, say), by version."""
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:2])"
    wanted = {f"cpython 3 {minor}\n": (3, minor) for minor in range(10, 14)}
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    versions = Path(sys.executable).parent.parent.parent
    candidates += sorted(versions.glob("*/bin/python3"))
    found = {}
    for exe in filter(None, candidates):
        try:
            run = subprocess.run(
                [exe, "-I", "-S", "-c", probe],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if run.returncode == 0 and run.stdout in wanted:
            found.setdefault(wanted[run.stdout], str(exe))
    found.pop(sys.version_info[:2], None)
    return found


def test_reports_keep_their_digest_on_every_other_python():
    # The package claims the same reports bit for bit on Python 3.10 to
    # 3.13; this run's interpreter checks its own version above.
    found = other_pythons()
    if not found:
        pytest.skip("no other CPython 3.10 to 3.13 starts here")
    children = {
        exe: subprocess.Popen(
            [exe, "-I", "-S", "-c", DIGEST_SCRIPT, str(SRC)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for exe in found.values()
    }
    # Every child is waited for before any is judged, so that a failure
    # leaves no open pipe for a later test to warn about.
    results = [(exe, *child.communicate(timeout=120)) for exe, child in children.items()]
    for (exe, out, err), child in zip(results, children.values()):
        assert (child.returncode, out.strip()) == (0, REPORT_DIGEST), (exe, err)


# Float reductions that round otherwise than explicit ``*`` and ``+`` left
# to right: since Python 3.12 sum() compensates and math.sumprod keeps
# extended precision, math.fma (3.13) rounds once, and math.dist and
# math.hypot scale their inputs.
OTHER_ROUNDING = {"sum", "sumprod", "fma", "dist", "hypot"}


def test_moment_sums_no_floats_with_the_builtin_sum():
    # Any of them in the kernels would make the grid's bits, and the digest
    # above, change with the version; refused as a name, as an attribute,
    # or imported.
    tree = ast.parse((SRC / "realtoric" / "moment.py").read_text())
    found = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name in OTHER_ROUNDING
    ]
    assert found == []


# The digest fans, the longest edges of the checks' gates and the fan that
# once overflowed, for the sample checks.
SAMPLE_FANS = [
    *DIGEST_FANS,
    hirzebruch_fan(10**12),
    _wedge(10**9),
    normalize_fan(TEN_RAY_FAN),
]


def _sample_points(seed, samples):
    return [
        x
        for k, eps in enumerate(ALL_SIGN_HOMS)
        for x in sample_T_epsilon(eps, seed + k, samples)
    ]


def _per_sample_violation(polygon, images):
    # One image at a time against each ray inequality, the largest excess
    # kept.
    worst = 0.0
    for mu in images:
        for v, b in zip(polygon.fan.rays, polygon.offsets):
            slack = mu[0] * v[0] + mu[1] * v[1] + b
            if -slack > worst:
                worst = -slack
    return worst


def _assert_violation_of_moment_map_images(fans, seed, samples):
    # Each report's violation against the per-sample loop over moment_map's
    # images of the same points, bit for bit.
    points = _sample_points(seed, samples)
    for fan in fans:
        polygon = polygon_from_divisor(fan, find_ample(fan))
        expected = [moment_map(x, polygon.vertices) for x in points]
        report = run_moment_checks(fan, seed=seed, samples=samples)
        assert report.translation_exact and report.signs_exact
        violation = _per_sample_violation(polygon, expected)
        assert repr(report.max_inequality_violation) == repr(violation), fan.rays


@pytest.mark.parametrize("samples", [1, 16, 256])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_images_match_moment_map_bit_for_bit(seed, samples):
    _assert_violation_of_moment_map_images(SAMPLE_FANS, seed, samples)


def test_draws_are_kept_per_seed_and_sample_count():
    _draws.cache_clear()
    keys = [(0, 16), (1, 16), (0, 17), (7, 1)]
    entries = [_draws(*key) for key in keys]
    assert _draws.cache_info().currsize == len(keys) <= _draws.cache_info().maxsize <= 4
    for (seed, samples), entry in zip(keys, entries):
        assert _draws(seed, samples) is entry
        assert entry == _draws.__wrapped__(seed, samples)
        signs_exact, magnitudes = entry
        assert signs_exact is True
        # Compact: 8-byte doubles, not a float object per coordinate.
        assert type(magnitudes) is array and magnitudes.typecode == "d"
        assert len(magnitudes) == 8 * samples
        points = _sample_points(seed, samples)
        assert list(magnitudes) == [abs(c) for x in points for c in x]
    assert len({entry[1].tobytes() for entry in entries}) == len(keys)


def test_sample_passes_in_blocks_match_moment_map_bit_for_bit():
    # 1,100 samples per component take two blocks, the second of 304
    # points.
    assert 4 * 1100 > _BLOCK
    _assert_violation_of_moment_map_images((P2, hirzebruch_fan(3), _wedge(10**9)), 3, 1100)


def test_sample_memory_stays_bounded():
    # A fresh process: 20,000 samples per component must not hold a float
    # object per sample and vertex at once, nor keep one per coordinate.
    probe = (
        "import resource, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from realtoric import hirzebruch_fan, run_moment_checks\n"
        "def peak():\n"
        "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    return kb / 1024 if sys.platform == 'darwin' else kb\n"
        "fan = hirzebruch_fan(2)\n"
        "run_moment_checks(fan, samples=1)\n"
        "before = peak()\n"
        "report = run_moment_checks(fan, samples=20000)\n"
        "assert report.signs_exact and report.translation_exact\n"
        "print(peak() - before)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    growth_mb = float(result.stdout) / 1024
    assert growth_mb < 10, growth_mb


def test_a_warm_draw_cache_gives_the_same_reports():
    fans = DIGEST_FANS[:12]
    keys = [(seed, samples) for seed in (0, 7, 8) for samples in (1, 16)]
    cold = []
    for seed, samples in keys:
        for fan in fans:
            _draws.cache_clear()
            cold.append(run_moment_checks(fan, seed=seed, samples=samples))
    # Each key's first report draws, the others hit; with more keys than
    # the cache holds, each round evicts and draws every key again.
    for _ in range(2):
        warm = [run_moment_checks(f, seed=s, samples=n) for s, n in keys for f in fans]
        assert repr(warm) == repr(cold)
    assert report_digest(digest_reports()) == REPORT_DIGEST


def test_moment_check_runs_on_the_standard_library_alone(tmp_path):
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, -1]]}))
    probe = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "sys.modules['numpy'] = None\n"
        "from realtoric import cli\n"
        "code = cli.run(['moment-check', sys.argv[2], '--samples', '16'])\n"
        "skip = (None, sys.modules['__main__'])\n"
        "loaded = {n.split('.')[0] for n, m in sys.modules.items() if m not in skip}\n"
        "foreign = loaded - set(sys.stdlib_module_names) - {'realtoric'}\n"
        "print(json.dumps({'code': code, 'foreign': sorted(foreign)}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC), str(fan_file)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report, status = result.stdout.splitlines()
    assert json.loads(status) == {"code": 0, "foreign": []}
    assert json.loads(report) == {
        "fan": [[1, 0], [0, 1], [-1, -1]],
        "divisor": [0, 0, 1],
        "samples": 16,
        "max_inequality_violation": 0.0,
        "translation_exact": True,
        "min_mu_separation": 0.0006927576166670079,
    }


def test_import_does_not_load_numpy():
    # The package uses the standard library only; numpy is not loaded.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, realtoric, realtoric.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_import_does_not_load_dataclasses():
    # The records are NamedTuples; dataclasses would pull in inspect, ast
    # and dis. -S keeps the site step from importing them first.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, realtoric, realtoric.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
