"""Acceptance suite: one test per criterion, one printed line per result.

Each criterion prints ``ACCEPTANCE PASS/FAIL criterion N: <label> (<time>)``
directly to the terminal (bypassing capture) so a plain ``pytest`` run
shows the seven lines. All numeric comparisons are exact except where a
tolerance is stated inline.
"""

import functools
import sys
import time
from math import gcd

import pytest

from realtoric import (
    SurfaceType,
    ToricDivisor,
    apply_map,
    blow_down,
    blow_up,
    build_affine_span_complex,
    build_real_complex,
    classify_surface,
    corpus_fans,
    cyclically_equal,
    euler_from_cells,
    find_ample,
    hirzebruch_fan,
    homology,
    lattice_points,
    polygon_from_divisor,
    predict_theorem,
    projective_plane_fan,
    random_fan,
    self_intersections,
    smith_normal_form,
    translate_divisor,
    tubular_neighborhood,
    verify,
)
from realtoric.gluing import NeighborhoodType
from realtoric.rng import SplitMix64
from test_intmat import assert_smith_invariants, oracle_elementary_factors

CORPUS_SEED = 20260817
CORPUS_SIZE = 200
CORPUS_MAX_BLOWUPS = 16

P2 = projective_plane_fan()
BASE_FANS = [P2] + [hirzebruch_fan(a) for a in range(5)]

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    # lets _report bypass pytest's fd-level capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(n, label, ok, elapsed):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {verdict} criterion {n}: {label} ({elapsed:.2f}s)\n"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()


def criterion(n, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(n, label, False, time.perf_counter() - start)
                raise
            _report(n, label, True, time.perf_counter() - start)

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def corpus():
    fans = corpus_fans(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_BLOWUPS)
    assert len(fans) == CORPUS_SIZE
    assert all(fan.d <= 20 for fan in fans)
    return fans


@criterion(1, "canonical classification suite")
def test_criterion_1_canonical_suite():
    start = time.perf_counter()

    cases = [(P2, SurfaceType(False, 1), (1, 0, 0), (2,))]
    for a in (0, 2, 4):
        cases.append((hirzebruch_fan(a), SurfaceType(True, 1), (1, 2, 1), ()))
    for a in (1, 3):
        cases.append((hirzebruch_fan(a), SurfaceType(False, 2), (1, 1, 0), (2,)))
    fan = P2
    for k in range(1, 6):
        fan = blow_up(fan, 0)
        cases.append((fan, SurfaceType(False, k + 1), None, None))

    for fan, expected, betti, torsion in cases:
        profile = homology(build_real_complex(fan))
        computed = classify_surface(profile)
        assert computed == expected
        assert computed == predict_theorem(fan)
        if betti is not None:
            assert (profile.b0, profile.b1, profile.b2) == betti
            assert profile.torsion == torsion

    assert time.perf_counter() - start < 1.0


@criterion(2, "corpus verification, 200 seeded fans")
def test_criterion_2_corpus_verification(corpus):
    start = time.perf_counter()
    for fan in corpus:
        report = verify(fan)
        assert report.all_consistent
        assert report.computed == report.predicted
        assert report.orientable_fast == (report.profile.b2 == 1)
        assert report.profile.euler_characteristic == 4 - fan.d
        c = build_real_complex(fan)
        assert (c.num_vertices, len(c.edges), len(c.faces)) == (fan.d, 2 * fan.d, 4)
    assert time.perf_counter() - start < 30.0


@criterion(3, "strip parity matches orientability on the corpus")
def test_criterion_3_strip_suite(corpus):
    for fan in corpus + BASE_FANS:
        seq = self_intersections(fan)
        kinds = [tubular_neighborhood(fan, i) for i in range(fan.d)]
        for a, kind in zip(seq, kinds):
            expected = (
                NeighborhoodType.MOEBIUS_BAND
                if a % 2
                else NeighborhoodType.CYLINDER
            )
            assert kind is expected
        has_twisted = any(k is NeighborhoodType.MOEBIUS_BAND for k in kinds)
        computed = classify_surface(homology(build_real_complex(fan)))
        assert has_twisted == (not computed.orientable)


@criterion(4, "Smith form suite, 500 seeded matrices")
def test_criterion_4_smith_suite():
    start = time.perf_counter()
    rng = SplitMix64(987654321)
    for _ in range(500):
        m = rng.below(6) + 1
        n = rng.below(6) + 1
        a = [[rng.below(21) - 10 for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(a)
        assert_smith_invariants(a, snf)
        assert snf.diag == oracle_elementary_factors(a)
    assert time.perf_counter() - start < 10.0


def _double_area(vertices):
    total = 0
    for i in range(len(vertices)):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % len(vertices)]
        total += x1 * y2 - x2 * y1
    return total


def _boundary_points(vertices):
    total = 0
    for i in range(len(vertices)):
        dx = vertices[(i + 1) % len(vertices)][0] - vertices[i][0]
        dy = vertices[(i + 1) % len(vertices)][1] - vertices[i][1]
        total += gcd(abs(dx), abs(dy))
    return total


def _random_unimodular(rng):
    m = ((1, 0), (0, 1))
    for _ in range(rng.below(4) + 1):
        kind = rng.below(3)
        k = rng.below(7) - 3
        if kind == 0:
            e = ((1, k), (0, 1))
        elif kind == 1:
            e = ((1, 0), (k, 1))
        else:
            e = ((0, 1), (1, 0))
        m = (
            (
                e[0][0] * m[0][0] + e[0][1] * m[1][0],
                e[0][0] * m[0][1] + e[0][1] * m[1][1],
            ),
            (
                e[1][0] * m[0][0] + e[1][1] * m[1][0],
                e[1][0] * m[0][1] + e[1][1] * m[1][1],
            ),
        )
    return m


@criterion(5, "structural identities")
def test_criterion_5_structural_identities(corpus):
    # alternating sum of the self-intersection numbers is rigid
    for fan in corpus:
        assert sum(self_intersections(fan)) == 12 - 3 * fan.d

    # subdividing a cone and contracting the inserted ray is the identity
    for fan in corpus:
        i = fan.d // 2
        left, right = fan.rays[i], fan.rays[(i + 1) % fan.d]
        inserted = (left[0] + right[0], left[1] + right[1])
        bigger = blow_up(fan, i)
        assert blow_down(bigger, bigger.rays.index(inserted)) == fan

    # the cyclic self-intersection sequence ignores lattice coordinates
    rng = SplitMix64(1357924680)
    for base in BASE_FANS:
        seq = self_intersections(base)
        for _ in range(100):
            image = apply_map(base, _random_unimodular(rng))
            assert cyclically_equal(seq, self_intersections(image))

    # Pick's identity on every polygon generated here
    divisors = []
    for fan in BASE_FANS:
        div = find_ample(fan)
        divisors.append((fan, div))
        divisors.append((fan, ToricDivisor(tuple(2 * b for b in div.coeffs))))
        divisors.append((fan, translate_divisor(fan, div, (1, -1))))
    for seed in range(12):
        fan = random_fan(seed, seed % 4)
        divisors.append((fan, find_ample(fan)))
    for fan, div in divisors:
        poly = polygon_from_divisor(fan, div)
        total = len(lattice_points(poly))
        assert _double_area(poly.vertices) == 2 * total - _boundary_points(
            poly.vertices
        ) - 2


@criterion(6, "gluing-rule correction demo")
def test_criterion_6_gkz_demo():
    # the triangle with unit offsets separates the two rules
    poly = polygon_from_divisor(P2, ToricDivisor((1, 1, 1)))
    parallel = build_real_complex(P2)
    affine = build_affine_span_complex(P2, poly)
    assert euler_from_cells(parallel) == 1
    assert euler_from_cells(affine) == -2
    assert parallel != affine

    # so does the unit triangle, find_ample's divisor, though chi agrees
    div = find_ample(P2)
    assert div.coeffs == (0, 0, 1)
    unit_triangle = polygon_from_divisor(P2, div)
    affine = build_affine_span_complex(P2, unit_triangle)
    assert (affine.num_vertices, len(affine.edges), len(affine.faces)) == (5, 8, 4)
    assert euler_from_cells(affine) == 1
    assert affine != parallel

    # the wrong rule sees where the square sits in the lattice
    f0 = hirzebruch_fan(0)
    unit = polygon_from_divisor(f0, ToricDivisor((0, 0, 1, 1)))
    symmetric = polygon_from_divisor(f0, ToricDivisor((1, 1, 1, 1)))
    assert build_affine_span_complex(f0, unit) != build_affine_span_complex(
        f0, symmetric
    )

    # the correct rule reads no divisor; the wrong one agrees with it where
    # its keys reduce to the parallel ones, with every corner in 2Z^2
    for fan in BASE_FANS + [random_fan(17, 3), random_fan(23, 5)]:
        reference = build_real_complex(fan)
        doubled = ToricDivisor(tuple(2 * b for b in find_ample(fan).coeffs))
        for div in [doubled, translate_divisor(fan, doubled, (2, -4))]:
            poly = polygon_from_divisor(fan, div)
            assert build_affine_span_complex(fan, poly) == reference


@criterion(7, "moment-map numeric suite")
def test_criterion_7_moment_suite():
    from realtoric import run_moment_checks

    start = time.perf_counter()
    for fan in (P2, hirzebruch_fan(2)):
        report = run_moment_checks(fan, seed=CORPUS_SEED, samples=1024)
        assert report.signs_exact
        assert report.translation_exact
        assert report.max_inequality_violation <= 1e-9
        assert report.min_mu_separation > 1e-9
    assert time.perf_counter() - start < 5.0
