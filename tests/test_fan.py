import copy
import hashlib
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realtoric import (
    DuplicateRay,
    Fan,
    IndexOutOfRange,
    InvalidInput,
    NonPrimitiveRay,
    NotComplete,
    NotExceptional,
    NotSmooth,
    NotUnimodular,
    TooFewRays,
    ToricError,
    apply_map,
    blow_down,
    blow_up,
    corpus_tasks,
    cyclically_equal,
    fan_from_json,
    fan_to_json,
    hirzebruch_fan,
    minimal_model,
    normalize_fan,
    projective_plane_fan,
    random_fan,
    run_moment_checks,
    self_intersections,
    tubular_neighborhood,
)

P2 = projective_plane_fan()


class TestNormalize:
    def test_canonical_order(self):
        fan = normalize_fan([(-1, -1), (1, 0), (0, 1)])
        assert fan.rays == ((1, 0), (0, 1), (-1, -1))

    def test_input_order_irrelevant(self):
        a = normalize_fan([(0, 1), (-1, 2), (1, 0), (0, -1)])
        b = normalize_fan([(1, 0), (0, 1), (-1, 2), (0, -1)])
        assert a == b

    def test_idempotent(self):
        fan = normalize_fan([(0, -1), (-1, 3), (1, 0), (0, 1)])
        assert normalize_fan(fan.rays) == fan

    def test_canonical_start_without_first_quadrant_ray(self):
        # No ray has x > 0, y >= 0; the start falls to the second quadrant.
        fan = normalize_fan([(0, 1), (-1, 0), (0, -1), (1, -1)])
        assert fan.rays[0] == (0, 1)

    def test_rejects_nonprimitive(self):
        with pytest.raises(NonPrimitiveRay):
            normalize_fan([(2, 0), (0, 1), (-1, -1)])

    def test_rejects_zero_vector(self):
        with pytest.raises(NonPrimitiveRay):
            normalize_fan([(0, 0), (0, 1), (-1, -1)])

    def test_rejects_duplicate(self):
        with pytest.raises(DuplicateRay):
            normalize_fan([(1, 0), (1, 0), (0, 1), (-1, -1)])

    def test_nonprimitive_reported_before_duplicate(self):
        with pytest.raises(NonPrimitiveRay):
            normalize_fan([(2, 0), (2, 0), (0, 1)])

    def test_rejects_too_few(self):
        with pytest.raises(NotComplete):
            normalize_fan([(1, 0), (0, 1)])

    def test_rejects_half_plane(self):
        with pytest.raises(NotComplete):
            normalize_fan([(1, 0), (1, 1), (0, 1)])

    def test_rejects_nonsmooth(self):
        with pytest.raises(NotSmooth):
            normalize_fan([(1, 0), (0, 1), (-1, -2)])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(InvalidInput):
            normalize_fan([(1.0, 0.0), (0, 1), (-1, -1)])

    def test_json_round_trip(self):
        fan = hirzebruch_fan(3)
        assert fan_from_json(fan_to_json(fan)) == fan

    def test_json_rejects_bad_shape(self):
        with pytest.raises(InvalidInput):
            fan_from_json({"rays": [[1, 0], [0, 1], [1]]})
        with pytest.raises(InvalidInput):
            fan_from_json([1, 2, 3])


def test_the_first_ray_out_of_order_is_named_without_its_coordinates():
    with pytest.raises(InvalidInput, match=r"^ray 1 is out of canonical order$"):
        Fan([(1, 0), (-1, -1), (0, 1)])
    # A ray past the integer digit limit is not printed either.
    huge = 10**5000
    fan = normalize_fan([(1, 0), (huge, 1), (huge - 1, 1), (-1, 0), (0, -1)])
    with pytest.raises(InvalidInput, match=r"^ray 1 is out of canonical order$"):
        Fan(fan.rays[:1] + fan.rays[1:3][::-1] + fan.rays[3:])


def test_fan_reads_each_ray_once():
    # A ray given as an iterator is read before normalize_fan reads it.
    assert Fan(iter(v) for v in P2.rays) == P2


def fan_outcome(rays):
    # The Fan built from the rays, or the type of the error raised.
    try:
        return Fan(rays)
    except ToricError as exc:
        return type(exc)


def expected_fan_outcome(rays):
    # normalize_fan's answer when it keeps the rays as given, else its
    # error, or InvalidInput for a valid fan out of canonical order.
    try:
        fan = normalize_fan(rays)
    except ToricError as exc:
        return type(exc)
    return fan if fan.rays == tuple(map(tuple, rays)) else InvalidInput


def ray_lists():
    # Lists of 0 to 8 small integer pairs; the permutations of a few valid
    # fans' rays reach the order check far more often.
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    fans = [P2, hirzebruch_fan(0), hirzebruch_fan(2), blow_up(P2, 0), random_fan(3, 4)]
    permuted = st.sampled_from([f.rays for f in fans]).flatmap(st.permutations)
    return st.one_of(st.lists(pairs, max_size=8), permuted)


@given(ray_lists())
@example([])
@example(list(P2.rays))
@example([[1, 0], [0, 1], [-1, -1]])
@example(list(P2.rays[::-1]))
@settings(max_examples=200, deadline=None)
def test_fan_is_normalize_fans_answer_or_its_refusal(rays):
    # Any error other than a ToricError escapes fan_outcome and fails here.
    assert fan_outcome(rays) == expected_fan_outcome(rays)


@pytest.mark.parametrize(
    "fan", [P2, hirzebruch_fan(3), random_fan(5, 20)], ids=["P2", "F3", "random-5-20"]
)
def test_copies_give_back_equal_fans(fan):
    copies = [pickle.loads(pickle.dumps(fan, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(fan), fan._replace(rays=fan.rays), Fan._make(fan)]
    for twin in copies:
        assert twin == fan and type(twin) is Fan


class TestSelfIntersections:
    def test_projective_plane(self):
        assert self_intersections(P2) == (1, 1, 1)

    @pytest.mark.parametrize("a", range(5))
    def test_four_ray_fans(self, a):
        seq = self_intersections(hirzebruch_fan(a))
        assert cyclically_equal(seq, (0, -a, 0, a))

    def test_blown_up_plane(self):
        fan = blow_up(P2, 0)
        assert fan.rays == ((1, 0), (1, 1), (0, 1), (-1, -1))
        assert self_intersections(fan) == (0, -1, 0, 1)

    def test_sum_rule(self):
        for seed in range(10):
            fan = random_fan(seed, seed % 7)
            seq = self_intersections(fan)
            assert sum(seq) == 12 - 3 * fan.d

    @pytest.mark.parametrize(
        "rays, error",
        [
            # Clockwise P2 and F_1: the rays of a valid fan, out of order.
            # Each neighbour sum is a multiple of its ray, so a division by
            # the ray once gave (1, 1, 1) and (0, 1, 0, -1).
            (((1, 0), (-1, -1), (0, 1)), InvalidInput),
            (((1, 0), (0, -1), (-1, 1), (0, 1)), InvalidInput),
            # A repeated ray, and a pair of determinant 2.
            (((1, 0), (0, 1), (0, 1), (-1, -1)), DuplicateRay),
            (((2, 0), (0, 1), (-1, 0), (1, -1)), NonPrimitiveRay),
            # While Fan took any rays, verify gave F_1's rays listed twice,
            # whose adjacent determinants are all 1, betti [1, 5, 0]; the
            # fan that is not smooth the exit-2 verdict of a faulty
            # construction; the two opposite rays a bare ValueError; and
            # the floats a TypeError.
            (hirzebruch_fan(1).rays * 2, DuplicateRay),
            (((1, 0), (1, 2), (-1, -1)), NotSmooth),
            (((1, 0), (-1, 0)), NotComplete),
            (((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)), InvalidInput),
            (P2.rays[1:] + P2.rays[:1], InvalidInput),
        ],
        ids=[
            "clockwise-P2",
            "clockwise-F1",
            "repeated-ray",
            "not-smooth",
            "twice-round-F1",
            "determinant-2",
            "two-opposite-rays",
            "float-rays",
            "rotated-P2",
        ],
    )
    def test_records_that_are_no_fan_are_refused(self, rays, error):
        # self_intersections checks nothing: a record that is no fan in
        # canonical order never becomes a Fan.
        with pytest.raises(error):
            self_intersections(Fan(rays))


def rotations(seq):
    # Every rotation of seq, as a tuple; the empty sequence has one.
    return {tuple(seq[j:] + seq[:j]) for j in range(max(len(seq), 1))}


class TestApplyMap:
    def test_shear_example(self):
        fan = apply_map(P2, ((1, 0), (1, 1)))
        assert fan.rays == ((1, 1), (0, 1), (-1, -2))

    def test_identity(self):
        assert apply_map(P2, ((1, 0), (0, 1))) == P2

    def test_rejects_nonunimodular(self):
        with pytest.raises(NotUnimodular):
            apply_map(P2, ((2, 0), (0, 1)))

    def test_preserves_sequence_up_to_rotation(self):
        fan = hirzebruch_fan(2)
        image = apply_map(fan, ((1, 1), (0, 1)))
        assert self_intersections(image) in rotations(self_intersections(fan))

    def test_reflection_reverses_sequence(self):
        fan = blow_up(blow_up(P2, 0), 0)
        image = apply_map(fan, ((0, 1), (1, 0)))
        seq = self_intersections(fan)
        mirrored = self_intersections(image)
        assert cyclically_equal(seq, mirrored)
        assert seq in rotations(tuple(reversed(mirrored)))
        assert seq not in rotations(mirrored)
        assert cyclically_equal((), ())

    @given(
        a=st.lists(st.integers(-2, 2), max_size=6),
        b=st.lists(st.integers(-2, 2), max_size=6),
        shift=st.integers(0, 5),
        related=st.booleans(),
        flip=st.booleans(),
    )
    @example(a=[1, 2, 3], b=[3, 2, 1], shift=0, related=False, flip=False)
    @example(a=[1, 2, 3], b=[3, 1, 2], shift=0, related=False, flip=False)
    @example(a=[1, 2, 3, 4], b=[1, 3, 2, 4], shift=0, related=False, flip=False)
    @example(a=[], b=[], shift=0, related=False, flip=False)
    @example(a=[], b=[0], shift=0, related=False, flip=False)
    @example(a=[0, 0], b=[0], shift=0, related=False, flip=False)
    @settings(max_examples=300, deadline=None)
    def test_cyclically_equal_against_all_rotations(self, a, b, shift, related, flip):
        if related and a:
            # A rotation of a, reversed when flip is set: random lists are
            # rarely equal, so half the cases start from a itself.
            b = a[shift % len(a):] + a[:shift % len(a)]
            if flip:
                b.reverse()

        expected = tuple(a) in rotations(b) or tuple(a) in rotations(b[::-1])
        assert cyclically_equal(a, b) == expected


class TestSurgery:
    def test_blow_up_inserts_sum(self):
        fan = blow_up(hirzebruch_fan(0), 2)
        assert (-1, -1) in fan.rays
        assert fan.d == 5

    def test_blow_up_index_range(self):
        with pytest.raises(IndexOutOfRange):
            blow_up(P2, 3)
        with pytest.raises(IndexOutOfRange):
            blow_up(P2, -1)

    def test_blow_up_changes_neighbors_only(self):
        fan = hirzebruch_fan(3)
        old = dict(zip(fan.rays, self_intersections(fan)))
        i = 1
        left, right = fan.rays[i], fan.rays[(i + 1) % fan.d]
        new_ray = (left[0] + right[0], left[1] + right[1])
        bigger = blow_up(fan, i)
        new = dict(zip(bigger.rays, self_intersections(bigger)))
        assert new[new_ray] == -1
        for v in fan.rays:
            expected = old[v] - (1 if v in (left, right) else 0)
            assert new[v] == expected

    def test_blow_down_round_trip(self):
        for seed in range(6):
            fan = random_fan(seed, 4)
            for i in range(fan.d):
                bigger = blow_up(fan, i)
                sums = fan.rays[i], fan.rays[(i + 1) % fan.d]
                inserted = (sums[0][0] + sums[1][0], sums[0][1] + sums[1][1])
                j = bigger.rays.index(inserted)
                assert blow_down(bigger, j) == fan

    def test_blow_down_requires_exceptional(self):
        with pytest.raises(NotExceptional):
            blow_down(hirzebruch_fan(2), 0)

    def test_blow_down_rejects_minimal_plane(self):
        with pytest.raises(TooFewRays):
            blow_down(P2, 0)

    def test_blow_down_index_checked_first(self):
        with pytest.raises(IndexOutOfRange):
            blow_down(P2, 7)


MINIMAL_MODEL_DIGEST = "9d2dea0ade4de77e9f9bb209edf7b7a5fe78931842e442c8d5cd6ad525fb291a"


class TestMinimalModel:
    def test_plane_is_already_minimal(self):
        base, steps = minimal_model(P2)
        assert base == P2 and steps == ()

    def test_even_four_ray_fan_is_minimal(self):
        fan = hirzebruch_fan(2)
        base, steps = minimal_model(fan)
        assert base == fan and steps == ()

    def test_tower_contracts_fully(self):
        fan = P2
        for i in (0, 2, 1):
            fan = blow_up(fan, i)
        base, steps = minimal_model(fan)
        assert len(steps) == 3
        assert base.d in (3, 4)

    def test_steps_replay(self):
        for seed in range(10):
            fan = random_fan(seed, 5)
            base, steps = minimal_model(fan)
            current = base
            for step in reversed(steps):
                d = current.d
                spot = next(
                    j
                    for j in range(d)
                    if current.rays[j] == step.left
                    and current.rays[(j + 1) % d] == step.right
                )
                current = blow_up(current, spot)
            assert current == fan

    def test_contractions_keep_their_digest(self):
        # The sha256 of repr((base, steps)) over random_fan(s, s % 41),
        # s < 300, as recorded before and after each rewrite of the
        # contraction; minimal_model contracts through blow_down.
        digest = hashlib.sha256()
        for s in range(300):
            digest.update(repr(minimal_model(random_fan(s, s % 41))).encode())
        assert digest.hexdigest() == MINIMAL_MODEL_DIGEST

    def test_removed_ray_is_neighbor_sum(self):
        fan = random_fan(99, 6)
        _, steps = minimal_model(fan)
        for step in steps:
            assert step.ray == (
                step.left[0] + step.right[0],
                step.left[1] + step.right[1],
            )


class TestRandomFan:
    def test_deterministic(self):
        assert random_fan(123, 4) == random_fan(123, 4)

    def test_ray_count(self):
        for seed in range(12):
            base_d = random_fan(seed, 0).d
            assert random_fan(seed, 5).d == base_d + 5

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            random_fan(1, -1)


@pytest.mark.parametrize(
    "count, max_blowups, message",
    [
        (-1, 0, "count must be nonnegative"),
        (1, -1, "max_blowups must be nonnegative"),
    ],
)
def test_corpus_tasks_refuse_negative_sizes(count, max_blowups, message):
    with pytest.raises(InvalidInput) as refused:
        corpus_tasks(1, count, max_blowups)
    assert (type(refused.value), str(refused.value)) == (InvalidInput, message)


def test_corpus_task_stream_refuses_before_the_first_draw():
    # The stream is drawn lazily, but its arguments are checked eagerly.
    with pytest.raises(InvalidInput, match="count must be nonnegative"):
        corpus_tasks(1, -1, 0)
    stream = corpus_tasks(7, 2000, 12)
    assert iter(stream) is stream


F1_BLOWN_UP = blow_up(hirzebruch_fan(1), 0)


# Each argument is read through operator.index: a float is refused by
# name, where it used to pass the range check and fail with a bare
# TypeError, or give float blow-up counts. A bool is refused too, where
# it used to read as 0 or 1.
@pytest.mark.parametrize(
    "call, args, kwargs, message",
    [
        (random_fan, (1, 2.5), {}, "n_blowups must be an integer, got 2.5"),
        (random_fan, (1.5, 2), {}, "seed must be an integer, got 1.5"),
        (corpus_tasks, (1, 3, 1.5), {}, "max_blowups must be an integer, got 1.5"),
        (corpus_tasks, (1, 2.5, 1), {}, "count must be an integer, got 2.5"),
        (corpus_tasks, (1.5, 3, 1), {}, "seed must be an integer, got 1.5"),
        (
            run_moment_checks,
            (P2,),
            {"samples": 2.5},
            "samples must be an integer, got 2.5",
        ),
        (run_moment_checks, (P2,), {"seed": 1.5}, "seed must be an integer, got 1.5"),
        (blow_up, (F1_BLOWN_UP, 1.0), {}, "cone index must be an integer, got 1.0"),
        (blow_down, (F1_BLOWN_UP, 1.0), {}, "ray index must be an integer, got 1.0"),
        (
            tubular_neighborhood,
            (F1_BLOWN_UP, 1.0),
            {},
            "ray index must be an integer, got 1.0",
        ),
        (random_fan, (True, 2), {}, "seed must be an integer, got True"),
        (random_fan, (1, False), {}, "n_blowups must be an integer, got False"),
        (corpus_tasks, (1, True, 1), {}, "count must be an integer, got True"),
        (corpus_tasks, (1, 3, True), {}, "max_blowups must be an integer, got True"),
        (
            run_moment_checks,
            (P2,),
            {"samples": True},
            "samples must be an integer, got True",
        ),
        (blow_up, (F1_BLOWN_UP, True), {}, "cone index must be an integer, got True"),
        (blow_down, (F1_BLOWN_UP, True), {}, "ray index must be an integer, got True"),
    ],
    ids=[
        "random-fan-n-blowups",
        "random-fan-seed",
        "corpus-max-blowups",
        "corpus-count",
        "corpus-seed",
        "moment-samples",
        "moment-seed",
        "blow-up",
        "blow-down",
        "tubular-neighborhood",
        "random-fan-seed-bool",
        "random-fan-n-blowups-bool",
        "corpus-count-bool",
        "corpus-max-blowups-bool",
        "moment-samples-bool",
        "blow-up-bool",
        "blow-down-bool",
    ],
)
def test_integer_arguments_refuse_floats_by_name(call, args, kwargs, message):
    with pytest.raises(InvalidInput) as refused:
        call(*args, **kwargs)
    assert (type(refused.value), str(refused.value)) == (InvalidInput, message)


def random_fan_digest(tasks) -> str:
    """sha256 of the ``fan_to_json`` line of ``random_fan(s, n)`` for each
    ``(s, n)`` in ``tasks``, in order."""
    h = hashlib.sha256()
    for s, n in tasks:
        h.update(json.dumps(fan_to_json(random_fan(s, n))).encode() + b"\n")
    return h.hexdigest()


# random_fan pinned bit for bit: the pairs of corpus_tasks(2026, 2000, 12)
# in four blocks of 500, then n = 64 and 256 for seeds 0, 1 and 2. Each
# block has a digest of its own, so that a check can recompute one alone.
_CORPUS = list(corpus_tasks(2026, 2000, 12))
RANDOM_FAN_BLOCKS = [_CORPUS[k : k + 500] for k in range(0, 2000, 500)] + [
    [(s, n) for s in range(3) for n in (64, 256)]
]
RANDOM_FAN_DIGESTS = [
    "bb624e2155de78133e07dd0c08d793caccb81247e28b5699dbd06ee13ae72816",
    "2c264f39e1b3ca3a736c874052146aac687d948983de9b22f83d835fe5fcb061",
    "956b19d107f010f8d44cc287493616a63a7168fd72f7300476855127a96b1241",
    "c1de526b8ac328c5131dedf41b6f86390ee32271b911fc9bed42ffa2f68d15eb",
    "097293990f4cf8982284615f61b8f975a48ba8c078f0533d296b8270e52a2700",
]


def test_random_fan_digest():
    assert [random_fan_digest(b) for b in RANDOM_FAN_BLOCKS] == RANDOM_FAN_DIGESTS


_BAD_MAP = "a map must be two pairs of integers, got %s"


@pytest.mark.parametrize(
    "build, args, message",
    [
        (hirzebruch_fan, (-1,), "the canonical 4-ray fan takes a >= 0"),
        (hirzebruch_fan, (1.5,), "a must be an integer, got 1.5"),
        (hirzebruch_fan, (True,), "a must be an integer, got True"),
        (apply_map, (P2, ((1, 0), (0.5, 1))), "map entries must be integers"),
        (apply_map, (P2, ((True, 0), (0, 1))), "map entries must be integers"),
        (
            apply_map,
            (P2, ((1, 0), (0, 1), (0, 0))),
            _BAD_MAP % "((1, 0), (0, 1), (0, 0))",
        ),
        (apply_map, (P2, ((1, 0), (0,))), _BAD_MAP % "((1, 0), (0,))"),
        (apply_map, (P2, "ab"), _BAD_MAP % "'ab'"),
        (apply_map, (P2, None), _BAD_MAP % "None"),
    ],
    ids=[
        "hirzebruch-negative",
        "hirzebruch-float",
        "hirzebruch-bool",
        "map-float",
        "map-bool",
        "map-three-rows",
        "map-short-row",
        "map-string",
        "map-none",
    ],
)
def test_fan_builders_refuse_bad_arguments(build, args, message):
    with pytest.raises(InvalidInput) as refused:
        build(*args)
    assert (type(refused.value), str(refused.value)) == (InvalidInput, message)


@given(seed=st.integers(0, 2**64 - 1), blowups=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_random_fans_are_valid_and_sum_correctly(seed, blowups):
    fan = random_fan(seed, blowups)
    assert normalize_fan(fan.rays) == fan
    seq = self_intersections(fan)
    assert sum(seq) == 12 - 3 * fan.d


@given(seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_adjacent_determinants_are_one(seed):
    fan = random_fan(seed, 5)
    d = fan.d
    for i in range(d):
        v, w = fan.rays[i], fan.rays[(i + 1) % d]
        assert v[0] * w[1] - v[1] * w[0] == 1
