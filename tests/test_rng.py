"""The seeded generator against the published splitmix64 reference."""

import pytest

from realtoric import SplitMix64


def words(rng, n):
    return [rng.next_u64() for _ in range(n)]


def test_seed_zero_matches_the_reference_outputs():
    assert words(SplitMix64(0), 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_seed_1234567_matches_the_reference_outputs():
    assert words(SplitMix64(1234567), 5) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
def test_uniform_takes_the_top_53_bits(seed):
    expected = [(x >> 11) * 2**-53 for x in words(SplitMix64(seed), 6)]
    rng = SplitMix64(seed)
    assert [rng.uniform() for _ in range(6)] == expected


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
def test_below_reduces_the_next_word(seed):
    bounds = [1, 2, 7, 1000, 2**64, 2**65]
    expected = [x % n for x, n in zip(words(SplitMix64(seed), len(bounds)), bounds)]
    rng = SplitMix64(seed)
    assert [rng.below(n) for n in bounds] == expected


@pytest.mark.parametrize("n", [0, -3])
def test_below_needs_a_positive_bound(n):
    with pytest.raises(ValueError):
        SplitMix64(0).below(n)


def test_seed_is_taken_mod_2_64():
    assert words(SplitMix64(-1), 5) == words(SplitMix64(2**64 - 1), 5)
    assert words(SplitMix64(2**64 + 7), 5) == words(SplitMix64(7), 5)
