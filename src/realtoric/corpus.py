"""Seeded corpora of random fans for bulk verification runs.

A master stream derives one ``(seed, n_blowups)`` pair per fan, so the
corpus for a given ``(seed, count, max_blowups)`` triple is fixed forever
and each entry can be verified independently (and in parallel) without
changing the output.
"""

from __future__ import annotations

from typing import Iterator

from .errors import InvalidInput
from .fan import Fan, integer_argument, random_fan
from .rng import SplitMix64

__all__ = ["iter_corpus_tasks", "corpus_tasks", "corpus_fans"]


def iter_corpus_tasks(
    seed: int, count: int, max_blowups: int
) -> Iterator[tuple[int, int]]:
    """The ``(seed, n_blowups)`` pair of each corpus entry, drawn as they
    are consumed, so a corpus of any size takes constant memory.

    The arguments are checked here, before the first pair is drawn:
    InvalidInput when one is no integer, or ``count`` or ``max_blowups``
    is negative.
    """
    master = SplitMix64(integer_argument("seed", seed))
    count = integer_argument("count", count)
    max_blowups = integer_argument("max_blowups", max_blowups)
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    if max_blowups < 0:
        raise InvalidInput("max_blowups must be nonnegative")
    return _draw_tasks(master, count, max_blowups + 1)


def _draw_tasks(
    master: SplitMix64, count: int, bound: int
) -> Iterator[tuple[int, int]]:
    for _ in range(count):
        n = master.below(bound)
        yield master.next_u64(), n


def corpus_tasks(seed: int, count: int, max_blowups: int) -> list[tuple[int, int]]:
    """Every pair of :func:`iter_corpus_tasks`, in order, as a list."""
    return list(iter_corpus_tasks(seed, count, max_blowups))


def corpus_fans(seed: int, count: int, max_blowups: int) -> list[Fan]:
    """The corpus itself, in order."""
    return [random_fan(s, n) for s, n in iter_corpus_tasks(seed, count, max_blowups)]
