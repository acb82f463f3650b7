"""Seeded corpora of random fans for bulk verification runs.

A master stream derives one ``(seed, n_blowups)`` pair per fan, so the
corpus for a given ``(seed, count, max_blowups)`` triple is fixed forever
and each entry can be verified independently (and in parallel) without
changing the output.
"""

from __future__ import annotations

from .errors import InvalidInput
from .fan import Fan, random_fan
from .rng import SplitMix64

__all__ = ["corpus_tasks", "corpus_fans"]


def corpus_tasks(seed: int, count: int, max_blowups: int) -> list[tuple[int, int]]:
    """Derive the ``(seed, n_blowups)`` pair for each corpus entry.

    Raises InvalidInput when ``count`` or ``max_blowups`` is negative.
    """
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    if max_blowups < 0:
        raise InvalidInput("max_blowups must be nonnegative")
    master = SplitMix64(seed)
    tasks = []
    for _ in range(count):
        n = master.below(max_blowups + 1)
        entry_seed = master.next_u64()
        tasks.append((entry_seed, n))
    return tasks


def corpus_fans(seed: int, count: int, max_blowups: int) -> list[Fan]:
    """The corpus itself, in order."""
    return [random_fan(s, n) for s, n in corpus_tasks(seed, count, max_blowups)]
