"""Deterministic 64-bit pseudo-random generator (splitmix64).

The update rule, fixed so that every seeded run is reproducible across
platforms and Python versions:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z XOR (z >> 31)

Derived draws: ``below(n)`` is ``output mod n`` and ``uniform()`` is
``(output >> 11) * 2**-53``, a float in ``[0, 1)``.
"""

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    """Stateful splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Next integer in ``range(n)``. Requires ``n >= 1``."""
        if n < 1:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def uniform(self) -> float:
        """Next float in ``[0, 1)`` with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53
