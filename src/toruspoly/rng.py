"""Seeded PRNG (splitmix64).

All randomised checks draw from this generator so that reports are
reproducible from (algorithm name, seed) alone.  Outputs are computed 256
at a time in uint64 arithmetic (state + i * gamma, then the two mix rounds,
all mod 2^64) and served one per call, so the stream is the scalar
generator's, draw for draw.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
ALGORITHM = "splitmix64"
GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 256
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(GAMMA)


def _outputs(state: int) -> list[int]:
    """The next _BLOCK outputs of the generator in this state."""
    z = np.uint64(state) + _STEPS
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).tolist()


class SplitMix64:
    """state is the scalar generator's state after the draws made so far:
    the state before the current block plus gamma per draw from it."""

    __slots__ = ("_base", "_block", "_used")

    def __init__(self, seed: int):
        self._base = seed & MASK
        self._block = _outputs(self._base)
        self._used = 0

    @property
    def state(self) -> int:
        return (self._base + self._used * GAMMA) & MASK

    def next_u64(self) -> int:
        i = self._used
        if i == _BLOCK:
            self._base = self.state  # the block is used up
            self._block = _outputs(self._base)
            i = 0
        self._used = i + 1
        return self._block[i]

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("need a positive bound")
        return self.next_u64() % n

    def unit(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)
