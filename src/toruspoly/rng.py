"""Seeded PRNG (splitmix64).

All randomised checks draw from this generator so that reports are
reproducible from (algorithm name, seed) alone.  Outputs are computed in
uint64 arithmetic (state + i * gamma, then the two mix rounds, all mod
2^64): 256 at a time and served one per call by next_u64, or as one array
by draws, so the stream is the scalar generator's, draw for draw.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
ALGORITHM = "splitmix64"
GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 256


def _mix(state: int, count: int) -> np.ndarray:
    """The next count outputs of the generator in this state, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """state is the scalar generator's state after the draws made so far:
    the state before the current block plus gamma per draw from it."""

    __slots__ = ("_base", "_block", "_used")

    def __init__(self, seed: int):
        self._base = seed & MASK
        self._block = _mix(self._base, _BLOCK).tolist()
        self._used = 0

    @property
    def state(self) -> int:
        return (self._base + self._used * GAMMA) & MASK

    def next_u64(self) -> int:
        i = self._used
        if i == _BLOCK:
            self._base = self.state  # the block is used up
            self._block = _mix(self._base, _BLOCK).tolist()
            i = 0
        self._used = i + 1
        return self._block[i]

    def draws(self, count: int) -> np.ndarray:
        """The next count outputs as one uint64 array: the values of count
        next_u64 calls, after which state is where those calls leave it."""
        if count < 0:
            raise ValueError("need a nonnegative count")
        i = self._used
        if i + count <= _BLOCK:  # served from the current block
            self._used = i + count
            return np.array(self._block[i:i + count], dtype=np.uint64)
        start = self.state
        out = _mix(start, count)
        # a used-up block whose state is start + count * gamma
        self._base = (start + (count - _BLOCK) * GAMMA) & MASK
        self._used = _BLOCK
        return out

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("need a positive bound")
        return self.next_u64() % n

    def unit(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)
