"""Seeded PRNG (splitmix64).

All randomised checks draw from this generator so that reports are
reproducible from (algorithm name, seed) alone.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
ALGORITHM = "splitmix64"


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("need a positive bound")
        return self.next_u64() % n

    def unit(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)
