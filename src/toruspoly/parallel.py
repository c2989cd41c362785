"""Deterministic work partitioning.

Heavy enumerations split into contiguous chunks that are processed
(possibly concurrently) and merged in chunk order, so results are
bit-identical for every thread count.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def chunk_ranges(rng: range, workers: int) -> list[range]:
    size = len(rng)
    workers = max(1, min(workers, size)) if size else 1
    bounds = [rng.start + size * w // workers for w in range(workers + 1)]
    return [range(bounds[w], bounds[w + 1]) for w in range(workers)
            if bounds[w] < bounds[w + 1]]


def ordered_map(fn: Callable[[range], T], chunks: Sequence[range], threads: int) -> list[T]:
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    # imported here: only a threaded map needs it, and it slows every import
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, chunks))
