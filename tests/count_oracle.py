"""Typical-set counts by listing count vectors, the oracle the window sum is tested against."""
import math
from typing import Iterator, Sequence

import numpy as np


def count_vectors(lo: np.ndarray, hi: np.ndarray, total: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors with lo <= v <= hi and sum(v) == total."""
    k = lo.size
    suffix_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0]])
    suffix_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0]])

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == k:
            if remaining == 0:
                yield prefix
            return
        low = max(lo[i], remaining - suffix_hi[i + 1])
        high = min(hi[i], remaining - suffix_lo[i + 1])
        for v in range(int(low), int(high) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    yield from rec(0, total, ())


def multinomial(n: int, counts: Sequence[int]) -> int:
    out = 1
    rest = n
    for c in counts:
        out *= math.comb(rest, c)
        rest -= c
    return out


def typical_count_by_vectors(spec) -> int:
    """Number of sequences of a TypicalSpec, summed over its admissible count vectors."""
    lo, hi = spec.count_windows()
    return sum(multinomial(spec.n, v) for v in count_vectors(lo, hi, spec.n))
