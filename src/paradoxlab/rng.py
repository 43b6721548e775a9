"""Deterministic 64-bit pseudo-random generator for every stochastic step.

The generator is splitmix64: the state advances by the odd constant
0x9E3779B97F4A7C15 and each output applies the finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

to the advanced state, everything modulo 2**64.  The platform RNG is never
used, so a seed reproduces the same stream on any machine and the scheme is
easy to port: any implementation with 64-bit unsigned arithmetic gives
bit-identical graphs.

The generator is counter-based: word k of state s is ``mix(s + k*GAMMA)``,
so a block of consecutive words, of one stream or of many at once, is
computed with numpy ``uint64`` arithmetic, which wraps modulo 2**64 like
the masked scalar code.
"""

from __future__ import annotations

import operator
from typing import MutableSequence, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """Finalizer of one state; takes a Python int or a numpy ``uint64``
    array, whose arithmetic wraps modulo 2**64 by itself."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uint64_rows(streams: Sequence[SplitMix64], count: int) -> np.ndarray:
    """The next ``count`` words of each stream as a ``(len(streams), count)``
    ``uint64`` array, one row per stream; each state advances exactly as
    ``count`` calls of :meth:`SplitMix64.next_uint64` would."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z = z + np.array([stream._state for stream in streams],
                     dtype=np.uint64)[:, None]
    step = operator.index(count) * _GAMMA
    for stream in streams:
        stream._state = (stream._state + step) & _MASK64
    return _mix(z)


def _swap_limits(top: int) -> tuple[np.ndarray, np.ndarray]:
    """The bounds ``top + 1`` down to 2 of a Fisher-Yates shuffle's swaps
    and, for each, the largest word that :meth:`SplitMix64.below` accepts,
    as ``uint64`` arrays: the row test of ``generators._pair_stubs``."""
    bounds = np.arange(top + 1, 1, -1).astype(np.uint64)
    # 2**64 mod b, in wrapping array arithmetic: scalar uint64 wrap would
    # warn.
    sliver = (np.zeros_like(bounds) - bounds) % bounds
    return bounds, np.uint64(_MASK64) - sliver


class SplitMix64:
    """Stream of 64-bit words from a single integer seed."""

    def __init__(self, seed: int):
        # A numpy integer becomes a Python int, whose arithmetic does not
        # overflow.
        self._state = operator.index(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) using the 53 high bits of one word."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uint64_block(self, count: int) -> np.ndarray:
        """The next ``count`` words as a ``uint64`` array; the state advances
        exactly as ``count`` calls of :meth:`next_uint64` would."""
        return _uint64_rows([self], count)[0]

    def random_block(self, count: int) -> np.ndarray:
        """The next ``count`` floats of :meth:`random` as a float64 array."""
        return (self.uint64_block(count) >> np.uint64(11)) * 2.0 ** -53

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by unbiased rejection sampling."""
        # A numpy integer becomes a Python int, as in __init__.
        bound = operator.index(bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Reject the top sliver that would bias the modulo.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            word = self.next_uint64()
            if word < limit:
                return word % bound

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle (Knuth's Algorithm P): for ``i``
        from the top down, swap item ``i`` with item ``below(i + 1)``."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream ``index``.

    Equals the ``index+1``-th raw output of ``SplitMix64(seed)`` but is
    computed in O(1), so ensemble members can be seeded independently of
    evaluation order.
    """
    # A numpy integer becomes a Python int, as in SplitMix64.__init__.
    index = operator.index(index)
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _mix((operator.index(seed) + (index + 1) * _GAMMA) & _MASK64)
