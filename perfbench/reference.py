"""A fixed reference loop that measures how fast the machine runs now.

On a shared machine, other tenants slow every process on it, by up to
1.8x for seconds to minutes at a time, so raw wall times of identical
work spread by 30% between runs.  The benchmark times this loop next to
every job and scales the job's wall time by ``REFERENCE_S`` over the
loop's time, which reads in seconds at the machine's undisturbed speed
and cancels most of that drift.  The loop mixes Python bytecode, small
numpy operations and a scipy.sparse matvec, as the library does, and
belongs to the benchmark, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

# The loop's fastest time on the 2-CPU Xeon this benchmark was written on.
REFERENCE_S = 0.0060

_NODES = 200


class Reference:
    def __init__(self):
        ring = np.arange(_NODES)
        rows = np.concatenate([ring, ring])
        cols = np.concatenate([(ring + 1) % _NODES, (ring + 7) % _NODES])
        self._matrix = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(_NODES, _NODES))

    def seconds(self) -> float:
        """Wall time of one pass of the loop."""
        start = time.perf_counter()
        total = 0
        for k in range(60_000):
            total += k * k
        x = np.full(_NODES, 1.0 / _NODES)
        for _ in range(300):
            x = self._matrix @ x
            x /= x.sum()
        return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work timed between two reference measurements,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
