"""Deterministic graph families and seeded random models.

Every random draw goes through the package PRNG (:mod:`paradoxlab.rng`), so
a :class:`RandomGraphSpec` is a complete, portable recipe: the same spec
yields the same graph on any platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, ParameterError
from .graph import Graph, build_undirected, extract_lcc
from .rng import SplitMix64

logger = logging.getLogger(__name__)

MODELS = ("path", "cycle", "star", "complete", "k_regular", "erdos_renyi",
          "configuration", "preferential_attachment")

# Models whose raw samples are frequently disconnected keep their largest
# component by default.
LCC_DEFAULT_MODELS = ("erdos_renyi",)

MAX_PAIRING_ATTEMPTS = 100

# Erdos-Renyi pairs drawn per numpy block.  Each pair holds a few tens of
# bytes of scratch while its block is drawn, so this bounds that memory
# whatever n is.
ER_BLOCK_PAIRS = 1 << 18


@dataclass(frozen=True)
class RandomGraphSpec:
    """Recipe for one graph: a model name, its parameters and a seed.

    ``lcc_extract=None`` defers to the model default (on for Erdos-Renyi,
    off elsewhere).  ``degree_sequence`` drives the configuration model and
    must have length ``n``; ``m_attach`` is the number of edges each new
    node brings in preferential attachment.
    """

    model: str
    n: int
    p: float | None = None
    k: int | None = None
    degree_sequence: tuple[int, ...] | None = None
    m_attach: int | None = None
    seed: int = 0
    lcc_extract: bool | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(
                f"unknown model {self.model!r}; expected one of "
                f"{', '.join(MODELS)}")
        if self.n < 1:
            raise ParameterError(f"n must be positive, got {self.n}")
        needs = {"erdos_renyi": ("p",), "k_regular": ("k",),
                 "configuration": ("degree_sequence",),
                 "preferential_attachment": ("m_attach",)}
        wanted = needs.get(self.model, ())
        for name in ("p", "k", "degree_sequence", "m_attach"):
            value = getattr(self, name)
            if name in wanted and value is None:
                raise ParameterError(f"model {self.model!r} requires {name}")
            if name not in wanted and value is not None:
                raise ParameterError(
                    f"model {self.model!r} does not accept {name}")
        if self.model == "path" and self.n < 2:
            raise ParameterError("path needs at least 2 nodes")
        if self.model == "cycle" and self.n < 3:
            raise ParameterError("cycle needs at least 3 nodes")
        if self.model == "star" and self.n < 2:
            raise ParameterError("star needs at least 2 nodes")
        if self.model == "complete" and self.n < 2:
            raise ParameterError("complete graph needs at least 2 nodes")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must lie in [0, 1], got {self.p}")
        if self.k is not None:
            if not 0 <= self.k < self.n:
                raise ParameterError(
                    f"k must lie in [0, n), got k={self.k} with n={self.n}")
            if (self.n * self.k) % 2 != 0:
                raise ParameterError(
                    f"n*k must be even for a k-regular graph, "
                    f"got n={self.n}, k={self.k}")
        if self.degree_sequence is not None:
            seq = self.degree_sequence
            if len(seq) != self.n:
                raise ParameterError(
                    f"degree sequence of length {len(seq)} does not "
                    f"match n={self.n}")
            if any(d < 0 for d in seq):
                raise ParameterError("degrees must be nonnegative")
            if any(d >= self.n for d in seq):
                raise ParameterError(
                    "degrees must be below n for a simple target")
            if sum(seq) % 2 != 0:
                raise ParameterError("degree sequence must have even sum")
        if self.m_attach is not None:
            if self.m_attach < 1:
                raise ParameterError(
                    f"m_attach must be at least 1, got {self.m_attach}")
            if self.n < self.m_attach + 1:
                raise ParameterError(
                    f"preferential attachment needs n >= m_attach + 1, "
                    f"got n={self.n}, m_attach={self.m_attach}")


def effective_lcc_extract(spec: RandomGraphSpec) -> bool:
    if spec.lcc_extract is not None:
        return spec.lcc_extract
    return spec.model in LCC_DEFAULT_MODELS


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(n - 1, 0)]


def star_edges(n: int) -> list[tuple[int, int]]:
    """Node 0 is the hub."""
    return [(0, i) for i in range(1, n)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _erdos_renyi_edges(n: int, p: float, rng: SplitMix64) -> np.ndarray:
    """One Bernoulli draw per pair, pairs visited in lexicographic order so
    the stream position of every pair is fixed.

    The draws come in blocks of at most ``ER_BLOCK_PAIRS`` consecutive
    pairs, which may end inside a row.  Returns the edges as an ``(m, 2)``
    int64 array in lexicographic order.
    """
    rows = np.arange(n, dtype=np.int64)
    # Stream position of pair (i, i + 1), the first pair of row i.
    row_start = rows * (2 * n - rows - 1) // 2
    total = n * (n - 1) // 2
    hits = [np.empty(0, dtype=np.int64)]
    for first in range(0, total, ER_BLOCK_PAIRS):
        draws = rng.random_block(min(ER_BLOCK_PAIRS, total - first))
        hits.append(np.flatnonzero(draws < p) + first)
    position = np.concatenate(hits)
    i = np.searchsorted(row_start, position, side="right") - 1
    return np.column_stack([i, position - row_start[i] + i + 1])


def _pair_stubs(degrees: list[int],
                rng: SplitMix64) -> tuple[np.ndarray, int, int]:
    """Uniform stub pairing; returns (simple edges as an ``(m, 2)`` int64
    array, dropped loops, collapsed parallels)."""
    n = len(degrees)
    stubs = np.repeat(np.arange(n), degrees).tolist()
    rng.shuffle(stubs)
    a, b = np.array(stubs, dtype=np.int64).reshape(-1, 2).T
    kept = a != b
    keys = np.minimum(a, b)[kept] * n + np.maximum(a, b)[kept]
    simple = np.unique(keys)
    return (np.column_stack([simple // n, simple % n]),
            len(a) - len(keys), len(keys) - len(simple))


def _k_regular_edges(n: int, k: int, rng: SplitMix64) -> np.ndarray:
    """Retry stub pairings until one is simple, so the result is exactly
    k-regular."""
    for _ in range(MAX_PAIRING_ATTEMPTS):
        edges, loops, parallels = _pair_stubs([k] * n, rng)
        if loops == 0 and parallels == 0:
            return edges
    raise GenerationError(
        f"no simple {k}-regular pairing on {n} nodes after "
        f"{MAX_PAIRING_ATTEMPTS} attempts")


def _configuration_edges(degrees: tuple[int, ...],
                         rng: SplitMix64) -> np.ndarray:
    """Erased configuration model: one pairing, loops and parallel edges
    dropped, so realised degrees may fall below their targets."""
    edges, loops, parallels = _pair_stubs(list(degrees), rng)
    if loops or parallels:
        logger.info("configuration model erased %d loops and %d parallel "
                    "edges", loops, parallels)
    return edges


def _preferential_edges(n: int, m: int,
                        rng: SplitMix64) -> list[tuple[int, int]]:
    """Growth with degree-proportional attachment.

    Starts from the complete graph on m+1 nodes; every later node joins m
    distinct existing nodes drawn from a degree-repeated list (redrawing on
    duplicates within one round).  Total edges: n*m - m*(m+1)/2.
    """
    edges = complete_edges(m + 1)
    repeated = [node for node in range(m + 1) for _ in range(m)]
    for new in range(m + 1, n):
        chosen: list[int] = []
        while len(chosen) < m:
            target = repeated[rng.below(len(repeated))]
            if target not in chosen:
                chosen.append(target)
        for target in chosen:
            edges.append((target, new))
        repeated.extend(chosen)
        repeated.extend([new] * m)
    return edges


def generate(spec: RandomGraphSpec) -> Graph:
    """Realise a :class:`RandomGraphSpec` as an undirected graph."""
    rng = SplitMix64(spec.seed)
    if spec.model == "path":
        edges = path_edges(spec.n)
    elif spec.model == "cycle":
        edges = cycle_edges(spec.n)
    elif spec.model == "star":
        edges = star_edges(spec.n)
    elif spec.model == "complete":
        edges = complete_edges(spec.n)
    elif spec.model == "erdos_renyi":
        edges = _erdos_renyi_edges(spec.n, spec.p, rng)
    elif spec.model == "k_regular":
        edges = _k_regular_edges(spec.n, spec.k, rng)
    elif spec.model == "configuration":
        edges = _configuration_edges(spec.degree_sequence, rng)
    else:
        edges = _preferential_edges(spec.n, spec.m_attach, rng)
    graph = build_undirected(spec.n, edges)
    if effective_lcc_extract(spec):
        graph, _ = extract_lcc(graph)
    return graph
