"""Deterministic graph families and seeded random models.

Every random draw goes through the package PRNG (:mod:`paradoxlab.rng`), so
a :class:`RandomGraphSpec` is a complete, portable recipe: the same spec
yields the same graph on any platform.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, ParameterError
from .graph import (_MAX_GRAPH_SIZE, Graph, _is_int, _is_real, _require_int,
                    build_undirected, extract_lcc)
from .rng import SplitMix64, _swap_limits, _uint64_rows

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

    ``k_regular`` redraws whole stub pairings, up to
    ``MAX_PAIRING_ATTEMPTS``, until one is simple.  A simple pairing is
    rare for ``k >= 4``, so such a spec often raises ``GenerationError``
    (``n=100, k=5`` fails for 158 of the seeds 0-199), and
    ``bias_distribution`` raises at the first member whose draw fails.

    A spec over the size limit of :mod:`paradoxlab.graph` raises
    ``ParameterError`` before anything is drawn.
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
        _require_int("n", self.n, 1)
        _require_int("seed", self.seed)
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
        if self.p is not None and not (_is_real(self.p)
                                       and 0.0 <= self.p <= 1.0):
            raise ParameterError(
                f"p must be a number in [0, 1], got {self.p!r}")
        if self.k is not None:
            if not (_is_int(self.k) and 0 <= self.k < self.n):
                raise ParameterError(f"k must be an integer in [0, n), got "
                                     f"k={self.k!r} with n={self.n}")
            if (self.n * self.k) % 2 != 0:
                raise ParameterError(
                    f"n*k must be even for a k-regular graph, "
                    f"got n={self.n}, k={self.k}")
        if self.lcc_extract is not None and not isinstance(
                self.lcc_extract, (bool, np.bool_)):
            raise ParameterError(f"lcc_extract must be None or a bool, got "
                                 f"{self.lcc_extract!r}")
        if self.degree_sequence is not None:
            seq = self.degree_sequence
            if not isinstance(seq, (Sequence, np.ndarray)):
                raise ParameterError(f"degree_sequence must be a sequence of "
                                     f"integers, got {seq!r}")
            if len(seq) != self.n:
                raise ParameterError(
                    f"degree sequence of length {len(seq)} does not "
                    f"match n={self.n}")
            if not all(_is_int(d) for d in seq):
                raise ParameterError(
                    f"degrees must be integers, got {seq!r}")
            if any(d < 0 for d in seq):
                raise ParameterError("degrees must be nonnegative")
            if any(d >= self.n for d in seq):
                raise ParameterError(
                    "degrees must be below n for a simple target")
            if sum(seq) % 2 != 0:
                raise ParameterError("degree sequence must have even sum")
        if self.m_attach is not None:
            _require_int("m_attach", self.m_attach, 1)
            if self.n < self.m_attach + 1:
                raise ParameterError(
                    f"preferential attachment needs n >= m_attach + 1, "
                    f"got n={self.n}, m_attach={self.m_attach}")
        # Stored arcs, both orientations of each edge, and two more for a
        # path or a star; an Erdos-Renyi draw's are random, so only its n
        # is checked.
        arcs = 0 if self.model == "erdos_renyi" else 2 * self.n
        if self.model == "complete":
            arcs = self.n * (self.n - 1)
        elif self.model == "k_regular":
            arcs = self.n * self.k
        elif self.model == "configuration":
            arcs = sum(self.degree_sequence)
        elif self.model == "preferential_attachment":
            arcs = 2 * self.n * self.m_attach
        if max(self.n, arcs) > _MAX_GRAPH_SIZE:
            raise ParameterError(f"{self.model} on n={self.n} exceeds the "
                                 f"limit of {_MAX_GRAPH_SIZE} nodes and "
                                 f"stored arcs")


def effective_lcc_extract(spec: RandomGraphSpec) -> bool:
    if spec.lcc_extract is not None:
        return spec.lcc_extract
    return spec.model in LCC_DEFAULT_MODELS


# The deterministic families return their edges as (m, 2) int64 arrays.
def path_edges(n: int) -> np.ndarray:
    nodes = np.arange(n - 1, dtype=np.int64)
    return np.column_stack([nodes, nodes + 1])


def cycle_edges(n: int) -> np.ndarray:
    return np.concatenate([path_edges(n), [[n - 1, 0]]])


def star_edges(n: int) -> np.ndarray:
    """Node 0 is the hub."""
    leaves = np.arange(1, n, dtype=np.int64)
    return np.column_stack([np.zeros_like(leaves), leaves])


def complete_edges(n: int) -> np.ndarray:
    """Pairs ``i < j`` in lexicographic order."""
    return np.column_stack(np.triu_indices(n, 1)).astype(np.int64, copy=False)


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


def _pair_stubs(degrees: list[int], streams: list[SplitMix64],
                ) -> list[tuple[np.ndarray, int, int]]:
    """One uniform stub pairing from each stream; returns, per stream,
    (simple edges as an ``(m, 2)`` int64 array, dropped loops, collapsed
    parallels).

    :meth:`SplitMix64.shuffle` is the definition, one
    :meth:`SplitMix64.below` draw per swap, that the rows are tested
    against.  Each stream shuffles the stubs as it would, from one block of
    words drawn for all streams at once.  A stream whose block holds a
    rejected word goes back to its start and runs
    :meth:`SplitMix64.shuffle` itself, so items, final states and words
    drawn equal those of one shuffle per stream.
    """
    n = len(degrees)
    stubs = np.repeat(np.arange(n), degrees).tolist()
    top = max(len(stubs) - 1, 0)
    starts = [stream._state for stream in streams]
    words = _uint64_rows(streams, top)
    bounds, limits = _swap_limits(top)
    exact = (words <= limits).all(axis=1).tolist()
    shuffled = []
    for stream, start, swaps, ok in zip(streams, starts,
                                        (words % bounds).tolist(), exact):
        items = list(stubs)
        if ok:
            for i, j in zip(range(top, 0, -1), swaps):
                items[i], items[j] = items[j], items[i]
        else:
            stream._state = start
            stream.shuffle(items)
        shuffled.append(items)
    pairs = np.array(shuffled, dtype=np.int64).reshape(
        len(streams), len(stubs) // 2, 2)
    pairs.sort(axis=2)
    lo, hi = pairs[:, :, 0], pairs[:, :, 1]
    loops = lo == hi
    # Each row's pair keys in order, loops first as -1; a simple edge is
    # the first of its run of equal keys.
    keys = np.where(loops, -1, lo * n + hi)
    keys.sort(axis=1)
    simple = keys >= 0
    simple[:, 1:] &= keys[:, 1:] != keys[:, :-1]
    kept = keys[simple]
    edges = np.column_stack([kept // n, kept % n])
    counts = simple.sum(axis=1)
    dropped = loops.sum(axis=1)
    collapsed = len(stubs) // 2 - dropped - counts
    return [(edges[end - count:end], loop_count, parallel_count)
            for end, count, loop_count, parallel_count in zip(
                np.cumsum(counts).tolist(), counts.tolist(),
                dropped.tolist(), collapsed.tolist())]


def _k_regular_edges(n: int, k: int, streams: list[SplitMix64]) -> list:
    """Retry each stream's stub pairing until one is simple, so the result
    is exactly k-regular; returns the edges of each stream, or the
    ``GenerationError`` of one with no simple pairing in
    ``MAX_PAIRING_ATTEMPTS`` attempts.  A round pairs every stream still
    pending from where its last pairing left it."""
    results: list = [None] * len(streams)
    pending = list(range(len(streams)))
    for _ in range(MAX_PAIRING_ATTEMPTS):
        if not pending:
            break
        pairings = _pair_stubs([k] * n, [streams[row] for row in pending])
        for row, (edges, loops, parallels) in zip(pending, pairings):
            if loops == 0 and parallels == 0:
                results[row] = edges
        pending = [row for row in pending if results[row] is None]
    for row in pending:
        results[row] = GenerationError(
            f"no simple {k}-regular pairing on {n} nodes after "
            f"{MAX_PAIRING_ATTEMPTS} attempts")
    return results


def _configuration_edges(degrees: tuple[int, ...],
                         streams: list[SplitMix64]) -> list[np.ndarray]:
    """Erased configuration model: one pairing per stream, loops and
    parallel edges dropped, so realised degrees may fall below their
    targets."""
    results = []
    for edges, loops, parallels in _pair_stubs(list(degrees), streams):
        if loops or parallels:
            logger.info("configuration model erased %d loops and %d "
                        "parallel edges", loops, parallels)
        results.append(edges)
    return results


def _preferential_edges(n: int, m: int, rng: SplitMix64) -> list[list[int]]:
    """Growth with degree-proportional attachment.

    Starts from the complete graph on m+1 nodes; every later node joins m
    distinct existing nodes drawn from a degree-repeated list (redrawing on
    duplicates within one round).  Total edges: n*m - m*(m+1)/2.
    """
    edges = complete_edges(m + 1).tolist()
    repeated = [node for node in range(m + 1) for _ in range(m)]
    for new in range(m + 1, n):
        chosen: list[int] = []
        while len(chosen) < m:
            target = repeated[rng.below(len(repeated))]
            if target not in chosen:
                chosen.append(target)
        for target in chosen:
            edges.append([target, new])
        repeated.extend(chosen)
        repeated.extend([new] * m)
    return edges


def _draw_edges(spec: RandomGraphSpec, seeds: list[int]) -> list:
    """The edges of ``spec``'s model drawn from ``SplitMix64(seed)`` for
    each seed, in order: an ``(m, 2)`` int64 array, what :func:`generate`
    builds for ``spec`` with that seed before any LCC extraction, or the
    ``GenerationError`` that the draw gives.  Stub pairings are drawn for
    all seeds at once; the other models draw one seed at a time."""
    streams = [SplitMix64(seed) for seed in seeds]
    if spec.model == "k_regular":
        return _k_regular_edges(spec.n, spec.k, streams)
    if spec.model == "configuration":
        return _configuration_edges(spec.degree_sequence, streams)
    if spec.model == "erdos_renyi":
        return [_erdos_renyi_edges(spec.n, spec.p, rng) for rng in streams]
    if spec.model == "preferential_attachment":
        return [np.array(_preferential_edges(spec.n, spec.m_attach, rng),
                         dtype=np.int64) for rng in streams]
    family = {"path": path_edges, "cycle": cycle_edges, "star": star_edges,
              "complete": complete_edges}[spec.model]
    return [family(spec.n) for _ in seeds]


def generate(spec: RandomGraphSpec) -> Graph:
    """Realise a :class:`RandomGraphSpec` as an undirected graph."""
    edges = _draw_edges(spec, [spec.seed])[0]
    if isinstance(edges, GenerationError):
        raise edges
    graph = build_undirected(spec.n, edges)
    if effective_lcc_extract(spec):
        graph, _ = extract_lcc(graph)
    return graph
