import dataclasses
import tracemalloc

import numpy as np
import pytest

from paradoxlab import (GenerationError, RandomGraphSpec, build_directed,
                        build_undirected, derive_seed, generate, generators,
                        is_connected)
from paradoxlab.generators import (MAX_PAIRING_ATTEMPTS, complete_edges,
                                   cycle_edges, path_edges, star_edges)
from paradoxlab.graph import Graph
from paradoxlab.paradox import MAX_CONNECTED_ATTEMPTS
from paradoxlab.rng import _GAMMA, SplitMix64, _uint64_rows


def path(n):
    return build_undirected(n, path_edges(n))


def cycle(n):
    return build_undirected(n, cycle_edges(n))


def star(n):
    return build_undirected(n, star_edges(n))


def complete(n):
    return build_undirected(n, complete_edges(n))


def grid(rows, cols):
    """The ``rows x cols`` grid graph.  Its reverse Cuthill–McKee bandwidth
    is about ``rows``, too wide for a banded factor at 10 rows and more,
    so it keeps a long strip's small spectral gap off the banded solves."""
    edges = [(i * cols + j, i * cols + j + 1)
             for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j)
              for i in range(rows - 1) for j in range(cols)]
    return build_undirected(rows * cols, edges)


# Closeness and harmonic lie outside the paper's theorem, and these graphs
# violate the inequality for them.  The barbell K_5-P_6-K_5: two 5-cliques
# joined through the six path nodes 5..10.
BARBELL = [(i, j) for i in range(5) for j in range(i + 1, 5)] + \
    [(k, k + 1) for k in range(4, 11)] + \
    [(i, j) for i in range(11, 16) for j in range(i + 1, 16)]
# A 16-node, 43-edge graph found by a local search over edge toggles.
SEARCHED = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
    (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 7), (4, 5),
    (4, 8), (5, 6), (6, 7), (7, 8), (7, 13), (8, 9), (8, 14), (9, 10),
    (9, 11), (9, 12), (9, 15), (10, 11), (10, 12), (10, 13), (10, 14),
    (10, 15), (11, 12), (11, 13), (11, 14), (11, 15), (12, 13), (12, 14),
    (12, 15), (13, 15), (14, 15)]


@pytest.fixture
def p6():
    return path(6)


@pytest.fixture
def hub_digraph():
    """Arcs 0->1, 0->2, 1->0, 2->0: node 0 is the hub."""
    return build_directed(3, [(0, 1), (0, 2), (1, 0), (2, 0)])


@pytest.fixture
def search_calls(monkeypatch):
    """The ``connection`` of every ``csgraph.connected_components`` search,
    in call order.  The graph module imports the function when it
    searches, so the patched module attribute is the one it calls."""
    from scipy.sparse import csgraph

    calls = []
    search = csgraph.connected_components

    def counted(adjacency, *args, **kwargs):
        calls.append(kwargs.get("connection", "weak"))
        return search(adjacency, *args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counted)
    return calls


def peak_bytes_raising(error, call):
    """The peak bytes traced while ``call()`` raises ``error``, and the
    error; numpy reports its array data to tracemalloc too."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            call()
        return tracemalloc.get_traced_memory()[1], info.value
    finally:
        tracemalloc.stop()


def neighbors(graph, node):
    """Column targets of ``node``: one entry per distinct neighbour."""
    lo, hi = graph.row_offsets[node], graph.row_offsets[node + 1]
    return graph.column_targets[lo:hi]


def edge_pairs(graph):
    """Stored edges with multiplicity repeats: each undirected edge once
    as ``(min, max)``, each directed edge as ``(source, target)``."""
    return list(map(tuple, graph.stored_entries().tolist()))


# The scalar search the graph module used to run, kept as the reference
# that its csgraph and blocked searches are checked against.
def hop_distances(offsets: np.ndarray, targets: np.ndarray,
                  source: int) -> np.ndarray:
    """Breadth-first hop distance from ``source`` along the arcs of a CSR
    adjacency ``targets[offsets[i]:offsets[i+1]]``; ``-1`` marks nodes that
    ``source`` does not reach."""
    dist = np.full(len(offsets) - 1, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for v in frontier:
            for w in targets[offsets[v]:offsets[v + 1]].tolist():
                if dist[w] < 0:
                    dist[w] = hops
                    nxt.append(w)
        frontier = nxt
    return dist


# The per-member sampler bias_distribution used before it sampled members
# in rounds, kept as the reference that its round sampler is checked
# against: one generate and one connectivity check per attempt.
def connected_sample(spec: RandomGraphSpec, graph_index: int,
                     master_seed: int) -> Graph:
    base = derive_seed(master_seed, graph_index)
    for attempt in range(MAX_CONNECTED_ATTEMPTS):
        candidate = dataclasses.replace(
            spec, seed=derive_seed(base, attempt))
        # An extracted LCC comes with its connectivity already known.
        graph = generate(candidate)
        if is_connected(graph):
            return graph
    raise GenerationError(
        f"no connected graph from {spec.model!r} after "
        f"{MAX_CONNECTED_ATTEMPTS} attempts "
        f"(graph {graph_index})")


def _unshift(z, shift):
    """Inverse of ``z ^= z >> shift`` on 64-bit words."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def unmix(word):
    """The state whose splitmix64 finalizer output is ``word``."""
    z = _unshift(word, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2 ** 64) % 2 ** 64
    z = _unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) % 2 ** 64
    return _unshift(z, 30)


def rejecting_seed(position):
    """A seed whose stream's word ``position`` is 2**64 - 1, which every
    bound but a power of two rejects."""
    return (unmix(2 ** 64 - 1) - (position + 1) * _GAMMA) % 2 ** 64


# The per-stream stub pairing the generators module ran before it paired
# the streams of many draws at once, kept as the reference that its batch
# is checked against.
def pair_stubs(degrees: list[int],
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


def k_regular_edges(n: int, k: int, rng: SplitMix64) -> np.ndarray:
    """Retry stub pairings until one is simple, so the result is exactly
    k-regular."""
    for _ in range(MAX_PAIRING_ATTEMPTS):
        edges, loops, parallels = pair_stubs([k] * n, rng)
        if loops == 0 and parallels == 0:
            return edges
    raise GenerationError(
        f"no simple {k}-regular pairing on {n} nodes after "
        f"{MAX_PAIRING_ATTEMPTS} attempts")


def unshuffled_rows(streams, count):
    """Word rows under which every Fisher-Yates swap leaves its item in
    place: word ``p`` of a block is the largest below its bound
    ``count + 1 - p``.  The streams advance as they do for their own
    words."""
    words = _uint64_rows(streams, count)
    words[:] = np.arange(count, 0, -1, dtype=np.uint64)
    return words


@pytest.fixture
def unshuffled(monkeypatch):
    """Stub pairings in the generators module draw ``unshuffled_rows``, so
    stubs stay in node order and pair with their neighbours."""
    monkeypatch.setattr(generators, "_uint64_rows", unshuffled_rows)
