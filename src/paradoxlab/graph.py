"""Immutable sparse graphs and the matrix primitives everything else uses.

Graphs are stored in compressed sparse row form with integer edge
multiplicities.  Undirected graphs keep both orientations of every edge, so
the adjacency matrix is symmetric by construction; directed graphs store
out-edges per row.  Node ids are dense 0-based integers and self-loops are
rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import InputError, PreconditionError, UsageError

# Largest integer count that float64 arithmetic keeps exact.
MAX_EXACT_COUNT = 2 ** 53


@dataclass(frozen=True, eq=False)
class Graph:
    """Adjacency in CSR layout: ``column_targets[row_offsets[i]:row_offsets[i+1]]``
    are the (out-)neighbours of node ``i`` and ``multiplicities`` counts
    parallel edges.  ``degree_seq`` holds multiplicity-weighted row sums,
    i.e. out-degrees when directed."""

    node_count: int
    edge_count: int
    directed: bool
    row_offsets: np.ndarray
    column_targets: np.ndarray
    multiplicities: np.ndarray
    degree_seq: np.ndarray

    def __post_init__(self):
        for arr in (self.row_offsets, self.column_targets,
                    self.multiplicities, self.degree_seq):
            arr.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.edge_count == other.edge_count
                and self.directed == other.directed
                and np.array_equal(self.row_offsets, other.row_offsets)
                and np.array_equal(self.column_targets, other.column_targets)
                and np.array_equal(self.multiplicities, other.multiplicities))

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Adjacency matrix with float64 multiplicity entries."""
        return sparse.csr_matrix(
            (self.multiplicities.astype(np.float64), self.column_targets,
             self.row_offsets),
            shape=(self.node_count, self.node_count))

    @cached_property
    def adjacency_transpose(self) -> sparse.csr_matrix:
        return self.adjacency.T.tocsr()

    def neighbors(self, node: int) -> np.ndarray:
        """Column targets of ``node`` (one entry per distinct neighbour)."""
        lo, hi = self.row_offsets[node], self.row_offsets[node + 1]
        return self.column_targets[lo:hi]

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Stored edges with multiplicity repeats: each undirected edge once
        as ``(min, max)``, each directed edge as ``(source, target)``."""
        rows = np.repeat(np.arange(self.node_count), np.diff(self.row_offsets))
        # An undirected edge is stored in both rows; emit it from the lower.
        stored = self.directed | (rows < self.column_targets)
        pairs = np.repeat(np.column_stack([rows, self.column_targets])[stored],
                          self.multiplicities[stored], axis=0)
        return list(map(tuple, pairs.tolist()))


def _validated_pairs(node_count: int,
                     edges: Iterable[Sequence[int]]) -> np.ndarray:
    if node_count <= 0:
        raise InputError(f"node count must be positive, got {node_count}")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray)
                       else list(edges))
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError(
            f"edges must be (i, j) pairs, got an array of shape {pairs.shape}")
    if pairs.dtype.kind not in "iu":
        raise InputError(
            f"node ids must be integers, got {pairs.dtype} values")
    pairs = pairs.astype(np.int64, copy=False)
    bad = (pairs < 0) | (pairs >= node_count)
    if bad.any():
        i, j = pairs[bad.any(axis=1)][0]
        raise InputError(
            f"edge ({i}, {j}) out of range for {node_count} nodes")
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        i = pairs[loops][0][0]
        raise InputError(f"self-loop ({i}, {i}) is not allowed")
    return pairs


def _assemble(node_count: int, rows: np.ndarray, cols: np.ndarray,
              edge_count: int, directed: bool) -> Graph:
    ones = np.ones(len(rows), dtype=np.int64)
    mat = sparse.coo_matrix((ones, (rows, cols)),
                            shape=(node_count, node_count)).tocsr()
    return _from_csr(mat, edge_count, directed)


def _from_csr(mat: sparse.csr_matrix, edge_count: int,
              directed: bool) -> Graph:
    """Graph from an integer multiplicity matrix in CSR form."""
    mat.sum_duplicates()
    mat.sort_indices()
    degrees = np.asarray(mat.sum(axis=1), dtype=np.int64).ravel()
    return Graph(node_count=mat.shape[0],
                 edge_count=edge_count,
                 directed=directed,
                 row_offsets=mat.indptr.astype(np.int64),
                 column_targets=mat.indices.astype(np.int64),
                 multiplicities=mat.data.astype(np.int64),
                 degree_seq=degrees)


def build_undirected(node_count: int,
                     edges: Iterable[Sequence[int]]) -> Graph:
    """Build an undirected multigraph; repeated pairs accumulate
    multiplicity and each pair contributes to both endpoint degrees."""
    pairs = _validated_pairs(node_count, edges)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return _assemble(node_count, rows, cols, len(pairs), directed=False)


def build_directed(node_count: int,
                   edges: Iterable[Sequence[int]]) -> Graph:
    """Build a directed multigraph of (source, target) arcs."""
    pairs = _validated_pairs(node_count, edges)
    return _assemble(node_count, pairs[:, 0], pairs[:, 1], len(pairs),
                     directed=True)


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


def is_connected(graph: Graph) -> bool:
    """Whether an undirected graph has a single connected component."""
    if graph.directed:
        raise UsageError("is_connected expects an undirected graph; "
                         "use is_strongly_connected")
    return bool((hop_distances(graph.row_offsets, graph.column_targets,
                               0) >= 0).all())


def is_strongly_connected(graph: Graph) -> bool:
    """Whether every node reaches every other along directed arcs."""
    if not graph.directed:
        raise UsageError("is_strongly_connected expects a directed graph; "
                         "use is_connected")
    if (hop_distances(graph.row_offsets, graph.column_targets, 0) < 0).any():
        return False
    rev = graph.adjacency_transpose
    return bool((hop_distances(rev.indptr, rev.indices, 0) >= 0).all())


def connected_component_labels(graph: Graph) -> np.ndarray:
    """Component label per node; labels count up from 0 in order of the
    smallest node id in each component."""
    if graph.directed:
        raise UsageError("component labels are defined for undirected graphs")
    labels = np.full(graph.node_count, -1, dtype=np.int64)
    current = 0
    for start in range(graph.node_count):
        if labels[start] >= 0:
            continue
        dist = hop_distances(graph.row_offsets, graph.column_targets, start)
        labels[dist >= 0] = current
        current += 1
    return labels


def extract_lcc(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Largest connected component as a re-indexed graph.

    Ties go to the component containing the smallest node id.  Returns the
    subgraph and the original ids of its nodes in ascending order, so entry
    ``k`` of the map is the old id of new node ``k``.
    """
    labels = connected_component_labels(graph)
    keep = np.flatnonzero(labels == int(np.argmax(np.bincount(labels))))
    sub = sparse.csr_matrix(
        (graph.multiplicities, graph.column_targets, graph.row_offsets),
        shape=(graph.node_count, graph.node_count))[keep][:, keep]
    # Every edge is stored in both orientations.
    return _from_csr(sub, int(sub.sum()) // 2, directed=False), keep


def _as_vector(graph: Graph, x) -> np.ndarray:
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (graph.node_count,):
        raise InputError(
            f"vector of length {vec.shape} does not match "
            f"{graph.node_count} nodes")
    return vec


def adjacency_matvec(graph: Graph, x) -> np.ndarray:
    """Multiplicity-weighted sum of x over (out-)neighbours: ``A @ x``."""
    return graph.adjacency @ _as_vector(graph, x)


def _require_positive_degrees(graph: Graph) -> np.ndarray:
    if (graph.degree_seq == 0).any():
        node = int(np.flatnonzero(graph.degree_seq == 0)[0])
        kind = "strongly connected" if graph.directed else "connected"
        raise PreconditionError(
            f"node {node} has zero degree: graph must be {kind} "
            f"for degree-normalised operations")
    return graph.degree_seq.astype(np.float64)


def apply_transition(graph: Graph, x) -> np.ndarray:
    """Row-stochastic transition step ``C @ x`` with ``C = D^-1 A``: entry i
    is the degree-weighted average of x over the neighbours of i."""
    degrees = _require_positive_degrees(graph)
    return adjacency_matvec(graph, x) / degrees


def apply_transition_transpose(graph: Graph, x) -> np.ndarray:
    """``C^T @ x``, the mass-redistribution step of a degree-normalised
    random walk."""
    degrees = _require_positive_degrees(graph)
    return graph.adjacency_transpose @ (_as_vector(graph, x) / degrees)
