"""Immutable sparse graphs and the matrix primitives everything else uses.

Graphs are stored in compressed sparse row form with integer edge
multiplicities.  Undirected graphs keep both orientations of every edge, so
the adjacency matrix is symmetric by construction; directed graphs store
out-edges per row.  Node ids are dense 0-based integers and self-loops are
rejected everywhere.  The CSR arrays are in the index dtype scipy.sparse
picks for the adjacency matrix, which therefore shares them.  scipy is
imported where a matrix is first built, so ``import paradoxlab`` loads only
numpy and the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InputError, ParameterError, PreconditionError, UsageError

if TYPE_CHECKING:
    from scipy import sparse

# Largest integer count that float64 arithmetic keeps exact.
MAX_EXACT_COUNT = 2 ** 53

_INT32_MAX = 2 ** 31 - 1

# Most nodes, and most stored arcs counted with multiplicity, that a Matrix
# Market size line or a random graph spec may ask for, checked before
# anything is allocated: the int32 index range.  At the limit a graph's
# int32 CSR arrays and its float64 matvec layout already take 20 bytes per
# stored arc (40 GiB), and past it the index dtype doubles to int64.
_MAX_GRAPH_SIZE = _INT32_MAX


def _index_dtype(node_count: int, arcs: int) -> type[np.signedinteger]:
    """Dtype of the CSR arrays of a graph with ``node_count`` nodes and
    ``arcs`` stored arcs counted with multiplicity, which bounds every
    offset and multiplicity: int32 while both are at most 2^31 - 1, else
    int64.  scipy.sparse picks the same for the adjacency matrix, so it
    wraps the graph's index arrays without copying them."""
    return np.int32 if max(node_count, arcs) <= _INT32_MAX else np.int64


@dataclass(frozen=True, eq=False)
class Graph:
    """Adjacency in CSR layout: ``column_targets[row_offsets[i]:row_offsets[i+1]]``
    are the (out-)neighbours of node ``i`` and ``multiplicities`` counts
    parallel edges.  ``degree_seq`` holds multiplicity-weighted row sums,
    i.e. out-degrees when directed, as int64; the three CSR arrays are in
    the dtype of :func:`_index_dtype`."""

    node_count: int
    edge_count: int
    directed: bool
    row_offsets: np.ndarray
    column_targets: np.ndarray
    multiplicities: np.ndarray
    degree_seq: np.ndarray

    def __post_init__(self):
        # Whatever integer arrays a caller builds, the graph stores them in
        # the index dtype, so that ``adjacency`` always shares them.
        dtype = _index_dtype(self.node_count, self.edge_count if
                             self.directed else 2 * self.edge_count)
        for name in ("row_offsets", "column_targets", "multiplicities"):
            arr = getattr(self, name)
            if arr.dtype != dtype:
                arr = arr.astype(dtype)
                object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        self.degree_seq.setflags(write=False)

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
        """Adjacency matrix with float64 multiplicity entries.  Its index
        arrays are ``column_targets`` and ``row_offsets`` themselves; only
        the data is new."""
        from scipy import sparse

        return sparse.csr_matrix(
            (self.multiplicities.astype(np.float64), self.column_targets,
             self.row_offsets),
            shape=(self.node_count, self.node_count))

    @cached_property
    def _rows_by_degree(self) -> tuple[sparse.csr_matrix, np.ndarray | None]:
        """The adjacency with its rows stored in ascending length order,
        each row's entries kept in stored order, and each node's row in
        it; ``adjacency`` itself and ``None`` where the lengths already
        ascend, as on every regular graph.  scipy's ``csr_matvec`` sums
        each row from 0, left to right, so ``(layout @ x)[position]`` is
        ``A @ x`` bit for bit, in any order of equal-length rows.  It is
        faster: the inner loop's trip count changes only where the length
        does, so the branch predictor seldom misses it."""
        from scipy import sparse

        lengths = np.diff(self.row_offsets)
        if (lengths[1:] >= lengths[:-1]).all():
            return self.adjacency, None
        order = np.argsort(lengths)
        sorted_lengths = lengths[order]
        offsets = np.zeros_like(self.row_offsets)
        np.cumsum(sorted_lengths, out=offsets[1:])
        # Entry k of the layout is stored entry k shifted by the distance
        # its row moved.
        stored = np.repeat(self.row_offsets[order] - offsets[:-1],
                           sorted_lengths)
        stored += np.arange(len(stored), dtype=stored.dtype)
        layout = sparse.csr_matrix(
            (self.multiplicities[stored].astype(np.float64),
             self.column_targets[stored], offsets),
            shape=(self.node_count, self.node_count))
        # In intp, which the gather would otherwise convert it to per call.
        position = np.empty(self.node_count, dtype=np.intp)
        position[order] = np.arange(self.node_count)
        return layout, position

    @cached_property
    def _pattern(self) -> sparse.csr_matrix:
        """A matrix of the adjacency's pattern whose data is a broadcast
        1.0, for the csgraph routines that read only the index arrays: it
        allocates no float64 copy of the arcs."""
        from scipy import sparse

        return sparse.csr_matrix(
            (np.broadcast_to(1.0, len(self.column_targets)),
             self.column_targets, self.row_offsets),
            shape=(self.node_count, self.node_count))

    @cached_property
    def _float_degrees(self) -> np.ndarray:
        """``degree_seq`` as read-only float64."""
        degrees = self.degree_seq.astype(np.float64)
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def _component_labels(self) -> np.ndarray:
        """Strong-component label per node as read-only int64.  Labels
        count up from 0 in the order scipy's search, started at the
        lowest unlabelled node, completes the components: for an
        undirected graph, the order of each component's smallest id."""
        from scipy.sparse.csgraph import connected_components

        # Both arcs of every undirected edge are stored, so its strong
        # components are its connected ones.
        _, labels = connected_components(self._pattern, directed=True,
                                         connection="strong")
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        return labels

    @cached_property
    def connected(self) -> bool:
        """Whether every node reaches every other (strongly, if directed):
        every node has component label 0."""
        return not self._component_labels.any()

    @cached_property
    def regular(self) -> bool:
        """Whether every node has the same degree (out-degree, if
        directed)."""
        return bool((self.degree_seq == self.degree_seq[0]).all())

    def stored_entries(self, lower: bool = False) -> np.ndarray:
        """Stored ``(row, column)`` entries in CSR order with multiplicity
        repeats, as an ``(m, 2)`` array in the index dtype: every arc when
        directed, and each undirected edge once, from the upper triangle
        or, with ``lower``, from the lower one."""
        cols, counts = self.column_targets, self.multiplicities
        rows = np.repeat(np.arange(self.node_count, dtype=cols.dtype),
                         np.diff(self.row_offsets))
        if not self.directed:
            # An undirected edge is stored in both rows; keep one of them
            # before anything is stacked.
            stored = (rows > cols) if lower else (rows < cols)
            rows, cols, counts = rows[stored], cols[stored], counts[stored]
        entries = np.column_stack([rows, cols])
        return entries if (counts == 1).all() else np.repeat(entries, counts,
                                                              axis=0)


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is an integer as :func:`_is_int` takes it, or a
    Python or numpy float."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _require_int(name: str, value, least: int | None = None) -> None:
    """Reject ``value`` with a ``ParameterError`` unless it is an integer
    as :func:`_is_int` takes it and, when ``least`` is given, at least
    ``least``."""
    if not (_is_int(value) and (least is None or value >= least)):
        bound = "" if least is None else f" of at least {least}"
        raise ParameterError(f"{name} must be an integer{bound}, "
                             f"got {value!r}")


def _require_undirected(graph: Graph, what: str) -> None:
    """Reject a directed graph with a ``UsageError``."""
    if graph.directed:
        raise UsageError(f"{what} is defined for undirected graphs")


def _exact_int_ids(edges, dtype: np.dtype) -> np.ndarray:
    """Ids as an object array of Python ints.  Integers beyond int64 make
    numpy infer float64 or object values; kept exact, they reach the
    range check.  Every other non-integer id is rejected."""
    ids = edges.tolist() if isinstance(edges, np.ndarray) else edges
    if not all(_is_int(v) for pair in ids for v in pair):
        raise InputError(f"node ids must be integers, got {dtype} values")
    return np.array(ids, dtype=object)


def _validated_pairs(node_count: int,
                     edges: Iterable[Sequence[int]]) -> np.ndarray:
    if node_count <= 0:
        raise InputError(f"node count must be positive, got {node_count}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except ValueError:
        raise InputError("edges must be (i, j) pairs") from None
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError(
            f"edges must be (i, j) pairs, got an array of shape {pairs.shape}")
    if pairs.dtype.kind not in "iu":
        pairs = _exact_int_ids(edges, pairs.dtype)
    # Checked in the input dtype: uint64 ids above 2^63 would wrap in int64.
    bad = (pairs < 0) | (pairs >= node_count)
    if bad.any():
        i, j = pairs[bad.any(axis=1)][0]
        raise InputError(
            f"edge ({i}, {j}) out of range for {node_count} nodes")
    pairs = pairs.astype(np.int64, copy=False)
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        i = pairs[loops][0][0]
        raise InputError(f"self-loop ({i}, {i}) is not allowed")
    return pairs


def _offsets(row_lengths: np.ndarray) -> np.ndarray:
    """CSR row offsets of rows of ``row_lengths`` entries, in int64."""
    offsets = np.zeros(len(row_lengths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(row_lengths, dtype=np.int64)
    return offsets


def _assemble(node_count: int, arcs: np.ndarray, edge_count: int,
              directed: bool) -> Graph:
    rows, cols = arcs[:, 0], arcs[:, 1]
    # Row-major int64 keys, below node_count**2, sort by row and then by
    # column.
    keys, counts = np.unique(rows * node_count + cols, return_counts=True)
    row_lengths = np.bincount(keys // node_count, minlength=node_count)
    degrees = np.bincount(rows, minlength=node_count)
    return Graph(node_count, edge_count, directed,
                 row_offsets=_offsets(row_lengths),
                 column_targets=keys % node_count, multiplicities=counts,
                 degree_seq=degrees.astype(np.int64, copy=False))


def build_undirected(node_count: int,
                     edges: Iterable[Sequence[int]]) -> Graph:
    """Build an undirected multigraph; repeated pairs accumulate
    multiplicity and each pair contributes to both endpoint degrees."""
    pairs = _validated_pairs(node_count, edges)
    both = np.concatenate([pairs, pairs[:, ::-1]])
    return _assemble(node_count, both, len(pairs), directed=False)


def build_directed(node_count: int,
                   edges: Iterable[Sequence[int]]) -> Graph:
    """Build a directed multigraph of (source, target) arcs."""
    pairs = _validated_pairs(node_count, edges)
    return _assemble(node_count, pairs, len(pairs), directed=True)


def is_connected(graph: Graph) -> bool:
    """Whether an undirected graph has a single connected component."""
    if graph.directed:
        raise UsageError("is_connected expects an undirected graph; "
                         "use is_strongly_connected")
    return graph.connected


def is_strongly_connected(graph: Graph) -> bool:
    """Whether every node reaches every other along directed arcs."""
    if not graph.directed:
        raise UsageError("is_strongly_connected expects a directed graph; "
                         "use is_connected")
    return graph.connected


def connected_component_labels(graph: Graph) -> np.ndarray:
    """Component label per node, read-only like every ``Graph`` array;
    labels count up from 0 in order of the smallest node id in each
    component."""
    if graph.directed:
        raise UsageError("component labels are defined for undirected graphs")
    return graph._component_labels


def _known_connected(graph: Graph) -> Graph:
    """Seed the cached labels of a graph known to be connected with a
    read-only view of one zero, so that it is never searched."""
    vars(graph)["_component_labels"] = np.broadcast_to(np.int64(0),
                                                       graph.node_count)
    return graph


def _restrict(graph: Graph, inside: np.ndarray) -> tuple[Graph, np.ndarray]:
    """The undirected subgraph on the nodes where ``inside`` holds, which
    must be a union of components, re-indexed in ascending order; and the
    original ids of its nodes."""
    keep = np.flatnonzero(inside)
    # A component is closed under neighbours: kept rows keep every entry.
    lengths = np.diff(graph.row_offsets)
    entries = np.repeat(inside, lengths)
    degrees = graph.degree_seq[keep]
    new_id = np.cumsum(inside, dtype=np.int64) - 1
    return Graph(len(keep), int(degrees.sum()) // 2, directed=False,
                 row_offsets=_offsets(lengths[keep]),
                 column_targets=new_id[graph.column_targets[entries]],
                 multiplicities=graph.multiplicities[entries],
                 degree_seq=degrees), keep


def extract_lcc(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Largest connected component as a re-indexed graph.

    Ties go to the component containing the smallest node id.  Returns the
    subgraph and the original ids of its nodes in ascending order, so entry
    ``k`` of the map is the old id of new node ``k``.
    """
    labels = connected_component_labels(graph)
    lcc, keep = _restrict(graph,
                          labels == int(np.argmax(np.bincount(labels))))
    return _known_connected(lcc), keep


def _connected_blocks(union: Graph, sizes: Sequence[int],
                      largest: bool) -> list[Graph | None]:
    """Each block of an undirected disjoint union, block ``b`` holding the
    next ``sizes[b]`` nodes, as a graph of its own, from one labelling of
    the union: the block itself when it is connected and ``None`` when it
    is not, or with ``largest`` its largest component, cut as
    :func:`extract_lcc` cuts it from the block alone.  Every graph
    returned is known to be connected, so none is searched again.
    """
    labels = connected_component_labels(union)
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    # Components never cross blocks, and labels count up in order of each
    # component's smallest id, so each block owns a run of labels that
    # starts at its first node's label, in the order it labels them alone.
    component_sizes = np.bincount(labels)
    first = labels[starts]
    counts = np.diff(first, append=len(component_sizes))
    # The largest component of each run, ties going to its lowest label.
    peaks = np.maximum.reduceat(component_sizes, first)
    hits = np.flatnonzero(component_sizes == np.repeat(peaks, counts))
    chosen = hits[np.searchsorted(hits, first)]
    accepted = (np.ones(len(sizes), dtype=bool) if largest
                else counts == 1)
    kept = np.zeros(len(component_sizes), dtype=bool)
    kept[chosen[accepted]] = True
    cut, _ = _restrict(union, kept[labels])
    block_nodes = component_sizes[chosen[accepted]]
    edges = np.add.reduceat(cut.degree_seq,
                            np.cumsum(block_nodes) - block_nodes) // 2
    graphs: list[Graph | None] = [None] * len(sizes)
    lo = 0
    for b, nodes, edge_count in zip(np.flatnonzero(accepted).tolist(),
                                    block_nodes.tolist(), edges.tolist()):
        hi = lo + nodes
        first_arc, stop_arc = (int(cut.row_offsets[lo]),
                               int(cut.row_offsets[hi]))
        # A block's offsets and ids lie between 0 and the cut's, so they
        # are shifted in the cut's dtype without wrapping.
        graphs[b] = _known_connected(Graph(
            nodes, edge_count, directed=False,
            row_offsets=cut.row_offsets[lo:hi + 1] - first_arc,
            column_targets=cut.column_targets[first_arc:stop_arc] - lo,
            multiplicities=cut.multiplicities[first_arc:stop_arc],
            degree_seq=cut.degree_seq[lo:hi]))
        lo = hi
    return graphs


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """The graphs side by side as one graph, whose adjacency is
    block-diagonal: node ``k`` of ``graphs[b]`` becomes node ``k`` plus the
    node counts of the graphs before it, and its CSR row follows theirs
    with the same entries in the same order.  One graph is its own union."""
    if len(graphs) == 1:
        return graphs[0]
    directed = {graph.directed for graph in graphs}
    if len(directed) != 1:
        raise UsageError("a disjoint union needs graphs of one kind")
    nodes = np.array([graph.node_count for graph in graphs], dtype=np.int64)
    arcs = np.array([len(graph.column_targets) for graph in graphs],
                    dtype=np.int64)
    node_starts = np.cumsum(nodes) - nodes
    arc_starts = np.cumsum(arcs) - arcs
    # Shifted in int64, in place, and cast once by Graph: the union may
    # hold many arcs, and its offsets may outgrow each part's index dtype.
    offsets = np.concatenate([[0]] + [graph.row_offsets[1:]
                                      for graph in graphs], dtype=np.int64)
    offsets[1:] += np.repeat(arc_starts, nodes)
    targets = np.concatenate([graph.column_targets for graph in graphs],
                             dtype=np.int64)
    targets += np.repeat(node_starts, arcs)
    return Graph(int(nodes.sum()), sum(graph.edge_count for graph in graphs),
                 directed.pop(), row_offsets=offsets, column_targets=targets,
                 multiplicities=np.concatenate(
                     [graph.multiplicities for graph in graphs]),
                 degree_seq=np.concatenate(
                     [graph.degree_seq for graph in graphs]))


def _as_vector(graph: Graph, x) -> np.ndarray:
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (graph.node_count,):
        raise InputError(
            f"vector of length {vec.shape} does not match "
            f"{graph.node_count} nodes")
    return vec


def adjacency_matvec(graph: Graph, x) -> np.ndarray:
    """Multiplicity-weighted sum of x over (out-)neighbours: ``A @ x``,
    run over the rows sorted by length."""
    layout, position = graph._rows_by_degree
    image = layout @ _as_vector(graph, x)
    return image if position is None else image.take(position)


def _transpose_matvec(graph: Graph, x: np.ndarray) -> np.ndarray:
    """``A^T @ x``.  On an undirected graph ``A`` is symmetric with sorted
    rows, so the CSC view ``A.T`` would add each row's products in the
    order ``A`` does, and ``A @ x`` is taken instead."""
    return (graph.adjacency.T @ x if graph.directed
            else adjacency_matvec(graph, x))


def _require_positive_degrees(graph: Graph) -> np.ndarray:
    """The graph's read-only float64 degrees, once every one is
    positive."""
    if (graph.degree_seq == 0).any():
        node = int(np.flatnonzero(graph.degree_seq == 0)[0])
        kind = "an out-neighbour" if graph.directed else "a neighbour"
        raise PreconditionError(
            f"node {node} has zero degree: degree-normalised operations "
            f"need every node to have {kind}")
    return graph._float_degrees


def apply_transition(graph: Graph, x) -> np.ndarray:
    """Row-stochastic transition step ``C @ x`` with ``C = D^-1 A``: entry i
    is the degree-weighted average of x over the neighbours of i."""
    degrees = _require_positive_degrees(graph)
    return adjacency_matvec(graph, x) / degrees


def apply_transition_transpose(graph: Graph, x) -> np.ndarray:
    """``C^T @ x``, the mass-redistribution step of a degree-normalised
    random walk."""
    degrees = _require_positive_degrees(graph)
    return _transpose_matvec(graph, _as_vector(graph, x) / degrees)
