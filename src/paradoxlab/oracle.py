"""Slow, obvious dense reference routines.

These exist to cross-check the sparse solvers by a genuinely independent
route: walk counting by exhaustive enumeration, hop distances by
Floyd–Warshall, linear solves by hand-rolled Gaussian elimination, Perron
pairs by unaccelerated power iteration on a dense array.  Sizes are
guarded so nothing here is tempted into cleverness.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InputError, NumericalError, RangeError
from .graph import Graph

MAX_DENSE_NODES = 512
MAX_ENUM_NODES = 12
MAX_ENUM_LENGTH = 5


def dense_from_graph(graph: Graph) -> np.ndarray:
    """Adjacency as a dense float64 array (row-major, multiplicities kept)."""
    if graph.node_count > MAX_DENSE_NODES:
        raise RangeError(
            f"dense adjacency limited to {MAX_DENSE_NODES} nodes, "
            f"got {graph.node_count}")
    return graph.adjacency.toarray()


def dense_hop_distances(graph: Graph) -> np.ndarray:
    """All-pairs hop distances as an ``n x n`` int64 array, ``-1`` where no
    path leads, by Floyd–Warshall on a dense array filled straight from the
    CSR arrays, so no sparse-matrix or breadth-first code is involved."""
    n = graph.node_count
    if n > MAX_DENSE_NODES:
        raise RangeError(
            f"dense hop distances limited to {MAX_DENSE_NODES} nodes, "
            f"got {n}")
    # Every shortest path has fewer than n hops, so n stands for none.
    dist = np.full((n, n), n, dtype=np.int64)
    rows = np.repeat(np.arange(n), np.diff(graph.row_offsets))
    dist[rows, graph.column_targets] = 1
    np.fill_diagonal(dist, 0)
    for via in range(n):
        dist = np.minimum(dist, dist[:, via, None] + dist[via])
    dist[dist == n] = -1
    return dist


def enumerate_walks(graph: Graph, ell: int) -> np.ndarray:
    """Number of walks of length ``ell`` starting at each node, counted by
    explicit depth-first enumeration with exact integer arithmetic.

    Walks may revisit nodes and edges; parallel edges count separately.
    Agrees with ``A^ell @ 1`` entrywise and exactly.
    """
    if graph.node_count > MAX_ENUM_NODES:
        raise RangeError(
            f"walk enumeration limited to {MAX_ENUM_NODES} nodes, "
            f"got {graph.node_count}")
    if ell < 0 or ell > MAX_ENUM_LENGTH:
        raise RangeError(
            f"walk enumeration limited to lengths 0..{MAX_ENUM_LENGTH}, "
            f"got {ell}")
    offsets = graph.row_offsets
    targets = graph.column_targets
    mults = graph.multiplicities

    def count_from(node: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for k in range(offsets[node], offsets[node + 1]):
            total += int(mults[k]) * count_from(int(targets[k]), remaining - 1)
        return total

    return np.array([count_from(v, ell) for v in range(graph.node_count)],
                    dtype=np.int64)


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with partial
    pivoting, written out longhand."""
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_DENSE_NODES:
        raise RangeError(f"dense solve limited to {MAX_DENSE_NODES} rows")
    b = np.array(rhs, dtype=np.float64)
    if b.shape != (n,):
        raise InputError(
            f"right-hand side of shape {b.shape} does not match {n} rows")
    scale = np.abs(a).max() if n else 0.0
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= 1e-14 * max(scale, 1.0):
            raise NumericalError("matrix is singular to working precision")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / pivot
            if factor != 0.0:
                a[row, col:] -= factor * a[col, col:]
                b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def _dense_strongly_connected(support: np.ndarray) -> bool:
    n = support.shape[0]
    for mat in (support, support.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(mat[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        if not seen.all():
            return False
    return True


def _dense_power(matrix: np.ndarray, tol: float,
                 max_iters: int) -> tuple[float, np.ndarray]:
    """Power iteration on ``matrix + I`` (the shift keeps the dominant
    eigenvalue simple even on bipartite support); returns the eigenvalue of
    ``matrix`` and its L1-normalised positive eigenvector."""
    n = matrix.shape[0]
    shifted = matrix + np.eye(n)
    vec = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iters):
        nxt = shifted @ vec
        estimate = (vec @ nxt) / (vec @ vec)
        residual = np.abs(nxt - estimate * vec).max()
        if residual <= tol:
            return float(estimate - 1.0), vec
        vec = nxt / nxt.sum()
    noun = "step" if max_iters == 1 else "steps"
    raise ConvergenceError(
        f"dense power iteration did not reach {tol} in {max_iters} {noun}",
        residual=float(residual), iterations=max_iters)


def dense_perron(matrix: np.ndarray, tol: float = 1e-12,
                 max_iters: int = 1_000_000) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron triple (value, right vector, left vector) of a nonnegative
    irreducible matrix by power iteration on the matrix and its transpose.

    The right vector is L1-normalised; the left vector is scaled so that
    ``left @ right == 1``.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DENSE_NODES:
        raise RangeError(f"dense Perron limited to {MAX_DENSE_NODES} rows")
    if (a < 0).any():
        raise InputError("matrix must be entrywise nonnegative")
    if not _dense_strongly_connected(a > 0):
        raise InputError("matrix support is reducible; Perron pair "
                         "requires an irreducible matrix")
    value, right = _dense_power(a, tol, max_iters)
    _, left = _dense_power(a.T, tol, max_iters)
    left = left / (left @ right)
    return value, right, left
