"""Independent correctness checks, computed with numpy and scipy.

Nothing here calls ``paradoxlab`` (its dense ``oracle`` included): each
check rebuilds what it needs from the graph's CSR arrays, from the
benchmark's own inputs or from closed forms.  A check returns a list of
problems; an empty list means the output passed.

Recomputed residuals may differ from the library's by rounding, so a
certificate passes when it is within ``tol`` plus ``slack``: a bound of
``64 * n * eps`` on the rounding of the recomputed quantity's scale.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as splinalg

EPS = np.finfo(np.float64).eps


def adjacency(graph) -> sparse.csr_matrix:
    """Adjacency built from the CSR arrays, not from ``Graph.adjacency``."""
    n = graph.node_count
    return sparse.csr_matrix(
        (np.asarray(graph.multiplicities, dtype=np.float64),
         np.asarray(graph.column_targets), np.asarray(graph.row_offsets)),
        shape=(n, n))


def slack(n: int, scale: float) -> float:
    return 64.0 * n * EPS * scale


def graph_matches(graph, n: int, u: np.ndarray, v: np.ndarray) -> list[str]:
    """``graph`` is the simple undirected graph on ``n`` nodes whose edges
    are the distinct pairs ``(u[k], v[k])``."""
    problems = []
    if graph.directed:
        problems.append("graph is directed")
    if graph.node_count != n:
        problems.append(f"node count {graph.node_count}, expected {n}")
    if graph.edge_count != len(u):
        problems.append(f"edge count {graph.edge_count}, expected {len(u)}")
    if problems:
        return problems
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    expected = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                                 shape=(n, n)).tocsr()
    expected.sort_indices()
    got = adjacency(graph)
    if not (np.array_equal(got.indptr, expected.indptr)
            and np.array_equal(got.indices, expected.indices)
            and np.array_equal(got.data, expected.data)):
        problems.append("adjacency differs from the generated edges")
    if not np.array_equal(graph.degree_seq, np.diff(expected.indptr)):
        problems.append("degree sequence differs from the generated edges")
    return problems


def same_graph(a, b) -> list[str]:
    """Array-for-array equality of two graphs."""
    for name in ("node_count", "edge_count", "directed"):
        first, second = getattr(a, name), getattr(b, name)
        if first != second:
            return [f"{name} differs: {first} vs {second}"]
    for name in ("row_offsets", "column_targets", "multiplicities",
                 "degree_seq"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return [f"{name} differs"]
    return []


def largest_component(graph) -> np.ndarray:
    """Nodes of the largest component, ties to the smallest node id."""
    _, labels = csgraph.connected_components(adjacency(graph), directed=False)
    sizes = np.bincount(labels)
    # Labels count up in order of each component's smallest node.
    return np.flatnonzero(labels == int(np.argmax(sizes)))


def lcc_matches(graph, lcc, keep) -> list[str]:
    problems = []
    expected = largest_component(graph)
    if not np.array_equal(np.asarray(keep), expected):
        return ["LCC node map differs from scipy's connected_components"]
    sub = adjacency(graph)[expected][:, expected].tocsr()
    sub.sort_indices()
    got = adjacency(lcc)
    if not (np.array_equal(got.indptr, sub.indptr)
            and np.array_equal(got.indices, sub.indices)
            and np.array_equal(got.data, sub.data)):
        problems.append("LCC adjacency differs from the induced subgraph")
    return problems


def positive(values, what: str) -> list[str]:
    values = np.asarray(values)
    if not (values > 0).all():
        return [f"{what}: min entry {values.min()!r} is not positive"]
    return []


def eigen_certificate(graph, lambda1: float, r, tol: float) -> list[str]:
    """``r`` is positive, sums to 1 and ``max|A r - lambda1 r| <= tol``."""
    r = np.asarray(r, dtype=np.float64)
    problems = positive(r, "eigenvector")
    if abs(r.sum() - 1.0) > slack(len(r), 1.0):
        problems.append(f"eigenvector sums to {r.sum()!r}, not 1")
    image = adjacency(graph) @ r
    residual = np.abs(image - lambda1 * r).max()
    if residual > tol + slack(len(r), np.abs(image).max()):
        problems.append(f"eigen residual {residual:.3e} above tol {tol:g}")
    return problems


def eigenvalue_bound(graph, lambda1: float, r) -> float:
    """Radius around ``lambda1`` that holds an eigenvalue of the symmetric
    adjacency: ``||A r - lambda1 r||_2 / ||r||_2``, plus rounding."""
    r = np.asarray(r, dtype=np.float64)
    image = adjacency(graph) @ r
    radius = np.linalg.norm(image - lambda1 * r) / np.linalg.norm(r)
    return radius + slack(len(r), abs(lambda1))


def eigenvalue_is(graph, lambda1: float, r, exact: float,
                  what: str) -> list[str]:
    bound = eigenvalue_bound(graph, lambda1, r)
    if abs(lambda1 - exact) > bound:
        return [f"{what}: lambda1 {lambda1!r} differs from {exact!r} by "
                f"more than the certified {bound:.3e}"]
    return []


def top_eigenvalue(graph) -> float:
    """Largest adjacency eigenvalue: dense for small graphs, else Lanczos."""
    a = adjacency(graph)
    if graph.node_count <= 400:
        return float(np.linalg.eigvalsh(a.toarray())[-1])
    return float(splinalg.eigsh(a, k=1, which="LA", tol=1e-14,
                                return_eigenvectors=False)[0])


def katz_certificate(graph, alpha: float, r, tol: float) -> list[str]:
    """``r >= 1`` and ``max|1 + alpha A r - r| <= tol``."""
    r = np.asarray(r, dtype=np.float64)
    problems = [] if (r >= 1.0).all() else ["Katz entry below 1"]
    image = 1.0 + alpha * (adjacency(graph) @ r)
    residual = np.abs(image - r).max()
    if residual > tol + slack(len(r), np.abs(image).max()):
        problems.append(f"Katz residual {residual:.3e} above tol {tol:g}")
    return problems


def katz_solution(graph, alpha: float, r, rtol: float = 1e-9) -> list[str]:
    """``r`` agrees with a direct sparse solve of ``(I - alpha A) x = 1``."""
    n = graph.node_count
    system = (sparse.identity(n, format="csc")
              - alpha * adjacency(graph).tocsc())
    exact = splinalg.spsolve(system, np.ones(n))
    err = np.abs(np.asarray(r) - exact).max() / np.abs(exact).max()
    if err > rtol:
        return [f"Katz vector off the direct solve by {err:.3e} (relative)"]
    return []


def pagerank_certificate(graph, beta: float, r, tol: float) -> list[str]:
    """``r`` is positive, sums to 1 and its L1 fixed-point residual under
    ``r = (1 - beta) A^T D^-1 r + beta / n`` is at most ``tol``."""
    r = np.asarray(r, dtype=np.float64)
    n = len(r)
    problems = positive(r, "pagerank")
    if abs(r.sum() - 1.0) > slack(n, 1.0):
        problems.append(f"pagerank sums to {r.sum()!r}, not 1")
    degrees = np.asarray(graph.degree_seq, dtype=np.float64)
    image = ((1.0 - beta) * (adjacency(graph).T @ (r / degrees))
             + beta / n * r.sum())
    residual = np.abs(image - r).sum()
    if residual > tol + slack(n, 1.0):
        problems.append(f"pagerank residual {residual:.3e} above tol {tol:g}")
    return problems


def neighbour_average(graph, r) -> np.ndarray:
    degrees = np.asarray(graph.degree_seq, dtype=np.float64)
    return (adjacency(graph) @ np.asarray(r, dtype=np.float64)) / degrees


def paradox_means(graph, r, report, tol: float) -> list[str]:
    """The report's three means match a recomputation, and
    ``mu_bar >= mu - tol``."""
    r = np.asarray(r, dtype=np.float64)
    degrees = np.asarray(graph.degree_seq, dtype=np.float64)
    averages = neighbour_average(graph, r)
    expected = {"mu": r.mean(), "mu_bar": averages.mean(),
                "mu_tilde": (r @ degrees) / degrees.sum()}
    problems = []
    for name, value in expected.items():
        got = getattr(report, name)
        if abs(got - value) > slack(len(r), abs(value)):
            problems.append(f"{name} {got!r} differs from {value!r}")
    if not report.mu_bar >= report.mu - tol:
        problems.append(f"paradox fails: mu_bar {report.mu_bar!r} < "
                        f"mu {report.mu!r}")
    return problems


def sides_agree(lhs: float, rhs: float, scale: float, n: int,
                what: str) -> list[str]:
    if abs(lhs - rhs) > slack(n, scale):
        return [f"{what}: sides {lhs!r} and {rhs!r} disagree"]
    return []


def comparison_sides(graph, r, deco) -> list[str]:
    """Both sides of ``mu_bar - mu_tilde = sum_j r_j (a_j / n - b_j)``
    agree, and each matches a recomputation."""
    r = np.asarray(r, dtype=np.float64)
    n = len(r)
    degrees = np.asarray(graph.degree_seq, dtype=np.float64)
    first = neighbour_average(graph, r).mean()
    second = (r @ degrees) / degrees.sum()
    scale = abs(first) + abs(second)
    return (sides_agree(deco.lhs, first - second, scale, n, "compare lhs")
            + sides_agree(deco.rhs, first - second, scale, n, "compare rhs"))


def symmetrization_sides(graph, lhs: float, rhs: float) -> list[str]:
    """Both sides of the symmetrisation identity agree with each other
    and with a recomputation of the degree-paradox gap."""
    degrees = np.asarray(graph.degree_seq, dtype=np.float64)
    gap = neighbour_average(graph, degrees).sum() - degrees.sum()
    scale = degrees.sum()
    n = graph.node_count
    return (sides_agree(lhs, gap, scale, n, "symmetrisation lhs")
            + sides_agree(rhs, gap, scale, n, "symmetrisation rhs"))


def at_least(lhs: float, rhs: float, tol: float, what: str) -> list[str]:
    if not lhs >= rhs - tol:
        return [f"{what}: {lhs!r} < {rhs!r}"]
    return []


def exact_degree_means(graph, stats) -> list[str]:
    """Exact (mu, mu_bar, mu_tilde) of the degree measure: mu and mu_tilde
    from integer sums, mu_bar against a float recomputation, and
    ``mu_bar >= mu`` exactly."""
    mu, mu_bar, mu_tilde = stats
    degrees = np.asarray(graph.degree_seq, dtype=np.int64)
    total = int(degrees.sum())
    problems = []
    if mu != Fraction(total, graph.node_count):
        problems.append(f"exact mu {mu} is wrong")
    if mu_tilde != Fraction(int((degrees * degrees).sum()), total):
        problems.append(f"exact mu_tilde {mu_tilde} is wrong")
    approx = neighbour_average(graph, degrees).mean()
    if abs(float(mu_bar) - approx) > slack(graph.node_count, approx):
        problems.append(f"exact mu_bar {float(mu_bar)!r} differs from "
                        f"{approx!r}")
    if not mu_bar >= mu:
        problems.append("exact mu_bar < mu")
    return problems


def shortest_path_measures(graph, kind: str, values) -> list[str]:
    """Closeness ``(n-1)/sum_j d(i,j)`` or harmonic ``sum_j 1/d(i,j)`` from
    ``scipy.sparse.csgraph.shortest_path``."""
    dist = csgraph.shortest_path(adjacency(graph), directed=False,
                                 unweighted=True)
    n = graph.node_count
    if kind == "closeness":
        expected = (n - 1) / dist.sum(axis=1)
    else:
        with np.errstate(divide="ignore"):
            inverse = 1.0 / dist
        np.fill_diagonal(inverse, 0.0)
        expected = inverse.sum(axis=1)
    err = np.abs(np.asarray(values) - expected).max()
    if err > slack(n, np.abs(expected).max()):
        return [f"{kind} differs from shortest_path by {err:.3e}"]
    return []


def unsolved(exc, tol: float, max_iters: int) -> list[str]:
    """A convergence failure is an honest report: the whole budget was
    spent and the residual it carries is above ``tol``."""
    problems = []
    if exc.iterations != max_iters:
        problems.append(f"gave up after {exc.iterations} of {max_iters} "
                        f"iterations")
    if exc.residual is None or not exc.residual > tol:
        problems.append(f"reported residual {exc.residual!r} is not above "
                        f"tol {tol:g}")
    return problems
