"""Centrality measures: degree, walk counts, eigenvector, Katz, PageRank,
plus closeness/harmonic for comparison tables.

All iterative solvers stop on explicit residuals, never on iteration
plateaus, and report the residual and iteration count they achieved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, ParameterError, PreconditionError,
                     RangeError, UsageError)
from .graph import (MAX_EXACT_COUNT, Graph, adjacency_matvec,
                    apply_transition_transpose, hop_distances)

VALID_KINDS = ("degree", "walk_count", "eigenvector", "katz", "pagerank",
               "closeness", "harmonic")

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 100_000

# Katz decay must keep alpha * lambda1 bounded away from 1.
ALPHA_MARGIN = 1e-9

# Graphs with at least this many nodes try a Lanczos solve before power
# iteration.  Below it the power loop is cheaper (measured crossover on
# Erdős–Rényi, preferential-attachment and path graphs; see CHANGES.md).
LANCZOS_MIN_NODES = 256

EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CentralityParams:
    """Which measure to compute and with what knobs.

    ``ell`` applies to walk counts, ``alpha`` to Katz, ``beta`` to PageRank;
    supplying a knob the measure does not use is rejected.
    """

    kind: str
    ell: int | None = None
    alpha: float | None = None
    beta: float | None = None
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ParameterError(
                f"unknown centrality kind {self.kind!r}; "
                f"expected one of {', '.join(VALID_KINDS)}")
        if (self.ell is not None) != (self.kind == "walk_count"):
            raise ParameterError("ell is required for walk_count and "
                                 "invalid for every other kind")
        if self.ell is not None and self.ell < 0:
            raise ParameterError(f"ell must be nonnegative, got {self.ell}")
        if (self.alpha is not None) != (self.kind == "katz"):
            raise ParameterError("alpha is required for katz and invalid "
                                 "for every other kind")
        if self.alpha is not None and not 0 <= self.alpha < np.inf:
            raise ParameterError(
                f"alpha must be nonnegative and finite, got {self.alpha}")
        if (self.beta is not None) != (self.kind == "pagerank"):
            raise ParameterError("beta is required for pagerank and invalid "
                                 "for every other kind")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ParameterError(
                f"beta must lie strictly between 0 and 1, got {self.beta}")
        if not 0 < self.tol < np.inf:
            raise ParameterError(
                f"tol must be positive and finite, got {self.tol}")
        if self.kind == "katz" and not self.tol < 1:
            # Below 1 a converged Katz residual also certifies alpha.
            raise ParameterError(f"katz needs tol < 1, got {self.tol}")
        if self.max_iters < 1:
            raise ParameterError(
                f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True)
class CentralityVector:
    """A computed measure: one value per node plus solver diagnostics."""

    values: np.ndarray
    params: CentralityParams
    iterations: int
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class SpectralResult:
    """Dominant adjacency eigenpair with two certificates: the residual
    ``max|A v - lambda1 v|`` and the Collatz–Wielandt enclosure
    ``lo <= lambda1 <= hi`` of the returned vector.  ``method`` names the
    solver that produced it, ``"lanczos"`` or ``"power"``."""

    lambda1: float
    vector: np.ndarray
    residual: float
    iterations: int
    enclosure: tuple[float, float]
    method: str

    def __post_init__(self):
        self.vector.setflags(write=False)


def _require_undirected_connected(graph: Graph, what: str) -> None:
    if graph.directed:
        raise UsageError(f"{what} is defined for undirected graphs")
    if not graph.connected:
        raise PreconditionError(f"{what} requires a connected graph")


def degree_centrality(graph: Graph) -> CentralityVector:
    """Degree of every node as float64."""
    _require_undirected_connected(graph, "degree centrality")
    return CentralityVector(values=graph.degree_seq.astype(np.float64),
                            params=CentralityParams(kind="degree"),
                            iterations=0, residual=0.0)


def walk_count(graph: Graph, ell: int) -> CentralityVector:
    """Walks of length ``ell`` from each node: ``A^ell @ 1`` by repeated
    sparse matvec, kept exact in float64 and guarded against overflow."""
    params = CentralityParams(kind="walk_count", ell=ell)
    _require_undirected_connected(graph, "walk-count centrality")
    values = np.ones(graph.node_count)
    for _ in range(ell):
        values = adjacency_matvec(graph, values)
        # Partial sums of nonnegative integers stay exact up to 2**53.
        if values.max() > MAX_EXACT_COUNT:
            raise RangeError(f"walk counts for ell={ell} exceed 2**53 "
                             f"and would lose exactness")
    return CentralityVector(values=values, params=params,
                            iterations=ell, residual=0.0)


def perron_bounds(graph: Graph, x) -> tuple[float, float]:
    """Collatz–Wielandt enclosure ``lo <= lambda1 <= hi`` of the spectral
    radius from a positive vector ``x``: the min and max of
    ``(A x)_i / x_i``, rounded outward.  Both ends meet at lambda1
    exactly when ``x`` is the Perron vector."""
    image = adjacency_matvec(graph, x)
    x = np.asarray(x, dtype=np.float64)
    if not (x > 0).all():
        raise ParameterError("the Perron enclosure needs a positive vector")
    return _enclosure(graph, x, image)


def _enclosure(graph: Graph, x: np.ndarray,
               image: np.ndarray) -> tuple[float, float]:
    """Collatz–Wielandt bounds from ``x >= 0`` and its image ``A x``.

    Entries of ``x`` that underflowed to zero are left out of the lower
    bound and make the upper bound infinite.  Both ends move outward by the
    rounding of the row sums and the division, at most ``(d_max + 2) eps``
    relative for a row of ``d_max`` weighted entries.
    """
    support = x > 0
    ratios = image[support] / x[support]
    spread = (float(graph.degree_seq.max(initial=0)) + 2.0) * EPS
    lo, hi = float(ratios.min()), float(ratios.max())
    lo = np.nextafter(lo - spread * abs(lo), -np.inf)
    hi = (np.nextafter(hi + spread * abs(hi), np.inf) if support.all()
          else np.inf)
    return float(lo), float(hi)


def _certificate(vec: np.ndarray, image: np.ndarray) -> tuple[float, float]:
    """Rayleigh estimate of lambda1 and the residual ``max|A v - l v|``."""
    estimate = (vec @ image) / (vec @ vec)
    return estimate, np.abs(image - estimate * vec).max()


def _eigenpair(graph: Graph, params: CentralityParams, vec: np.ndarray,
               image: np.ndarray, estimate: float, residual: float,
               iterations: int, method: str,
               ) -> tuple[SpectralResult, CentralityVector]:
    spectral = SpectralResult(lambda1=float(estimate), vector=vec,
                              residual=float(residual),
                              iterations=iterations,
                              enclosure=_enclosure(graph, vec, image),
                              method=method)
    return spectral, CentralityVector(values=vec, params=params,
                                      iterations=iterations,
                                      residual=float(residual))


class _BudgetSpent(Exception):
    """The Lanczos solve asked for more than ``max_iters`` matvecs."""


def _lanczos(graph: Graph, params: CentralityParams,
             ) -> tuple[tuple[SpectralResult, CentralityVector] | None, int]:
    """Perron pair by ARPACK's implicitly restarted Lanczos, and the
    matvecs it spent.  The pair is ``None`` when ARPACK fails, the matvec
    budget runs out, the vector is not positive or it fails the residual
    certificate."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
    n = graph.node_count
    calls = 0

    def matvec(x):
        nonlocal calls
        if calls == params.max_iters:
            raise _BudgetSpent
        calls += 1
        return adjacency_matvec(graph, x)

    operator = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    try:
        # A fixed start vector keeps the result byte-reproducible.
        vec = eigsh(operator, k=1, which="LA", v0=np.ones(n))[1][:, 0]
    except (ArpackError, _BudgetSpent):
        return None, calls
    vec = vec * np.sign(vec.sum())
    if not (vec > 0).all():
        return None, calls
    vec = vec / vec.sum()
    image = adjacency_matvec(graph, vec)
    estimate, residual = _certificate(vec, image)
    if not residual <= params.tol:
        return None, calls
    return _eigenpair(graph, params, vec, image, estimate, residual, calls,
                      "lanczos"), calls


def eigenvector_centrality(graph: Graph, tol: float = DEFAULT_TOL,
                           max_iters: int = DEFAULT_MAX_ITERS,
                           ) -> tuple[SpectralResult, CentralityVector]:
    """Dominant eigenpair of the adjacency matrix.

    Checks the uniform vector first, so regular graphs keep it exactly.
    Otherwise graphs with at least ``LANCZOS_MIN_NODES`` nodes try Lanczos
    (ARPACK's ``eigsh``), which needs far fewer matvecs than power
    iteration when the spectral gap is small.  Smaller graphs, and any
    graph whose Lanczos vector fails, run power iteration on ``A + I``, so
    that bipartite graphs, whose spectrum is symmetric, still have a
    strictly dominant eigenvalue.  Either way the result must pass
    ``max|A r - lambda r| <= tol`` with the Rayleigh-quotient eigenvalue
    estimate.  The vector is positive and L1-normalised.

    Both solvers draw on one budget: ``iterations`` counts the Lanczos
    matvecs plus the power steps, and power iteration gets only what
    Lanczos left of ``max_iters``.
    """
    params = CentralityParams(kind="eigenvector", tol=tol,
                              max_iters=max_iters)
    _require_undirected_connected(graph, "eigenvector centrality")
    vec = np.full(graph.node_count, 1.0 / graph.node_count)
    image = adjacency_matvec(graph, vec)
    estimate, residual = _certificate(vec, image)
    iteration = 0
    if not residual <= tol and graph.node_count >= LANCZOS_MIN_NODES:
        found, iteration = _lanczos(graph, params)
        if found is not None:
            return found
    while not residual <= tol:
        iteration += 1
        if iteration >= max_iters:
            raise ConvergenceError(
                f"eigenvector iteration did not reach {tol} in {max_iters} "
                f"steps", residual=float(residual), iterations=max_iters)
        shifted = image + vec
        vec = shifted / shifted.sum()
        image = adjacency_matvec(graph, vec)
        estimate, residual = _certificate(vec, image)
    return _eigenpair(graph, params, vec, image, estimate, residual,
                      iteration, "power")


def katz_centrality(graph: Graph, alpha: float, tol: float = DEFAULT_TOL,
                    max_iters: int = DEFAULT_MAX_ITERS) -> CentralityVector:
    """Katz vector ``r = 1 + alpha A r`` by Jacobi iteration from the
    all-ones vector; the partial sums of the Neumann series increase
    monotonically toward the solution and certify ``alpha`` on the way."""
    params = CentralityParams(kind="katz", alpha=alpha, tol=tol,
                              max_iters=max_iters)
    _require_undirected_connected(graph, "Katz centrality")
    ones = np.ones(graph.node_count)
    vec = ones.copy()
    residual = np.inf
    for iteration in range(max_iters):
        # An alpha near the float limit overflows to inf here, and the
        # bound below then rejects it.
        with np.errstate(over="ignore"):
            step = alpha * adjacency_matvec(graph, vec)
        # Rayleigh: x.Ax / x.x <= lambda1 for symmetric A.  Conversely if
        # alpha * lambda1 >= 1, max|image - vec| >= 1 at every step, so a
        # residual <= tol < 1 proves alpha * lambda1 < 1.
        bound = (vec @ step) / (vec @ vec)
        if bound >= 1.0 - ALPHA_MARGIN:
            raise ParameterError(f"alpha={alpha} too large: alpha * lambda1 "
                                 f"must stay below 1 but is >= {bound:.12g}")
        image = ones + step
        # max|image - vec| is the self-consistency defect of vec itself,
        # so return the iterate the certificate was computed for.
        residual = np.abs(image - vec).max()
        if residual <= tol:
            return CentralityVector(values=vec, params=params,
                                    iterations=iteration,
                                    residual=float(residual))
        vec = image
    raise ConvergenceError(
        f"Katz iteration did not reach {tol} in {max_iters} steps",
        residual=float(residual), iterations=max_iters)


def pagerank_centrality(graph: Graph, beta: float, tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> CentralityVector:
    """PageRank with teleport weight ``beta``: the fixed point of
    ``r = (1-beta) C^T r + beta/n`` where ``C`` is the out-degree-normalised
    transition matrix.

    Undirected graphs are treated as bidirected.  The graph must be
    (strongly) connected, so every out-degree is positive and no dangling
    correction is needed.  Stops when the L1 fixed-point residual of the
    returned vector is at most ``tol``; the result sums to 1.
    """
    params = CentralityParams(kind="pagerank", beta=beta, tol=tol,
                              max_iters=max_iters)
    if not graph.connected:
        kind = "strongly connected directed" if graph.directed else "connected"
        raise PreconditionError(f"pagerank requires a {kind} graph")
    n = graph.node_count
    teleport = beta / n
    vec = np.full(n, 1.0 / n)
    residual = np.inf
    for iteration in range(max_iters):
        image = ((1.0 - beta) * apply_transition_transpose(graph, vec)
                 + teleport * vec.sum())
        residual = float(np.abs(image - vec).sum())
        if residual <= tol:
            return CentralityVector(values=vec, params=params,
                                    iterations=iteration,
                                    residual=residual)
        vec = image / image.sum()
    raise ConvergenceError(
        f"pagerank iteration did not reach {tol} in {max_iters} steps",
        residual=residual, iterations=max_iters)


def closeness_harmonic(graph: Graph, kind: str) -> CentralityVector:
    """Closeness ``(n-1)/sum_j dist(i,j)`` or harmonic ``sum_j 1/dist(i,j)``
    centrality from per-node breadth-first distances."""
    if kind not in ("closeness", "harmonic"):
        raise ParameterError(
            f"kind must be 'closeness' or 'harmonic', got {kind!r}")
    params = CentralityParams(kind=kind)
    _require_undirected_connected(graph, f"{kind} centrality")
    n = graph.node_count
    values = np.empty(n)
    for source in range(n):
        dist = hop_distances(graph.row_offsets, graph.column_targets, source)
        others = np.delete(dist, source).astype(np.float64)
        if n == 1:
            values[source] = 0.0
        elif kind == "closeness":
            values[source] = (n - 1) / others.sum()
        else:
            values[source] = (1.0 / others).sum()
    return CentralityVector(values=values, params=params,
                            iterations=0, residual=0.0)


def solve_lambda1(graph: Graph, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SpectralResult:
    """Dominant adjacency eigenvalue (convenience wrapper)."""
    spectral, _ = eigenvector_centrality(graph, tol=tol, max_iters=max_iters)
    return spectral


def compute(graph: Graph, params: CentralityParams) -> CentralityVector:
    """Dispatch on ``params.kind``."""
    if params.kind == "degree":
        return degree_centrality(graph)
    if params.kind == "walk_count":
        return walk_count(graph, params.ell)
    if params.kind == "eigenvector":
        return eigenvector_centrality(graph, tol=params.tol,
                                      max_iters=params.max_iters)[1]
    if params.kind == "katz":
        return katz_centrality(graph, params.alpha, tol=params.tol,
                               max_iters=params.max_iters)
    if params.kind == "pagerank":
        return pagerank_centrality(graph, params.beta, tol=params.tol,
                                   max_iters=params.max_iters)
    return closeness_harmonic(graph, params.kind)
