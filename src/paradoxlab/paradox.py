"""Paradox statistics and the identities behind them.

The central quantity is the neighbour average of a measure r: node i
averages r over its neighbours, and the population mean of those averages
is never below the population mean of r itself.  This module computes the
three means (plain, neighbour, edge-sampled), their decomposition, the
symmetrisation and harmonic-mean identities that prove the inequality, the
bilinear bound it specialises, and pooled per-node bias distributions over
random-graph ensembles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centrality import CentralityParams, CentralityVector, SpectralResult, compute
from .errors import (GenerationError, InputError, NumericalError,
                     ParameterError, RangeError)
from .generators import RandomGraphSpec, generate
from .graph import (MAX_EXACT_COUNT, Graph, adjacency_matvec, apply_transition,
                    build_directed, is_connected, is_strongly_connected)
from .rng import SplitMix64, derive_seed

# Two float means this close are reported as the equality case.
EQUALITY_TOL = 1e-10

MAX_EAVES_NODES = 512
MAX_FIEDLER_NODES = 16

# A sampled bilinear form this far below lambda counts as a violation.
BILINEAR_TOL = 1e-9

QUANTILE_LEVELS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

# Regenerations of one ensemble member before it counts as unsampleable.
MAX_CONNECTED_ATTEMPTS = 100


@dataclass(frozen=True)
class ParadoxReport:
    """Means and verdicts for one measure on one graph.

    ``mu`` is the plain mean of the measure, ``mu_bar`` the mean of
    neighbour averages, ``mu_tilde`` the edge-sampled (degree-weighted)
    mean.  ``slack = mu_bar - mu`` and the paradox holds when the slack is
    not meaningfully negative.  ``delta`` is the per-node bias
    (neighbour average minus own value) and ``edge_weights`` the sampling
    weights d_i / sum(d) that tilt mu_tilde toward high-degree nodes.
    """

    measure: CentralityParams | None
    mu: float
    mu_bar: float
    mu_tilde: float
    slack: float
    paradox_holds: bool
    is_regular: bool
    delta: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self):
        self.delta.setflags(write=False)
        self.edge_weights.setflags(write=False)


@dataclass(frozen=True)
class ComparisonDecomposition:
    """Exact decomposition of mu_bar - mu_tilde.

    ``a[j]`` sums 1/d_i over the neighbours i of j and ``b[j] = d_j /
    sum(d)``, so that ``mu_bar - mu_tilde = sum_j r_j (a_j / n - b_j)``:
    lhs and rhs are the two sides, computed independently.
    """

    a: np.ndarray
    b: np.ndarray
    lhs: float
    rhs: float

    def __post_init__(self):
        self.a.setflags(write=False)
        self.b.setflags(write=False)


@dataclass(frozen=True)
class FiedlerInstance:
    """One sampled check of the bilinear bound y^T P x >= lambda, where
    x > 0 is free, y = (u * v) / x, and (lambda, u, v) is the Perron
    triple of the irreducible nonnegative matrix p."""

    p: np.ndarray
    lam: float
    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray
    bilinear: float


@dataclass(frozen=True)
class BiasDistribution:
    """Pooled per-node bias samples over a seeded graph ensemble."""

    measure: CentralityParams
    ensemble: RandomGraphSpec
    n_graphs: int
    samples: np.ndarray
    mean: float
    stddev: float
    min: float
    max: float
    quantiles: dict[float, float]
    histogram: list[tuple[float, float, int]]
    fraction_negative: float

    def __post_init__(self):
        self.samples.setflags(write=False)


def _measure_values(graph: Graph, r) -> np.ndarray:
    values = r.values if isinstance(r, CentralityVector) else np.asarray(
        r, dtype=np.float64)
    if values.shape != (graph.node_count,):
        raise InputError(
            f"measure of length {values.shape} does not match "
            f"{graph.node_count} nodes")
    return np.asarray(values, dtype=np.float64)


def neighbor_average(graph: Graph, r) -> np.ndarray:
    """Average of the measure over each node's (out-)neighbours,
    multiplicity-weighted: ``C @ r``."""
    return apply_transition(graph, _measure_values(graph, r))


def paradox_report(graph: Graph, r: CentralityVector) -> ParadoxReport:
    """Compare the plain, neighbour and edge-sampled means of a measure."""
    values = _measure_values(graph, r)
    averages = neighbor_average(graph, values)
    degrees = graph.degree_seq.astype(np.float64)
    mu = float(values.mean())
    mu_bar = float(averages.mean())
    mu_tilde = float((values @ degrees) / degrees.sum())
    slack = mu_bar - mu
    params = r.params if isinstance(r, CentralityVector) else None
    return ParadoxReport(
        measure=params,
        mu=mu, mu_bar=mu_bar, mu_tilde=mu_tilde, slack=slack,
        paradox_holds=bool(slack >= -EQUALITY_TOL),
        is_regular=bool((graph.degree_seq == graph.degree_seq[0]).all()),
        delta=averages - values,
        edge_weights=degrees / degrees.sum())


def exact_degree_stats(graph: Graph) -> tuple[Fraction, Fraction, Fraction]:
    """(mu, mu_bar, mu_tilde) for the degree measure in exact rational
    arithmetic; only defined when every degree is positive."""
    if graph.directed:
        raise InputError("exact degree statistics expect an undirected graph")
    degrees = graph.degree_seq
    if (degrees == 0).any():
        raise InputError("exact degree statistics need positive degrees")
    # Exact in int64: each sum below is at most (sum d)^2, under 2^63 for
    # fewer than about 1.5e9 edges.  No row is empty, so reduceat gives the
    # row sums, then their sum over the nodes of each distinct degree.
    row_sums = np.add.reduceat(
        graph.multiplicities * degrees[graph.column_targets],
        graph.row_offsets[:-1])
    order = np.argsort(degrees)
    distinct, starts = np.unique(degrees[order], return_index=True)
    per_degree = np.add.reduceat(row_sums[order], starts)
    n, degree_sum = graph.node_count, int(degrees.sum())
    mu_bar = sum(map(Fraction, per_degree.tolist(), distinct.tolist())) / n
    return (Fraction(degree_sum, n), mu_bar,
            Fraction(int((degrees * degrees).sum()), degree_sum))


def compare_averages(graph: Graph, r: CentralityVector) -> ComparisonDecomposition:
    """Split mu_bar - mu_tilde into per-node contributions (see
    :class:`ComparisonDecomposition`); lhs and rhs agree to rounding."""
    if graph.directed:
        raise InputError("the comparison decomposition expects an "
                         "undirected graph")
    values = _measure_values(graph, r)
    degrees = graph.degree_seq.astype(np.float64)
    averages = neighbor_average(graph, values)
    n = graph.node_count
    a = adjacency_matvec(graph, 1.0 / degrees)
    b = degrees / degrees.sum()
    lhs = float(averages.mean() - (values @ degrees) / degrees.sum())
    rhs = float(values @ (a / n - b))
    return ComparisonDecomposition(a=a, b=b, lhs=lhs, rhs=rhs)


def symmetrization_identity(graph: Graph) -> tuple[float, float]:
    """Both sides of

        sum(C d) - sum(d) = 1/2 * sum_ij A_ij (sqrt(d_j/d_i) - sqrt(d_i/d_j))^2

    which exhibits the degree-paradox gap as a sum of squares."""
    if graph.directed:
        raise InputError("the symmetrisation identity expects an "
                         "undirected graph")
    degrees = graph.degree_seq.astype(np.float64)
    lhs = float(apply_transition(graph, degrees).sum() - degrees.sum())
    rows = np.repeat(np.arange(graph.node_count), np.diff(graph.row_offsets))
    d_i = degrees[rows]
    d_j = degrees[graph.column_targets]
    terms = graph.multiplicities * (np.sqrt(d_j / d_i) - np.sqrt(d_i / d_j)) ** 2
    rhs = float(0.5 * terms.sum())
    return lhs, rhs


def harmonic_mean_check(graph: Graph, spectral: SpectralResult) -> tuple[float, float]:
    """lhs = sum_i r_i / d_i and rhs = 1 / lambda1 for the L1-normalised
    dominant eigenvector r: the harmonic bound says lhs >= rhs, with
    equality exactly on regular graphs."""
    vector = _measure_values(graph, spectral.vector)
    degrees = graph.degree_seq.astype(np.float64)
    if (degrees == 0).any():
        raise InputError("harmonic-mean check needs positive degrees")
    return float((vector / degrees).sum()), 1.0 / spectral.lambda1


def eaves_check(graph: Graph, ell: int) -> tuple[float, float]:
    """Both sides of sum_ij (1/d_i) W_ij d_j >= sum_ij W_ij for W = A^ell,
    computed by repeated matvec."""
    if ell < 1:
        raise ParameterError(f"ell must be at least 1, got {ell}")
    if graph.directed:
        raise InputError("the walk-matrix inequality expects an "
                         "undirected graph")
    if graph.node_count > MAX_EAVES_NODES:
        raise RangeError(
            f"walk-matrix check limited to {MAX_EAVES_NODES} nodes")
    degrees = graph.degree_seq.astype(np.float64)
    if (degrees == 0).any():
        raise InputError("walk-matrix check needs positive degrees")
    weighted = degrees.copy()
    ones = np.ones(graph.node_count)
    for _ in range(ell):
        weighted = adjacency_matvec(graph, weighted)
        ones = adjacency_matvec(graph, ones)
        if weighted.max() > MAX_EXACT_COUNT:
            raise RangeError(
                f"walk-matrix entries for ell={ell} exceed 2**53")
    return float((weighted / degrees).sum()), float(ones.sum())


def _perron_pair(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left Perron vectors via the dense eigendecomposition."""
    values, vectors = np.linalg.eig(matrix)
    right = vectors[:, int(np.argmax(values.real))].real
    values_t, vectors_t = np.linalg.eig(matrix.T)
    left = vectors_t[:, int(np.argmax(values_t.real))].real
    if right.sum() < 0:
        right = -right
    if left.sum() < 0:
        left = -left
    if right.min() <= 0 or left.min() <= 0:
        raise NumericalError("Perron vectors are not strictly positive; "
                             "matrix is too close to reducible")
    return right, left


def fiedler_check(p: np.ndarray, trials: int, seed: int) -> list[FiedlerInstance]:
    """Sample the bilinear bound on an irreducible nonnegative matrix.

    Trial 0 forces ``x = u`` (the equality case); the remaining trials draw
    x entries log-uniformly from [0.1, 10].  Every instance satisfies
    ``bilinear >= lam`` up to rounding, with equality exactly when x is
    proportional to u.
    """
    matrix = np.array(p, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"expected a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n > MAX_FIEDLER_NODES:
        raise RangeError(
            f"bilinear-bound check limited to {MAX_FIEDLER_NODES} nodes")
    if (matrix < 0).any():
        raise InputError("matrix must be entrywise nonnegative")
    support = (matrix > 0) & ~np.eye(n, dtype=bool)
    if not is_strongly_connected(build_directed(n, np.argwhere(support))):
        raise InputError("matrix support is reducible; the bilinear bound "
                         "requires an irreducible matrix")
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    right, left = _perron_pair(matrix)
    right = right / right.sum()
    left = left / (left @ right)
    # Defining lam through the computed pair makes the forced trial exact.
    lam = float(left @ matrix @ right)
    product = right * left
    rng = SplitMix64(seed)
    instances = []
    for trial in range(trials):
        if trial == 0:
            x = right.copy()
        else:
            x = np.array([10.0 ** (2.0 * rng.random() - 1.0)
                          for _ in range(n)])
        y = product / x
        instances.append(FiedlerInstance(
            p=matrix, lam=lam, u=right, v=left, x=x, y=y,
            bilinear=float(y @ matrix @ x)))
    return instances


def pagerank_paradox_check(graph: Graph, r: CentralityVector) -> tuple[float, float]:
    """lhs = sum(C r) and rhs = sum(r) for a PageRank vector r: averaging
    over out-neighbours never lowers the total score."""
    values = _measure_values(graph, r)
    return float(apply_transition(graph, values).sum()), float(values.sum())


def _connected_sample(spec: RandomGraphSpec, graph_index: int,
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


def bias_distribution(spec: RandomGraphSpec, measure: CentralityParams,
                      n_graphs: int, seed: int) -> BiasDistribution:
    """Pooled distribution of per-node bias over a seeded ensemble.

    Each of the ``n_graphs`` ensemble members gets a sub-seed derived from
    ``(seed, index)``, with rejection resampling until connected, so the
    result does not depend on evaluation order.  The bias of node i is its
    neighbour average minus its own value; samples from all graphs are
    pooled.
    """
    if n_graphs < 1:
        raise ParameterError(f"n_graphs must be at least 1, got {n_graphs}")

    deltas = []
    for index in range(n_graphs):
        graph = _connected_sample(spec, index, seed)
        values = compute(graph, measure).values
        deltas.append(neighbor_average(graph, values) - values)
    samples = np.concatenate(deltas)
    quantiles = {level: float(np.quantile(samples, level))
                 for level in QUANTILE_LEVELS}
    return BiasDistribution(
        measure=measure, ensemble=spec, n_graphs=n_graphs, samples=samples,
        mean=float(samples.mean()), stddev=float(samples.std()),
        min=float(samples.min()), max=float(samples.max()),
        quantiles=quantiles, histogram=_freedman_diaconis(samples),
        fraction_negative=float((samples < 0).sum() / len(samples)))


def _freedman_diaconis(samples: np.ndarray) -> list[tuple[float, float, int]]:
    """Histogram with Freedman-Diaconis bin width, at least 10 bins, and a
    single degenerate bin when all samples coincide."""
    lo, hi = float(samples.min()), float(samples.max())
    if lo == hi:
        return [(lo, hi, len(samples))]
    q25, q75 = np.quantile(samples, [0.25, 0.75])
    width = 2.0 * (q75 - q25) / len(samples) ** (1.0 / 3.0)
    bins = int(np.ceil((hi - lo) / width)) if width > 0 else 10
    bins = min(max(bins, 10), 512)
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    return [(float(edges[i]), float(edges[i + 1]), int(count))
            for i, count in enumerate(counts)]
