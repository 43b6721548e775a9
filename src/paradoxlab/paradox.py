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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centrality import (BFS_BLOCK_ARCS, CentralityParams, CentralityVector,
                         SpectralResult, _block_values, _in_blocks, _walks,
                         compute)
from .errors import GenerationError, InputError, NumericalError, RangeError
from .generators import RandomGraphSpec, _draw_edges, effective_lcc_extract
from .graph import (MAX_EXACT_COUNT, Graph, _as_vector, _connected_blocks,
                    _require_int, _require_positive_degrees,
                    _require_undirected, adjacency_matvec, apply_transition,
                    build_directed, build_undirected, disjoint_union,
                    is_strongly_connected)
from .rng import SplitMix64, derive_seed

# Two float means this close are reported as the equality case.
EQUALITY_TOL = 1e-10

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
    return _as_vector(graph, r.values if isinstance(r, CentralityVector)
                      else r)


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
        is_regular=graph.regular,
        delta=averages - values,
        edge_weights=degrees / degrees.sum())


def exact_degree_stats(graph: Graph) -> tuple[Fraction, Fraction, Fraction]:
    """(mu, mu_bar, mu_tilde) for the degree measure in exact rational
    arithmetic; only defined when every degree is positive."""
    _require_undirected(graph, "exact degree statistics")
    _require_positive_degrees(graph)
    degrees = graph.degree_seq
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
    _require_undirected(graph, "the comparison decomposition")
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
    _require_undirected(graph, "the symmetrisation identity")
    degrees = graph.degree_seq.astype(np.float64)
    lhs = float(apply_transition(graph, degrees).sum() - degrees.sum())
    d_i = np.repeat(degrees, np.diff(graph.row_offsets))
    d_j = degrees[graph.column_targets]
    # A_ij (sqrt(d_j/d_i) - sqrt(d_i/d_j))^2 per stored arc, in place:
    # an arc-sized temporary per operation gets its pages faulted in
    # afresh on every call.
    terms = d_j / d_i
    np.sqrt(terms, out=terms)
    inverse = np.divide(d_i, d_j, out=d_i)
    terms -= np.sqrt(inverse, out=inverse)
    np.square(terms, out=terms)
    terms *= graph.multiplicities
    rhs = float(0.5 * terms.sum())
    return lhs, rhs


def harmonic_mean_check(graph: Graph, spectral: SpectralResult) -> tuple[float, float]:
    """lhs = sum_i r_i / d_i and rhs = 1 / lambda1 for the L1-normalised
    dominant eigenvector r: the harmonic bound says lhs >= rhs, with
    equality exactly on regular graphs."""
    _require_undirected(graph, "the harmonic-mean check")
    vector = _measure_values(graph, spectral.vector)
    degrees = _require_positive_degrees(graph)
    return float((vector / degrees).sum()), 1.0 / spectral.lambda1


def eaves_check(graph: Graph, ell: int) -> tuple[float, float]:
    """Both sides of sum_ij (1/d_i) W_ij d_j >= sum_ij W_ij for W = A^ell,
    computed by repeated matvec."""
    _require_int("ell", ell, 1)
    _require_undirected(graph, "the walk-matrix inequality")
    degrees = _require_positive_degrees(graph)
    walks = _walks(graph, ell)
    # W d = A^(ell+1) 1; walk counts never fall as ell grows, so this is
    # the largest entry the check forms.
    weighted = adjacency_matvec(graph, walks)
    if weighted.max() > MAX_EXACT_COUNT:
        raise RangeError(f"walk-matrix entries for ell={ell} exceed 2**53")
    return float((weighted / degrees).sum()), float(walks.sum())


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
    if not np.isfinite(matrix).all():
        raise InputError("matrix entries must be finite")
    if (matrix < 0).any():
        raise InputError("matrix must be entrywise nonnegative")
    support = (matrix > 0) & ~np.eye(n, dtype=bool)
    if not is_strongly_connected(build_directed(n, np.argwhere(support))):
        raise InputError("matrix support is reducible; the bilinear bound "
                         "requires an irreducible matrix")
    _require_int("trials", trials, 1)
    _require_int("seed", seed)
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


def _mean_extent(spec: RandomGraphSpec) -> float:
    """Nodes plus stored arcs of one candidate, ``n + 2 * edges``: exact
    where the model fixes the edge count, an upper bound for the
    configuration model, whose erasures only remove edges, and the mean
    for Erdos-Renyi."""
    n = spec.n
    if spec.model == "erdos_renyi":
        edges = spec.p * n * (n - 1) / 2
    elif spec.model == "k_regular":
        edges = n * spec.k // 2
    elif spec.model == "configuration":
        edges = sum(spec.degree_sequence) // 2
    elif spec.model == "preferential_attachment":
        edges = n * spec.m_attach - spec.m_attach * (spec.m_attach + 1) // 2
    elif spec.model == "complete":
        edges = n * (n - 1) // 2
    else:
        edges = n if spec.model == "cycle" else n - 1
    return n + 2 * edges


def _sampling_round(spec: RandomGraphSpec, candidates: list) -> list:
    """The outcome of one round's candidates, in order: the member's
    graph, ``None`` when the candidate is not connected, or the error its
    draw raised.  The drawn candidates are assembled as one disjoint union,
    which is labelled once."""
    outcomes = list(candidates)
    drawn = [slot for slot, candidate in enumerate(candidates)
             if not isinstance(candidate, GenerationError)]
    if drawn:
        edges = [candidates[slot] for slot in drawn]
        pairs = np.concatenate(edges)
        pairs += np.repeat(spec.n * np.arange(len(drawn)),
                           [len(e) for e in edges])[:, None]
        union = build_undirected(spec.n * len(drawn), pairs)
        graphs = _connected_blocks(union, [spec.n] * len(drawn),
                                   effective_lcc_extract(spec))
        for slot, graph in zip(drawn, graphs):
            outcomes[slot] = graph
    return outcomes


def _connected_samples(spec: RandomGraphSpec, n_graphs: int,
                       master_seed: int):
    """Yield the connected samples of the ensemble window by window, each
    window a list in member order; where a member has none, yield the
    members of its window before it, then raise its ``GenerationError``.

    Member ``i`` draws its attempt ``a`` from ``derive_seed(base, a)`` with
    ``base = derive_seed(master_seed, i)`` and takes the first attempt
    that is connected, or its largest component when the spec extracts
    it, within ``MAX_CONNECTED_ATTEMPTS`` attempts.  A window holds
    ``BFS_BLOCK_ARCS // _mean_extent(spec)`` consecutive members (at least
    one) and is sampled in rounds: round ``a`` draws attempt ``a`` of every
    member of the window still pending in one batch, which pairs the
    stubs of ``k_regular`` and ``configuration`` members together, and
    labels them together (see :func:`_sampling_round`).  So a round's
    union stays within ``BFS_BLOCK_ARCS`` nodes and stored arcs, unless
    one candidate alone has more, for every model but Erdos-Renyi, where
    the bound holds on average over the window.  The samples equal those
    of one ``generate`` and one connectivity check per attempt; each
    window draws all its rounds before it is yielded.
    """
    window = max(1, int(BFS_BLOCK_ARCS // _mean_extent(spec)))
    for first in range(0, n_graphs, window):
        samples = [None] * min(window, n_graphs - first)
        pending = list(range(len(samples)))
        for attempt in range(MAX_CONNECTED_ATTEMPTS):
            if not pending:
                break
            seeds = [derive_seed(derive_seed(master_seed, first + slot),
                                 attempt) for slot in pending]
            for slot, sample in zip(pending, _sampling_round(
                    spec, _draw_edges(spec, seeds))):
                samples[slot] = sample
            pending = [slot for slot in pending if samples[slot] is None]
        for slot, sample in enumerate(samples):
            if not isinstance(sample, Graph):
                del samples[slot:]
                yield samples
                # None: no attempt was connected.
                raise sample or GenerationError(
                    f"no connected graph from {spec.model!r} after "
                    f"{MAX_CONNECTED_ATTEMPTS} attempts "
                    f"(graph {first + slot})")
        yield samples


def _bias(graph: Graph, values: np.ndarray) -> np.ndarray:
    return neighbor_average(graph, values) - values


def _union_bias(graphs: list[Graph], measure: CentralityParams,
                ) -> list[np.ndarray]:
    """Bias of each graph, in order, from one solve and one neighbour
    average over their disjoint union; rows of the union sum as each
    graph's own rows do.  Empties ``graphs``, so that only the union
    holds their arrays while it is solved."""
    if not graphs:
        return []
    union = disjoint_union(graphs)
    sizes = [graph.node_count for graph in graphs]
    graphs.clear()
    return [_bias(union, _block_values(union, sizes, measure))]


def bias_distribution(spec: RandomGraphSpec, measure: CentralityParams,
                      n_graphs: int, seed: int) -> BiasDistribution:
    """Pooled distribution of per-node bias over a seeded ensemble.

    Each of the ``n_graphs`` ensemble members gets a sub-seed derived from
    ``(seed, index)``, with rejection resampling until connected, so the
    result does not depend on evaluation order.  The bias of node i is its
    neighbour average minus its own value; samples from all graphs are
    pooled.

    Members are taken window by window, a window being a run of
    consecutive members whose candidates' nodes and stored arcs stay
    within ``BFS_BLOCK_ARCS`` (on average, for Erdos-Renyi).  A window is
    sampled in rounds, each assembling and labelling the next attempt of
    every pending member as one disjoint union (see
    :func:`_connected_samples`), and then solved: the members that
    ``_in_blocks`` admits (the start rule is
    ``centrality._starts_from_solve``) take one solve and one neighbour
    average over their disjoint union, split only at the members solved
    alone: those ``_in_blocks`` refuses, and a lone node, whose neighbour
    average is undefined.  A solved member is a connected piece of its
    candidate, so no solve's union is larger than its window's first
    round.  Samples and errors are those of one ``generate`` per attempt
    and one solve per member, in member order: a member that cannot be
    sampled raises after the members before it are solved.
    """
    _require_int("n_graphs", n_graphs, 1)
    _require_int("seed", seed)

    deltas: list[np.ndarray] = []
    for window in _connected_samples(spec, n_graphs, seed):
        batch: list[Graph] = []
        # Only the batch, and then its union, holds a member while the
        # union is solved.
        for slot, graph in enumerate(window):
            window[slot] = None
            if graph.node_count == 1 or not _in_blocks(measure, graph):
                deltas += _union_bias(batch, measure)
                deltas.append(_bias(graph, compute(graph, measure).values))
            else:
                batch.append(graph)
        deltas += _union_bias(batch, measure)
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
