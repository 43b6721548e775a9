"""Centrality measures: degree, walk counts, eigenvector, Katz, PageRank,
plus closeness/harmonic for comparison tables.

The eigenvector, Katz and PageRank solvers run one fixed-point loop,
``_iterate_blocks``.  It stops on explicit residuals or an exactly
repeated iterate, never on plateaus, and reports the residual and
iteration count achieved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import (ConvergenceError, ParameterError, PreconditionError,
                     RangeError)
from .graph import (MAX_EXACT_COUNT, Graph, _is_real, _require_int,
                    _require_positive_degrees, _require_undirected,
                    _transpose_matvec, adjacency_matvec)

VALID_KINDS = ("degree", "walk_count", "eigenvector", "katz", "pagerank",
               "closeness", "harmonic")

# The knob each tunable measure requires; no other measure accepts it.
KNOBS = {"walk_count": "ell", "katz": "alpha", "pagerank": "beta"}

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 100_000

# Katz decay must keep alpha * lambda1 bounded away from 1.
ALPHA_MARGIN = 1e-9

# The node count from which a start solve pays before a power loop, read
# by _starts_from_solve and _start_solve's band (measured crossover on
# Erdős–Rényi, preferential-attachment and path graphs; see CHANGES.md).
LANCZOS_MIN_NODES = 256

# eigsh's default Lanczos basis size (ncv) for one eigenpair: the matvecs
# of ARPACK's first restart cycle.  A graph takes banded Cholesky factors
# (shift-invert, and the direct Katz and PageRank starts) where one costs
# at most that cycle, and shift-invert gets as many solves.
_ARPACK_NCV = 20

# Caps k * len(column_targets) for a block of k closeness/harmonic sources
# searched by one csgraph.shortest_path call, unless one source alone has
# more arcs.  A connected graph on n >= 2 nodes stores at least n arcs, so
# k * n <= max(2^18, n): the call's float64 k x n distances, their int64
# copy and the levels x k counts (levels <= n) hold at most 16 bytes per
# entry at once, 24 for harmonic's two float arrays of counts / L and
# their running sum.  Traced peaks were 2.1 MB (closeness) and 3.2 MB
# (harmonic) on paths of 1000 and 3000 nodes.  A bottom-up search takes W
# words of 64 sources with W * len(column_targets) within the cap (or W =
# 1), gathers W words per arc at each level, and holds levels x n integer
# counts, fewer than 128 levels.  Picked by measurement on paths and
# heavy-tailed graphs; see CHANGES.md.  bias_distribution sizes its
# ensemble windows by it from each candidate's expected nodes plus stored
# arcs: a window is sampled in rounds, then solved, its admitted members
# as one union.
BFS_BLOCK_ARCS = 1 << 18

EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CentralityParams:
    """Which measure to compute and with what knobs.

    ``KNOBS`` names the knob of each tunable measure: ``ell`` for walk
    counts, ``alpha`` for Katz, ``beta`` for PageRank; supplying a knob the
    measure does not use is rejected.
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
        for kind, knob in KNOBS.items():
            if (getattr(self, knob) is not None) != (self.kind == kind):
                raise ParameterError(f"{knob} is required for {kind} and "
                                     f"invalid for every other kind")
        if self.ell is not None:
            _require_int("ell", self.ell, 0)
        if self.alpha is not None and not (_is_real(self.alpha)
                                           and 0 <= self.alpha < np.inf):
            raise ParameterError(f"alpha must be a nonnegative finite "
                                 f"number, got {self.alpha!r}")
        if self.beta is not None and not (_is_real(self.beta)
                                          and 0.0 < self.beta < 1.0):
            raise ParameterError(f"beta must be a number strictly between "
                                 f"0 and 1, got {self.beta!r}")
        if not (_is_real(self.tol) and 0 < self.tol < np.inf):
            raise ParameterError(f"tol must be a positive finite number, "
                                 f"got {self.tol!r}")
        if self.kind == "katz" and not self.tol < 1:
            # Below 1 a converged Katz residual also certifies alpha.
            raise ParameterError(f"katz needs tol < 1, got {self.tol}")
        _require_int("max_iters", self.max_iters, 1)


@dataclass(frozen=True)
class CentralityVector:
    """A computed measure: one value per node plus solver diagnostics.

    ``method`` names the path that gave ``values``: ``"exact"`` for degree
    and walk counts; for the eigenvector, ``SpectralResult.method``; for
    Katz, ``"ones"`` when the all-ones vector passes, else the start of
    the certifying Jacobi tail, ``"band"`` or ``"cg"`` from
    :func:`_start_solve`, or ``"jacobi"`` (the all-ones vector's image)
    where no solve ran or took a step; for PageRank, ``"band"`` or
    ``"cg"`` when that start passes as it is, else ``"power"``; for
    closeness and harmonic, the search kernel, ``"bit-bfs"`` or
    ``"csgraph"`` (also for a lone node, which needs no search)."""

    values: np.ndarray
    params: CentralityParams
    iterations: int
    residual: float
    method: str

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class SpectralResult:
    """Dominant adjacency eigenpair with two certificates: the residual
    ``max|A v - lambda1 v|`` and the Collatz–Wielandt enclosure
    ``lo <= lambda1 <= hi`` of the returned vector.  ``method`` names the
    solver that produced it, ``"shift-invert"``, ``"lanczos"`` or
    ``"power"``."""

    lambda1: float
    vector: np.ndarray
    residual: float
    iterations: int
    enclosure: tuple[float, float]
    method: str

    def __post_init__(self):
        self.vector.setflags(write=False)


def _require_undirected_connected(graph: Graph, what: str) -> None:
    _require_undirected(graph, what)
    if not graph.connected:
        raise PreconditionError(f"{what} requires a connected graph")


def degree_centrality(graph: Graph) -> CentralityVector:
    """Degree of every node as float64."""
    _require_undirected_connected(graph, "degree centrality")
    return CentralityVector(values=graph.degree_seq.astype(np.float64),
                            params=CentralityParams(kind="degree"),
                            iterations=0, residual=0.0, method="exact")


def walk_count(graph: Graph, ell: int) -> CentralityVector:
    """Walks of length ``ell`` from each node: ``A^ell @ 1`` by repeated
    sparse matvec, kept exact in float64 and guarded against overflow."""
    params = CentralityParams(kind="walk_count", ell=ell)
    _require_undirected_connected(graph, "walk-count centrality")
    return CentralityVector(values=_walks(graph, ell), params=params,
                            iterations=ell, residual=0.0, method="exact")


def _walks(graph: Graph, ell: int) -> np.ndarray:
    """``A^ell @ 1``; on a disjoint union, each graph's walk counts."""
    values = np.ones(graph.node_count)
    for _ in range(ell):
        values = adjacency_matvec(graph, values)
        # Partial sums of nonnegative integers stay exact up to 2**53.
        if values.max() > MAX_EXACT_COUNT:
            raise RangeError(f"walk counts for ell={ell} exceed 2**53 "
                             f"and would lose exactness")
    return values


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


class _BudgetSpent(Exception):
    """The Lanczos solve asked for its ``max_iters``-th matvec."""


class _Stalled(Exception):
    """Shift-invert iteration cycled, left the residual no smaller than
    the step before, or spent ``_ARPACK_NCV`` solves short of ``tol``."""


def _banded(graph: Graph) -> tuple[np.ndarray, np.ndarray] | None:
    """The lower band of ``A`` in reverse Cuthill–McKee order, in LAPACK's
    lower banded storage (``band[k, p]`` is the entry at positions ``(p +
    k, p)``), and each node's position in that order, when a banded
    Cholesky factor of a matrix with ``A``'s pattern costs at most ARPACK's
    first restart cycle; else ``None``.

    A band of width ``b`` factors in about ``n b^2`` operations.  The
    restart cycle takes ``_ARPACK_NCV`` matvecs of ``nnz(A)`` each.  A
    node with ``k`` distinct neighbours forces ``b >= ceil(k / 2)`` in any
    order, so a graph that this bound already rules out skips the
    ordering.  Row 0 of the band, the diagonal, is zero.
    """
    n, arcs = graph.node_count, len(graph.column_targets)
    budget = _ARPACK_NCV * arcs
    lengths = np.diff(graph.row_offsets)
    narrowest = -(-int(lengths.max()) // 2)
    if n * narrowest * narrowest > budget:
        return None
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    order = reverse_cuthill_mckee(graph._pattern, symmetric_mode=True)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    rows = np.repeat(position, lengths)
    offsets = rows - position[graph.column_targets]
    width = int(np.abs(offsets).max())
    if n * width * width > budget:
        return None
    lower = offsets > 0
    band = np.zeros((width + 1, n))
    band[offsets[lower], rows[lower] - offsets[lower]] = \
        graph.multiplicities[lower]
    return band, position


def _band_solver(banded: tuple[np.ndarray, np.ndarray] | None, diagonal,
                 scale: float):
    """The solve of ``diag(diagonal) - scale A`` in node order, for a
    scalar or per-node ``diagonal``, from one LAPACK banded Cholesky
    factor of the band ``_banded`` gave (``dpbtrf``, then ``dpbtrs`` per
    right-hand side); ``None`` when that is ``None`` or ``dpbtrf`` finds
    the matrix not positive definite (``info > 0``)."""
    if banded is None:
        return None
    # Called directly: scipy's cholesky_banded and cho_solve_banded look
    # the routine up and validate their input on every call.
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    band, position = banded

    def in_band_order(x):
        permuted = np.empty(len(position))
        permuted[position] = x
        return permuted

    matrix = -scale * band
    matrix[0] = in_band_order(diagonal)
    factor, info = dpbtrf(matrix, lower=1)
    if info > 0:
        return None
    return lambda rhs: dpbtrs(factor, in_band_order(rhs), lower=1)[0][position]


def _shift_invert(graph: Graph, banded: tuple[np.ndarray, np.ndarray],
                  params: CentralityParams,
                  ) -> tuple[np.ndarray | None, int]:
    """Perron vector proposed by inverse iteration with ``(sigma I -
    A)^-1`` from the uniform vector, positive and L1-normalised, and the
    solves it spent, run by :func:`_iterate_blocks`.

    ``sigma`` is the Collatz–Wielandt upper bound of the iterate about to
    be solved, rounded outward (:func:`_enclosure`), where that is below
    the last ``sigma``: first the maximum degree, then, by the paper's
    variational bound, a value still above ``lambda1``.  It is infinite
    for an iterate with an entry that is not positive, which keeps the
    last ``sigma``.  So ``(sigma I - A)^-1 = sum_k A^k / sigma^(k+1)`` is
    entrywise positive: the iterates stay positive, and the Perron vector
    dominates them.  Each ``sigma I - A`` is positive definite and is
    factored from the ``_banded`` band of ``A`` by LAPACK's banded
    Cholesky (:func:`_band_solver`); a factor LAPACK rejects for a
    refined shift leaves the last one in use.

    The steps stop on the test ARPACK applies for :func:`_lanczos`,
    ``|A y - theta y|_2 <= (tol / d_max) theta`` for ``y = v / |v|_2``
    and the Rayleigh estimate ``theta``, taken as the residual ``d_max
    |A v - theta v|_2 / (theta |v|_2) <= tol``; a ``ConvergenceError``
    raised during the solves carries it.  It bounds the certificate's
    ``max|A v - theta v|``, as ``theta <= d_max`` and ``|v|_2 <= 1``.
    Unlike the certificate, it does not shrink as the entries of an
    L1-normalised vector do on a long path: on ``P_1000`` the certificate
    alone stops 3 solves in, 1.3e-9 from the Perron vector, and this test
    4 solves in, 9.9e-16 from it.

    A step contracts by ``(sigma - lambda1) / (sigma - lambda2)``, which
    the refined shifts drive towards 0.  A fixed ``sigma = 3`` is as slow
    as power iteration on a path with a pendant node next to each end
    (``lambda1 = 2``); refined, it takes 6 solves.  The solves get the
    ``_ARPACK_NCV`` steps of the restart cycle that ``_banded`` prices a
    factor against.  The vector is ``None`` when LAPACK rejects the first
    factor, when the residual stops shrinking or those solves are spent
    short of ``tol``, or when it is not positive after rounding.
    """
    n = graph.node_count
    d_max = float(graph.degree_seq.max())
    # A 1 = d exactly, so this is the enclosure of the uniform vector.
    sigma = _enclosure(graph, np.ones(n), graph._float_degrees)[1]
    solve = _band_solver(banded, sigma, 1.0)
    if solve is None:
        return None, 0
    least, solves = np.inf, 0

    def shift_invert_step(vec, starts):
        nonlocal least, solves, sigma, solve
        image = adjacency_matvec(graph, vec)
        theta = (vec @ image) / (vec @ vec)
        residual = (d_max * np.linalg.norm(image - theta * vec)
                    / (theta * np.linalg.norm(vec)))
        if residual <= params.tol:
            return np.array([residual]), vec
        if not residual < least or solves == _ARPACK_NCV:
            raise _Stalled
        least, solves = residual, solves + 1
        shift = _enclosure(graph, vec, image)[1]
        if shift < sigma:
            refined = _band_solver(banded, shift, 1.0)
            if refined is not None:
                sigma, solve = shift, refined
        solved = solve(vec)
        return np.array([residual]), solved / solved.sum()

    def stalled(anchor, period):
        raise _Stalled

    try:
        vec, _, _ = _iterate_blocks([n], None, shift_invert_step, params,
                                    "eigenvector", 0, stalled)
    except _Stalled:
        return None, solves
    return (vec if (vec > 0).all() else None), solves


def _lanczos(graph: Graph, params: CentralityParams, spent: int = 0,
             ) -> tuple[np.ndarray | None, int]:
    """Perron vector proposed by ARPACK's implicitly restarted Lanczos, the
    absolute values of its Ritz vector L1-normalised, and the matvecs
    spent, counted on from ``spent``.  The vector is ``None`` when ARPACK
    fails, the matvec budget runs out or the Ritz vector has a zero entry.
    The count stays below ``max_iters``.

    ARPACK stops once its Ritz pair ``(theta, y)``, ``y`` a unit vector,
    has ``|A y - theta y|_2 <= tol_a theta``.  It is asked for ``tol_a =
    tol / d_max``, ``d_max`` the weighted maximum degree, which is what
    the power loop's step 0 needs.  First, ``theta <= lambda1 <= d_max``.
    Second, the Rayleigh estimate ``lambda`` of ``v = y / sum(y)``
    minimises the 2-norm residual of ``v``.  Third, a positive unit ``y``
    has ``sum(y) >= 1``.  So ``max|A v - lambda v| <= |A y - theta y|_2 /
    sum(y) <= tol``, up to rounding.  A ``tol_a`` below machine epsilon
    is passed as 0, ARPACK's machine precision.  Step 0 still decides,
    and polishes a vector that misses."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
    n = graph.node_count
    arpack_tol = params.tol / float(graph.degree_seq.max())
    calls = spent

    def matvec(x):
        nonlocal calls
        if calls + 1 == params.max_iters:
            raise _BudgetSpent
        calls += 1
        return adjacency_matvec(graph, x)

    operator = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    try:
        # A fixed start vector keeps the result byte-reproducible.
        # rng=0 seeds ARPACK's restart where v0 spans an invariant subspace.
        vec = eigsh(operator, k=1, which="LA", v0=np.ones(n),
                    tol=arpack_tol if arpack_tol >= EPS else 0,
                    rng=0)[1][:, 0]
    except (ArpackError, _BudgetSpent):
        return None, calls
    # The Perron vector is positive, so entries of the wrong sign are
    # rounding in a tail far below the largest; step 0 judges the result.
    if not vec.all():
        return None, calls
    vec = np.abs(vec)
    return vec / vec.sum(), calls


def _iterate_blocks(sizes: Sequence[int], start: np.ndarray | None, step,
                    params: CentralityParams, what: str, spent: int = 0,
                    jump=None):
    """The one fixed-point loop of the eigenvector, Katz and PageRank
    solvers for each graph of a disjoint union, block ``b`` holding the
    next ``sizes[b]`` nodes.  Each block starts from the uniform vector,
    or all of them from the stacked vector ``start`` when given.

    ``step(vec, starts)`` returns each block's residual of ``vec`` and the
    next iterate, reducing per block by ``reduceat`` over the block
    ``starts``.  A segment reads only its own slice, so each block takes
    the steps it would alone, byte for byte.  A block freezes at the step
    its residual is at most ``tol``: its entries keep their values, so its
    residual recurs.  It stalls, and freezes too, where its image repeats
    its slice of the anchor, the image taken each time the steps since the
    last one reach a power of two (Brent 1980): it cycles from there, so
    every residual it would give has been checked.  A single block may go
    on from ``jump(anchor, period)`` instead, and the search restarts.
    Steps count on from ``spent`` and are checked only while the count is
    below ``max_iters``.  The first block stalled or still running raises
    once every block before it has passed.  Returns the stacked vector,
    and per block the residuals and iterations.
    """
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    # Updated in place, so that a frozen block keeps its vector.
    vec = np.repeat(1.0 / sizes, sizes) if start is None else start.copy()
    iterations = np.full(len(sizes), params.max_iters)
    periods = np.zeros(len(sizes), dtype=np.int64)
    running = np.ones(len(sizes), dtype=bool)
    moving = True
    anchor, since, horizon = vec.copy(), 0, 1
    for iteration in range(spent, params.max_iters):
        residuals, image = step(vec, starts)
        passed = running & (residuals <= params.tol)
        since += 1
        repeated = running & np.logical_and.reduceat(image == anchor, starts)
        if jump is not None and repeated.any() and not passed.any():
            image = anchor = jump(anchor, since)
            since, horizon = 0, 1
        elif passed.any() or repeated.any():
            periods[repeated & ~passed] = since
            iterations[passed | repeated] = iteration
            running &= ~(passed | repeated)
            unresolved = running | (periods > 0)
            if not unresolved.any():
                return vec, residuals, iterations.tolist()
            if periods[unresolved.argmax()]:
                break
            moving = running.repeat(sizes)
        if since == horizon:
            anchor, since, horizon = image, 0, 2 * horizon
        np.copyto(vec, image, where=moving)
    first = np.argmax(running | (periods > 0))
    noun = "step" if params.max_iters == 1 else "steps"
    cause = (f": its iterates repeat with period {periods[first]}"
             if periods[first] else f" in {params.max_iters} {noun}")
    raise ConvergenceError(
        f"{what} iteration did not reach {params.tol}{cause}",
        residual=float(residuals[first]), iterations=int(iterations[first]))


def _power_blocks(union: Graph, sizes: Sequence[int],
                  params: CentralityParams, spent: int = 0,
                  start: np.ndarray | None = None):
    """Power iteration on ``A + I`` for each graph of a disjoint union,
    run by :func:`_iterate_blocks`; a ``start`` is positive with each
    block L1-normalised.

    This loop is the only eigenvector certificate: step 0 checks the start
    itself, so a ``start`` that passes is returned unchanged, and one that
    fails is polished by the steps after it.  A step takes each block's
    Rayleigh estimate and residual ``max|A v - lambda v|``, and normalises
    ``A v + v``.  Returns the stacked vector and image, and per block the
    estimate, residual and iterations.
    """
    sizes = np.asarray(sizes)
    image = estimates = None

    def power_step(vec, starts):
        nonlocal image, estimates
        image = adjacency_matvec(union, vec)
        estimates = (np.add.reduceat(vec * image, starts)
                     / np.add.reduceat(vec * vec, starts))
        residuals = np.maximum.reduceat(
            np.abs(image - estimates.repeat(sizes) * vec), starts)
        shifted = image + vec
        return residuals, shifted / np.add.reduceat(
            shifted, starts).repeat(sizes)

    vec, residuals, iterations = _iterate_blocks(
        sizes, start, power_step, params, "eigenvector", spent)
    return vec, image, estimates, residuals, iterations


def eigenvector_centrality(graph: Graph, tol: float = DEFAULT_TOL,
                           max_iters: int = DEFAULT_MAX_ITERS,
                           ) -> tuple[SpectralResult, CentralityVector]:
    """Dominant eigenpair of the adjacency matrix.

    Where :func:`_starts_from_solve` allows, shift-invert iteration on
    banded graphs such as long paths (``_shift_invert``), else Lanczos
    (``_lanczos``), proposes a start in far fewer steps than power
    iteration takes when the spectral gap is small; other graphs start
    from the uniform vector.  Power iteration on ``A + I``, whose
    dominant eigenvalue is strict on bipartite graphs too, certifies the
    start at its step 0: the result must pass ``max|A r - lambda r| <=
    tol`` with the Rayleigh-quotient eigenvalue estimate, and a start that
    fails is polished by the steps after it.  ``method`` is
    ``"shift-invert"`` or ``"lanczos"`` when that solver's vector passes
    as it is, and ``"power"`` otherwise, on both results.  The vector is
    positive and L1-normalised.  All solvers draw on one budget:
    ``iterations`` counts the shift-invert solves, the Lanczos matvecs and
    the power steps, below ``max_iters``; each gets what the others left.
    """
    params = CentralityParams(kind="eigenvector", tol=tol, max_iters=max_iters)
    _require_undirected_connected(graph, "eigenvector centrality")
    start, spent = None, 0
    if _starts_from_solve(graph, params):
        banded = _banded(graph)
        if banded is not None:
            start, spent = _shift_invert(graph, banded, params)
            method = "shift-invert"
        if start is None:
            start, spent = _lanczos(graph, params, spent)
            method = "lanczos"
    vec, image, estimates, residuals, iterations = _power_blocks(
        graph, [graph.node_count], params, spent, start)
    residual = float(residuals[0])
    if start is None or iterations[0] != spent:
        method = "power"
    spectral = SpectralResult(
        lambda1=float(estimates[0]), vector=vec, residual=residual,
        iterations=iterations[0], enclosure=_enclosure(graph, vec, image),
        method=method)
    return spectral, CentralityVector(values=vec, params=params,
                                      iterations=iterations[0],
                                      residual=residual, method=method)


# The share of max(s, max x) at which _start_solve's conjugate gradients stop.
_CG_HANDOFF = 1e-13


def _katz_step(graph: Graph, alpha: float, vec: np.ndarray) -> np.ndarray:
    """``alpha A vec``, after its Rayleigh bound
    ``alpha vec.A vec / vec.vec <= alpha * lambda1`` (A is symmetric) has
    been checked against ``1 - ALPHA_MARGIN``."""
    # An alpha near the float limit overflows to inf here, and the bound
    # then rejects it.
    with np.errstate(over="ignore"):
        step = alpha * adjacency_matvec(graph, vec)
    bound = (vec @ step) / (vec @ vec)
    if bound >= 1.0 - ALPHA_MARGIN:
        raise ParameterError(f"alpha={alpha} too large: alpha * lambda1 "
                             f"must stay below 1 but is >= {bound:.12g}")
    return step


def _start_solve(graph: Graph, diagonal, scale: float, rhs: np.ndarray,
                 scaled, band: bool, tol: float, cap: int, r=None,
                 ) -> tuple[np.ndarray | None, int, str]:
    """The Katz and PageRank start: ``x`` with ``(diag(diagonal) - scale
    A) x = rhs``, symmetric positive definite, the solves or matvecs
    spent, and the solver that ran, ``"band"`` or ``"cg"``; ``x`` is
    ``None`` when no step was allowed.

    Where ``band`` allows and ``_banded`` accepts, graphs of at least
    ``LANCZOS_MIN_NODES`` nodes take one banded Cholesky solve
    (:func:`_band_solver`).  Otherwise, or when LAPACK rejects the factor,
    Jacobi-preconditioned conjugate gradients (Hestenes & Stiefel, 1952)
    run from ``x = rhs / diagonal``, whose residual ``scaled(x)`` is ``r``
    or else the first of at most ``cap`` matvecs, until the recursive
    residual is at most ``max(tol s, _CG_HANDOFF max(s, max x))``, ``s =
    max|rhs|``.  ``scaled(p)``, ``scale A p``, may reject a direction by
    raising; the curvature ``p.(diagonal p) - p.(scale A p)`` is positive.
    """
    solve = _band_solver(
        _banded(graph) if band and graph.node_count >= LANCZOS_MIN_NODES
        else None, diagonal, scale)
    if solve is not None:
        return solve(rhs), 1, "band"
    if cap <= 0:
        return None, 0, "cg"
    x = rhs / diagonal
    r, spent = (scaled(x), 1) if r is None else (r, 0)
    z = r / diagonal
    p, rz, s = z, r @ z, np.abs(rhs).max()
    while (spent < cap and np.abs(r).max()
           > max(tol * s, _CG_HANDOFF * max(s, x.max()))):
        ap = scaled(p)
        spent += 1
        dp = diagonal * p
        step = rz / (p @ dp - p @ ap)
        x = x + step * p
        r = r - step * (dp - ap)
        z = r / diagonal
        rz, previous = r @ z, rz
        p = z + (rz / previous) * p
    return x, spent, "cg"


def katz_centrality(graph: Graph, alpha: float, tol: float = DEFAULT_TOL,
                    max_iters: int = DEFAULT_MAX_ITERS) -> CentralityVector:
    """Katz vector ``r = 1 + alpha A r``: a direct or conjugate-gradient
    solve of ``(I - alpha A) r = 1``, then a Jacobi tail that certifies
    the result.

    The all-ones vector is tried first and returned with
    ``iterations == 0`` when it passes.  Otherwise the start that PageRank
    shares, :func:`_start_solve`, solves ``(I - alpha A) r = 1`` by a
    banded Cholesky factor or by conjugate gradients from the all-ones
    vector, for at most ``n`` matvecs.  The Jacobi iteration ``r <- 1 +
    alpha A r`` then starts from that iterate, raised entrywise to at
    least 1, and returns the first iterate whose defect ``max|1 + alpha A
    r - r|`` is at most ``tol``, with that defect as its residual.  Every
    entry of the result is at least 1.

    Rounding can trap the tail in a cycle short of ``tol``, as on
    bipartite graphs with ``alpha * lambda1`` near 1; the loop finds it,
    and the tail goes on from its entrywise maximum.  The rounded Jacobi
    map is monotone, so that maximum is below its own image, and the
    iterates from it increase until they pass, as from the all-ones vector.

    ``alpha`` is certified on the way.  Every iterate and every conjugate
    direction ``x`` gives the Rayleigh bound
    ``alpha x.Ax / x.x <= alpha * lambda1``, which rejects an ``alpha``
    whose bound reaches ``1 - ALPHA_MARGIN``.  Conversely, from a start
    ``>= 0``, ``alpha * lambda1 >= 1`` keeps the defect at or above 1, so
    a residual ``<= tol < 1`` proves ``alpha * lambda1 < 1``.  This holds
    whichever solve gave the start, and whether LAPACK factored ``I -
    alpha A`` or not.

    ``iterations`` counts the steps spent before the one that certified
    the returned vector: the matvec on the all-ones vector, the banded
    solve or the matvecs of conjugate gradients, and the Jacobi steps.
    All draw on one budget; a result takes fewer than ``max_iters``.
    """
    params = CentralityParams(kind="katz", alpha=alpha, tol=tol,
                              max_iters=max_iters)
    _require_undirected_connected(graph, "Katz centrality")
    ones = np.ones(graph.node_count)
    step = _katz_step(graph, alpha, ones)
    image = ones + step
    residual = np.abs(image - ones).max()
    if residual <= tol:
        return CentralityVector(values=ones, params=params, iterations=0,
                                residual=float(residual), method="ones")
    # step is the conjugate-gradient residual of the all-ones start.  The
    # tail keeps at least one step of the budget.
    cap = min(graph.node_count, max_iters - 2)
    start, spent, method = _start_solve(
        graph, 1.0, alpha, ones, lambda p: _katz_step(graph, alpha, p),
        cap > 0, tol, cap, step)
    # The solution is at least 1 everywhere, so raising the iterate to 1
    # only moves it closer, and the admissibility proof needs a start
    # >= 0.
    vec, method = ((np.maximum(start, 1.0), method) if spent
                   else (image, "jacobi"))
    # A one-step budget has no tail step: re-check the all-ones vector.
    vec, spent = (vec, 1 + spent) if max_iters > 1 else (ones, 0)

    def jacobi_step(vec, starts):
        image = ones + _katz_step(graph, alpha, vec)
        # max|image - vec| is the self-consistency defect of vec itself,
        # the iterate the loop returns.
        return np.abs(image - vec).max(keepdims=True), image

    def cycle_max(anchor, period):
        peak = vec = anchor
        for _ in range(period - 1):
            vec = jacobi_step(vec, None)[1]
            peak = np.maximum(peak, vec)
        return peak

    vec, residuals, iterations = _iterate_blocks(
        [graph.node_count], vec, jacobi_step, params, "Katz", spent, cycle_max)
    return CentralityVector(values=vec, params=params,
                            iterations=iterations[0],
                            residual=float(residuals[0]), method=method)


def pagerank_centrality(graph: Graph, beta: float, tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> CentralityVector:
    """PageRank with teleport weight ``beta``: the fixed point of
    ``r = (1-beta) C^T r + beta/n`` where ``C`` is the out-degree-normalised
    transition matrix.

    Undirected graphs are treated as bidirected.  The graph must be
    (strongly) connected and every node must have an out-neighbour, so no
    dangling correction is needed; connectivity gives the second
    condition on two or more nodes, and a lone node fails it.  Stops when
    the L1 fixed-point residual of the returned vector is at most ``tol``;
    the result sums to 1.

    The power loop, which may contract by only ``1 - beta`` per step, as
    on a path, runs from the uniform vector or, where
    :func:`_starts_from_solve` allows, from ``r = D z``, L1-normalised
    (``A D^-1 r = A z``): :func:`_start_solve` solves the symmetric,
    strictly diagonally dominant ``(D - (1-beta) A) z = (beta/n) 1`` by a
    banded Cholesky factor or, unless :func:`_power_suffices`, by
    conjugate gradients from the ``z`` whose ``D z`` is uniform.  Step 0
    certifies the start, later steps polish one that fails, and
    ``iterations``, below ``max_iters``, counts the solve or matvecs too.
    """
    params = CentralityParams(kind="pagerank", beta=beta, tol=tol,
                              max_iters=max_iters)
    if not graph.connected:
        kind = "strongly connected directed" if graph.directed else "connected"
        raise PreconditionError(f"pagerank requires a {kind} graph")
    degrees = _require_positive_degrees(graph)
    n, start, spent = graph.node_count, None, 0
    if _starts_from_solve(graph, params):
        z, spent, method = _start_solve(
            graph, degrees, 1.0 - beta, np.full(n, beta / n),
            lambda p: (1.0 - beta) * adjacency_matvec(graph, p), True, tol,
            0 if _power_suffices(params) else min(n, max_iters - 1))
        if spent:
            start = degrees * z
            start /= start.sum()
    vec, residuals, iterations = _pagerank_blocks(graph, [n], params, spent,
                                                  start)
    if start is None or iterations[0] != spent:
        method = "power"
    return CentralityVector(values=vec, params=params,
                            iterations=iterations[0],
                            residual=float(residuals[0]), method=method)


def _pagerank_blocks(union: Graph, sizes: Sequence[int],
                     params: CentralityParams, spent: int = 0,
                     start: np.ndarray | None = None):
    """PageRank iteration for each graph of a disjoint union, run by
    :func:`_iterate_blocks` from the uniform vector or from ``start``,
    each block of which sums to 1.  A step adds each block's teleport
    share to the walk step, takes the L1 residual and normalises the
    image.  Every degree must be positive.  Returns the stacked vector,
    and per block the residual and iterations.
    """
    degrees = union._float_degrees
    sizes = np.asarray(sizes)
    teleports = params.beta / sizes

    def pagerank_step(vec, starts):
        walk = _transpose_matvec(union, vec / degrees)
        image = (1.0 - params.beta) * walk
        image += (teleports * np.add.reduceat(vec, starts)).repeat(sizes)
        residuals = np.add.reduceat(np.abs(image - vec), starts)
        return residuals, image / np.add.reduceat(image, starts).repeat(sizes)

    return _iterate_blocks(sizes, start, pagerank_step, params, "pagerank",
                           spent)


def _reach_counts(graph: Graph, start: int, stop: int) -> np.ndarray:
    """Reach counts of sources ``start..stop-1`` as a ``levels x k`` array:
    entry ``(L-1, s)`` is how many nodes lie at distance ``L`` from source
    ``start + s``.

    One ``csgraph.shortest_path`` call searches the whole block and
    returns its ``k x n`` float64 distances.  One ``bincount`` of their
    int64 copy plus ``s * levels`` counts each source's row, and the
    column for distance 0, the source itself, is dropped.  Its memory
    bound is stated at ``BFS_BLOCK_ARCS``.
    """
    from scipy.sparse.csgraph import shortest_path
    dist = shortest_path(graph._pattern, indices=np.arange(start, stop),
                         unweighted=True).astype(np.int64)
    k, levels = stop - start, int(dist.max()) + 1
    dist += np.arange(0, k * levels, levels)[:, None]
    counts = np.bincount(dist.ravel(), minlength=k * levels)
    return counts.reshape(k, levels).T[1:]


def _bit_reach_counts(graph: Graph, start: int, stop: int):
    """Reach counts over sources ``start..stop-1`` of a connected graph,
    one row per level ``L = 1, 2, ...``: entry ``x`` is how many of those
    sources lie at distance ``L`` from node ``x``.

    One bottom-up search serves the whole block, with one bit per source
    in ``ceil(k / 64)`` uint64 words per node (Then et al., VLDB 2014): a
    node's next frontier word is the OR of its neighbours' frontier words,
    less the sources that reached it already.  A level's row sums
    ``np.bitwise_count`` over each node's new frontier words.  The graph is
    undirected, so that count is also how many nodes of the block lie at
    distance ``L`` from ``x``, and rows summed over blocks are ``x``'s own
    reach counts.
    """
    n = graph.node_count
    offsets, targets = graph.row_offsets, graph.column_targets
    k = stop - start
    sources = np.arange(k)
    # Source s is bit s % 8 of byte s // 8 in row start + s.
    frontier = np.zeros((n, -(-k // 64)), dtype=np.uint64)
    frontier.view(np.uint8)[start + sources, sources // 8] = 1 << sources % 8
    unseen = ~frontier
    while True:
        frontier = np.bitwise_or.reduceat(frontier[targets], offsets[:-1],
                                          axis=0)
        frontier &= unseen
        if not frontier.any():
            return
        unseen ^= frontier
        yield np.bitwise_count(frontier).sum(axis=1, dtype=np.int64)


def _few_levels(graph: Graph) -> bool:
    """Whether the searches from every source of a connected graph with
    two or more nodes end in fewer levels than a word has bits, bounded
    by the eccentricity of node 0.

    A bottom-up level of :func:`_bit_reach_counts` reads every arc once
    per word of 64 sources; the csgraph search of :func:`_reach_counts`
    reads every arc once per source over all its levels.  So the bit
    kernel does less work while it runs fewer than 64 levels, as on
    small-world graphs, and csgraph on long paths and strips.  Every
    distance is at most twice that eccentricity, so the bit side counts
    fewer than 128 levels.  The memory bound of both sides is stated at
    ``BFS_BLOCK_ARCS``.
    """
    from scipy.sparse.csgraph import shortest_path
    return shortest_path(graph._pattern, indices=0,
                         unweighted=True).max() < 64


def _from_reach_counts(counts: np.ndarray, kind: str, n: int) -> np.ndarray:
    """Closeness or harmonic from ``levels x k`` reach counts, row ``L-1``
    holding distance ``L``: ``(n-1) / sum_L L c_L`` in exact int64, or the
    sum ``c_1/1 + c_2/2 + ...``, added row by row in increasing ``L``."""
    hops = np.arange(1, len(counts) + 1)
    if kind == "closeness":
        return (n - 1) / (hops @ counts)
    return np.add.accumulate(counts / hops[:, None])[-1]


def closeness_harmonic(graph: Graph, kind: str) -> CentralityVector:
    """Closeness ``(n-1)/sum_j dist(i,j)`` or harmonic ``sum_j 1/dist(i,j)``
    centrality from breadth-first reach counts: how many nodes lie at each
    distance from each node.  No distance block is formed.

    Graphs where :func:`_few_levels` holds take bottom-up searches of
    ``W`` words of 64 sources, ``W = max(1, BFS_BLOCK_ARCS //
    len(column_targets))`` (:func:`_bit_reach_counts`), and sum their
    integer counts over all blocks.  The others take one
    ``csgraph.shortest_path`` call per block of ``k`` sources, ``k``
    chosen the same way (:func:`_reach_counts`), which counts each
    source's reach in full.  Both give the same counts, and
    :func:`_from_reach_counts` reduces them, so neither measure depends
    on the kernel or the block size.  The memory bound of both sides is
    stated at ``BFS_BLOCK_ARCS``.
    """
    if kind not in ("closeness", "harmonic"):
        raise ParameterError(
            f"kind must be 'closeness' or 'harmonic', got {kind!r}")
    params = CentralityParams(kind=kind)
    _require_undirected_connected(graph, f"{kind} centrality")
    n = graph.node_count
    values = np.zeros(n)
    # Sources per csgraph search, or words of 64 sources per bottom-up one.
    block = max(1, BFS_BLOCK_ARCS // max(len(graph.column_targets), 1))
    if n > 1 and _few_levels(graph):
        method, counts = "bit-bfs", []
        for start in range(0, n, 64 * block):
            rows = _bit_reach_counts(graph, start, min(start + 64 * block, n))
            counts = [total + row for total, row
                      in zip_longest(counts, rows, fillvalue=0)]
        values = _from_reach_counts(np.array(counts), kind, n)
    else:
        method = "csgraph"
        # A lone node reaches no other node and keeps 0.
        for start in range(0, n if n > 1 else 0, block):
            stop = min(start + block, n)
            values[start:stop] = _from_reach_counts(
                _reach_counts(graph, start, stop), kind, n)
    return CentralityVector(values=values, params=params,
                            iterations=0, residual=0.0, method=method)


def solve_lambda1(graph: Graph, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SpectralResult:
    """Dominant adjacency eigenvalue (convenience wrapper)."""
    spectral, _ = eigenvector_centrality(graph, tol=tol, max_iters=max_iters)
    return spectral


def _power_suffices(params: CentralityParams) -> bool:
    """Whether PageRank's power loop surely finishes within ``max_iters``
    in exact arithmetic: each step contracts the L1 residual, at most 2,
    by ``1 - beta``.  Rounded, it may stall in a cycle short of ``tol``."""
    return 2.0 * (1.0 - params.beta) ** params.max_iters <= params.tol


def _starts_from_solve(graph: Graph, params: CentralityParams) -> bool:
    """The one start rule of the eigenvector and PageRank power loops:
    whether a solve may give the start in place of the uniform vector.
    Never on directed graphs (no symmetric solve) nor on regular ones (the
    uniform vector is exact); else from ``LANCZOS_MIN_NODES`` nodes on,
    and for PageRank also wherever :func:`_power_suffices` fails, given a
    budget of a second step to certify the start."""
    pagerank = params.kind == "pagerank"
    return (not graph.directed and (params.max_iters > 1 or not pagerank)
            and (graph.node_count >= LANCZOS_MIN_NODES
                 or pagerank and not _power_suffices(params))
            and not graph.regular)


def _in_blocks(params: CentralityParams, graph: Graph) -> bool:
    """Whether :func:`_block_values` solves a connected undirected graph as
    :func:`compute` does: degree, walk counts, and eigenvector and PageRank
    where :func:`_starts_from_solve` refuses a start."""
    if params.kind in ("eigenvector", "pagerank"):
        return not _starts_from_solve(graph, params)
    return params.kind in ("degree", "walk_count")


def _block_values(union: Graph, sizes: Sequence[int],
                  params: CentralityParams) -> np.ndarray:
    """The measure of each graph of a disjoint union, block ``b`` holding
    the next ``sizes[b]`` nodes, stacked: for graphs that
    :func:`_in_blocks` admits, the bytes :func:`compute` gives on each
    alone, and the error of the first that fails."""
    if params.kind == "degree":
        return union.degree_seq.astype(np.float64)
    if params.kind == "walk_count":
        return _walks(union, params.ell)
    if params.kind == "eigenvector":
        return _power_blocks(union, sizes, params)[0]
    return _pagerank_blocks(union, sizes, params)[0]


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
