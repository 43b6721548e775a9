from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csgraph
from scipy.sparse import linalg as splinalg
from scipy.sparse.linalg import ArpackNoConvergence

from paradoxlab import (CentralityParams, ConvergenceError, InputError,
                        ParameterError, PreconditionError, RangeError,
                        UsageError, build_directed, build_undirected,
                        closeness_harmonic, compute, degree_centrality,
                        dense_from_graph, dense_perron, dense_solve,
                        eigenvector_centrality, enumerate_walks,
                        katz_centrality, pagerank_centrality, perron_bounds,
                        solve_lambda1, walk_count)
from paradoxlab import (RandomGraphSpec, adjacency_matvec, centrality,
                        dense_hop_distances, generate)
from paradoxlab.graph import disjoint_union, extract_lcc
from paradoxlab.rng import SplitMix64
from conftest import (complete, cycle, edge_pairs, grid, hop_distances,
                      path, star)


def random_connected(rng, max_nodes=10):
    n = 2 + rng.below(max_nodes - 1)
    edges = [(rng.below(i), i) for i in range(1, n)]
    for _ in range(rng.below(2 * n)):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.append((u, v))
    return build_undirected(n, edges)


def test_params_validation():
    with pytest.raises(ParameterError):
        CentralityParams(kind="betweenness")
    with pytest.raises(ParameterError):
        CentralityParams(kind="walk_count")             # ell missing
    with pytest.raises(ParameterError):
        CentralityParams(kind="degree", ell=2)          # ell not used
    with pytest.raises(ParameterError):
        CentralityParams(kind="katz")                   # alpha missing
    with pytest.raises(ParameterError):
        CentralityParams(kind="katz", alpha=-0.1)
    with pytest.raises(ParameterError):
        CentralityParams(kind="pagerank", beta=1.0)
    with pytest.raises(ParameterError):
        CentralityParams(kind="pagerank", beta=0.0)
    with pytest.raises(ParameterError):
        CentralityParams(kind="degree", tol=0.0)
    with pytest.raises(ParameterError):
        CentralityParams(kind="degree", max_iters=0)
    with pytest.raises(ParameterError):
        CentralityParams(kind="walk_count", ell=-1)
    # Integer knobs take Python and numpy integers, never floats or bools.
    for knobs in ({"ell": 2.5}, {"ell": 2.0}, {"ell": True}, {"ell": "3"},
                  {"ell": 2, "max_iters": 2.5}, {"ell": 2, "max_iters": True},
                  {"ell": 2, "max_iters": 10.0}):
        with pytest.raises(ParameterError):
            CentralityParams(kind="walk_count", **knobs)
    assert CentralityParams(kind="walk_count", ell=np.int64(2),
                            max_iters=np.int32(10)).ell == 2
    with pytest.raises(ParameterError):
        walk_count(path(3), 2.0)
    with pytest.raises(ParameterError, match="max_iters"):
        eigenvector_centrality(path(3), max_iters=2.5)


def test_degree_centrality(p6):
    assert degree_centrality(p6).values.tolist() == [1, 2, 2, 2, 2, 1]
    assert degree_centrality(star(5)).values.tolist() == [4, 1, 1, 1, 1]
    with pytest.raises(PreconditionError):
        degree_centrality(build_undirected(3, [(0, 1)]))
    with pytest.raises(UsageError):
        degree_centrality(build_directed(2, [(0, 1)]))


def test_walk_count_small_values():
    p4 = path(4)
    assert walk_count(p4, 0).values.tolist() == [1, 1, 1, 1]
    assert walk_count(p4, 1).values.tolist() == [1, 2, 2, 1]
    assert walk_count(p4, 2).values.tolist() == [2, 3, 3, 2]
    assert walk_count(cycle(3), 3).values.tolist() == [8, 8, 8]


def test_walk_count_matches_enumeration_exactly():
    rng = SplitMix64(31337)
    for _ in range(30):
        g = random_connected(rng)
        for ell in range(5):
            assert walk_count(g, ell).values.tolist() == \
                enumerate_walks(g, ell).tolist()


def test_walk_count_overflow_guard():
    with pytest.raises(RangeError):
        walk_count(complete(50), 10)


def test_eigenvector_path_closed_form(p6):
    spectral, vector = eigenvector_centrality(p6)
    assert spectral.lambda1 == pytest.approx(2 * np.cos(np.pi / 7),
                                             abs=1e-12)
    sine = np.sin(np.arange(1, 7) * np.pi / 7)
    np.testing.assert_allclose(vector.values, sine / sine.sum(),
                               rtol=0, atol=1e-9)
    assert vector.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert spectral.residual <= 1e-12


def test_eigenvector_regular_graphs_are_uniform():
    for g, lam in ((cycle(8), 2.0), (complete(5), 4.0)):
        spectral, vector = eigenvector_centrality(g)
        assert spectral.lambda1 == pytest.approx(lam, abs=1e-12)
        np.testing.assert_allclose(vector.values, 1 / g.node_count,
                                   rtol=0, atol=1e-14)


def test_eigenvector_bipartite_still_converges():
    # Stars are bipartite: the plain power method would oscillate.
    spectral, vector = eigenvector_centrality(star(10))
    assert spectral.lambda1 == pytest.approx(3.0, abs=1e-10)
    hub, leaf = vector.values[0], vector.values[1]
    assert hub == pytest.approx(3 * leaf, rel=1e-9)


def test_eigenvector_residual_invariant():
    rng = SplitMix64(404)
    from paradoxlab import adjacency_matvec
    for _ in range(10):
        g = random_connected(rng)
        spectral, vector = eigenvector_centrality(g)
        gap = np.abs(adjacency_matvec(g, vector.values)
                     - spectral.lambda1 * vector.values).max()
        assert gap <= 1e-12


def test_eigenvector_degree_product_equals_lambda1():
    # <r, d> = lambda1 for the L1-normalised eigenvector, since
    # d^T r = 1^T A r = lambda1 * 1^T r = lambda1.
    rng = SplitMix64(405)
    graphs = [path(6), star(9), cycle(7)] + \
        [random_connected(rng) for _ in range(10)]
    for g in graphs:
        spectral, vector = eigenvector_centrality(g)
        assert float(vector.values @ g.degree_seq) == \
            pytest.approx(spectral.lambda1, abs=1e-9)


def test_eigenvector_iteration_budget():
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(path(30), tol=1e-13, max_iters=3)
    assert info.value.iterations == 3
    assert info.value.residual > 1e-13


def test_katz_known_values(p6):
    np.testing.assert_allclose(katz_centrality(path(3), 0.25).values,
                               [10 / 7, 12 / 7, 10 / 7], rtol=1e-12)
    k2 = build_undirected(2, [(0, 1)])
    np.testing.assert_allclose(katz_centrality(k2, 0.5).values, [2.0, 2.0],
                               rtol=1e-12)
    at_zero = katz_centrality(p6, 0.0)
    np.testing.assert_allclose(at_zero.values, 1.0, rtol=0, atol=0)
    # The all-ones start passes, so no conjugate gradient runs.
    assert at_zero.iterations == 0


def test_katz_on_one_node_admits_every_alpha():
    # A lone node has lambda1 = 0, so alpha * lambda1 < 1 for every alpha.
    one = build_undirected(1, [])
    assert solve_lambda1(one).lambda1 == 0.0
    for alpha in (0.0, 0.1, 1e9):
        vector = katz_centrality(one, alpha)
        assert vector.values.tolist() == [1.0]
        assert vector.residual == 0.0
        assert vector.iterations == 0


def test_katz_rejects_alpha_at_spectral_radius():
    k2 = build_undirected(2, [(0, 1)])  # lambda1 = 1
    with pytest.raises(ParameterError):
        katz_centrality(k2, 1.0)
    with pytest.raises(ParameterError):
        katz_centrality(k2, 0.9999999999)   # above (1 - 1e-9) / lambda1


def test_katz_matches_dense_solve():
    rng = SplitMix64(555)
    for _ in range(10):
        g = random_connected(rng)
        lam = solve_lambda1(g).lambda1
        alpha = (0.1 + 0.8 * rng.random()) / lam
        expected = dense_solve(np.eye(g.node_count)
                               - alpha * dense_from_graph(g),
                               np.ones(g.node_count))
        np.testing.assert_allclose(katz_centrality(g, alpha).values,
                                   expected, rtol=0, atol=1e-9)


def test_katz_self_consistency_certificate():
    # The residual certifies the returned vector: max|r - (1 + aAr)| <= tol.
    # Stars make this sharp — alpha*d_max = 2.7 > 1 here, so certifying the
    # step *after* the check would overshoot tol.
    rng = SplitMix64(606)
    from paradoxlab import adjacency_matvec
    cases = [(star(10), 0.3), (path(5), 0.4)] + \
        [(g, 0.9 / solve_lambda1(g).lambda1)
         for g in (random_connected(rng) for _ in range(8))]
    for g, alpha in cases:
        vector = katz_centrality(g, alpha, tol=1e-12)
        defect = np.abs(vector.values - 1.0
                        - alpha * adjacency_matvec(g, vector.values)).max()
        assert defect <= 1e-12
        assert vector.residual == pytest.approx(defect, abs=1e-15)


def test_katz_neumann_series_is_monotone(p6):
    # Partial sums 1 + aA1 + (aA)^2 1 + ... increase toward the solution.
    alpha = 0.3
    solution = katz_centrality(p6, alpha).values
    term = np.ones(6)
    partial = term.copy()
    previous = np.zeros(6)
    for _ in range(40):
        assert (partial >= previous - 1e-15).all()
        assert (partial <= solution + 1e-9).all()
        previous = partial.copy()
        term = alpha * (dense_from_graph(p6) @ term)
        partial = partial + term
    np.testing.assert_allclose(partial, solution, atol=1e-8)


def test_katz_runs_no_eigen_solve(monkeypatch):
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return eigenvector_centrality(*args, **kwargs)

    monkeypatch.setattr(centrality, "eigenvector_centrality", counted)
    g = random_connected(SplitMix64(909))
    # The default-alpha path: one eigen-solve for lambda1, none in Katz.
    alpha = 0.85 / solve_lambda1(g).lambda1
    compute(g, CentralityParams(kind="katz", alpha=alpha))
    assert len(solves) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("katz_centrality ran an eigen-solve")

    monkeypatch.setattr(centrality, "eigenvector_centrality", refuse)
    for graph, alpha in ((path(6), 0.3), (star(10), 0.3), (cycle(9), 0.4)):
        assert katz_centrality(graph, alpha).residual <= 1e-12
    with pytest.raises(ParameterError):
        katz_centrality(path(6), 0.6)


def test_katz_converges_on_long_path():
    # The spectral gap of P_1000 is ~1.5e-5.  Jacobi from the all-ones
    # vector takes 170 steps here; conjugate gradients and the tail, 50.
    g = path(1000)
    alpha = 0.85 / (2 * np.cos(np.pi / 1001))
    vector = katz_centrality(g, alpha)
    assert vector.iterations <= 100
    defect = np.abs(vector.values - 1.0
                    - alpha * adjacency_matvec(g, vector.values)).max()
    assert defect <= 1e-12
    assert vector.residual == pytest.approx(defect, abs=1e-15)


def _permuted_path(n, seed):
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    return build_undirected(n, list(zip(order, order[1:])))


KATZ_GRID = {
    "path300": lambda: path(300),
    "permuted_path300": lambda: _permuted_path(300, 13),
    "path1000": lambda: path(1000),
    "path210": lambda: path(210),
    "pa300": lambda: generate(RandomGraphSpec(
        model="preferential_attachment", n=300, m_attach=2, seed=31)),
    "star50": lambda: star(50),
    "cycle9": lambda: cycle(9),
    "er200": lambda: generate(RandomGraphSpec(model="erdos_renyi", n=200,
                                              p=0.03, seed=4)),
}


@pytest.mark.parametrize("name", sorted(KATZ_GRID))
def test_katz_converges_up_to_the_spectral_radius(name):
    # Jacobi from the all-ones vector converges at every share below (it
    # takes about 28k steps at 0.999), so Katz must too.  At 0.999
    # rounding traps the plain tail in a 2-cycle on path1000 (residual
    # 1.02e-12); the cycle rescue ends it.  star50's tail passes at once.
    # At 1 - 1e-6 on P_1000 Jacobi from the all-ones vector runs out of
    # its budget.
    g = KATZ_GRID[name]()
    n = g.node_count
    lam = solve_lambda1(g).lambda1
    shares = [0.5, 0.85, 0.99, 0.999] + ([1 - 1e-6] if n == 1000 else [])
    for share in shares:
        alpha = share / lam
        vector = katz_centrality(g, alpha)
        assert (vector.values >= 1.0).all()
        defect = np.abs(vector.values - 1.0
                        - alpha * adjacency_matvec(g, vector.values)).max()
        assert vector.residual <= 1e-12
        assert vector.residual == pytest.approx(defect, abs=1e-15)
        expected = np.linalg.solve(np.eye(n) - alpha * g.adjacency.toarray(),
                                   np.ones(n))
        assert (np.abs(vector.values - expected).max()
                <= 1e-9 * expected.max()), (name, share)


# The Katz solve katz_centrality ran before its Jacobi tail shared the
# blocked loop, kept as the reference that the shared loop is checked
# against.  The start, a banded direct solve or conjugate gradients, is
# the solver's own.
def _scalar_katz(graph, alpha, tol=1e-12, max_iters=100_000):
    """``(values, iterations, residual, rescues)``, or ``(None, max_iters,
    residual, rescues)`` when the budget runs out; ``rescues`` counts the
    cycles the tail's Brent search broke."""
    ones = np.ones(graph.node_count)
    step = alpha * adjacency_matvec(graph, ones)
    image = ones + step
    residual = np.abs(image - ones).max()
    if residual <= tol:
        return ones, 0, residual, 0
    cap = min(graph.node_count, max_iters - 2)
    start, spent = centrality._start_solve(
        graph, 1.0, alpha, ones,
        lambda p: centrality._katz_step(graph, alpha, p), cap > 0, tol, cap,
        step)
    vec = np.maximum(start, 1.0) if spent else image
    anchor = peak = vec
    since, horizon, rescues = 0, 1, 0
    for iteration in range(1 + spent, max_iters):
        image = ones + alpha * adjacency_matvec(graph, vec)
        residual = np.abs(image - vec).max()
        if residual <= tol:
            return vec, iteration, residual, rescues
        peak = np.maximum(peak, vec)
        since += 1
        if np.array_equal(image, anchor):
            image = anchor = peak
            since, horizon = 0, 1
            rescues += 1
        elif since == horizon:
            anchor = peak = image
            since, horizon = 0, 2 * horizon
        vec = image
    return None, max_iters, residual, rescues


def test_katz_matches_the_scalar_reference():
    # The cycle rescue must run somewhere in the grid: path210 at 0.999,
    # on conjugate gradients below LANCZOS_MIN_NODES, needs it (the
    # certificate passes at step 171).
    rescued = []
    for name in sorted(KATZ_GRID):
        g = KATZ_GRID[name]()
        lam = solve_lambda1(g).lambda1
        for share in (0.5, 0.85, 0.99, 0.999):
            vec, iterations, residual, rescues = _scalar_katz(g, share / lam)
            got = katz_centrality(g, share / lam)
            assert got.values.tobytes() == vec.tobytes(), (name, share)
            assert (got.iterations, got.residual) == (iterations, residual)
            if rescues:
                rescued.append((name, share))
    assert rescued
    g = path(60)
    for budget in (1, 2, 5, 20):
        _, _, residual, _ = _scalar_katz(g, 0.45, max_iters=budget)
        with pytest.raises(ConvergenceError) as info:
            katz_centrality(g, 0.45, max_iters=budget)
        assert (info.value.residual, info.value.iterations) == \
            (residual, budget)
    # A budget of one step is the all-ones check alone, whose residual is
    # the one reported.
    ones = np.ones(60)
    with pytest.raises(ConvergenceError) as info:
        katz_centrality(g, 0.45, max_iters=1)
    assert info.value.residual == \
        np.abs(ones + 0.45 * adjacency_matvec(g, ones) - ones).max()


def test_katz_budget_is_shared_by_both_stages(monkeypatch):
    # Below LANCZOS_MIN_NODES, so the start comes from conjugate gradients.
    g = path(255)
    alpha = 0.85 / (2 * np.cos(np.pi / 256))
    needed = katz_centrality(g, alpha).iterations
    calls = []

    def counted(graph, x):
        calls.append(len(x))
        return adjacency_matvec(graph, x)

    monkeypatch.setattr(centrality, "adjacency_matvec", counted)
    # Conjugate gradients alone need more than 20 matvecs here; they stop
    # at 18, and the tail's one certificate fails.
    with pytest.raises(ConvergenceError) as info:
        katz_centrality(g, alpha, max_iters=20)
    assert info.value.iterations == len(calls) == 20
    assert info.value.residual > 1e-12
    # A result takes fewer than max_iters matvecs before its certificate.
    assert katz_centrality(g, alpha, max_iters=needed + 1).iterations == needed
    with pytest.raises(ConvergenceError) as info:
        katz_centrality(g, alpha, max_iters=needed)
    assert info.value.iterations == needed
    # On P_300 the start is one banded solve, which counts as one step.
    g = path(300)
    alpha = 0.85 / (2 * np.cos(np.pi / 301))
    assert katz_centrality(g, alpha).iterations == 2
    assert katz_centrality(g, alpha, max_iters=3).iterations == 2
    with pytest.raises(ConvergenceError) as info:
        katz_centrality(g, alpha, max_iters=2)
    assert info.value.iterations == 2


def test_katz_conjugate_gradients_reject_divergent_alpha(monkeypatch):
    rejected = []
    run_cg = centrality._start_solve

    def watched(*args):
        try:
            return run_cg(*args)
        except ParameterError:
            rejected.append(args[0].node_count)
            raise

    monkeypatch.setattr(centrality, "_start_solve", watched)
    pa = generate(RandomGraphSpec(model="preferential_attachment", n=300,
                                  m_attach=2, seed=31))
    # The all-ones Rayleigh bound of each passes; a conjugate direction's
    # does not.  Paths of LANCZOS_MIN_NODES or more take a banded solve.
    cases = [(star(50), 7.0, 1.01), (pa, solve_lambda1(pa).lambda1, 1.01),
             (path(255), 2 * np.cos(np.pi / 256), 1.0)]
    for g, lam, factor in cases:
        rejected.clear()
        with pytest.raises(ParameterError) as info:
            katz_centrality(g, factor / lam)
        assert rejected == [g.node_count]
        bound = float(str(info.value).rsplit(">= ", 1)[1])
        assert 1 - 1e-9 <= bound <= factor * (1 + 1e-9)


def test_katz_falls_back_to_conjugate_gradients_when_the_factor_fails(
        monkeypatch):
    g = path(300)
    alpha = 0.85 / (2 * np.cos(np.pi / 301))
    with monkeypatch.context() as patch:
        patch.setattr(centrality, "_banded", lambda graph: None)
        want = katz_centrality(g, alpha)
    assert want.iterations > 2
    started = []
    run_cg = centrality._start_solve

    def watched(*args):
        started.append(args[0].node_count)
        return run_cg(*args)

    monkeypatch.setattr(centrality, "_start_solve", watched)
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                        _not_positive_definite)
    got = katz_centrality(g, alpha)
    assert started == [300]
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


def test_katz_rejects_alpha_at_the_spectral_radius_after_a_banded_solve():
    # LAPACK factors I - A / lambda1 on P_300, singular only up to
    # rounding; the tail's Rayleigh bound on the huge solution rejects it.
    g = path(300)
    alpha = 1 / (2 * np.cos(np.pi / 301))
    solve = centrality._band_solver(centrality._banded(g), 1.0, alpha)
    assert solve is not None and np.abs(solve(np.ones(300))).max() > 1e15
    with pytest.raises(ParameterError) as info:
        katz_centrality(g, alpha)
    bound = float(str(info.value).rsplit(">= ", 1)[1])
    assert 1 - 1e-9 <= bound <= 1 + 1e-9


def _barbell(clique, bridge):
    """Two K_clique joined by a path with ``bridge`` inner nodes."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    far = clique + bridge
    edges += [(far + i, far + j) for i, j in edges]
    edges += [(clique - 1 + s, clique + s) for s in range(bridge + 1)]
    return build_undirected(2 * clique + bridge, edges)


def test_katz_rejects_divergent_alpha_from_its_iterates():
    pa = generate(RandomGraphSpec(model="preferential_attachment", n=300,
                                  m_attach=2, seed=31))
    cases = [(star(50), 7.0),                                 # bipartite
             (path(300), 2 * np.cos(np.pi / 301)),            # bipartite
             (cycle(9), 2.0),                                 # odd cycle
             (pa, solve_lambda1(pa).lambda1)]
    for g, lam in cases:
        for factor in (1.01, 1.5, 10.0):
            with pytest.raises(ParameterError) as info:
                katz_centrality(g, factor / lam)
            # The reported bound is certified: at most alpha * lambda1.
            bound = float(str(info.value).rsplit(">= ", 1)[1])
            assert 1 - 1e-9 <= bound <= factor * (1 + 1e-9)
    # The Perron vector of a barbell spans far more than float64's range
    # (the bridge decays like 1/99 per hop), yet the Rayleigh bound
    # certifies within a few steps: lambda1 >= 99, the clique's own.
    with pytest.raises(ParameterError):
        katz_centrality(_barbell(100, 600), 1.01 / 99, max_iters=100)


def test_katz_rejects_tol_of_one_or_more():
    k2 = build_undirected(2, [(0, 1)])
    for tol in (1.0, 2.0):
        with pytest.raises(ParameterError):
            katz_centrality(k2, 0.5, tol=tol)
        with pytest.raises(ParameterError):
            CentralityParams(kind="katz", alpha=0.5, tol=tol)
    # Other measures keep any positive tolerance.
    assert eigenvector_centrality(k2, tol=2.0)[1].iterations == 0


def test_non_finite_alpha_and_tol_are_rejected():
    k2 = build_undirected(2, [(0, 1)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            CentralityParams(kind="katz", alpha=bad)
        with pytest.raises(ParameterError):
            katz_centrality(k2, bad)
        for kind in ("degree", "eigenvector", "pagerank"):
            knobs = {"beta": 0.85} if kind == "pagerank" else {}
            with pytest.raises(ParameterError):
                CentralityParams(kind=kind, tol=bad, **knobs)
        with pytest.raises(ParameterError):
            eigenvector_centrality(k2, tol=bad)
        with pytest.raises(ParameterError):
            solve_lambda1(k2, tol=bad)
    with pytest.raises(ParameterError):
        CentralityParams(kind="katz", alpha=-np.inf)


def test_pagerank_uniform_on_regular():
    for g in (cycle(6), complete(4)):
        vector = pagerank_centrality(g, 0.85)
        np.testing.assert_allclose(vector.values, 1 / g.node_count,
                                   rtol=0, atol=1e-13)
    k2 = build_undirected(2, [(0, 1)])
    np.testing.assert_allclose(pagerank_centrality(k2, 0.3).values, 0.5,
                               rtol=0, atol=1e-13)


def test_pagerank_hub_dominates(hub_digraph):
    vector = pagerank_centrality(hub_digraph, 0.15)
    np.testing.assert_allclose(vector.values,
                               [18 / 37, 9.5 / 37, 9.5 / 37], atol=1e-10)
    assert vector.values[0] > vector.values[1]
    assert vector.values[1] == pytest.approx(vector.values[2], abs=1e-14)


def test_pagerank_sums_to_one_with_small_residual(hub_digraph):
    for beta in (0.15, 0.5, 0.85):
        vector = pagerank_centrality(hub_digraph, beta)
        assert vector.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert vector.residual <= 1e-12


def test_pagerank_requires_strong_connectivity():
    dag = build_directed(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError,
                       match="requires a strongly connected directed graph"):
        pagerank_centrality(dag, 0.85)
    with pytest.raises(PreconditionError, match="requires a connected graph"):
        pagerank_centrality(build_undirected(3, [(0, 1)]), 0.85)


def test_measures_share_one_connectivity_search(search_calls):
    calls = search_calls
    g = random_connected(SplitMix64(11), max_nodes=12)
    solve_lambda1(g)
    for params in (CentralityParams(kind="degree"),
                   CentralityParams(kind="walk_count", ell=3),
                   CentralityParams(kind="eigenvector"),
                   CentralityParams(kind="katz", alpha=0.05),
                   CentralityParams(kind="pagerank", beta=0.85)):
        compute(g, params)
    assert calls == ["strong"]
    calls.clear()
    ring = build_directed(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for beta in (0.15, 0.5, 0.85):
        pagerank_centrality(ring, beta)
    # One search for a directed graph too: none runs on the transpose.
    assert calls == ["strong"]


def test_closeness_and_harmonic():
    np.testing.assert_allclose(closeness_harmonic(path(3), "closeness").values,
                               [2 / 3, 1.0, 2 / 3], rtol=1e-15)
    np.testing.assert_allclose(closeness_harmonic(complete(5),
                                                  "closeness").values, 1.0)
    # star centre reaches everyone at distance 1; leaves see 1 + 2*(1/2)
    np.testing.assert_allclose(closeness_harmonic(star(4), "harmonic").values,
                               [3.0, 2.0, 2.0, 2.0], rtol=1e-15)
    # A long path at the default cap, 31 blocks of 65 sources: node i's
    # distance sum is i(i+1)/2 + (n-1-i)(n-i)/2, so closeness is exact,
    # and harmonic stays within D eps of H_i + H_{n-1-i}, D = max(i,
    # n-1-i) its eccentricity.
    n = 2000
    node = np.arange(n)
    sums = node * (node + 1) // 2 + (n - 1 - node) * (n - node) // 2
    assert np.array_equal(closeness_harmonic(path(n), "closeness").values,
                          (n - 1) / sums)
    harmonic_numbers = [Fraction(0)]
    for hops in range(1, n):
        harmonic_numbers.append(harmonic_numbers[-1] + Fraction(1, hops))
    eps = Fraction(np.finfo(np.float64).eps)
    for i, value in enumerate(closeness_harmonic(path(n), "harmonic").values):
        exact = harmonic_numbers[i] + harmonic_numbers[n - 1 - i]
        assert abs(Fraction(value) - exact) <= max(i, n - 1 - i) * eps * exact
    with pytest.raises(ParameterError):
        closeness_harmonic(path(3), "betweenness")


def _per_source_loop(graph, kind):
    """Closeness or harmonic by one scalar search per source: the loop the
    blocked search replaced, kept as its byte-for-byte reference.  Harmonic
    sums the source's reach counts ``c_L / L`` in increasing ``L``."""
    n = graph.node_count
    values = np.empty(n)
    for source in range(n):
        dist = hop_distances(graph.row_offsets, graph.column_targets, source)
        others = np.delete(dist, source)
        if n == 1:
            values[source] = 0.0
        elif kind == "closeness":
            values[source] = (n - 1) / others.astype(np.float64).sum()
        else:
            counts = np.bincount(others)
            values[source] = sum(counts[hops] / hops
                                 for hops in range(1, len(counts)))
    return values


def _wheel(n):
    """Hub 0 joined to every node of a cycle on 1..n-1."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return build_undirected(n, rim + [(0, i) for i in range(1, n)])


def _distance_corpus():
    graphs = {f"path{n}": path(n) for n in (1, 2, 3, 16, 65)}
    graphs.update({f"cycle{n}": cycle(n) for n in (3, 4, 31)})
    graphs.update({f"star{n}": star(n) for n in (3, 24)})
    graphs.update({f"complete{n}": complete(n) for n in (2, 5, 17)})
    graphs.update({f"wheel{n}": _wheel(n) for n in (4, 20)})
    for seed in (1, 2, 3):
        graphs[f"er_lcc{seed}"] = generate(RandomGraphSpec(
            model="erdos_renyi", n=90, p=0.03, seed=seed))
        graphs[f"pa{seed}"] = generate(RandomGraphSpec(
            model="preferential_attachment", n=120, m_attach=seed, seed=seed))
    # Parallel edges on a path with a chord: multiplicities do not count.
    graphs["multigraph"] = build_undirected(
        6, edge_pairs(path(6)) * 2 + [(0, 3), (0, 3), (0, 3)])
    return graphs


DISTANCE_CORPUS = _distance_corpus()


@pytest.mark.parametrize("name", DISTANCE_CORPUS)
def test_blocked_search_matches_the_per_source_loop(monkeypatch, name):
    g = DISTANCE_CORPUS[name]
    n = g.node_count
    want = {kind: _per_source_loop(g, kind)
            for kind in ("closeness", "harmonic")}
    # Blocks of k sources with n = k-1, k, k+1 and 2k+1 (or 2k+2), plus
    # single sources and the default cap.
    blocks = sorted({k for k in (1, 2, (n - 1) // 2, n - 1, n, n + 1)
                     if k >= 1})
    for block in [None] + blocks:
        if block is not None:
            monkeypatch.setattr(centrality, "BFS_BLOCK_ARCS",
                                block * max(len(g.column_targets), 1))
        for kind, expected in want.items():
            got = closeness_harmonic(g, kind).values
            assert np.array_equal(got, expected), (kind, block)


@pytest.mark.parametrize("bits", [False, True], ids=["keys", "bits"])
@pytest.mark.parametrize("name", DISTANCE_CORPUS)
def test_both_kernels_match_the_per_source_loop(monkeypatch, name, bits):
    g = DISTANCE_CORPUS[name]
    monkeypatch.setattr(centrality, "_few_levels", lambda graph: bits)
    want = {kind: _per_source_loop(g, kind)
            for kind in ("closeness", "harmonic")}
    # The default cap, then blocks of 1 and 65 sources.  The bit kernel
    # rounds them up to one word, so several blocks and a partial last
    # word at n = 65, 82, 85 and 120, and to two words, the second partial.
    for block in (None, 1, 65):
        if block is not None:
            monkeypatch.setattr(centrality, "BFS_BLOCK_ARCS",
                                block * max(len(g.column_targets), 1))
        for kind, expected in want.items():
            got = closeness_harmonic(g, kind).values
            assert np.array_equal(got, expected), (kind, block)


def _heavy_tailed_lcc(n, m, seed):
    """The largest component of ``m`` node pairs drawn in proportion to
    power-law weights ``(i+1)^(-2/3)``: a few hubs, eccentricities near
    10."""
    rng = np.random.default_rng(seed)
    weights = (np.arange(n) + 1.0) ** (-2.0 / 3.0)
    u, v = rng.choice(n, size=(2, m), p=weights / weights.sum())
    pairs = np.column_stack([u, v])[u != v]
    return extract_lcc(build_undirected(n, pairs))[0]


def test_long_searches_keep_the_key_kernel(monkeypatch):
    ran = []
    for name in ("_reach_counts", "_bit_reach_counts"):
        def spy(graph, start, stop, name=name, real=getattr(centrality,
                                                            name)):
            ran.append((name, stop - start))
            return real(graph, start, stop)
        monkeypatch.setattr(centrality, name, spy)
    keys = {"path65": path(65), "path300": path(300),
            "path1000": path(1000), "strip10x100": grid(10, 100)}
    bits = {"path64": path(64), "hub": _heavy_tailed_lcc(620, 900, 1),
            "er": generate(RandomGraphSpec(model="erdos_renyi", n=400,
                                           p=0.02, seed=2)),
            "pa": _preferential(300, 1), "complete300": complete(300),
            "grid30x30": grid(30, 30)}
    for kernel, graphs in (("_reach_counts", keys),
                           ("_bit_reach_counts", bits)):
        for name, g in graphs.items():
            ran.clear()
            closeness_harmonic(g, "closeness")
            assert {run[0] for run in ran} == {kernel}, name
            # Blocks cover every source once, in as few searches as the
            # cap allows.  A bit block is sized in words of 64 sources, so
            # the hub's 500-odd sources take one search.
            assert sum(run[1] for run in ran) == g.node_count, name
            arcs = len(g.column_targets)
            cap = max(centrality.BFS_BLOCK_ARCS, arcs)
            per_block = max(1, centrality.BFS_BLOCK_ARCS // arcs)
            if kernel == "_bit_reach_counts":
                per_block *= 64
                assert all(-(-sources // 64) * arcs <= cap
                           for _, sources in ran), name
            else:
                assert all(sources * arcs <= cap for _, sources in ran), name
            assert len(ran) == -(-g.node_count // per_block), name


@pytest.mark.parametrize("name", DISTANCE_CORPUS)
def test_closeness_and_harmonic_match_the_dense_oracle(name):
    g = DISTANCE_CORPUS[name]
    n = g.node_count
    dist = dense_hop_distances(g)
    closeness = closeness_harmonic(g, "closeness").values
    harmonic = closeness_harmonic(g, "harmonic").values
    if n == 1:
        assert closeness.tolist() == harmonic.tolist() == [0.0]
        return
    # Integer distance sums are exact, so closeness is too.
    assert np.array_equal(closeness, (n - 1) / dist.sum(axis=1))
    inverse = 1.0 / np.where(dist > 0, dist, np.inf)
    expected = inverse.sum(axis=1)
    assert np.abs(harmonic - expected).max() <= (
        n * np.finfo(np.float64).eps * expected.max())


@pytest.mark.parametrize("name", [*DISTANCE_CORPUS, "hub", "star300"])
def test_harmonic_is_within_eccentricity_roundings_of_exact(name):
    # Left to right over D levels, harmonic rounds once per term and once
    # per addition, so it stays within D eps of the exact sum, D the
    # node's eccentricity, tighter than the dense oracle's n eps.  The
    # star's levels hold more than 255 nodes.
    if name == "hub":
        g = _heavy_tailed_lcc(620, 900, 1)
    elif name == "star300":
        g = star(300)
    else:
        g = DISTANCE_CORPUS[name]
    harmonic = closeness_harmonic(g, "harmonic").values
    for node, dist in enumerate(dense_hop_distances(g)):
        counts = np.bincount(dist)
        exact = sum(Fraction(int(counts[hops]), hops)
                    for hops in range(1, len(counts)))
        eccentricity = len(counts) - 1
        assert abs(Fraction(harmonic[node]) - exact) <= (
            eccentricity * Fraction(np.finfo(np.float64).eps) * exact), node


def test_compute_dispatch(p6):
    assert compute(p6, CentralityParams(kind="degree")).values.tolist() == \
        [1, 2, 2, 2, 2, 1]
    assert compute(p6, CentralityParams(kind="walk_count", ell=1)
                   ).values.tolist() == [1, 2, 2, 2, 2, 1]
    eig = compute(p6, CentralityParams(kind="eigenvector"))
    assert eig.values.sum() == pytest.approx(1.0, abs=1e-12)
    katz = compute(p6, CentralityParams(kind="katz", alpha=0.2))
    assert (katz.values >= 1.0).all()
    page = compute(p6, CentralityParams(kind="pagerank", beta=0.85))
    assert page.values.sum() == pytest.approx(1.0, abs=1e-12)
    close = compute(p6, CentralityParams(kind="closeness"))
    assert close.values.argmax() in (2, 3)


def test_scale_covariance_of_means(p6):
    # Halving or tripling a measure scales each paradox mean exactly.
    from paradoxlab import paradox_report
    base = compute(p6, CentralityParams(kind="eigenvector"))
    report = paradox_report(p6, base)
    half = paradox_report(p6, base.values * 0.5)
    assert half.mu == 0.5 * report.mu
    assert half.mu_bar == 0.5 * report.mu_bar
    assert half.mu_tilde == 0.5 * report.mu_tilde
    triple = paradox_report(p6, base.values * 3.0)
    assert triple.mu == pytest.approx(3.0 * report.mu, rel=1e-13)
    assert triple.mu_bar == pytest.approx(3.0 * report.mu_bar, rel=1e-13)
    assert triple.mu_tilde == pytest.approx(3.0 * report.mu_tilde, rel=1e-13)


# --- Shift-invert or Lanczos above LANCZOS_MIN_NODES, power below --------

def _power_only(monkeypatch, graph, **kwargs):
    """The power-iteration result, with the Lanczos path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(centrality, "LANCZOS_MIN_NODES", graph.node_count + 1)
        return eigenvector_centrality(graph, **kwargs)


def _assert_same_result(got, want):
    (spectral, vector), (spectral_want, vector_want) = got, want
    assert np.array_equal(vector.values, vector_want.values)
    assert (vector.iterations, vector.residual) == \
        (vector_want.iterations, vector_want.residual)
    fields = ("lambda1", "residual", "iterations", "enclosure", "method")
    assert [getattr(spectral, f) for f in fields] == \
        [getattr(spectral_want, f) for f in fields]


def _preferential(n, seed):
    return generate(RandomGraphSpec(model="preferential_attachment", n=n,
                                    m_attach=2, seed=seed))


def _grid300():
    return grid(12, 25)


def _grid1000():
    return grid(10, 100)


def test_threshold_keeps_small_graphs_on_the_power_path():
    assert 100 < centrality.LANCZOS_MIN_NODES <= 300
    small = path(centrality.LANCZOS_MIN_NODES - 1)
    assert eigenvector_centrality(small, tol=1e-9)[0].method == "power"
    assert eigenvector_centrality(_preferential(
        centrality.LANCZOS_MIN_NODES, 0))[0].method == "lanczos"


@pytest.mark.parametrize("n", [300, 1000, 2000])
def test_long_paths_and_cycles_converge_with_certificates(n):
    exact = 2 * np.cos(np.pi / (n + 1))
    spectral, vector = eigenvector_centrality(path(n))
    assert spectral.method == "shift-invert"
    assert spectral.residual <= 1e-12 and vector.residual == spectral.residual
    assert vector.iterations == spectral.iterations < 10_000
    lo, hi = spectral.enclosure
    assert lo <= exact <= hi
    assert lo <= spectral.lambda1 <= hi
    assert (vector.values > 0).all()
    assert vector.values.sum() == pytest.approx(1.0, abs=1e-12)
    gap = np.abs(adjacency_matvec(path(n), vector.values)
                 - spectral.lambda1 * vector.values).max()
    assert gap <= 1e-12
    ring, _ = eigenvector_centrality(cycle(n))
    assert ring.enclosure[0] <= 2.0 <= ring.enclosure[1]


def test_lanczos_agrees_with_the_dense_oracle():
    er = generate(RandomGraphSpec(model="erdos_renyi", n=320, p=0.02,
                                  seed=17))
    assert er.node_count >= centrality.LANCZOS_MIN_NODES
    for g in (er, _preferential(400, 5)):
        spectral, vector = eigenvector_centrality(g)
        assert spectral.method == "lanczos"
        value, right, _ = dense_perron(dense_from_graph(g))
        assert spectral.lambda1 == pytest.approx(value, abs=1e-10)
        np.testing.assert_allclose(vector.values, right, rtol=0, atol=1e-10)
        lo, hi = spectral.enclosure
        assert lo <= value <= hi


def test_regular_graph_above_threshold_keeps_the_uniform_vector(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a regular graph skips Lanczos")

    monkeypatch.setattr(splinalg, "eigsh", never)
    for n in (400, 512):
        g = generate(RandomGraphSpec(model="k_regular", n=n, k=3, seed=2))
        spectral, vector = eigenvector_centrality(g)
        _assert_same_result((spectral, vector), _power_only(monkeypatch, g))
        assert spectral.method == "power" and spectral.iterations == 0
        assert (vector.values == 1 / n).all()
        assert spectral.lambda1 == pytest.approx(3.0, abs=1e-15)
        assert spectral.enclosure[0] <= 3.0 <= spectral.enclosure[1]
    # 1/512 is exact, so the sums are too.
    assert (spectral.lambda1, spectral.residual) == (3.0, 0.0)


def test_lanczos_result_carries_the_power_loop_certificate():
    # The estimate and residual of a Lanczos vector are those of the power
    # loop's step 0, by the same one-segment reduceat as every other
    # eigenvector result.
    for seed in range(20):
        g = _preferential(300, seed)
        spectral, vector = eigenvector_centrality(g)
        assert spectral.method == "lanczos"
        vec = vector.values
        image = adjacency_matvec(g, vec)
        estimate = _sum(vec * image) / _sum(vec * vec)
        assert spectral.lambda1 == estimate
        assert spectral.residual == vector.residual == \
            np.abs(image - estimate * vec).max()


def test_lanczos_vector_short_of_tol_is_polished_from_where_it_stopped(
        monkeypatch):
    # At tol 1e-16, tol / d_max is below machine epsilon, so ARPACK is asked
    # for machine precision and stops near it.  The power loop may still
    # have steps to take; it takes them from the Lanczos vector, so the
    # solve costs fewer matvecs than power iteration alone.
    g = _preferential(2000, 1)
    spectral, _ = eigenvector_centrality(g, tol=1e-16)
    assert spectral.residual <= 1e-16
    alone = _power_only(monkeypatch, g, tol=1e-16)[0].iterations
    assert spectral.iterations < alone / 2


def test_lanczos_result_is_reproducible():
    for g in (_grid1000(), _preferential(500, 9)):
        first, second = eigenvector_centrality(g), eigenvector_centrality(g)
        _assert_same_result(first, second)


def test_lanczos_count_is_reproducible_through_a_random_restart():
    # The star's Krylov space from the uniform start has dimension 2, so
    # ARPACK restarts from a random vector, drawn from the fixed rng.
    g = star(1000)
    counts, values, lambdas = set(), set(), set()
    for _ in range(6):
        spectral, vector = eigenvector_centrality(g, tol=1e-8)
        assert spectral.method == "lanczos"
        counts.add(spectral.iterations)
        values.add(vector.values.tobytes())
        lambdas.add(spectral.lambda1)
    assert len(counts) == len(values) == len(lambdas) == 1


@pytest.mark.parametrize("graph, monotone", [
    (_grid300, True),
    (_grid1000, True),
    (lambda: _preferential(2000, 1), True),
    (lambda: generate(RandomGraphSpec(model="erdos_renyi", n=400, p=0.02,
                                      seed=2)), True),
    # The star's Krylov space from the uniform start has dimension 2, so
    # ARPACK restarts from a random vector: its matvec count depends on
    # that draw, not on tol alone.
    (lambda: star(1000), False),
], ids=["grid300", "grid1000", "preferential", "erdos_renyi", "star"])
def test_lanczos_stops_at_the_accuracy_tol_needs(graph, monotone):
    g = graph()
    counts = []
    for tol in (1e-12, 1e-8, 1e-4, 1e-2):
        spectral, vector = eigenvector_centrality(g, tol=tol)
        assert spectral.method == "lanczos"
        assert spectral.residual == vector.residual <= tol
        counts.append(spectral.iterations)
    if monotone:
        assert counts == sorted(counts, reverse=True)


def test_loose_tol_on_a_long_path_takes_few_matvecs():
    # A 10 x 100 strip: a long path of rungs, on Lanczos.
    spectral, _ = eigenvector_centrality(_grid1000(), tol=0.01)
    assert spectral.method == "lanczos" and spectral.residual <= 0.01
    assert spectral.iterations < 100


@pytest.mark.parametrize("graph, tol, want", [
    (_grid1000, 1e-2, 1e-2 / 4),
    (_grid300, 1e-12, 1e-12 / 4),
    (lambda: star(1000), 1e-8, 1e-8 / 999),
    (lambda: _preferential(2000, 1), 1e-16, 0),
    (lambda: star(1000), 1e-14, 0),
], ids=["grid1000", "grid300", "star", "preferential-eps", "star-eps"])
def test_arpack_gets_tol_over_the_maximum_degree(monkeypatch, graph, tol,
                                                 want):
    g = graph()
    received = []
    real = splinalg.eigsh

    def spy(*args, **kwargs):
        received.append(kwargs["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(splinalg, "eigsh", spy)
    assert eigenvector_centrality(g, tol=tol)[1].residual <= tol
    assert received == [want]


def _fake_ritz_vector(kind, graph):
    """The unit vector a fake ``eigsh`` returns for ``graph``."""
    n = graph.node_count
    if kind == "mixed sign":
        # A true eigenvector, but not the Perron one.
        vec = np.linalg.eigh(dense_from_graph(graph))[1][:, -2]
    elif kind == "zero entry":
        vec = np.arange(float(n))
    else:  # positive, but not an eigenvector
        vec = np.arange(1.0, n + 1)
    return vec / np.linalg.norm(vec)


def _fake_eigsh(kind):
    def fake(operator, k, which, v0, tol, rng=None):
        n = operator.shape[0]
        if kind == "raise":
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((n, 0)))
        if kind == "budget":
            while True:
                operator.matvec(v0)
        return np.array([1.0]), _fake_ritz_vector(kind, fake.graph)[:, None]
    return fake


@pytest.mark.parametrize("kind", ["raise", "budget", "mixed sign",
                                  "certificate", "zero entry"])
def test_failed_lanczos_falls_back_to_power_iteration(monkeypatch, kind):
    g = _preferential(300, 3)
    want = _power_only(monkeypatch, g)
    fake = _fake_eigsh(kind)
    fake.graph = g
    monkeypatch.setattr(splinalg, "eigsh", fake)
    assert want[0].method == "power"
    if kind == "budget":
        # Enough for power iteration alone, but Lanczos spends all of it.
        max_iters = want[0].iterations + 1
        with pytest.raises(ConvergenceError) as info:
            eigenvector_centrality(g, max_iters=max_iters)
        assert info.value.iterations == max_iters
        return
    if kind in ("certificate", "mixed sign"):
        # A vector without zero entries that fails the certificate starts
        # the power loop, its absolute values L1-normalised as _lanczos
        # normalises them.
        vec = np.abs(_fake_ritz_vector(kind, g))
        values, _, estimates, residuals, iterations = centrality._power_blocks(
            g, [g.node_count], CentralityParams(kind="eigenvector"), 0,
            vec / vec.sum())
        spectral, vector = eigenvector_centrality(g)
        assert spectral.method == "power"
        assert np.array_equal(vector.values, values)
        assert (spectral.lambda1, spectral.residual, spectral.iterations) \
            == (estimates[0], residuals[0], iterations[0])
        return
    _assert_same_result(eigenvector_centrality(g), want)


def test_lanczos_budget_counts_matvecs():
    needed = eigenvector_centrality(_grid300())[0].iterations
    spectral, _ = eigenvector_centrality(_grid300(), max_iters=needed + 1)
    assert (spectral.method, spectral.iterations) == ("lanczos", needed)
    # A result must stay below max_iters, as Katz, PageRank and power
    # iteration do: at max_iters == needed Lanczos gives up, and so does
    # the power fallback.
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(_grid300(), max_iters=needed)
    assert info.value.iterations == needed


def test_lanczos_and_power_share_one_budget(monkeypatch):
    # K_50 with a 256-node tail, whose Lanczos vector is given a zero
    # entry: _lanczos drops it after its matvecs, so power iteration runs
    # the whole solve from the uniform vector.
    g = build_undirected(306, edge_pairs(complete(50))
                         + [(49 + i, 50 + i) for i in range(256)])
    real = splinalg.eigsh

    def zeroed(*args, **kwargs):
        values, vectors = real(*args, **kwargs)
        vectors[-1] = 0.0
        return values, vectors

    monkeypatch.setattr(splinalg, "eigsh", zeroed)
    calls = []

    def counted(graph, x):
        calls.append(len(x))
        return adjacency_matvec(graph, x)

    monkeypatch.setattr(centrality, "adjacency_matvec", counted)
    spectral, vector = eigenvector_centrality(g)
    assert spectral.method == "power"
    assert spectral.iterations == vector.iterations == len(calls) - 1
    # The power steps alone fit in one matvec less; with the Lanczos
    # matvecs counted, they do not.
    _power_only(monkeypatch, g, max_iters=spectral.iterations - 1)
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(g, max_iters=spectral.iterations - 1)
    assert info.value.iterations == spectral.iterations - 1
    # Power iteration checks an iterate only while its count is below
    # max_iters, so a power result needs one more than its count.
    with pytest.raises(ConvergenceError):
        eigenvector_centrality(g, max_iters=spectral.iterations)
    _assert_same_result(
        eigenvector_centrality(g, max_iters=spectral.iterations + 1),
        (spectral, vector))


def test_lanczos_keeps_a_vector_whose_negative_entries_are_rounding():
    # P_1000 with a pendant node on node 500: lambda1 2.058, lambda2
    # 1.99996, and a Perron vector whose smallest entry is 1.8e-19 of its
    # largest.  Shift-invert stalls after a few solves; eigsh's vector has
    # tail entries that round down to -7.7e-14.  Their absolute values
    # pass the power loop's step 0, where power iteration from the uniform
    # vector takes 1,279 steps.
    g = build_undirected(1001, edge_pairs(path(1000)) + [(500, 1000)])
    spectral, vector = eigenvector_centrality(g)
    assert spectral.method == "lanczos"
    assert spectral.residual == vector.residual <= 1e-12
    assert spectral.iterations < 200
    assert (vector.values > 0).all()
    lo, hi = spectral.enclosure
    assert lo <= np.linalg.eigvalsh(g.adjacency.toarray())[-1] <= hi


def test_enclosure_reuses_the_final_image(monkeypatch):
    calls = []

    def counted(graph, x):
        calls.append(len(x))
        return adjacency_matvec(graph, x)

    monkeypatch.setattr(centrality, "adjacency_matvec", counted)
    spectral, _ = eigenvector_centrality(star(10))
    assert spectral.method == "power"
    assert len(calls) == spectral.iterations + 1
    calls.clear()
    spectral, _ = eigenvector_centrality(_grid300())
    assert spectral.method == "lanczos"
    # The Lanczos matvecs and the image of its vector.
    assert len(calls) == spectral.iterations + 1


def test_shift_invert_runs_on_banded_graphs_only(monkeypatch):
    factored, ordered = [], []
    real_factor = scipy.linalg.lapack.dpbtrf
    real_order = csgraph.reverse_cuthill_mckee

    def factor_spy(band, *args, **kwargs):
        factored.append(band.shape[1])
        return real_factor(band, *args, **kwargs)

    def order_spy(matrix, *args, **kwargs):
        ordered.append(matrix.shape[0])
        return real_order(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", factor_spy)
    monkeypatch.setattr(csgraph, "reverse_cuthill_mckee", order_spy)
    for g in (path(300), path(1000), _permuted_path(300, 13)):
        factored.clear()
        assert eigenvector_centrality(g)[0].method == "shift-invert"
        assert factored == [g.node_count]
    er = generate(RandomGraphSpec(model="erdos_renyi", n=400, p=0.02, seed=2))
    preferential = [_preferential(300, seed) for seed in range(20)]
    preferential += [_preferential(400, 5), _preferential(500, 9),
                     _preferential(2000, 1), KATZ_GRID["pa300"]()]
    for g in preferential + [er, star(1000)]:
        factored.clear()
        ordered.clear()
        assert eigenvector_centrality(g)[0].method == "lanczos"
        assert factored == []
        # The degree bound alone rules out every graph but ER's, whose
        # reverse Cuthill–McKee bandwidth does.
        assert ordered == ([400] if g is er else [])


def test_shift_invert_budget_counts_solves(monkeypatch):
    solves = []
    real_solve = scipy.linalg.lapack.dpbtrs

    def counted(factor, rhs, *args, **kwargs):
        solves.append(len(rhs))
        return real_solve(factor, rhs, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", counted)
    needed = eigenvector_centrality(path(300))[0].iterations
    assert len(solves) == needed
    spectral, _ = eigenvector_centrality(path(300), max_iters=needed + 1)
    assert (spectral.method, spectral.iterations) == ("shift-invert", needed)
    # As with Lanczos, a result stays below max_iters: at max_iters ==
    # needed the solves run out of budget and raise.
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(path(300), max_iters=needed)
    assert info.value.iterations == needed


@pytest.mark.parametrize("graph", [
    lambda: path(300),
    lambda: path(1000),
    lambda: _permuted_path(300, 13),
], ids=["path300", "path1000", "permuted_path300"])
def test_shift_invert_stops_at_the_accuracy_tol_needs(graph):
    g = graph()
    counts = []
    for tol in (1e-12, 1e-8, 1e-4, 1e-2):
        spectral, vector = eigenvector_centrality(g, tol=tol)
        assert spectral.method == "shift-invert"
        assert spectral.residual == vector.residual <= tol
        counts.append(spectral.iterations)
    assert counts == sorted(counts, reverse=True)


def test_shift_invert_result_is_reproducible():
    _assert_same_result(eigenvector_centrality(path(1000)),
                        eigenvector_centrality(path(1000)))


def _not_positive_definite(band, *args, **kwargs):
    # dpbtrf's info > 0: a leading minor is not positive definite.
    return band, 1


@pytest.mark.parametrize("kind", ["stall", "mixed sign", "slow",
                                  "not positive definite"])
def test_failed_shift_invert_falls_back_to_lanczos(monkeypatch, kind):
    # slow: pendant nodes next to both ends of P_300 make lambda1 exactly
    # 2, while sigma is 3, the maximum degree, so the solves contract
    # about as slowly as power iteration.  They get the _ARPACK_NCV solves
    # of one restart cycle.
    g = (build_undirected(302, edge_pairs(path(300)) + [(1, 300), (298, 301)])
         if kind == "slow" else path(300))
    with monkeypatch.context() as patch:
        patch.setattr(centrality, "_banded", lambda graph: None)
        want = eigenvector_centrality(g)
    assert want[0].method == "lanczos"
    spent = {"slow": centrality._ARPACK_NCV,
             "not positive definite": 0}.get(kind, 1)
    if kind == "stall":
        # A solve that gives back its right-hand side, which leaves the
        # residual where it was.
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs",
                            lambda factor, rhs, **kwargs: (rhs.copy(), 0))
    elif kind == "mixed sign":
        # A true eigenvector with a positive sum, but not the Perron one:
        # it passes the solves' stop test and fails the positivity check.
        # The solve returns it in band order, as LAPACK would.
        vec = np.linalg.eigh(dense_from_graph(g))[1][:, -3]
        assert vec.sum() > 0 and (vec < 0).any()
        in_band_order = np.empty_like(vec)
        in_band_order[centrality._banded(g)[1]] = vec
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs",
                            lambda factor, rhs, **kwargs:
                            (in_band_order.copy(), 0))
    elif kind == "not positive definite":
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                            _not_positive_definite)
    lanczos = []
    real = centrality._lanczos

    def watched(graph, params, spent=0):
        lanczos.append(spent)
        return real(graph, params, spent)

    monkeypatch.setattr(centrality, "_lanczos", watched)
    spectral, vector = eigenvector_centrality(g)
    # Lanczos counts on from the solves spent.
    assert lanczos == [spent]
    assert spectral.method == "lanczos"
    assert spectral.iterations == want[0].iterations + spent
    assert np.array_equal(vector.values, want[1].values)


def test_shift_invert_converges_on_a_path_of_100000_nodes():
    # A handful of solves; Lanczos took 1,661 matvecs on P_1000 alone.
    n = 100_000
    g = path(n)
    spectral, vector = eigenvector_centrality(g, max_iters=100)
    assert spectral.method == "shift-invert"
    assert spectral.residual == vector.residual <= 1e-12
    lo, hi = spectral.enclosure
    assert lo <= 2 * np.cos(np.pi / (n + 1)) <= hi
    assert (vector.values > 0).all()


def _sum(x):
    """The sum of ``x`` as the blocked solvers reduce a one-block vector."""
    return np.add.reduceat(x, [0])[0]


def _scalar_power(graph, tol=1e-12, max_iters=100_000):
    """Power iteration on ``A + I`` for one graph, one array per step: the
    reference the shared power loop must reproduce byte for byte."""
    vec = np.full(graph.node_count, 1.0 / graph.node_count)
    image = adjacency_matvec(graph, vec)
    estimate = _sum(vec * image) / _sum(vec * vec)
    residual = np.abs(image - estimate * vec).max()
    iteration = 0
    while not residual <= tol:
        iteration += 1
        if iteration >= max_iters:
            return None, residual, max_iters
        shifted = image + vec
        vec = shifted / _sum(shifted)
        image = adjacency_matvec(graph, vec)
        estimate = _sum(vec * image) / _sum(vec * vec)
        residual = np.abs(image - estimate * vec).max()
    return vec, residual, iteration


def test_power_loop_matches_the_scalar_reference():
    rng = SplitMix64(31)
    graphs = [random_connected(rng, 40) for _ in range(40)]
    graphs += [path(60), star(30), _preferential(200, 4)]
    for graph in graphs:
        vec, residual, iterations = _scalar_power(graph)
        got = eigenvector_centrality(graph)[1]
        assert got.values.tobytes() == vec.tobytes()
        assert (got.residual, got.iterations) == (residual, iterations)
    union = disjoint_union(graphs)
    got = centrality._power_blocks(
        union, [graph.node_count for graph in graphs],
        CentralityParams(kind="eigenvector"))[0]
    assert got.tobytes() == np.concatenate(
        [_scalar_power(graph)[0] for graph in graphs]).tobytes()
    _, residual, _ = _scalar_power(path(60), max_iters=40)
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(path(60), max_iters=40)
    assert (info.value.residual, info.value.iterations) == (residual, 40)


def test_eigenvector_blocks_match_one_solve_per_graph():
    # A lone node, paths and a star that need different step counts, and
    # a complete graph that stops on the uniform vector.
    graphs = [star(6), path(7), build_undirected(1, []), cycle(8),
              complete(5), _preferential(60, 1), path(2)]
    sizes = [graph.node_count for graph in graphs]
    got = centrality._power_blocks(disjoint_union(graphs), sizes,
                                   CentralityParams(kind="eigenvector"))[0]
    assert got.tobytes() == np.concatenate(
        [eigenvector_centrality(graph)[1].values for graph in graphs]
    ).tobytes()
    # The first block to run out of steps raises, as it would alone.
    slow = path(40)
    assert eigenvector_centrality(slow)[0].iterations > 50
    with pytest.raises(ConvergenceError) as want:
        eigenvector_centrality(slow, max_iters=50)
    with pytest.raises(ConvergenceError) as info:
        centrality._power_blocks(
            disjoint_union([star(5), slow, path(60)]), [5, 40, 60],
            CentralityParams(kind="eigenvector", max_iters=50))
    assert (str(info.value), info.value.residual, info.value.iterations) == \
        (str(want.value), want.value.residual, want.value.iterations)


# The PageRank loop pagerank_centrality ran before it shared the blocked
# loop, with the transpose stored as CSR, kept as the reference that the
# blocked loop is checked against.
def _scalar_pagerank(graph, beta, tol=1e-12, max_iters=100_000):
    """``(values, iterations, residual)``, or ``(None, max_iters,
    residual)`` when the budget runs out."""
    n = graph.node_count
    teleport = beta / n
    vec = np.full(n, 1.0 / n)
    residual = np.inf
    for iteration in range(max_iters):
        image = ((1.0 - beta) * (graph.adjacency.T.tocsr() @ (
            vec / graph.degree_seq.astype(np.float64)))
                 + teleport * _sum(vec))
        residual = float(_sum(np.abs(image - vec)))
        if residual <= tol:
            return vec, iteration, residual
        vec = image / _sum(image)
    return None, max_iters, residual


def _pagerank_graphs():
    rng = SplitMix64(41)
    graphs = [random_connected(rng, 40) for _ in range(30)]
    graphs += [path(60), star(30), cycle(9), complete(6),
               _preferential(200, 4)]
    graphs += [build_directed(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
               build_directed(3, [(0, 1), (0, 2), (1, 0), (2, 0)])]
    return graphs


@pytest.mark.parametrize("beta", [0.15, 0.85])
def test_pagerank_matches_the_scalar_reference(beta):
    for graph in _pagerank_graphs():
        vec, iterations, residual = _scalar_pagerank(graph, beta)
        got = pagerank_centrality(graph, beta)
        assert got.values.tobytes() == vec.tobytes()
        assert (got.iterations, got.residual) == (iterations, residual)
    _, iterations, residual = _scalar_pagerank(path(60), 0.05, max_iters=20)
    with pytest.raises(ConvergenceError) as info:
        pagerank_centrality(path(60), 0.05, max_iters=20)
    assert (info.value.residual, info.value.iterations) == (residual, 20)


def test_pagerank_blocks_match_one_solve_per_graph():
    graphs = [graph for graph in _pagerank_graphs() if not graph.directed]
    sizes = [graph.node_count for graph in graphs]
    params = CentralityParams(kind="pagerank", beta=0.15)
    vec, residuals, iterations = centrality._pagerank_blocks(
        disjoint_union(graphs), sizes, params)
    alone = [pagerank_centrality(graph, 0.15) for graph in graphs]
    assert len(set(iterations)) > 5
    assert vec.tobytes() == np.concatenate(
        [result.values for result in alone]).tobytes()
    assert residuals.tobytes() == np.array(
        [result.residual for result in alone]).tobytes()
    assert iterations == [result.iterations for result in alone]
    # The first block to run out of steps raises, as it would alone.
    slow = path(40)
    budget = pagerank_centrality(slow, 0.05).iterations
    assert pagerank_centrality(complete(5), 0.05).iterations < budget
    with pytest.raises(ConvergenceError) as want:
        pagerank_centrality(slow, 0.05, max_iters=budget)
    with pytest.raises(ConvergenceError) as info:
        centrality._pagerank_blocks(
            disjoint_union([complete(5), slow, path(60)]), [5, 40, 60],
            CentralityParams(kind="pagerank", beta=0.05, max_iters=budget))
    assert (str(info.value), info.value.residual, info.value.iterations) == \
        (str(want.value), want.value.residual, want.value.iterations)


def test_perron_bounds(p6):
    exact = 2 * np.cos(np.pi / 7)
    spectral, vector = eigenvector_centrality(p6)
    lo, hi = perron_bounds(p6, vector.values)
    assert lo <= exact <= hi and hi - lo <= 1e-10
    assert (lo, hi) == spectral.enclosure
    # With x = 1 the ratios are the degrees.
    lo, hi = perron_bounds(path(50), np.ones(50))
    assert lo < 1.0 < 1.0 + 1e-12 and 2.0 < hi < 2.0 + 1e-12
    for bad in (np.zeros(6), np.array([1.0, 1, 1, -1, 1, 1])):
        with pytest.raises(ParameterError):
            perron_bounds(p6, bad)


def test_enclosure_covers_the_rounding_of_dense_rows():
    # Summing 1/n over n - 1 neighbours misses n - 1 by several ulps.
    for n in (29, 300):
        g = complete(n)
        lo, hi = perron_bounds(g, np.full(n, 1 / n))
        assert lo <= n - 1 <= hi
        assert hi - lo <= 1e-12 * n * n
        spectral, _ = eigenvector_centrality(g)
        assert spectral.enclosure[0] <= n - 1 <= spectral.enclosure[1]


def test_enclosure_with_underflowed_entries():
    g = path(3)
    x = np.array([1.0, 0.0, 1.0])
    lo, hi = centrality._enclosure(g, x, adjacency_matvec(g, x))
    assert lo <= 0.0 and hi == np.inf


def test_pagerank_on_long_paths_takes_one_banded_solve():
    # On a path the power loop contracts by only 1 - beta per step: at
    # beta = 1e-6 it ran out of the default budget on P_1000.  One solve of
    # (D - (1-beta) A) z = (beta/n) 1 passes step 0 as it is.
    for n in (1000, 10000):
        vector = pagerank_centrality(path(n), 1e-6)
        assert vector.iterations == 1
        assert vector.residual <= 1e-12
        assert (vector.values > 0).all()
        assert _sum(vector.values) == pytest.approx(1.0, abs=1e-14)


def test_banded_pagerank_matches_the_power_loop():
    for g in (path(300), _permuted_path(300, 13)):
        got = pagerank_centrality(g, 0.15)
        vec, iterations, residual = _scalar_pagerank(g, 0.15)
        # Both pass the L1 residual tol, and the map contracts by 1 - beta
        # in L1, so each lies within tol / beta of the fixed point.
        assert got.iterations == 1 < iterations
        assert got.residual <= 1e-12
        assert np.abs(got.values - vec).sum() <= 2 * 1e-12 / 0.15
    # A budget of one step leaves no room for the solve.
    g = path(300)
    _, _, residual = _scalar_pagerank(g, 0.15, max_iters=1)
    with pytest.raises(ConvergenceError) as info:
        pagerank_centrality(g, 0.15, max_iters=1)
    assert (info.value.residual, info.value.iterations) == (residual, 1)
    assert pagerank_centrality(g, 0.15, max_iters=2).iterations == 1


def test_pagerank_keeps_the_power_loop_off_the_banded_solve(monkeypatch):
    factored = []
    real_factor = scipy.linalg.lapack.dpbtrf

    def factor_spy(band, *args, **kwargs):
        factored.append(band.shape[1])
        return real_factor(band, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", factor_spy)
    pairs = edge_pairs(path(300))
    bidirected = build_directed(300, pairs + [(j, i) for i, j in pairs])
    # Regular graphs keep the exact uniform vector.
    for g in (bidirected, path(255), _preferential(300, 3), cycle(300)):
        vec, iterations, residual = _scalar_pagerank(g, 0.15)
        got = pagerank_centrality(g, 0.15)
        assert got.values.tobytes() == vec.tobytes()
        assert (got.iterations, got.residual) == (iterations, residual)
    assert factored == []
    # A factor that LAPACK rejects leaves the power loop to do it all.
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                        _not_positive_definite)
    vec, iterations, residual = _scalar_pagerank(path(300), 0.15)
    got = pagerank_centrality(path(300), 0.15)
    assert got.values.tobytes() == vec.tobytes()
    assert (got.iterations, got.residual) == (iterations, residual)


def test_pagerank_with_a_tiny_teleport_starts_from_conjugate_gradients():
    # _banded rejects both, and at beta = 1e-6 the power loop cannot be
    # sure of tol within the default budget: from the uniform vector the
    # grid took 38,831 steps, and the strip ran out of its 100,000.
    for g in (grid(100, 100), grid(20, 1000)):
        assert centrality._banded(g) is None
        vector = pagerank_centrality(g, 1e-6)
        assert vector.iterations <= 2000
        assert vector.residual <= 1e-12
        r = vector.values
        image = ((1 - 1e-6) * adjacency_matvec(g, r / g.degree_seq)
                 + 1e-6 / g.node_count)
        assert _sum(np.abs(image - r)) <= 1e-12
        assert (r > 0).all()
        assert _sum(r) == pytest.approx(1.0, abs=1e-14)
    # The matvecs of conjugate gradients draw on the loop's budget, which
    # keeps its last step for the certificate.
    with pytest.raises(ConvergenceError) as info:
        pagerank_centrality(grid(100, 100), 1e-6, max_iters=50)
    assert info.value.iterations == 50
