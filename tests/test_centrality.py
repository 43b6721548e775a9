import numpy as np
import pytest
from scipy.sparse import linalg as splinalg
from scipy.sparse.linalg import ArpackNoConvergence

from paradoxlab import (CentralityParams, ConvergenceError, ParameterError,
                        PreconditionError, RangeError, UsageError,
                        build_directed, build_undirected, closeness_harmonic,
                        compute, degree_centrality, dense_from_graph,
                        dense_perron, dense_solve, eigenvector_centrality,
                        enumerate_walks, katz_centrality, pagerank_centrality,
                        perron_bounds, solve_lambda1, walk_count)
from paradoxlab import (RandomGraphSpec, adjacency_matvec, centrality,
                        generate)
from paradoxlab.rng import SplitMix64
from conftest import complete, cycle, path, star


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
    np.testing.assert_allclose(katz_centrality(p6, 0.0).values, 1.0,
                               rtol=0, atol=0)


def test_katz_on_one_node_admits_every_alpha():
    # A lone node has lambda1 = 0, so alpha * lambda1 < 1 for every alpha.
    one = build_undirected(1, [])
    assert solve_lambda1(one).lambda1 == 0.0
    for alpha in (0.0, 0.1, 1e9):
        vector = katz_centrality(one, alpha)
        assert vector.values.tolist() == [1.0]
        assert vector.residual == 0.0


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
    # The spectral gap of P_1000 is ~1.5e-5; Jacobi does not care.
    g = path(1000)
    alpha = 0.85 / (2 * np.cos(np.pi / 1001))
    vector = katz_centrality(g, alpha)
    assert vector.iterations <= 200
    defect = np.abs(vector.values - 1.0
                    - alpha * adjacency_matvec(g, vector.values)).max()
    assert defect <= 1e-12
    assert vector.residual == pytest.approx(defect, abs=1e-15)


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


def test_measures_share_one_connectivity_search(hop_distance_calls):
    calls = hop_distance_calls
    g = random_connected(SplitMix64(11), max_nodes=12)
    solve_lambda1(g)
    for params in (CentralityParams(kind="degree"),
                   CentralityParams(kind="walk_count", ell=3),
                   CentralityParams(kind="eigenvector"),
                   CentralityParams(kind="katz", alpha=0.05),
                   CentralityParams(kind="pagerank", beta=0.85)):
        compute(g, params)
    assert len(calls) == 1
    calls.clear()
    ring = build_directed(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for beta in (0.15, 0.5, 0.85):
        pagerank_centrality(ring, beta)
    # One forward and one backward search.
    assert len(calls) == 2


def test_closeness_and_harmonic():
    np.testing.assert_allclose(closeness_harmonic(path(3), "closeness").values,
                               [2 / 3, 1.0, 2 / 3], rtol=1e-15)
    np.testing.assert_allclose(closeness_harmonic(complete(5),
                                                  "closeness").values, 1.0)
    # star centre reaches everyone at distance 1; leaves see 1 + 2*(1/2)
    np.testing.assert_allclose(closeness_harmonic(star(4), "harmonic").values,
                               [3.0, 2.0, 2.0, 2.0], rtol=1e-15)
    with pytest.raises(ParameterError):
        closeness_harmonic(path(3), "betweenness")


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


# --- Lanczos above LANCZOS_MIN_NODES, power iteration below --------------

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


def test_threshold_keeps_small_graphs_on_the_power_path():
    assert 100 < centrality.LANCZOS_MIN_NODES <= 300
    small = path(centrality.LANCZOS_MIN_NODES - 1)
    assert eigenvector_centrality(small, tol=1e-9)[0].method == "power"
    assert eigenvector_centrality(path(centrality.LANCZOS_MIN_NODES)
                                  )[0].method == "lanczos"


@pytest.mark.parametrize("n", [300, 1000, 2000])
def test_long_paths_and_cycles_converge_with_certificates(n):
    exact = 2 * np.cos(np.pi / (n + 1))
    spectral, vector = eigenvector_centrality(path(n))
    assert spectral.method == "lanczos"
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


def test_lanczos_result_is_reproducible():
    for g in (path(1000), _preferential(500, 9)):
        first, second = eigenvector_centrality(g), eigenvector_centrality(g)
        _assert_same_result(first, second)


def _fake_eigsh(kind):
    def fake(operator, k, which, v0):
        n = operator.shape[0]
        if kind == "raise":
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((n, 0)))
        if kind == "budget":
            while True:
                operator.matvec(v0)
        if kind == "mixed sign":
            # A true eigenvector, but not the Perron one.
            vec = np.linalg.eigh(dense_from_graph(fake.graph))[1][:, -2]
        else:  # positive, but not an eigenvector
            vec = np.arange(1.0, n + 1)
        return np.array([1.0]), vec[:, None] / np.linalg.norm(vec)
    return fake


@pytest.mark.parametrize("kind", ["raise", "budget", "mixed sign",
                                  "certificate"])
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
    _assert_same_result(eigenvector_centrality(g), want)


def test_lanczos_budget_counts_matvecs():
    needed = eigenvector_centrality(path(300))[0].iterations
    spectral, _ = eigenvector_centrality(path(300), max_iters=needed)
    assert (spectral.method, spectral.iterations) == ("lanczos", needed)
    # One matvec short, Lanczos gives up, and so does the power fallback.
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(path(300), max_iters=needed - 1)
    assert info.value.iterations == needed - 1


def test_lanczos_and_power_share_one_budget(monkeypatch):
    # K_50 with a 256-node tail: Lanczos returns tail entries that round
    # below zero, so power iteration finishes the solve.
    g = build_undirected(306, complete(50).edge_pairs()
                         + [(49 + i, 50 + i) for i in range(256)])
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
    spectral, _ = eigenvector_centrality(path(300))
    assert spectral.method == "lanczos"
    # The uniform start, the Lanczos matvecs and the certificate.
    assert len(calls) == spectral.iterations + 2


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
