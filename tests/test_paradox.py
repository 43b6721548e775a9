import logging
from dataclasses import replace as dataclass_replace
from fractions import Fraction

import numpy as np
import pytest

from paradoxlab import (EQUALITY_TOL, CentralityParams, ConvergenceError,
                        GenerationError, InputError, ParadoxLabError,
                        ParameterError, PreconditionError, RandomGraphSpec,
                        RangeError, bias_distribution, build_directed,
                        build_undirected, compare_averages, compute,
                        derive_seed, eaves_check, eigenvector_centrality,
                        exact_degree_stats, fiedler_check, generate,
                        harmonic_mean_check, is_connected,
                        katz_centrality, neighbor_average,
                        pagerank_centrality, pagerank_paradox_check,
                        paradox_report, symmetrization_identity)
from paradoxlab import centrality, generators, paradox
from paradoxlab.rng import SplitMix64
from conftest import (BARBELL, SEARCHED, complete, connected_sample, cycle,
                      hop_distances, path, star)


def random_connected(rng, max_nodes=12):
    n = 3 + rng.below(max_nodes - 2)
    edges = [(rng.below(i), i) for i in range(1, n)]
    for _ in range(rng.below(2 * n)):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.append((u, v))
    return build_undirected(n, edges)


def test_neighbor_average_examples(p6):
    degrees = p6.degree_seq.astype(float)
    assert neighbor_average(p6, degrees).tolist() == [2, 1.5, 2, 2, 1.5, 2]
    assert neighbor_average(cycle(7), cycle(7).degree_seq.astype(float)
                            ).tolist() == [2.0] * 7
    s = star(6)
    assert neighbor_average(s, s.degree_seq.astype(float)).tolist() == \
        [1.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    np.testing.assert_allclose(neighbor_average(cycle(5), np.arange(5.0)),
                               [(4 + 1) / 2, (0 + 2) / 2, (1 + 3) / 2,
                                (2 + 4) / 2, (3 + 0) / 2])
    with pytest.raises(InputError):
        neighbor_average(p6, np.ones(4))


def test_degree_paradox_on_p6(p6):
    report = paradox_report(p6, p6.degree_seq.astype(float))
    assert report.mu == pytest.approx(10 / 6, abs=1e-14)
    assert report.mu_bar == pytest.approx(11 / 6, abs=1e-14)
    assert report.mu_tilde == pytest.approx(18 / 10, abs=1e-14)
    assert report.slack == pytest.approx(1 / 6, abs=1e-13)
    assert report.paradox_holds
    assert not report.is_regular
    np.testing.assert_allclose(report.delta,
                               [1.0, -0.5, 0.0, 0.0, -0.5, 1.0])
    np.testing.assert_allclose(report.edge_weights,
                               np.array([1, 2, 2, 2, 2, 1]) / 10)


def test_exact_degree_stats(p6):
    assert exact_degree_stats(p6) == (Fraction(5, 3), Fraction(11, 6),
                                      Fraction(18, 10))
    for n in range(3, 13):
        mu, mu_bar, mu_tilde = exact_degree_stats(star(n))
        assert mu_tilde == Fraction(n, 2)
        assert mu_bar == Fraction(1 + (n - 1) ** 2, n)
        assert mu_bar - mu > 0


def reference_exact_degree_stats(graph):
    """The per-entry Fraction loop exact_degree_stats replaced."""
    degrees = [int(d) for d in graph.degree_seq]
    offsets, targets = graph.row_offsets, graph.column_targets
    mults = graph.multiplicities
    total = Fraction(0)
    for i in range(graph.node_count):
        row_sum = sum(int(mults[k]) * degrees[int(targets[k])]
                      for k in range(offsets[i], offsets[i + 1]))
        total += Fraction(row_sum, degrees[i])
    return (Fraction(sum(degrees), graph.node_count),
            total / graph.node_count,
            Fraction(sum(d * d for d in degrees), sum(degrees)))


def test_exact_degree_stats_match_fraction_loop():
    rng = SplitMix64(41)
    graphs = [random_connected(rng, max_nodes=30) for _ in range(40)]
    graphs += [star(n) for n in (2, 3, 17)] + [path(2), complete(7)]
    graphs.append(build_undirected(3, [(0, 1)] * 5 + [(1, 2)] * 3))
    for seed in (1, 2, 3):
        graphs.append(generate(RandomGraphSpec(
            model="preferential_attachment", n=600, m_attach=2, seed=seed)))
        draws = SplitMix64(100 + seed)
        targets = [1 + draws.below(40) for _ in range(200)]
        targets[0] += sum(targets) % 2
        graphs.append(generate(RandomGraphSpec(
            model="configuration", n=200, degree_sequence=tuple(targets),
            seed=seed, lcc_extract=True)))
    for graph in graphs:
        assert exact_degree_stats(graph) == \
            reference_exact_degree_stats(graph)
    # Enough distinct degrees that the grouping by degree is exercised.
    assert min(len(np.unique(g.degree_seq)) for g in graphs[-6:]) > 15


def test_regular_graphs_sit_at_equality():
    for g in (cycle(9), complete(6)):
        report = paradox_report(g, g.degree_seq.astype(float))
        assert report.is_regular
        assert report.slack == 0.0
        assert report.mu == report.mu_tilde


def test_eigenvector_paradox_on_p6(p6):
    spectral, vector = eigenvector_centrality(p6)
    report = paradox_report(p6, vector)
    assert report.mu == pytest.approx(1 / 6, abs=1e-14)
    assert report.mu_bar == pytest.approx(0.1799, abs=5e-4)
    # Edge-sampled mean of the eigenvector is lambda1 / sum(d).
    assert report.mu_tilde == pytest.approx(spectral.lambda1 / 10, abs=1e-9)
    assert report.paradox_holds
    # Here the neighbour average sits strictly below the edge-sampled mean.
    assert report.mu_bar < report.mu_tilde


def test_paradox_report_keeps_measure_params(p6):
    vector = compute(p6, CentralityParams(kind="walk_count", ell=2))
    report = paradox_report(p6, vector)
    assert report.measure.kind == "walk_count"
    assert report.measure.ell == 2


def test_walk_measure_can_reverse_against_edge_sampling(p6):
    # r = A d on the path: neighbour averaging beats the plain mean but
    # stays below the degree-weighted mean.
    values = np.array([2.0, 3.0, 4.0, 4.0, 3.0, 2.0])
    report = paradox_report(p6, values)
    assert report.mu == pytest.approx(3.0, abs=1e-14)
    assert report.mu_bar == pytest.approx(19 / 6, abs=1e-13)
    assert report.mu_tilde == pytest.approx(16 / 5, abs=1e-13)
    assert report.mu_bar > report.mu
    assert report.mu_bar < report.mu_tilde


def test_compare_averages_star5():
    g = star(5)
    deco = compare_averages(g, g.degree_seq.astype(float))
    report = paradox_report(g, g.degree_seq.astype(float))
    assert report.mu_bar == pytest.approx(17 / 5, abs=1e-13)
    assert report.mu_tilde == pytest.approx(5 / 2, abs=1e-13)
    assert deco.lhs == pytest.approx(17 / 5 - 5 / 2, abs=1e-13)
    assert deco.lhs == pytest.approx(deco.rhs, abs=1e-12)
    # Hub: a_0 = 4 (leaves have degree 1), b_0 = 4/8.
    assert deco.a[0] == pytest.approx(4.0)
    assert deco.b[0] == pytest.approx(0.5)


def test_compare_averages_decomposition_closes():
    from paradoxlab import apply_transition
    rng = SplitMix64(808)
    kinds = [CentralityParams(kind="degree"),
             CentralityParams(kind="walk_count", ell=2),
             CentralityParams(kind="walk_count", ell=3),
             CentralityParams(kind="eigenvector")]
    for _ in range(25):
        g = random_connected(rng)
        for params in kinds:
            vector = compute(g, params)
            deco = compare_averages(g, vector)
            assert deco.lhs == pytest.approx(deco.rhs, abs=1e-10)
            report = paradox_report(g, vector)
            values = np.asarray(vector.values, dtype=float)
            assert g.node_count * report.mu_bar == pytest.approx(
                float(apply_transition(g, values).sum()),
                rel=1e-12, abs=1e-12)


def test_compare_averages_regular_is_zero():
    g = cycle(7)
    deco = compare_averages(g, g.degree_seq.astype(float))
    assert deco.lhs == pytest.approx(0.0, abs=1e-14)
    assert deco.rhs == pytest.approx(0.0, abs=1e-14)


def test_symmetrization_identity_values(p6):
    lhs, rhs = symmetrization_identity(p6)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    lhs3, rhs3 = symmetrization_identity(star(3))
    assert lhs3 == pytest.approx(1.0, abs=1e-12)
    assert rhs3 == pytest.approx(1.0, abs=1e-12)
    for g in (cycle(5), complete(4)):
        lhs_r, rhs_r = symmetrization_identity(g)
        assert lhs_r == pytest.approx(0.0, abs=1e-13)
        assert rhs_r == 0.0


def test_symmetrization_identity_random():
    rng = SplitMix64(909)
    for _ in range(40):
        lhs, rhs = symmetrization_identity(random_connected(rng))
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs >= -1e-12


def test_harmonic_mean_bound(p6):
    spectral, _ = eigenvector_centrality(p6)
    lhs, rhs = harmonic_mean_check(p6, spectral)
    assert lhs == pytest.approx(0.5990311320979, abs=1e-10)
    assert rhs == pytest.approx(1 / (2 * np.cos(np.pi / 7)), abs=1e-12)
    assert lhs > rhs + 1e-2
    for g in (cycle(6), complete(3)):
        spectral_r, _ = eigenvector_centrality(g)
        lhs_r, rhs_r = harmonic_mean_check(g, spectral_r)
        assert lhs_r == pytest.approx(rhs_r, abs=1e-10)


def test_eaves_inequality_values(p6):
    assert eaves_check(p6, 1) == (11.0, 10.0)
    assert eaves_check(p6, 2) == (19.0, 18.0)
    for g in (cycle(8), complete(4)):
        lhs, rhs = eaves_check(g, 3)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    with pytest.raises(ParameterError):
        eaves_check(p6, 0)
    big = build_undirected(513, [(i, i + 1) for i in range(512)])
    assert eaves_check(big, 1) == (1025.0, 1024.0)


def test_eaves_guard_stops_at_two_to_the_53():
    # W d = A^(ell+1) 1 is 999^5 < 2^53 at ell=4 and 999^6 > 2^53 at 5.
    k1000 = complete(1000)
    assert eaves_check(k1000, 4) == (1000.0 * 999 ** 4, 1000.0 * 999 ** 4)
    with pytest.raises(RangeError):
        eaves_check(k1000, 5)


def test_eaves_inequality_random():
    rng = SplitMix64(111)
    for _ in range(30):
        g = random_connected(rng)
        for ell in (1, 2, 3):
            lhs, rhs = eaves_check(g, ell)
            assert lhs >= rhs * (1 - 1e-9)


def test_degree_checks_reject_zero_degree_as_a_precondition():
    isolated = build_undirected(3, [(0, 1)])
    spectral, _ = eigenvector_centrality(path(3))
    for check in (lambda: exact_degree_stats(isolated),
                  lambda: harmonic_mean_check(isolated, spectral),
                  lambda: eaves_check(isolated, 1)):
        with pytest.raises(PreconditionError, match="node 2 has zero degree"):
            check()


@pytest.mark.parametrize("check", [
    pytest.param(lambda: pagerank_centrality(build_undirected(1, []), 0.85),
                 id="pagerank"),
    pytest.param(lambda: bias_distribution(
        RandomGraphSpec(model="erdos_renyi", n=5, p=0.0),
        CentralityParams(kind="degree"), 2, 0), id="lone_lcc")])
def test_zero_degree_message_holds_on_a_connected_lone_node(check):
    # One node is connected, so the message must not blame connectivity.
    with pytest.raises(PreconditionError) as info:
        check()
    assert str(info.value) == ("node 0 has zero degree: degree-normalised "
                               "operations need every node to have a "
                               "neighbour")


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_ER = RandomGraphSpec(model="erdos_renyi", n=6, p=0.5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: CentralityParams(kind="katz", alpha="0.5"),
                 id="alpha_str"),
    pytest.param(lambda: CentralityParams(kind="katz", alpha=True),
                 id="alpha_bool"),
    pytest.param(lambda: CentralityParams(kind="pagerank", beta="0.5"),
                 id="beta_str"),
    pytest.param(lambda: CentralityParams(kind="degree", tol=True),
                 id="tol_bool"),
    pytest.param(lambda: CentralityParams(kind="degree", tol="1e-9"),
                 id="tol_str"),
    pytest.param(lambda: RandomGraphSpec(model="k_regular", n=10, k=2.0),
                 id="k_float"),
    pytest.param(lambda: RandomGraphSpec(model="path", n=2.5), id="n_float"),
    pytest.param(lambda: RandomGraphSpec(model="erdos_renyi", n=5, p="0.5"),
                 id="p_str"),
    pytest.param(lambda: RandomGraphSpec(model="erdos_renyi", n=5, p=True),
                 id="p_bool"),
    pytest.param(lambda: RandomGraphSpec(model="configuration", n=3,
                                         degree_sequence=(1.5, 1.5, 1)),
                 id="degrees_float"),
    pytest.param(lambda: RandomGraphSpec(model="preferential_attachment",
                                         n=5, m_attach=2.0),
                 id="m_attach_float"),
    pytest.param(lambda: RandomGraphSpec(model="path", n=4, seed=1.5),
                 id="seed_float"),
    pytest.param(lambda: bias_distribution(
        _ER, CentralityParams(kind="degree"), 2.5, 0), id="n_graphs_float"),
    pytest.param(lambda: bias_distribution(
        _ER, CentralityParams(kind="degree"), 2, 0.5), id="bias_seed_float"),
    pytest.param(lambda: eaves_check(path(4), 2.0), id="eaves_ell_float"),
    pytest.param(lambda: fiedler_check(_SWAP, trials=2.0, seed=0),
                 id="trials_float"),
    pytest.param(lambda: fiedler_check(_SWAP, trials=2, seed=0.5),
                 id="fiedler_seed_float")])
def test_numeric_parameters_reject_the_wrong_type(call):
    with pytest.raises(ParameterError):
        call()


def test_numeric_parameters_take_numpy_numbers():
    params = CentralityParams(kind="katz", alpha=np.float64(0.1),
                              tol=np.float32(1e-6), max_iters=np.int32(50))
    assert katz_centrality(path(4), params.alpha, params.tol,
                           params.max_iters).residual <= 1e-6
    assert CentralityParams(kind="pagerank",
                            beta=np.float64(0.15)).beta == 0.15
    spec = RandomGraphSpec(model="erdos_renyi", n=np.int64(6),
                           p=np.float64(0.5), seed=np.uint64(3))
    assert generate(spec) == generate(dataclass_replace(spec, n=6, p=0.5,
                                                        seed=3))
    assert generate(RandomGraphSpec(
        model="configuration", n=4,
        degree_sequence=tuple(np.array([1, 2, 2, 1])))).node_count == 4
    assert len(bias_distribution(_ER, CentralityParams(kind="degree"),
                                 np.int64(2), np.int64(0)).samples) > 0
    assert eaves_check(path(4), np.int64(2)) == eaves_check(path(4), 2)
    assert len(fiedler_check(_SWAP, np.int64(2), np.int64(0))) == 2


def test_fiedler_two_by_two_closed_form():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    instances = fiedler_check(swap, trials=50, seed=3)
    for inst in instances:
        assert inst.lam == pytest.approx(1.0, abs=1e-12)
        # y^T P x = (t + 1/t)/2 for x = (t, 1) up to scaling: >= lam always.
        assert inst.bilinear >= inst.lam - 1e-9
    assert instances[0].bilinear == pytest.approx(instances[0].lam,
                                                  abs=1e-12)


def test_fiedler_forced_trial_is_equality():
    rng = SplitMix64(17)
    # The diagonal plays no part in irreducibility, so a 1x1 matrix and a
    # heavy positive diagonal are both accepted.
    cases = [(np.array([[2.0]]), 1), (np.array([[5.0, 0.1], [0.2, 4.0]]), 2)]
    for _ in range(10):
        n = 2 + rng.below(7)
        mat = np.array([[0.1 + rng.random() for _ in range(n)]
                        for _ in range(n)])
        cases.append((mat, rng.next_uint64()))
    for mat, seed in cases:
        inst = fiedler_check(mat, trials=1, seed=seed)[0]
        assert inst.bilinear == pytest.approx(inst.lam, abs=1e-9)
        np.testing.assert_allclose(inst.x, inst.u)
        np.testing.assert_allclose(inst.y, inst.v, rtol=1e-9, atol=1e-12)


def test_fiedler_on_transition_matrix_of_regular_graph():
    g = cycle(6)
    transition = np.asarray(
        g.adjacency.toarray() / g.degree_seq[:, None], dtype=float)
    instances = fiedler_check(transition, trials=30, seed=9)
    for inst in instances:
        assert inst.lam == pytest.approx(1.0, abs=1e-10)
        assert inst.bilinear >= inst.lam - 1e-9
        np.testing.assert_allclose(inst.x * inst.y, inst.u * inst.v,
                                   rtol=1e-12, atol=1e-15)


def test_fiedler_rejects_bad_input():
    with pytest.raises(InputError):
        fiedler_check(np.array([[1.0, 1.0], [0.0, 1.0]]), trials=1, seed=0)
    with pytest.raises(InputError):
        fiedler_check(np.eye(3), trials=1, seed=0)
    with pytest.raises(InputError):
        fiedler_check(-np.ones((2, 2)), trials=1, seed=0)
    with pytest.raises(InputError):
        fiedler_check(np.ones((2, 3)), trials=1, seed=0)
    with pytest.raises(ParameterError):
        fiedler_check(np.ones((2, 2)), trials=0, seed=0)
    with pytest.raises(RangeError):
        fiedler_check(np.ones((17, 17)), trials=1, seed=0)


def test_pagerank_paradox_check(hub_digraph):
    vector = pagerank_centrality(hub_digraph, 0.15)
    lhs, rhs = pagerank_paradox_check(hub_digraph, vector)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs == pytest.approx(45.5 / 37, abs=1e-10)
    assert lhs >= rhs - EQUALITY_TOL
    ring = build_directed(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    lhs_r, rhs_r = pagerank_paradox_check(ring,
                                          pagerank_centrality(ring, 0.5))
    assert lhs_r == pytest.approx(rhs_r, abs=1e-12)


def test_bias_distribution_is_zero_on_regular_family():
    spec = RandomGraphSpec(model="cycle", n=8)
    dist = bias_distribution(spec, CentralityParams(kind="degree"),
                             n_graphs=5, seed=0)
    assert len(dist.samples) == 40
    assert dist.min == dist.max == 0.0
    assert dist.histogram == [(0.0, 0.0, 40)]
    assert dist.fraction_negative == 0.0


def test_bias_distribution_is_zero_on_complete_graphs():
    spec = RandomGraphSpec(model="complete", n=5)
    # Nodes plus both arcs of every edge, which sizes the sampling window.
    assert paradox._mean_extent(spec) == 5 + 5 * 4
    dist = bias_distribution(spec, CentralityParams(kind="degree"),
                             n_graphs=3, seed=0)
    assert dist.samples.tolist() == [0.0] * 15
    assert dist.histogram == [(0.0, 0.0, 15)]


def test_bias_distribution_star_family_closed_form():
    spec = RandomGraphSpec(model="star", n=6)
    dist = bias_distribution(spec, CentralityParams(kind="degree"),
                             n_graphs=3, seed=1)
    # Per star: hub bias 1 - (n-1) = -4 once, leaf bias n - 2 = 4 five times.
    assert len(dist.samples) == 18
    assert sorted(set(dist.samples.tolist())) == [-4.0, 4.0]
    assert dist.fraction_negative == pytest.approx(3 / 18)
    assert dist.mean == pytest.approx((5 * 4 - 4) / 6, abs=1e-12)


def test_bias_distribution_er_ensemble_properties():
    spec = RandomGraphSpec(model="erdos_renyi", n=30, p=0.15, seed=0)
    params = CentralityParams(kind="degree")
    dist = bias_distribution(spec, params, n_graphs=20, seed=42)
    again = bias_distribution(spec, params, n_graphs=20, seed=42)
    np.testing.assert_array_equal(dist.samples, again.samples)
    assert dist.mean > 0
    assert 0 < dist.fraction_negative < 1
    assert sum(count for _, _, count in dist.histogram) == len(dist.samples)
    assert len(dist.histogram) >= 10
    assert dist.quantiles[0.25] <= dist.quantiles[0.5] <= dist.quantiles[0.75]
    assert dist.min <= dist.quantiles[0.01]
    assert dist.max >= dist.quantiles[0.99]


def test_bias_distribution_rejects_impossible_ensembles():
    with pytest.raises(ParameterError):
        bias_distribution(RandomGraphSpec(model="cycle", n=5),
                          CentralityParams(kind="degree"), n_graphs=0, seed=0)
    # p = 0 never yields a connected 3-node graph without LCC extraction.
    spec = RandomGraphSpec(model="erdos_renyi", n=3, p=0.0,
                           lcc_extract=False)
    with pytest.raises(GenerationError):
        bias_distribution(spec, CentralityParams(kind="degree"),
                          n_graphs=1, seed=0)


# --- round sampling and batched solves in bias_distribution ---------------

EIGENVECTOR = CentralityParams(kind="eigenvector")

# The spectral and count measures of the paradox.
MEASURES = (CentralityParams(kind="degree"),
            CentralityParams(kind="walk_count", ell=3),
            EIGENVECTOR,
            CentralityParams(kind="katz", alpha=0.05),
            CentralityParams(kind="pagerank", beta=0.15))

# name -> (ensemble, members)
ENSEMBLES = {
    "erdos_renyi": (RandomGraphSpec(model="erdos_renyi", n=40, p=0.1), 12),
    "configuration": (RandomGraphSpec(
        model="configuration", n=30,
        degree_sequence=(6, 5, 5, 4, 4, 4) + (3,) * 12 + (2,) * 12), 12),
    "preferential_attachment": (RandomGraphSpec(
        model="preferential_attachment", n=40, m_attach=2), 12),
    # Regular members pass on the uniform vector, before any step.
    "k_regular": (RandomGraphSpec(model="k_regular", n=30, k=3), 6),
    # Largest components of 250 to 269 nodes: both sides of
    # LANCZOS_MIN_NODES.
    "straddling": (RandomGraphSpec(model="erdos_renyi", n=280, p=0.01), 12),
    # Resampled for connectivity: 35 attempts in 7 rounds.
    "ring": (RandomGraphSpec(model="k_regular", n=30, k=2), 12),
    # Resampled for connectivity: 37 attempts in 9 rounds.
    "erdos_renyi_resampled": (RandomGraphSpec(
        model="erdos_renyi", n=20, p=0.15, lcc_extract=False), 12),
}
SEED = 5


def _per_member_samples(spec, measure, n_graphs, seed,
                        sample=connected_sample):
    """One ``sample`` and one ``compute`` call per member, in member
    order: the reference the round sampler and the batched solves must
    reproduce byte for byte."""
    deltas = []
    for index in range(n_graphs):
        graph = sample(spec, index, seed)
        values = compute(graph, measure).values
        deltas.append(neighbor_average(graph, values) - values)
    return np.concatenate(deltas)


def _attempts(spec, index, seed):
    """Attempts the reference sampler makes for one member."""
    base = derive_seed(seed, index)
    return next(attempt + 1 for attempt in range(100)
                if is_connected(generate(dataclass_replace(
                    spec, seed=derive_seed(base, attempt)))))


@pytest.fixture
def solve_batches(monkeypatch):
    """Node counts of the graphs in each solve over a disjoint union, in
    call order."""
    batches = []
    solve = paradox._block_values

    def recorded(union, sizes, measure):
        batches.append(list(sizes))
        return solve(union, sizes, measure)

    monkeypatch.setattr(paradox, "_block_values", recorded)
    return batches


@pytest.mark.parametrize("batch", ["one", "two", "all"])
@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_batched_eigenvector_bias_matches_per_member_solves(
        monkeypatch, solve_batches, name, batch):
    spec, n_graphs = ENSEMBLES[name]
    members = [connected_sample(spec, i, SEED) for i in range(n_graphs)]
    wants = [_per_member_samples(spec, measure, n_graphs, SEED)
             for measure in MEASURES]
    arcs = [len(member.column_targets) for member in members]
    if batch == "one":
        monkeypatch.setattr(paradox, "BFS_BLOCK_ARCS", 0)
    elif batch == "two":
        # Any two neighbours fit, no three do.
        pairs = max(a + b for a, b in zip(arcs, arcs[1:]))
        assert pairs < min(a + b + c for a, b, c
                           in zip(arcs, arcs[1:], arcs[2:]))
        monkeypatch.setattr(paradox, "BFS_BLOCK_ARCS", pairs)
    for measure, want in zip(MEASURES, wants):
        solve_batches.clear()
        got = bias_distribution(spec, measure, n_graphs, SEED).samples
        assert got.tobytes() == want.tobytes(), measure.kind

        batched = [member.node_count for member in members
                   if centrality._in_blocks(measure, member)]
        assert [n for sizes in solve_batches for n in sizes] == batched
        if measure.kind == "katz":
            assert not batched
            continue
        if name == "straddling" and measure.kind == "eigenvector":
            assert 0 < len(batched) < n_graphs
            continue
        expected = {"one": [1] * n_graphs, "two": [2] * (n_graphs // 2),
                    "all": [n_graphs]}[batch]
        assert list(map(len, solve_batches)) == expected, measure.kind


def test_banded_pagerank_members_are_solved_alone(solve_batches):
    # Non-regular banded members of LANCZOS_MIN_NODES nodes or more start
    # PageRank from a banded solve, which a batch does not take; shorter
    # paths and rings, whose uniform start is exact, stay batched.
    measure = CentralityParams(kind="pagerank", beta=0.15)
    for spec, batches in ((RandomGraphSpec(model="path", n=300), []),
                          (RandomGraphSpec(model="path", n=255), [[255] * 3]),
                          (RandomGraphSpec(model="cycle", n=300),
                           [[300] * 3])):
        solve_batches.clear()
        got = bias_distribution(spec, measure, 3, SEED).samples
        want = _per_member_samples(spec, measure, 3, SEED)
        assert got.tobytes() == want.tobytes()
        assert solve_batches == batches


def test_pagerank_members_leave_the_batch_where_the_power_loop_may_not_finish(
        solve_batches):
    # ER(300, 0.02) members are not banded.  At beta = 0.15 the power loop
    # from the uniform vector is sure to pass tol within its budget, so
    # they stay batched; at 1e-6 it is not, and each is solved alone from
    # a conjugate-gradient start.
    spec = RandomGraphSpec(model="erdos_renyi", n=300, p=0.02)
    sizes = [connected_sample(spec, i, SEED).node_count for i in range(3)]
    assert min(sizes) >= centrality.LANCZOS_MIN_NODES
    for beta, batched in ((0.15, sizes), (1e-6, [])):
        measure = CentralityParams(kind="pagerank", beta=beta)
        solve_batches.clear()
        got = bias_distribution(spec, measure, 3, SEED).samples
        want = _per_member_samples(spec, measure, 3, SEED)
        assert got.tobytes() == want.tobytes()
        assert [n for batch in solve_batches for n in batch] == batched


@pytest.mark.parametrize("name", ["ring", "erdos_renyi_resampled",
                                  "erdos_renyi"])
def test_one_labelling_per_sampling_round(search_calls, name):
    spec, n_graphs = ENSEMBLES[name]
    attempts = [_attempts(spec, i, SEED) for i in range(n_graphs)]
    search_calls.clear()
    bias_distribution(spec, CentralityParams(kind="degree"), n_graphs, SEED)
    # Round a labels every member still pending after a attempts.
    assert len(search_calls) == max(attempts)
    if name == "erdos_renyi":
        assert len(search_calls) == 1
    else:
        assert max(attempts) < sum(attempts)


@pytest.mark.parametrize("name", ["ring", "k_regular",
                                  "preferential_attachment"])
def test_sampling_windows_stay_under_the_arc_cap(monkeypatch, name):
    spec, n_graphs = ENSEMBLES[name]
    # Every candidate of these models has the same nodes and stored arcs.
    member = generate(spec)
    cap = 5 * (member.node_count + len(member.column_targets))
    monkeypatch.setattr(paradox, "BFS_BLOCK_ARCS", cap)
    unions = []
    build = paradox.build_undirected

    def recorded(node_count, pairs):
        unions.append((node_count // spec.n, node_count + 2 * len(pairs)))
        return build(node_count, pairs)

    monkeypatch.setattr(paradox, "build_undirected", recorded)
    got = bias_distribution(spec, EIGENVECTOR, n_graphs, SEED).samples
    want = _per_member_samples(spec, EIGENVECTOR, n_graphs, SEED)
    assert got.tobytes() == want.tobytes()
    # Windows of 5 members, each labelled once per round.
    assert unions[0][0] == 5 and max(members for members, _ in unions) == 5
    assert max(extent for _, extent in unions) <= cap


@pytest.fixture
def drawn_seeds(monkeypatch):
    """The seeds of each batch the sampler draws, in call order."""
    batches = []
    draw = paradox._draw_edges

    def recorded(spec, seeds):
        batches.append(list(seeds))
        return draw(spec, seeds)

    monkeypatch.setattr(paradox, "_draw_edges", recorded)
    return batches


def _round_order(spec, members, seed):
    """The seed of every attempt the reference sampler makes for the
    members in ``members``, attempt 0 of each member first, then attempt 1
    of each member that needs it, and so on."""
    attempts = {index: _attempts(spec, index, seed) for index in members}
    return [derive_seed(derive_seed(seed, index), attempt)
            for attempt in range(max(attempts.values()))
            for index in members if attempt < attempts[index]]


def _window_order(spec, n_graphs, seed, window):
    """:func:`_round_order` of each window of ``window`` consecutive
    members in turn, as lists."""
    return [_round_order(spec, range(first, min(first + window, n_graphs)),
                         seed) for first in range(0, n_graphs, window)]


@pytest.mark.parametrize("window", [None, 5])
def test_each_round_draws_its_members_in_one_batch(monkeypatch, drawn_seeds,
                                                   window):
    spec, n_graphs = ENSEMBLES["ring"]
    if window:
        monkeypatch.setattr(paradox, "BFS_BLOCK_ARCS",
                            window * (spec.n + 2 * spec.n))
    got = bias_distribution(spec, EIGENVECTOR, n_graphs, SEED).samples
    want = _per_member_samples(spec, EIGENVECTOR, n_graphs, SEED)
    assert got.tobytes() == want.tobytes()
    seeds = [seed for batch in drawn_seeds for seed in batch]
    # Every attempt the reference makes is drawn once and no other.
    assert sorted(seeds) == sorted(_round_order(spec, range(n_graphs), SEED))
    if window is None:
        # One batch per round, in the order of the rounds.
        assert seeds == _round_order(spec, range(n_graphs), SEED)
        assert len(drawn_seeds[0]) == n_graphs
        assert len(drawn_seeds) == max(
            _attempts(spec, index, SEED) for index in range(n_graphs))
    else:
        # Windows of 5 members, each drawing all its rounds before the
        # next window draws, one batch per round.
        orders = _window_order(spec, n_graphs, SEED, window)
        assert seeds == [seed for order in orders for seed in order]
        window_of = {seed: number for number, order in enumerate(orders)
                     for seed in order}
        assert all(len({window_of[seed] for seed in batch}) == 1
                   for batch in drawn_seeds)
        assert len(drawn_seeds) == sum(
            max(_attempts(spec, index, SEED) for index in range(
                first, min(first + window, n_graphs)))
            for first in range(0, n_graphs, window))


def _erasure_notices(caplog, call):
    """The erasure notices the generators log during ``call()``."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="paradoxlab.generators"):
        call()
    return [record.getMessage() for record in caplog.records]


def test_erasure_notices_follow_the_rounds(caplog):
    spec, n_graphs = ENSEMBLES["configuration"]
    order = _round_order(spec, range(n_graphs), SEED)
    assert len(order) > n_graphs
    got = _erasure_notices(caplog, lambda: bias_distribution(
        spec, CentralityParams(kind="degree"), n_graphs, SEED))
    # The per-attempt reference: one generate per attempt, in the order
    # the rounds draw them.
    want = _erasure_notices(caplog, lambda: [
        generate(dataclass_replace(spec, seed=seed)) for seed in order])
    assert len(want) > n_graphs
    assert got == want


def test_erasure_notices_follow_the_windows(monkeypatch, caplog):
    spec, n_graphs = ENSEMBLES["configuration"]
    # Windows of 5 members: a candidate has at most n nodes and one stored
    # arc per stub.
    monkeypatch.setattr(paradox, "BFS_BLOCK_ARCS",
                        5 * (spec.n + sum(spec.degree_sequence)))
    orders = _window_order(spec, n_graphs, SEED, 5)
    assert any(len(order) > 5 for order in orders)
    got = _erasure_notices(caplog, lambda: bias_distribution(
        spec, CentralityParams(kind="degree"), n_graphs, SEED))
    want = _erasure_notices(caplog, lambda: [
        generate(dataclass_replace(spec, seed=seed))
        for order in orders for seed in order])
    assert got == want


def _raised(call):
    with pytest.raises(ParadoxLabError) as info:
        call()
    error = info.value
    return (type(error), str(error), getattr(error, "residual", None),
            getattr(error, "iterations", None))


def test_batched_solve_fails_as_the_per_member_loop():
    spec, n_graphs = ENSEMBLES["erdos_renyi"]
    steps = [compute(connected_sample(spec, i, SEED),
                     EIGENVECTOR).iterations for i in range(n_graphs)]
    # Members at or above the budget fail; the first of them raises, after
    # some converge.
    budget = sorted(steps)[n_graphs // 2]
    assert steps[0] < budget
    measure = CentralityParams(kind="eigenvector", max_iters=budget)
    want = _raised(lambda: _per_member_samples(spec, measure, n_graphs, SEED))
    assert want[0] is ConvergenceError and want[3] == budget
    assert _raised(lambda: bias_distribution(
        spec, measure, n_graphs, SEED)) == want


def test_batched_pagerank_fails_as_the_per_member_loop():
    spec, n_graphs = ENSEMBLES["erdos_renyi"]
    steps = [compute(connected_sample(spec, i, SEED), CentralityParams(
        kind="pagerank", beta=0.15)).iterations for i in range(n_graphs)]
    # The first member to reach the budget raises, after some converge,
    # with its own last residual.
    budget = sorted(steps)[3 * n_graphs // 4]
    assert steps[0] < budget
    measure = CentralityParams(kind="pagerank", beta=0.15, max_iters=budget)
    want = _raised(lambda: _per_member_samples(spec, measure, n_graphs, SEED))
    assert want[0] is ConvergenceError and want[3] == budget
    assert _raised(lambda: bias_distribution(
        spec, measure, n_graphs, SEED)) == want


@pytest.mark.parametrize("budget", [None, "short"])
@pytest.mark.parametrize("member", ["unsampleable", "lone node"])
def test_a_failing_member_waits_for_the_members_before_it(monkeypatch,
                                                           member, budget):
    spec, n_graphs = ENSEMBLES["erdos_renyi"]
    steps = [compute(connected_sample(spec, i, SEED),
                     EIGENVECTOR).iterations for i in range(n_graphs)]
    failing = n_graphs - 2

    def fault(index):
        if member == "unsampleable":
            raise GenerationError(f"no graph {index}")
        # Solvable, but a node without neighbours has no average.
        return build_undirected(1, [])

    def sample_or_fail(spec, index, seed):
        if index != failing:
            return connected_sample(spec, index, seed)
        return fault(index)

    samples = paradox._connected_samples

    def samples_or_fail(spec, n_graphs, seed):
        for index, graph in enumerate(samples(spec, n_graphs, seed)):
            yield graph if index != failing else fault(index)

    monkeypatch.setattr(paradox, "_connected_samples", samples_or_fail)
    measure = (EIGENVECTOR if budget is None else CentralityParams(
        kind="eigenvector", max_iters=max(steps[:failing])))
    want = _raised(lambda: _per_member_samples(spec, measure, n_graphs, SEED,
                                               sample_or_fail))
    assert want[0] is {None: {"unsampleable": GenerationError,
                              "lone node": PreconditionError}[member],
                       "short": ConvergenceError}[budget]
    assert _raised(lambda: bias_distribution(
        spec, measure, n_graphs, SEED)) == want


@pytest.mark.parametrize("budget", [None, "short"])
def test_pairing_exhaustion_waits_for_the_members_before_it(monkeypatch,
                                                            unshuffled,
                                                            budget):
    spec, n_graphs = ENSEMBLES["erdos_renyi_resampled"]
    steps = [compute(connected_sample(spec, i, SEED),
                     EIGENVECTOR).iterations for i in range(n_graphs)]
    failing = n_graphs - 2
    # A draw of a round after the first, while other members are pending.
    assert _attempts(spec, failing, SEED) > 2
    exhausted = derive_seed(derive_seed(SEED, failing), 2)
    draw = generators._draw_edges

    def draw_or_exhaust(spec, seeds):
        # The exhausted draw pairs 2-regular stubs that are never
        # shuffled, so every pairing has self-loops.
        return [generators._k_regular_edges(spec.n, 2, [SplitMix64(seed)])[0]
                if seed == exhausted else draw(spec, [seed])[0]
                for seed in seeds]

    # generate, and so the reference, calls the generators module's name.
    monkeypatch.setattr(generators, "_draw_edges", draw_or_exhaust)
    monkeypatch.setattr(paradox, "_draw_edges", draw_or_exhaust)
    measure = (EIGENVECTOR if budget is None else CentralityParams(
        kind="eigenvector", max_iters=max(steps[:failing])))
    want = _raised(lambda: _per_member_samples(spec, measure, n_graphs, SEED))
    assert want[0] is {None: GenerationError,
                       "short": ConvergenceError}[budget]
    if budget is None:
        assert "pairing" in want[1]
    assert _raised(lambda: bias_distribution(
        spec, measure, n_graphs, SEED)) == want


def test_a_round_with_no_drawn_candidate_raises_its_pairing_error(
        monkeypatch):
    # Simple 5-regular pairings on 100 nodes are rare, so some member's
    # round 0 draws no candidate; windows of one member leave it alone in
    # its round.
    spec = RandomGraphSpec(model="k_regular", n=100, k=5)
    monkeypatch.setattr(paradox, "BFS_BLOCK_ARCS", 0)
    measure = CentralityParams(kind="degree")
    want = _raised(lambda: _per_member_samples(spec, measure, 4, SEED))
    assert want[0] is GenerationError and "pairing" in want[1]
    assert _raised(lambda: bias_distribution(spec, measure, 4, SEED)) == want


def test_directed_reports_use_out_degrees(hub_digraph):
    vector = pagerank_centrality(hub_digraph, 0.15)
    report = paradox_report(hub_digraph, vector)
    # mu_tilde weights by out-degree (2, 1, 1).
    weights = np.array([2.0, 1.0, 1.0]) / 4.0
    assert report.mu_tilde == pytest.approx(
        float(weights @ vector.values), abs=1e-14)
    with pytest.raises(InputError):
        compare_averages(hub_digraph, vector)
    with pytest.raises(InputError):
        symmetrization_identity(hub_digraph)
    with pytest.raises(InputError):
        eaves_check(hub_digraph, 1)
    with pytest.raises(InputError):
        exact_degree_stats(hub_digraph)


def _exact_slack(graph, kind):
    """``mu_bar - mu`` of closeness or harmonic as a ``Fraction``, from
    breadth-first distances."""
    n = graph.node_count
    dists = [hop_distances(graph.row_offsets, graph.column_targets, i
                           ).tolist() for i in range(n)]
    if kind == "closeness":
        r = [Fraction(n - 1, sum(row)) for row in dists]
    else:
        r = [sum(Fraction(1, d) for d in row if d) for row in dists]
    offsets, targets = graph.row_offsets.tolist(), graph.column_targets
    mu_bar = sum(Fraction(sum(r[j] for j in targets[lo:hi].tolist()),
                          hi - lo)
                 for lo, hi in zip(offsets, offsets[1:])) / n
    return mu_bar - sum(r) / n


@pytest.mark.parametrize("edges, violated", [
    (BARBELL, {"closeness": "-4.98e-05"}),
    (SEARCHED, {"closeness": "-4.68e-03", "harmonic": "-1.11e-02"}),
])
def test_closeness_and_harmonic_can_violate_the_inequality(edges, violated):
    graph = build_undirected(16, edges)
    assert graph.edge_count == len(edges) and is_connected(graph)
    for kind in ("closeness", "harmonic"):
        report = paradox_report(graph, compute(graph, CentralityParams(kind)))
        exact = _exact_slack(graph, kind)
        assert report.slack == pytest.approx(float(exact), rel=1e-9)
        assert report.paradox_holds is (kind not in violated)
        if kind in violated:
            assert f"{float(exact):.2e}" == violated[kind]
    if "harmonic" in violated:
        assert _exact_slack(graph, "harmonic") == Fraction(-1, 90)
    # The measures the theorem covers hold on both graphs.
    for params in (CentralityParams("degree"),
                   CentralityParams("walk_count", ell=2),
                   CentralityParams("walk_count", ell=5),
                   CentralityParams("eigenvector"),
                   CentralityParams("katz", alpha=0.05),
                   CentralityParams("pagerank", beta=0.15)):
        report = paradox_report(graph, compute(graph, params))
        assert report.paradox_holds and report.slack > 0
