import numpy as np
import pytest

from paradoxlab import (ConvergenceError, InputError, NumericalError,
                        RangeError, build_directed, build_undirected,
                        dense_from_graph, dense_hop_distances, dense_perron,
                        dense_solve, enumerate_walks)
from paradoxlab.rng import SplitMix64
from conftest import complete, cycle, path, star


def test_dense_from_graph_path():
    expected = np.zeros((6, 6))
    for i in range(5):
        expected[i, i + 1] = expected[i + 1, i] = 1.0
    np.testing.assert_array_equal(dense_from_graph(path(6)), expected)


def test_dense_from_graph_star_and_multiplicity():
    np.testing.assert_array_equal(
        dense_from_graph(star(3)),
        np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
    doubled = build_undirected(2, [(0, 1), (0, 1)])
    np.testing.assert_array_equal(dense_from_graph(doubled),
                                  np.array([[0, 2], [2, 0]], dtype=float))


def test_dense_from_graph_directed(hub_digraph):
    np.testing.assert_array_equal(
        dense_from_graph(hub_digraph),
        np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))


def test_dense_hop_distances_closed_forms():
    i, j = np.indices((7, 7))
    np.testing.assert_array_equal(dense_hop_distances(path(7)), abs(i - j))
    np.testing.assert_array_equal(dense_hop_distances(cycle(7)),
                                  np.minimum(abs(i - j), 7 - abs(i - j)))
    np.testing.assert_array_equal(dense_hop_distances(complete(4)),
                                  1 - np.eye(4, dtype=np.int64))
    # Parallel edges are one hop; a lone node is at distance 0.
    doubled = build_undirected(3, [(0, 1), (0, 1), (1, 2)])
    np.testing.assert_array_equal(dense_hop_distances(doubled),
                                  dense_hop_distances(path(3)))
    np.testing.assert_array_equal(dense_hop_distances(path(1)), [[0]])


def test_dense_hop_distances_marks_unreached_nodes():
    # Arcs 0->1->2 and an isolated node 3.
    chain = build_directed(4, [(0, 1), (1, 2)])
    np.testing.assert_array_equal(dense_hop_distances(chain),
                                  [[0, 1, 2, -1], [-1, 0, 1, -1],
                                   [-1, -1, 0, -1], [-1, -1, -1, 0]])


def test_enumerate_walks_small_cases():
    p4 = path(4)
    assert enumerate_walks(p4, 0).tolist() == [1, 1, 1, 1]
    assert enumerate_walks(p4, 1).tolist() == [1, 2, 2, 1]
    assert enumerate_walks(p4, 2).tolist() == [2, 3, 3, 2]
    assert enumerate_walks(cycle(3), 3).tolist() == [8, 8, 8]


def test_enumerate_walks_counts_multiplicity():
    doubled = build_undirected(2, [(0, 1), (0, 1)])
    assert enumerate_walks(doubled, 2).tolist() == [4, 4]


def test_enumerate_walks_matches_matrix_power():
    rng = SplitMix64(2024)
    for _ in range(25):
        n = 2 + rng.below(9)
        edges = [(rng.below(i), i) for i in range(1, n)]  # random tree
        for _ in range(rng.below(2 * n)):
            u, v = rng.below(n), rng.below(n)
            if u != v:
                edges.append((u, v))
        g = build_undirected(n, edges)
        a = dense_from_graph(g).astype(np.int64)
        for ell in range(5):
            power = np.linalg.matrix_power(a, ell) @ np.ones(n, dtype=np.int64)
            assert enumerate_walks(g, ell).tolist() == power.tolist()


def test_enumerate_walks_guards():
    with pytest.raises(RangeError):
        enumerate_walks(path(13), 2)
    with pytest.raises(RangeError):
        enumerate_walks(path(4), 6)
    with pytest.raises(RangeError):
        enumerate_walks(path(4), -1)


def test_dense_solve_identity_and_known_system():
    rhs = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(dense_solve(np.eye(3), rhs), rhs)
    # Katz system on P3 with alpha = 1/4: exact solution (10/7, 12/7, 10/7).
    system = np.eye(3) - 0.25 * dense_from_graph(path(3))
    np.testing.assert_allclose(dense_solve(system, np.ones(3)),
                               [10 / 7, 12 / 7, 10 / 7], rtol=1e-14)


def test_dense_solve_random_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        np.testing.assert_allclose(dense_solve(a, b), np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-12)


def test_dense_solve_rejects_bad_input():
    with pytest.raises(NumericalError):
        dense_solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(NumericalError):
        dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(InputError):
        dense_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(InputError):
        dense_solve(np.eye(3), np.ones(4))


def test_dense_perron_cycle_and_complete():
    lam, u, v = dense_perron(dense_from_graph(cycle(5)))
    assert lam == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(u, 0.2, rtol=0, atol=1e-12)
    lam_k, u_k, _ = dense_perron(dense_from_graph(complete(4)))
    assert lam_k == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(u_k, 0.25, rtol=0, atol=1e-10)


def test_dense_perron_path_closed_form():
    # lambda1(P_n) = 2 cos(pi / (n + 1)), eigenvector sin(k pi / (n + 1)).
    for n in range(2, 13):
        lam, u, v = dense_perron(dense_from_graph(path(n)))
        assert lam == pytest.approx(2 * np.cos(np.pi / (n + 1)), abs=1e-9)
        sine = np.sin(np.arange(1, n + 1) * np.pi / (n + 1))
        np.testing.assert_allclose(u, sine / sine.sum(), rtol=0, atol=1e-9)
        assert v @ u == pytest.approx(1.0, abs=1e-12)


def test_dense_perron_symmetric_left_equals_right():
    a = dense_from_graph(star(6))
    lam, u, v = dense_perron(a)
    lam_t, u_t, v_t = dense_perron(a.T)
    assert lam == pytest.approx(lam_t, abs=1e-12)
    np.testing.assert_allclose(u, u_t, atol=1e-9)
    # Left vector is the right vector rescaled to v @ u = 1.
    np.testing.assert_allclose(v / v.sum(), u, atol=1e-9)


def test_dense_perron_matches_unshifted_power_iteration():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.1, 1.0, size=(4, 4))
    lam, u, _ = dense_perron(a)
    vec = np.full(4, 0.25)
    for _ in range(10000):
        vec = a @ vec
        vec /= vec.sum()
    assert lam == pytest.approx(vec @ a @ vec / (vec @ vec), abs=1e-9)
    np.testing.assert_allclose(u, vec, atol=1e-9)


def test_dense_perron_rejects_bad_matrices():
    with pytest.raises(InputError):
        dense_perron(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    reducible = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        dense_perron(reducible)
    with pytest.raises(InputError):
        dense_perron(np.ones((2, 3)))


def test_dense_perron_budget_message_agrees_in_number():
    matrix = dense_from_graph(path(60))
    for budget, steps in ((1, "1 step"), (2, "2 steps")):
        with pytest.raises(ConvergenceError) as info:
            dense_perron(matrix, max_iters=budget)
        assert str(info.value) == (f"dense power iteration did not reach "
                                   f"1e-12 in {steps}")
        assert info.value.iterations == budget


def test_dense_guards():
    big = build_undirected(513, [(i, i + 1) for i in range(512)])
    with pytest.raises(RangeError):
        dense_from_graph(big)
    with pytest.raises(RangeError):
        dense_hop_distances(big)
    with pytest.raises(RangeError):
        dense_solve(np.eye(513), np.ones(513))
    with pytest.raises(RangeError):
        dense_perron(np.ones((513, 513)))
