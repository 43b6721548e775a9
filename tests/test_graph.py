import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradoxlab import (InputError, PreconditionError, UsageError,
                        adjacency_matvec, apply_transition,
                        apply_transition_transpose, build_directed,
                        build_undirected, connected_component_labels,
                        extract_lcc, is_connected, is_strongly_connected)
from conftest import complete, cycle, path, star


def test_p6_structure(p6):
    assert p6.node_count == 6
    assert p6.edge_count == 5
    assert not p6.directed
    assert p6.degree_seq.tolist() == [1, 2, 2, 2, 2, 1]
    assert p6.neighbors(0).tolist() == [1]
    assert p6.neighbors(2).tolist() == [1, 3]


def test_multigraph_multiplicity():
    g = build_undirected(2, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 3
    assert g.degree_seq.tolist() == [3, 3]
    assert g.multiplicities.tolist() == [3, 3]
    assert g.edge_pairs() == [(0, 1)] * 3
    with_isolated = build_undirected(3, [(0, 1), (0, 1)])
    assert with_isolated.degree_seq.tolist() == [2, 2, 0]


def test_directed_out_degrees(hub_digraph):
    assert hub_digraph.directed
    assert hub_digraph.degree_seq.tolist() == [2, 1, 1]
    assert hub_digraph.edge_count == 4
    multi = build_directed(3, [(2, 0), (0, 1), (2, 0), (1, 0), (0, 2)])
    assert multi.degree_seq.tolist() == [2, 1, 2]
    assert multi.edge_pairs() == [(0, 1), (0, 2), (1, 0), (2, 0), (2, 0)]


def test_edge_validation():
    with pytest.raises(InputError):
        build_undirected(3, [(0, 3)])
    with pytest.raises(InputError):
        build_undirected(3, [(-1, 0)])
    with pytest.raises(InputError):
        build_undirected(3, [(1, 1)])
    with pytest.raises(InputError):
        build_directed(3, [(2, 2)])
    with pytest.raises(InputError):
        build_undirected(0, [])
    # Non-integer ids are rejected, not truncated or parsed.
    with pytest.raises(InputError):
        build_undirected(3, [(0, 1.7)])
    with pytest.raises(InputError):
        build_undirected(3, [("0", "2")])
    with pytest.raises(InputError):
        build_directed(3, np.array([[0.0, 1.0]]))
    # Anything but (i, j) pairs is rejected, not regrouped into pairs.
    with pytest.raises(InputError):
        build_undirected(3, [(0, 1, 2), (0, 1, 2)])
    with pytest.raises(InputError):
        build_undirected(4, [0, 1, 2, 3])


def test_edge_inputs_accepted():
    assert build_undirected(3, []).edge_count == 0
    assert build_directed(3, np.empty((0, 2), dtype=np.int64)).edge_count == 0
    expected = build_undirected(3, [(0, 2), (1, 2)])
    for dtype in (np.int32, np.int64, np.uint64):
        pairs = np.array([[0, 2], [1, 2]], dtype=dtype)
        assert build_undirected(3, pairs) == expected
    assert build_undirected(3, iter([(0, 2), (1, 2)])) == expected


def test_graph_is_immutable(p6):
    with pytest.raises(ValueError):
        p6.degree_seq[0] = 9
    with pytest.raises(ValueError):
        p6.column_targets[0] = 0


def test_graph_equality(p6):
    again = build_undirected(6, [(i, i + 1) for i in range(5)])
    assert p6 == again
    assert p6 != path(5)


def test_connectivity():
    assert is_connected(path(4))
    two_parts = build_undirected(4, [(0, 1), (2, 3)])
    assert not is_connected(two_parts)
    assert connected_component_labels(two_parts).tolist() == [0, 0, 1, 1]
    # Labels follow each component's smallest id, not its size.
    small_first = build_undirected(7, [(0, 5), (1, 2), (2, 3), (3, 4)])
    assert connected_component_labels(small_first).tolist() == \
        [0, 1, 1, 1, 1, 0, 2]
    with pytest.raises(UsageError):
        is_connected(build_directed(2, [(0, 1)]))


def test_strong_connectivity():
    ring = build_directed(3, [(0, 1), (1, 2), (2, 0)])
    assert is_strongly_connected(ring)
    one_way = build_directed(3, [(0, 1), (1, 2)])
    assert not is_strongly_connected(one_way)
    with pytest.raises(UsageError):
        is_strongly_connected(path(3))


def test_extract_lcc():
    cases = [
        ([(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)], [2, 3, 4],
         [(0, 1), (0, 2), (1, 2)]),
        # Multiplicities survive and count towards edge_count.
        ([(0, 6), (1, 3), (3, 1), (3, 5), (5, 1), (5, 3), (1, 3)], [1, 3, 5],
         [(0, 1), (0, 1), (0, 1), (0, 2), (1, 2), (1, 2)]),
    ]
    for edges, kept_ids, lcc_edges in cases:
        sub, kept = extract_lcc(build_undirected(7, edges))
        assert kept.tolist() == kept_ids
        assert sub.node_count == len(kept_ids)
        assert sub.edge_count == len(lcc_edges)
        assert sub.edge_pairs() == lcc_edges
        assert sub == build_undirected(len(kept_ids), lcc_edges)
        assert is_connected(sub)


def test_extract_lcc_tie_goes_to_smallest_ids():
    g = build_undirected(4, [(0, 1), (2, 3)])
    sub, kept = extract_lcc(g)
    assert kept.tolist() == [0, 1]


def test_matvec_examples(p6):
    assert adjacency_matvec(p6, np.ones(6)).tolist() == [1, 2, 2, 2, 2, 1]
    assert adjacency_matvec(p6, p6.degree_seq).tolist() == [2, 3, 4, 4, 3, 2]
    with pytest.raises(InputError):
        adjacency_matvec(p6, np.ones(5))


def test_transition_examples(p6):
    out = apply_transition(p6, p6.degree_seq)
    assert out.tolist() == [2.0, 1.5, 2.0, 2.0, 1.5, 2.0]
    ones = apply_transition(p6, np.ones(6))
    np.testing.assert_allclose(ones, 1.0, rtol=0, atol=1e-15)


def test_transition_zero_degree_rejected():
    g = build_undirected(3, [(0, 1)])
    with pytest.raises(PreconditionError):
        apply_transition(g, np.ones(3))


def test_directed_transition_permutes():
    ring = build_directed(3, [(0, 1), (1, 2), (2, 0)])
    x = np.array([5.0, 7.0, 9.0])
    assert apply_transition(ring, x).tolist() == [7.0, 9.0, 5.0]


def test_degree_vector_is_stationary(p6):
    # d^T C = d^T, i.e. C^T d = d.
    for g in (p6, star(6), complete(5)):
        d = g.degree_seq.astype(float)
        np.testing.assert_allclose(apply_transition_transpose(g, d), d,
                                   rtol=0, atol=1e-12)


@st.composite
def connected_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    # A random spanning tree guarantees connectivity and positive degrees.
    edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i)
             for i in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=12))
    edges.extend((u, v) for u, v in extra if u != v)
    return n, edges


@settings(max_examples=60, deadline=None)
@given(connected_edge_lists())
def test_transition_rows_are_stochastic(case):
    n, edges = case
    g = build_undirected(n, edges)
    np.testing.assert_allclose(apply_transition(g, np.ones(n)), 1.0,
                               rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(connected_edge_lists(), st.integers(0, 2 ** 32))
def test_undirected_matvec_is_symmetric(case, vec_seed):
    n, edges = case
    g = build_undirected(n, edges)
    rng = np.random.default_rng(vec_seed)
    x, y = rng.normal(size=(2, n))
    # <y, Ax> == <x, Ay> because A is symmetric.
    assert adjacency_matvec(g, x) @ y == pytest.approx(
        adjacency_matvec(g, y) @ x, rel=1e-12, abs=1e-12)
