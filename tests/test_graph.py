import importlib
import json
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from packaging.requirements import Requirement
from packaging.specifiers import SpecifierSet
from scipy import sparse
from scipy.sparse import csgraph

from paradoxlab import (Graph, InputError, PreconditionError,
                        RandomGraphSpec, UsageError, adjacency_matvec,
                        apply_transition, apply_transition_transpose,
                        build_directed, build_undirected,
                        closeness_harmonic, connected_component_labels,
                        dense_from_graph, dense_hop_distances,
                        eigenvector_centrality, extract_lcc, fiedler_check,
                        generate, is_connected, is_strongly_connected,
                        katz_centrality, neighbor_average,
                        pagerank_centrality, symmetrization_identity)
from paradoxlab import cli
from paradoxlab.graph import (_connected_blocks, _index_dtype,
                              disjoint_union)
from conftest import (complete, cycle, edge_pairs, hop_distances, neighbors,
                      path, star)


def test_p6_structure(p6):
    assert p6.node_count == 6
    assert p6.edge_count == 5
    assert not p6.directed
    assert p6.degree_seq.tolist() == [1, 2, 2, 2, 2, 1]
    assert neighbors(p6, 0).tolist() == [1]
    assert neighbors(p6, 2).tolist() == [1, 3]


def test_multigraph_multiplicity():
    g = build_undirected(2, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 3
    assert g.degree_seq.tolist() == [3, 3]
    assert g.multiplicities.tolist() == [3, 3]
    assert edge_pairs(g) == [(0, 1)] * 3
    with_isolated = build_undirected(3, [(0, 1), (0, 1)])
    assert with_isolated.degree_seq.tolist() == [2, 2, 0]


def test_directed_out_degrees(hub_digraph):
    assert hub_digraph.directed
    assert hub_digraph.degree_seq.tolist() == [2, 1, 1]
    assert hub_digraph.edge_count == 4
    multi = build_directed(3, [(2, 0), (0, 1), (2, 0), (1, 0), (0, 2)])
    assert multi.degree_seq.tolist() == [2, 1, 2]
    assert edge_pairs(multi) == [(0, 1), (0, 2), (1, 0), (2, 0), (2, 0)]


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
    with pytest.raises(InputError, match="pairs"):
        build_undirected(3, [(0, 1), (2,)])
    # The range is checked before the int64 cast, so the id is not wrapped.
    with pytest.raises(InputError, match=r"\(0, 9223372036854775808\)"):
        build_undirected(3, np.array([[0, 2 ** 63]], dtype=np.uint64))
    # Python ints beyond int64, which numpy holds as float64 or object
    # values, get the same exact range error.
    for big in (2 ** 63, 2 ** 64, -2 ** 63 - 1):
        with pytest.raises(InputError,
                           match=rf"^edge \(0, {big}\) out of range for 3"):
            build_undirected(3, [(0, big)])
    with pytest.raises(InputError, match=r"\(1, 36893488147419103232\)"):
        build_directed(3, [(0, 1), (1, 2 ** 65)])
    with pytest.raises(InputError, match="integers, got float64"):
        build_undirected(3, [(0, 1.7)])
    with pytest.raises(InputError, match="integers, got object"):
        build_undirected(3, [(0, 2 ** 64), (1, 1.5)])
    with pytest.raises(InputError, match="integers, got bool"):
        build_undirected(3, [(True, False)])


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


def test_graph_leaves_other_types_to_their_own_equality(p6):
    assert p6.__eq__(edge_pairs(p6)) is NotImplemented
    assert p6 != edge_pairs(p6) and p6 != p6.degree_seq.tolist()


def test_component_labels_reject_a_digraph():
    with pytest.raises(UsageError) as info:
        connected_component_labels(build_directed(3, [(0, 1), (1, 2)]))
    assert str(info.value) == \
        "component labels are defined for undirected graphs"


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


def _reference_component_labels(graph):
    """The one-search-per-component labelling the graph module used to
    run, kept as the reference for the csgraph call."""
    labels = np.full(graph.node_count, -1, dtype=np.int64)
    current = 0
    for start in range(graph.node_count):
        if labels[start] >= 0:
            continue
        dist = hop_distances(graph.row_offsets, graph.column_targets, start)
        labels[dist >= 0] = current
        current += 1
    return labels


def test_component_labels_match_the_per_component_search():
    graphs = [build_undirected(1, []), build_undirected(5, []),
              build_undirected(7, [(0, 5), (1, 2), (2, 3), (3, 4)]),
              build_undirected(6, [(4, 5), (5, 4), (2, 0)])]
    for seed in range(40):
        graphs.append(generate(RandomGraphSpec(
            model="erdos_renyi", n=60, p=0.03, seed=seed, lcc_extract=False)))
    rng = np.random.default_rng(5)
    for n in (50, 400, 3000):
        # Scattered sparse edges leave many components of mixed sizes.
        u, v = rng.integers(0, n, (2, n // 2 + 1))
        graphs.append(build_undirected(n, np.column_stack([u, v])[u != v]))
    for graph in graphs:
        labels = connected_component_labels(graph)
        assert labels.dtype == np.int64
        assert labels.tolist() == _reference_component_labels(graph).tolist()


def test_strong_connectivity():
    ring = build_directed(3, [(0, 1), (1, 2), (2, 0)])
    assert is_strongly_connected(ring)
    one_way = build_directed(3, [(0, 1), (1, 2)])
    assert not is_strongly_connected(one_way)
    with pytest.raises(UsageError):
        is_strongly_connected(path(3))
    # Node 0 reaches every node, but no node reaches node 0.
    from_source = build_directed(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    assert not is_strongly_connected(from_source)
    # Every node reaches node 0, but node 0 reaches no other node.
    assert not is_strongly_connected(build_directed(3, [(1, 0), (2, 0)]))


def test_connectivity_matches_the_dense_oracle():
    rng = np.random.default_rng(17)
    graphs = [build_undirected(1, []), build_directed(1, []),
              build_undirected(3, [(0, 1), (0, 1)]),
              build_directed(2, [(0, 1), (0, 1)]),
              build_directed(2, [(0, 1), (0, 1), (1, 0)])]
    for _ in range(150):
        n = int(rng.integers(1, 41))
        # Sparse draws leave isolated nodes; as arcs most pairs run one
        # way only; the repeated quarter adds parallel edges.
        u, v = rng.integers(0, n, (2, int(rng.integers(0, 4 * n + 1))))
        pairs = np.column_stack([u, v])[u != v]
        pairs = np.concatenate([pairs, pairs[:len(pairs) // 4]])
        graphs += [build_undirected(n, pairs), build_directed(n, pairs)]
        # A ring through every node, one arc of it sometimes cut.
        ring = rng.permutation(n)
        arcs = np.column_stack([ring, np.roll(ring, -1)])[:n - rng.integers(2)]
        graphs.append(build_directed(n, np.concatenate(
            [arcs[arcs[:, 0] != arcs[:, 1]], pairs[:n // 4]])))
    verdicts = {(True, True): 0, (True, False): 0,
                (False, True): 0, (False, False): 0}
    for g in graphs:
        reached = bool((dense_hop_distances(g) >= 0).all())
        assert g.connected == reached
        verdicts[g.directed, reached] += 1
        # The bilinear bound takes exactly the irreducible supports.
        if g.directed and g.node_count <= 16 and reached:
            assert len(fiedler_check(dense_from_graph(g), trials=1, seed=0))
        elif g.directed and g.node_count <= 16:
            with pytest.raises(InputError, match="reducible"):
                fiedler_check(dense_from_graph(g), trials=1, seed=0)
    # Both verdicts occur often for both kinds of graph.
    assert min(verdicts.values()) >= 50


def test_connectivity_is_searched_once_per_graph(search_calls):
    calls = search_calls
    g = path(5)
    assert is_connected(g) and is_connected(g) and g.connected
    labels = connected_component_labels(g)
    assert labels.tolist() == [0] * 5 and not labels.flags.writeable
    assert calls == ["strong"]
    ring = build_directed(3, [(0, 1), (1, 2), (2, 0)])
    assert is_strongly_connected(ring) and is_strongly_connected(ring)
    # One search answers a directed graph too: none runs on the transpose.
    assert calls == ["strong"] * 2
    assert not build_directed(3, [(1, 0), (2, 0)]).connected
    assert calls == ["strong"] * 3


def test_disjoint_union_places_graphs_side_by_side(p6):
    parts = [p6, star(4), build_undirected(3, [(0, 1), (0, 1), (1, 2)])]
    union = disjoint_union(parts)
    shifted = []
    offset = 0
    for part in parts:
        shifted += [(i + offset, j + offset) for i, j in edge_pairs(part)]
        offset += part.node_count
    assert union == build_undirected(offset, shifted)
    assert union.degree_seq.tolist() == sum(
        (part.degree_seq.tolist() for part in parts), [])
    assert disjoint_union([p6]) is p6
    with pytest.raises(UsageError):
        disjoint_union([p6, build_directed(2, [(0, 1)])])


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
        assert edge_pairs(sub) == lcc_edges
        assert sub == build_undirected(len(kept_ids), lcc_edges)
        assert is_connected(sub)


def test_extract_lcc_needs_no_second_search(search_calls):
    calls = search_calls
    graph = build_undirected(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])
    sub, _ = extract_lcc(graph)
    assert calls == ["strong"]          # the labels of the whole graph
    assert sub.connected and is_connected(sub)
    labels = connected_component_labels(sub)
    assert labels.tolist() == [0, 0, 0] and not labels.flags.writeable
    assert calls == ["strong"]
    # Erdos-Renyi members are cut to their LCC, so they inherit the labels.
    calls.clear()
    member = generate(RandomGraphSpec(model="erdos_renyi", n=100, p=0.05,
                                      seed=3))
    searches = len(calls)
    assert member.connected
    assert len(calls) == searches


def test_connected_blocks_cut_each_block_as_it_is_alone(search_calls):
    blocks = [path(4),
              # Two components of two nodes and a lone node.
              build_undirected(5, [(3, 4), (0, 1)]),
              build_undirected(3, []),
              cycle(5),
              # A tie again: node 0's component is a path centred on
              # its first node, the other one on its second.
              build_undirected(6, [(0, 2), (0, 3), (1, 4), (4, 5)]),
              build_undirected(1, []),
              build_undirected(4, [(0, 1), (0, 1), (2, 3), (1, 2)])]
    union = disjoint_union(blocks)
    sizes = [block.node_count for block in blocks]
    for largest in (False, True):
        search_calls.clear()
        got = _connected_blocks(union, sizes, largest)
        assert search_calls == (["strong"] if not largest else [])
        for block, graph in zip(blocks, got):
            if largest:
                want = extract_lcc(block)[0]
            else:
                want = block if is_connected(block) else None
            if want is None:
                assert graph is None
                continue
            assert graph == want and graph.edge_count == want.edge_count
            assert np.array_equal(graph.degree_seq, want.degree_seq)
        searches = len(search_calls)
        assert all(graph.connected for graph in got if graph is not None)
        assert len(search_calls) == searches
    assert [graph is not None for graph in _connected_blocks(
        union, sizes, False)] == [True, False, False, True, False, True,
                                  True]


def _reference_from_csr(mat, edge_count, directed):
    """The COO -> CSR -> canonical-CSR assembly the graph module used to
    run through scipy.sparse, kept as the reference for the numpy path."""
    mat.sum_duplicates()
    mat.sort_indices()
    return Graph(node_count=mat.shape[0], edge_count=edge_count,
                 directed=directed,
                 row_offsets=mat.indptr.astype(np.int64),
                 column_targets=mat.indices.astype(np.int64),
                 multiplicities=mat.data.astype(np.int64),
                 degree_seq=np.asarray(mat.sum(axis=1),
                                       dtype=np.int64).ravel())


def _reference_build(n, edges, directed):
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    rows, cols = pairs[:, 0], pairs[:, 1]
    if not directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    mat = sparse.coo_matrix((np.ones(len(rows), dtype=np.int64),
                             (rows, cols)), shape=(n, n)).tocsr()
    return _reference_from_csr(mat, len(pairs), directed)


def _reference_lcc(graph):
    labels = connected_component_labels(graph)
    keep = np.flatnonzero(labels == int(np.argmax(np.bincount(labels))))
    n = graph.node_count
    sub = sparse.csr_matrix(
        (graph.multiplicities, graph.column_targets, graph.row_offsets),
        shape=(n, n))[keep][:, keep]
    return _reference_from_csr(sub, int(sub.sum()) // 2, False), keep


def assert_same_arrays(graph, expected):
    assert graph == expected
    # Every graph here is far below 2^31 nodes and arcs, so its CSR arrays
    # are int32; degrees stay int64.
    for name, dtype in (("row_offsets", np.int32),
                        ("column_targets", np.int32),
                        ("multiplicities", np.int32),
                        ("degree_seq", np.int64)):
        got, want = getattr(graph, name), getattr(expected, name)
        assert got.dtype == dtype, name
        assert got.tolist() == want.tolist(), name


@st.composite
def multigraph_edge_lists(draw, max_nodes=12):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=30))
    # Few nodes and many pairs give repeats in both orientations.
    return n, [(u, v) for u, v in pairs if u != v]


@settings(max_examples=150, deadline=None)
@given(multigraph_edge_lists())
@example((1, []))
@example((4, []))
@example((5, [(0, 1), (1, 0), (0, 1), (3, 1)]))
def test_assembly_matches_scipy_reference(case):
    n, edges = case
    assert_same_arrays(build_undirected(n, edges),
                       _reference_build(n, edges, directed=False))
    assert_same_arrays(build_directed(n, edges),
                       _reference_build(n, edges, directed=True))


@st.composite
def component_multigraphs(draw):
    """Disjoint components of drawn sizes, often equal so that sizes tie,
    with parallel edges, shuffled over the node ids."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    edges, first = [], 0
    for size in sizes:
        for i in range(1, size):
            edges.append((first + draw(st.integers(0, i - 1)), first + i))
        extra = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                        st.integers(0, size - 1)),
                              max_size=2 * size))
        edges.extend((first + u, first + v) for u, v in extra if u != v)
        first += size
    relabel = draw(st.permutations(range(first)))
    return first, [(relabel[u], relabel[v]) for u, v in edges]


@settings(max_examples=150, deadline=None)
@given(component_multigraphs())
@example((4, [(0, 1), (2, 3)]))
@example((3, []))
def test_extract_lcc_matches_scipy_reference(case):
    n, edges = case
    graph = build_undirected(n, edges)
    sub, kept = extract_lcc(graph)
    expected, expected_kept = _reference_lcc(graph)
    assert kept.tolist() == expected_kept.tolist()
    assert_same_arrays(sub, expected)


def test_import_leaves_out_csgraph_and_linalg():
    # scipy is imported where a matrix is first built: about 0.2 s of
    # start-up that a command building none need not pay.
    code = ("import sys, paradoxlab; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs cli.main on each argv of a JSON list and prints, per run, the exit
# code and the scipy modules loaded so far.
_CLI_SCIPY_PROBE = """
import contextlib, io, json, sys
from paradoxlab import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        code = cli.main(argv)
    seen.append([code, sorted(m for m in sys.modules
                              if m.split(".")[0] == "scipy")])
print(json.dumps(seen))
"""


def test_commands_that_build_no_matrix_leave_out_scipy(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 x\n")
    runs = [(["gen", "--model", "k_regular", "--n", "20", "--k", "3",
              "--seed", "1"], 0),
            (["--help"], 0),
            (["gen", "--model", "path", "--n", "1"], 1),
            (["paradox", str(bad), "--measure", "degree"], 2)]
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_SCIPY_PROBE,
         json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[code, []] for _, code in runs]


@pytest.mark.parametrize("argv", [
    ["paradox", "--model", "path", "--n", "300", "--measure", "eigenvector"],
    ["gen", "--model", "erdos_renyi", "--n", "100", "--p", "0.05"],
], ids=["eigenvector", "erdos-renyi"])
def test_first_matrix_in_a_fresh_process(capsys, argv):
    # This process imported scipy with the tests; a fresh one imports it
    # at its first matrix, and prints the same bytes.
    proc = subprocess.run([sys.executable, "-m", "paradoxlab", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_running_stack_meets_the_declared_floors():
    # The tests import paradoxlab from src/, so no installer has checked
    # pyproject.toml's floors against this interpreter and these modules.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    stack = [("python", SpecifierSet(project["requires-python"]),
              "{}.{}.{}".format(*sys.version_info[:3]))]
    for dependency in map(Requirement, project["dependencies"]):
        stack.append((dependency.name, dependency.specifier,
                      importlib.import_module(dependency.name).__version__))
    short = [f"{name} {version} is not {specifier}"
             for name, specifier, version in stack
             if not specifier.contains(version, prereleases=True)]
    assert not short, short


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


@st.composite
def transition_graphs(draw):
    """Directed multigraphs whose every node has an out-arc (a ring plus
    drawn arcs, often repeated), or connected undirected multigraphs."""
    if draw(st.booleans()):
        n, edges = draw(connected_edge_lists())
        return build_undirected(n, edges)
    n = draw(st.integers(min_value=2, max_value=12))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=30))
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.extend((u, v) for u, v in extra if u != v)
    return build_directed(n, edges)


@settings(max_examples=100, deadline=None)
@given(transition_graphs(), st.integers(0, 2 ** 32))
def test_transition_transpose_matches_stored_transpose(g, vec_seed):
    x = np.random.default_rng(vec_seed).random(g.node_count)
    # The stored CSR transpose the graph used to cache.
    reference = g.adjacency.T.tocsr() @ (x / g.degree_seq.astype(np.float64))
    assert np.array_equal(apply_transition_transpose(g, x), reference)


# --- Matvecs over the rows sorted by length ----------------------------------

@settings(max_examples=150, deadline=None)
@given(multigraph_edge_lists(), st.booleans(), st.integers(0, 2 ** 32))
@example((1, []), False, 0)
@example((6, [(0, 1), (2, 3)]), False, 1)
@example((5, [(0, 1), (1, 0), (0, 1), (3, 1), (1, 4), (4, 3)]), True, 2)
# Regular graphs, whose layout is the stored matrix: a cycle, K_5, a
# matching of double edges and a directed ring.
@example((7, [(i, (i + 1) % 7) for i in range(7)]), False, 3)
@example((5, [(i, j) for i in range(5) for j in range(i)]), False, 4)
@example((4, [(0, 1), (1, 0), (2, 3), (3, 2)]), False, 5)
@example((3, [(0, 1), (1, 2), (2, 0)]), True, 6)
def test_matvec_is_bit_identical_to_the_stored_matrix(case, directed,
                                                      vec_seed):
    n, edges = case
    g = (build_directed if directed else build_undirected)(n, edges)
    x = np.random.default_rng(vec_seed).normal(size=n)
    assert np.array_equal(adjacency_matvec(g, x), g.adjacency @ x)


def test_matvec_over_rows_out_of_length_order():
    # Rows of length 3, 2, 2 and 1; the edge 0-1 twice.
    g = build_undirected(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 0)])
    layout, position = g._rows_by_degree
    assert position.tolist() in ([3, 1, 2, 0], [3, 2, 1, 0])
    assert layout.indptr.tolist() == [0, 1, 3, 5, 8]
    assert layout.indptr.dtype == layout.indices.dtype == np.int32
    for node in range(4):
        row = slice(*layout.indptr[position[node]:position[node] + 2])
        assert layout.indices[row].tolist() == neighbors(g, node).tolist()
    x = np.array([1.0, 10.0, 100.0, 1000.0])
    assert adjacency_matvec(g, x).tolist() == [1120.0, 102.0, 11.0, 1.0]
    # C^T x: entry i sums A_ij x_j / d_j, degrees 4, 3, 2 and 1.
    assert apply_transition_transpose(g, x).tolist() == [
        2 * (10 / 3) + 100 / 2 + 1000, 2 * (1 / 4) + 100 / 2,
        1 / 4 + 10 / 3, 1 / 4]


def test_rows_by_degree_are_built_once_and_skipped_where_lengths_ascend():
    g = star(6)
    x = np.arange(6.0)
    adjacency_matvec(g, x)
    layout, position = vars(g)["_rows_by_degree"]
    apply_transition_transpose(g, x)
    adjacency_matvec(g, x)
    assert vars(g)["_rows_by_degree"][0] is layout
    # The hub's row is the longest; the leaves' rows may take any order.
    assert position[0] == 5 and sorted(position) == list(range(6))
    assert "adjacency" not in vars(g)
    # Rows whose lengths already ascend are stored as they are: every
    # regular graph, and a star whose hub is its last node.
    hub_last = build_undirected(6, [(i, 5) for i in range(5)])
    for graph in (cycle(8), complete(4),
                  generate(RandomGraphSpec(model="k_regular", n=20, k=3,
                                           seed=1)), hub_last):
        adjacency_matvec(graph, np.ones(graph.node_count))
        layout, position = graph._rows_by_degree
        assert layout is graph.adjacency and position is None


@pytest.mark.parametrize("make", [lambda: star(20), lambda: path(300),
                                  lambda: generate(RandomGraphSpec(
                                      model="erdos_renyi", n=400, p=0.02,
                                      seed=2))],
                         ids=["star", "banded-path", "erdos-renyi"])
def test_solves_leave_no_matrix_behind(make):
    graph = make()
    spectral, eigenvector = eigenvector_centrality(graph)
    katz_centrality(graph, 0.85 / spectral.lambda1)
    pagerank = pagerank_centrality(graph, 0.15)
    # csgraph searches read only the index arrays, through _pattern.
    closeness_harmonic(graph, "closeness")
    closeness_harmonic(graph, "harmonic")
    neighbor_average(graph, eigenvector.values)
    neighbor_average(graph, pagerank.values)
    symmetrization_identity(graph)
    assert "_rows_by_degree" in vars(graph)
    assert "adjacency" not in vars(graph)


# --- CSR storage: the index dtype scipy picks, shared with the matrix --------

def _assert_shares_index_arrays(graph):
    for name in ("row_offsets", "column_targets", "multiplicities"):
        assert getattr(graph, name).dtype == np.int32, name
    assert graph.degree_seq.dtype == np.int64
    matrix = graph.adjacency
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    assert matrix.data.dtype == np.float64
    assert matrix.data.tolist() == graph.multiplicities.tolist()
    # The matrix's index arrays are the graph's read-only ones.  Every
    # csgraph entry point the package calls reads them as a writable
    # copy would, and leaves them shared.
    writable = matrix.copy()
    labels = csgraph.connected_components(
        matrix, directed=True, connection="strong")[1]
    assert labels.tolist() == graph._component_labels.tolist()
    # The searches run on the pattern matrix, whose data is a read-only
    # broadcast 1.0.
    pattern = graph._pattern
    assert np.array_equal(
        csgraph.shortest_path(pattern, indices=0, unweighted=True),
        csgraph.shortest_path(writable, indices=0, unweighted=True))
    sources = np.arange(graph.node_count)
    assert np.array_equal(
        csgraph.shortest_path(pattern, indices=sources, unweighted=True),
        csgraph.shortest_path(writable, indices=sources, unweighted=True))
    symmetric = not graph.directed
    assert np.array_equal(
        csgraph.reverse_cuthill_mckee(matrix, symmetric_mode=symmetric),
        csgraph.reverse_cuthill_mckee(writable, symmetric_mode=symmetric))
    assert not (matrix.indices.flags.writeable
                or matrix.indptr.flags.writeable)
    assert graph.adjacency is matrix
    assert np.shares_memory(matrix.indptr, graph.row_offsets)
    # An empty array shares memory with nothing.
    assert (np.shares_memory(matrix.indices, graph.column_targets)
            or not len(graph.column_targets))


def test_adjacency_shares_the_graph_index_arrays(p6, hub_digraph):
    multigraph = build_undirected(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    parts = [p6, star(4), multigraph]
    lcc, _ = extract_lcc(multigraph)
    blocks = _connected_blocks(disjoint_union(parts), [6, 4, 4], True)
    # Graph stores arrays of any integer dtype in its index dtype: int8
    # ones here, and int64 ones from the scipy reference.
    int8 = Graph(6, 5, False, *(getattr(p6, name).astype(np.int8) for name in
                                ("row_offsets", "column_targets",
                                 "multiplicities")), degree_seq=p6.degree_seq)
    reference = _reference_build(4, [(0, 1), (1, 0), (0, 1), (2, 3)], False)
    for graph in [p6, hub_digraph, multigraph, lcc, disjoint_union(parts),
                  build_undirected(1, []), build_directed(1, []), *blocks,
                  int8, reference]:
        _assert_shares_index_arrays(graph)


def test_index_dtype_is_int32_below_two_to_the_31():
    for count in (0, 1, 2 ** 31 - 1):
        assert _index_dtype(count, count) == np.int32
        assert _index_dtype(count, 0) == _index_dtype(0, count) == np.int32
    for count in (2 ** 31, 2 ** 40):
        assert _index_dtype(count, 0) == _index_dtype(0, count) == np.int64


def test_edge_counts_are_the_arc_counts_of_the_degree_sequences():
    # Graph reads its arc count, which fixes the index dtype, from
    # edge_count, doubled when undirected; every constructor passes the
    # count that its degree sequence sums to.
    multigraph = build_undirected(7, [(0, 1), (1, 0), (0, 1), (2, 3),
                                      (4, 5), (5, 6), (6, 4)])
    digraph = build_directed(5, [(0, 1), (0, 1), (1, 0), (4, 2), (3, 2)])
    parts = [path(6), multigraph, cycle(5), build_undirected(1, [])]
    union = disjoint_union(parts)
    sizes = [part.node_count for part in parts]
    graphs = [multigraph, digraph, build_undirected(1, []),
              build_directed(1, []), extract_lcc(multigraph)[0],
              extract_lcc(union)[0], union, disjoint_union([digraph] * 3),
              *_connected_blocks(union, sizes, True),
              *filter(None, _connected_blocks(union, sizes, False))]
    for graph in graphs:
        arcs = graph.edge_count if graph.directed else 2 * graph.edge_count
        assert int(graph.degree_seq.sum()) == arcs
        assert int(graph.multiplicities.sum()) == arcs


def test_disjoint_union_offsets_are_int64_sums():
    # Parts in a narrow dtype: shifting their offsets and targets in it
    # would wrap past 127.
    def narrow(graph):
        return Graph(graph.node_count, graph.edge_count, graph.directed,
                     *(getattr(graph, name).astype(np.int8) for name in (
                         "row_offsets", "column_targets", "multiplicities")),
                     degree_seq=graph.degree_seq)

    parts = [complete(9), path(60), complete(10), cycle(50)]
    union = disjoint_union([narrow(part) for part in parts])
    # Graph casts the int8 parts, and the union's int64 sums, to the index
    # dtype.
    assert {getattr(graph, name).dtype for graph in (narrow(parts[0]), union)
            for name in ("row_offsets", "column_targets", "multiplicities")
            } == {np.dtype(_index_dtype(union.node_count,
                                        int(union.degree_seq.sum())))}
    nodes = np.array([part.node_count for part in parts], dtype=np.int64)
    arcs = np.array([len(part.column_targets) for part in parts],
                    dtype=np.int64)
    offsets = np.concatenate([[0]] + [
        part.row_offsets[1:].astype(np.int64) + start
        for part, start in zip(parts, np.cumsum(arcs) - arcs)])
    targets = np.concatenate([
        part.column_targets.astype(np.int64) + start
        for part, start in zip(parts, np.cumsum(nodes) - nodes)])
    assert offsets[-1] > 127 and targets.max() > 127
    assert union.row_offsets.tolist() == offsets.tolist()
    assert union.column_targets.tolist() == targets.tolist()
    assert union == disjoint_union(parts)
    _assert_shares_index_arrays(union)


def test_labelling_leaves_no_matrix_behind(search_calls):
    graph = build_undirected(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])
    labels = connected_component_labels(graph).tolist()
    assert "adjacency" not in vars(graph)
    # A graph that has its matrix keeps it, and gets the same labels.
    again = build_undirected(7, edge_pairs(graph))
    matrix = again.adjacency
    assert connected_component_labels(again).tolist() == labels
    assert again.adjacency is matrix
    assert search_calls == ["strong"] * 2
