import dataclasses

import numpy as np
import pytest

from paradoxlab import (GenerationError, ParameterError, RandomGraphSpec,
                        build_undirected, derive_seed, generate, generators,
                        is_connected)
from paradoxlab.rng import _GAMMA, SplitMix64
from conftest import (edge_pairs, k_regular_edges, pair_stubs,
                      peak_bytes_raising, rejecting_seed, unshuffled_rows)


def test_deterministic_families():
    p6 = generate(RandomGraphSpec(model="path", n=6))
    assert p6.degree_seq.tolist() == [1, 2, 2, 2, 2, 1]
    ring = generate(RandomGraphSpec(model="cycle", n=5))
    assert ring.degree_seq.tolist() == [2] * 5
    assert ring.edge_count == 5
    hub = generate(RandomGraphSpec(model="star", n=5))
    assert hub.degree_seq.tolist() == [4, 1, 1, 1, 1]
    full = generate(RandomGraphSpec(model="complete", n=6))
    assert full.edge_count == 15
    assert full.degree_seq.tolist() == [5] * 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 40])
def test_deterministic_edges_match_the_list_builders(n):
    # The list comprehensions the numpy builders replaced.
    path = [(i, i + 1) for i in range(n - 1)]
    want = {
        generators.path_edges: path,
        generators.cycle_edges: path + [(n - 1, 0)],
        generators.star_edges: [(0, i) for i in range(1, n)],
        generators.complete_edges: [(i, j) for i in range(n)
                                    for j in range(i + 1, n)]}
    for build, edges in want.items():
        got = build(n)
        assert got.dtype == np.int64 and got.shape == (len(edges), 2)
        assert got.tolist() == [list(edge) for edge in edges]


def test_spec_validation():
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="petersen", n=10)
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="cycle", n=2)
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="path", n=1)
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="erdos_renyi", n=5)            # p missing
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="erdos_renyi", n=5, p=1.5)
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="path", n=5, p=0.5)            # p unused
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="k_regular", n=5, k=3)         # odd n*k
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="k_regular", n=5, k=5)
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="configuration", n=3,
                        degree_sequence=(1, 1, 1))           # odd sum
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="configuration", n=2,
                        degree_sequence=(1, 1, 2))           # length
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="preferential_attachment", n=3, m_attach=3)
    with pytest.raises(ParameterError):
        RandomGraphSpec(model="preferential_attachment", n=3, m_attach=0)


@pytest.mark.parametrize("fields, message", [
    ({"model": "star", "n": 1}, "star needs at least 2 nodes"),
    ({"model": "complete", "n": 1}, "complete graph needs at least 2 nodes"),
    ({"model": "configuration", "n": 2, "degree_sequence": (-1, 1)},
     "degrees must be nonnegative"),
    ({"model": "configuration", "n": 2, "degree_sequence": (2, 2)},
     "degrees must be below n for a simple target"),
])
def test_spec_rejections_name_their_rule(fields, message):
    with pytest.raises(ParameterError) as info:
        RandomGraphSpec(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("fields", [
    {"model": "complete", "n": 10 ** 6},
    {"model": "path", "n": 2 ** 30 + 1},
    {"model": "k_regular", "n": 2 ** 30, "k": 2},
    {"model": "configuration", "n": 46342,
     "degree_sequence": (46341,) * 46342},
    {"model": "preferential_attachment", "n": 2 ** 30 + 1, "m_attach": 1},
    {"model": "erdos_renyi", "n": 2 ** 31, "p": 0.0},
], ids=lambda fields: fields["model"])
def test_spec_over_the_size_limit_allocates_nothing(fields):
    # The complete graph on 10^6 nodes would ask for about 10^12 arcs.
    peak, error = peak_bytes_raising(ParameterError,
                                     lambda: RandomGraphSpec(**fields))
    assert str(error) == (f"{fields['model']} on n={fields['n']} exceeds "
                          f"the limit of 2147483647 nodes and stored arcs")
    assert peak < 1 << 20


def test_spec_at_the_size_limit_is_accepted():
    # 2^31 - 2 stored arcs each; a spec is checked, not drawn.
    RandomGraphSpec(model="cycle", n=2 ** 30 - 1)
    RandomGraphSpec(model="path", n=2 ** 30)
    RandomGraphSpec(model="star", n=2 ** 30)
    RandomGraphSpec(model="preferential_attachment", n=2 ** 30, m_attach=1)
    RandomGraphSpec(model="erdos_renyi", n=2 ** 31 - 1, p=0.0)


@pytest.mark.parametrize("fields", [
    pytest.param({"model": "erdos_renyi", "n": 10, "p": 0.1,
                  "lcc_extract": "no"}, id="lcc_extract_str"),
    pytest.param({"model": "erdos_renyi", "n": 10, "p": 0.1,
                  "lcc_extract": 1}, id="lcc_extract_int"),
    pytest.param({"model": "configuration", "n": 3, "degree_sequence": 5},
                 id="degree_sequence_int"),
    pytest.param({"model": "configuration", "n": 4,
                  "degree_sequence": {0, 1, 2, 3}}, id="degree_sequence_set")])
def test_spec_rejects_fields_of_the_wrong_type(fields):
    with pytest.raises(ParameterError):
        RandomGraphSpec(**fields)


def test_spec_takes_bools_and_sequences():
    spec = RandomGraphSpec(model="erdos_renyi", n=10, p=0.1,
                           lcc_extract=np.bool_(False))
    assert generate(spec).node_count == 10
    for degrees in ([1, 1], (1, 1), np.array([1, 1])):
        spec = RandomGraphSpec(model="configuration", n=2,
                               degree_sequence=degrees)
        assert generate(spec).edge_count == 1


def test_erdos_renyi_reproducible_and_seed_sensitive():
    spec = RandomGraphSpec(model="erdos_renyi", n=50, p=0.1, seed=42)
    a, b = generate(spec), generate(spec)
    assert a == b
    other = generate(RandomGraphSpec(model="erdos_renyi", n=50, p=0.1,
                                     seed=43))
    assert a != other
    # Plausible edge count: Binomial(1225, 0.1) stays within 6 sigma.
    assert 60 <= a.edge_count <= 185


def test_erdos_renyi_extremes():
    empty = RandomGraphSpec(model="erdos_renyi", n=6, p=0.0,
                            lcc_extract=False)
    assert generate(empty).edge_count == 0
    full = RandomGraphSpec(model="erdos_renyi", n=6, p=1.0)
    assert generate(full).edge_count == 15


def _scalar_erdos_renyi_edges(n, p, rng):
    """Reference: one scalar draw per pair in lexicographic order."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return edges


def _assert_matches_scalar_reference(n, p, seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    edges = generators._erdos_renyi_edges(n, p, block)
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
    assert edges.tolist() == [list(e) for e in
                              _scalar_erdos_renyi_edges(n, p, scalar)]
    assert block.next_uint64() == scalar.next_uint64()


@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("seed", [3, 2 ** 64 - 1])
def test_erdos_renyi_block_draws_match_scalar_loop(n, p, seed):
    _assert_matches_scalar_reference(n, p, seed)


@pytest.mark.parametrize("block_pairs", [1, 5, 29])
def test_erdos_renyi_blocks_ending_inside_and_between_rows(monkeypatch,
                                                           block_pairs):
    # n=30: rows hold 29, 28, ... pairs, so blocks of 29 end on the first
    # row boundary and blocks of 5 end inside rows.
    monkeypatch.setattr(generators, "ER_BLOCK_PAIRS", block_pairs)
    _assert_matches_scalar_reference(30, 0.3, 17)


def test_erdos_renyi_edge_count_is_unbiased():
    # Mean edge count over 1000 seeds within 3 standard errors of 122.5.
    n, p, runs = 50, 0.1, 1000
    pairs = n * (n - 1) // 2
    counts = [
        generate(RandomGraphSpec(model="erdos_renyi", n=n, p=p, seed=s,
                                 lcc_extract=False)).edge_count
        for s in range(runs)]
    mean = sum(counts) / runs
    sigma = (pairs * p * (1 - p)) ** 0.5 / runs ** 0.5
    assert abs(mean - pairs * p) < 3 * sigma
    # +-5 sigma binomial envelope for any single draw.
    assert all(60 <= c <= 185 for c in counts)


def test_erdos_renyi_lcc_default():
    spec = RandomGraphSpec(model="erdos_renyi", n=40, p=0.06, seed=11)
    sub = generate(spec)
    assert is_connected(sub)
    raw = generate(RandomGraphSpec(model="erdos_renyi", n=40, p=0.06,
                                   seed=11, lcc_extract=False))
    assert sub.node_count <= raw.node_count
    assert sub.edge_count <= raw.edge_count


def test_k_regular_is_simple_and_regular():
    for seed in range(5):
        g = generate(RandomGraphSpec(model="k_regular", n=20, k=3,
                                     seed=seed))
        assert g.degree_seq.tolist() == [3] * 20
        assert g.multiplicities.max() == 1
        assert g.edge_count == 30


def test_k_regular_tiny_case():
    g = generate(RandomGraphSpec(model="k_regular", n=2, k=1))
    assert g.edge_count == 1
    assert g.degree_seq.tolist() == [1, 1]


def test_configuration_erases_loops_and_parallels():
    degrees = (5, 3, 2, 2, 1, 1, 1, 1)
    spec = RandomGraphSpec(model="configuration", n=8,
                           degree_sequence=degrees, seed=3)
    g = generate(spec)
    # Erasure only removes edges, so realised degrees never exceed targets.
    assert (g.degree_seq <= np.array(degrees)).all()
    assert g.multiplicities.max() == 1
    assert g == generate(spec)


def test_preferential_attachment_edge_count_and_connectivity():
    for n, m in ((10, 1), (25, 2), (40, 3)):
        g = generate(RandomGraphSpec(model="preferential_attachment", n=n,
                                     m_attach=m, seed=n + m))
        assert g.edge_count == n * m - m * (m + 1) // 2
        assert is_connected(g)
        assert g.multiplicities.max() == 1
        assert (g.degree_seq >= m).sum() == n  # everyone keeps >= m links


def test_preferential_attachment_grows_hubs():
    g = generate(RandomGraphSpec(model="preferential_attachment", n=200,
                                 m_attach=2, seed=5))
    degrees = np.sort(g.degree_seq)[::-1]
    # Heavy tail: the top node far exceeds the median.
    assert degrees[0] >= 4 * np.median(g.degree_seq)


def test_k_regular_retry_budget_raises(unshuffled):
    # Unshuffled stubs [0,0,1,1,...] always pair into self-loops, so every
    # one of the 100 attempts fails, for each stream of a batch.
    streams = [SplitMix64(0), SplitMix64(1)]
    results = generators._k_regular_edges(4, 2, streams)
    assert [type(result) for result in results] == [GenerationError] * 2
    # 100 pairings of 8 stubs, each drawing 7 words.
    assert [stream._state for stream in streams] == [
        (seed + 100 * 7 * _GAMMA) % 2 ** 64 for seed in (0, 1)]
    with pytest.raises(GenerationError):
        generate(RandomGraphSpec(model="k_regular", n=4, k=2))


def _loop_pair_stubs(degrees, rng):
    """Stub pairing as a scalar loop over the shuffled pairs."""
    stubs = [node for node, degree in enumerate(degrees)
             for _ in range(degree)]
    rng.shuffle(stubs)
    return _loop_pairs(stubs)


def _loop_pairs(stubs):
    """Simple edges, loops and parallels of pairing stubs 2k and 2k + 1."""
    seen, edges, loops, parallels = set(), [], 0, 0
    for k in range(0, len(stubs), 2):
        a, b = stubs[k], stubs[k + 1]
        if a == b:
            loops += 1
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            parallels += 1
            continue
        seen.add(key)
        edges.append(key)
    return edges, loops, parallels


def _degree_sequences():
    draw = SplitMix64(77)
    for k in range(4):
        for n in range(k + 1, 13):
            if n * k % 2 == 0:
                yield [k] * n
    for _ in range(200):
        n = 1 + draw.below(12)
        degrees = [draw.below(n) for _ in range(n)]
        if sum(degrees) % 2:
            degrees[draw.below(n)] ^= 1
        yield degrees


def test_pair_stubs_matches_the_scalar_loop(monkeypatch):
    totals = np.zeros(2, dtype=np.int64)
    for index, degrees in enumerate(_degree_sequences()):
        seeds = (index, index + 1000)
        streams = [SplitMix64(seed) for seed in seeds]
        pairings = generators._pair_stubs(degrees, streams)
        for seed, stream, (edges, loops, parallels) in zip(seeds, streams,
                                                           pairings):
            ref_rng = SplitMix64(seed)
            want, want_loops, want_parallels = _loop_pair_stubs(degrees,
                                                                ref_rng)
            assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
            assert sorted(map(tuple, edges.tolist())) == sorted(want)
            assert (loops, parallels) == (want_loops, want_parallels)
            assert stream._state == ref_rng._state
            totals += (loops, parallels)
        with monkeypatch.context() as patch:
            # The batch's swaps move no stub, so each pairs with the next
            # in node order.
            patch.setattr(generators, "_uint64_rows", unshuffled_rows)
            identity = generators._pair_stubs(degrees, [SplitMix64(0)])[0]
        want = _loop_pairs([node for node, degree in enumerate(degrees)
                            for _ in range(degree)])
        assert sorted(map(tuple, identity[0].tolist())) == sorted(want[0])
        assert identity[1:] == want[1:]
    # Loops and parallels both occurred, so both counts were compared.
    assert (totals > 0).all()


def _assert_pairings_agree(degrees, seeds):
    """One batched pairing of ``seeds`` against one reference pairing per
    seed: edges, counts and final states."""
    streams = [SplitMix64(seed) for seed in seeds]
    pairings = generators._pair_stubs(degrees, streams)
    assert len(pairings) == len(seeds)
    for seed, stream, (edges, loops, parallels) in zip(seeds, streams,
                                                       pairings):
        ref_rng = SplitMix64(seed)
        want, want_loops, want_parallels = pair_stubs(degrees, ref_rng)
        assert edges.dtype == want.dtype and np.array_equal(edges, want)
        assert (loops, parallels) == (want_loops, want_parallels)
        assert stream._state == ref_rng._state
    return pairings


def test_batched_pairing_matches_the_per_stream_reference():
    # Word 5 of this stream is the rejected draw for bound top + 1 - 5.
    rejecting = rejecting_seed(5)
    rejected = 0
    for index, degrees in enumerate(_degree_sequences()):
        seeds = [derive_seed(index, row) for row in range(6)]
        top = sum(degrees) - 1
        if top > 5 and 2 ** 64 % (top + 1 - 5):
            # A row in mid-batch shuffles through the rejected word.
            seeds.insert(3, rejecting)
            rejected += 1
        batch = _assert_pairings_agree(degrees, seeds)
        # A row alone gives what it gives inside the batch.
        alone = _assert_pairings_agree(degrees, seeds[3:4])[0]
        assert np.array_equal(alone[0], batch[3][0])
        assert alone[1:] == batch[3][1:]
    assert rejected > 100
    assert _assert_pairings_agree([1, 1], []) == []
    _assert_pairings_agree([0, 0, 0], [1, 2])


def _words_drawn(seed, stream):
    return (stream._state - seed) * pow(_GAMMA, -1, 2 ** 64) % 2 ** 64


@pytest.mark.parametrize("n, k", [(2, 1), (4, 3), (12, 2), (40, 3), (80, 2),
                                  (30, 4)])
def test_k_regular_retries_each_row_from_its_own_state(n, k):
    seeds = [derive_seed(n * k, row) for row in range(40)]
    streams = [SplitMix64(seed) for seed in seeds]
    results = generators._k_regular_edges(n, k, streams)
    attempts, exhausted = set(), 0
    for seed, stream, edges in zip(seeds, streams, results):
        ref_rng = SplitMix64(seed)
        spec = RandomGraphSpec(model="k_regular", n=n, k=k, seed=seed)
        try:
            want = k_regular_edges(n, k, ref_rng)
        except GenerationError as error:
            # The budget ran out on this row and on this row alone.
            assert type(edges) is GenerationError
            assert str(edges) == str(error)
            with pytest.raises(GenerationError, match=str(error)):
                generate(spec)
            exhausted += 1
        else:
            assert np.array_equal(edges, want)
            assert generate(spec) == build_undirected(n, want)
        assert stream._state == ref_rng._state
        attempts.add(_words_drawn(seed, stream) // (n * k - 1))
    if (n, k) not in ((2, 1), (4, 3)):
        # Rows needed different numbers of pairings.
        assert len(attempts) > 3
    # P(simple) is about exp(-15/4) for 4-regular pairings, so some rows
    # of 40 exhaust their 100 pairings.
    assert (exhausted > 0) == (k == 4)


def test_configuration_draws_match_the_per_stream_reference():
    for index, degrees in enumerate(_degree_sequences()):
        if max(degrees) >= len(degrees):
            continue  # a degree the spec rejects
        spec = RandomGraphSpec(model="configuration", n=len(degrees),
                               degree_sequence=tuple(degrees))
        seeds = [derive_seed(index, row) for row in range(5)]
        for seed, edges in zip(seeds, generators._draw_edges(spec, seeds)):
            want = pair_stubs(degrees, SplitMix64(seed))[0]
            assert np.array_equal(edges, want)
            graph = generate(dataclasses.replace(spec, seed=seed))
            assert graph == build_undirected(len(degrees), want)


def test_models_are_reproducible_across_processes():
    # Frozen edge sets for fixed seeds guard against accidental RNG drift.
    raw = generate(RandomGraphSpec(model="erdos_renyi", n=8, p=0.4, seed=1,
                                   lcc_extract=False))
    assert edge_pairs(raw) == [(1, 3), (2, 5), (3, 6), (3, 7), (4, 6),
                                (4, 7), (5, 6)]
    # With the default LCC extraction the surviving component is re-indexed.
    lcc = generate(RandomGraphSpec(model="erdos_renyi", n=8, p=0.4, seed=1))
    assert lcc.node_count == 7
    assert edge_pairs(lcc) == [(0, 2), (1, 4), (2, 5), (2, 6), (3, 5),
                                (3, 6), (4, 5)]
