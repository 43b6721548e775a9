import numpy as np
import pytest

from paradoxlab import (GenerationError, ParameterError, RandomGraphSpec,
                        generate, generators, is_connected)
from paradoxlab.rng import SplitMix64


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


class _IdentityShuffle:
    """Stub stream whose shuffle is a no-op, so stub pairing always pairs
    identical neighbours in a regular sequence."""

    def shuffle(self, items):
        pass


def test_k_regular_retry_budget_raises():
    from paradoxlab.generators import _k_regular_edges
    # Unshuffled stubs [0,0,1,1,...] always pair into self-loops, so every
    # one of the 100 attempts fails.
    with pytest.raises(GenerationError):
        _k_regular_edges(4, 2, _IdentityShuffle())


def _loop_pair_stubs(degrees, rng):
    """Stub pairing as a scalar loop over the shuffled pairs."""
    stubs = [node for node, degree in enumerate(degrees)
             for _ in range(degree)]
    rng.shuffle(stubs)
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


def test_pair_stubs_matches_the_scalar_loop():
    totals = np.zeros(2, dtype=np.int64)
    for index, degrees in enumerate(_degree_sequences()):
        for seed in (index, index + 1000):
            rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
            edges, loops, parallels = generators._pair_stubs(degrees, rng)
            want, want_loops, want_parallels = _loop_pair_stubs(degrees,
                                                                ref_rng)
            assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
            assert sorted(map(tuple, edges.tolist())) == sorted(want)
            assert (loops, parallels) == (want_loops, want_parallels)
            assert rng._state == ref_rng._state
            totals += (loops, parallels)
        identity = generators._pair_stubs(degrees, _IdentityShuffle())
        want = _loop_pair_stubs(degrees, _IdentityShuffle())
        assert sorted(map(tuple, identity[0].tolist())) == sorted(want[0])
        assert identity[1:] == want[1:]
    # Loops and parallels both occurred, so both counts were compared.
    assert (totals > 0).all()


def test_models_are_reproducible_across_processes():
    # Frozen edge sets for fixed seeds guard against accidental RNG drift.
    raw = generate(RandomGraphSpec(model="erdos_renyi", n=8, p=0.4, seed=1,
                                   lcc_extract=False))
    assert raw.edge_pairs() == [(1, 3), (2, 5), (3, 6), (3, 7), (4, 6),
                                (4, 7), (5, 6)]
    # With the default LCC extraction the surviving component is re-indexed.
    lcc = generate(RandomGraphSpec(model="erdos_renyi", n=8, p=0.4, seed=1))
    assert lcc.node_count == 7
    assert lcc.edge_pairs() == [(0, 2), (1, 4), (2, 5), (2, 6), (3, 5),
                                (3, 6), (4, 5)]
