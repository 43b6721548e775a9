import numpy as np
import pytest

from paradoxlab.rng import _GAMMA, SplitMix64, _uint64_rows, derive_seed
from conftest import rejecting_seed


def test_streams_are_reproducible():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_uint64() for _ in range(20)] == \
        [b.next_uint64() for _ in range(20)]


def test_known_splitmix_outputs():
    # First outputs for seed 0 of the classic splitmix64 sequence.
    rng = SplitMix64(0)
    assert rng.next_uint64() == 0xE220A8397B1DCDAF
    assert rng.next_uint64() == 0x6E789E6AA1B965F4
    assert rng.next_uint64() == 0x06C45D188009454F


def test_outputs_are_64_bit():
    rng = SplitMix64(987654321)
    for _ in range(1000):
        word = rng.next_uint64()
        assert 0 <= word < 2 ** 64


def test_random_is_unit_interval():
    rng = SplitMix64(7)
    values = [rng.random() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


@pytest.mark.parametrize("seed", [
    0, 12345, 2 ** 64 - 1,
    # Three steps short of 2**64: word 3 of the block is mix(0) == 0.
    -3 * _GAMMA % 2 ** 64])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 1000])
def test_block_draws_continue_the_scalar_stream(seed, count):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    words = block.uint64_block(count)
    assert words.dtype == np.uint64 and words.shape == (count,)
    assert words.tolist() == [scalar.next_uint64() for _ in range(count)]
    assert block.next_uint64() == scalar.next_uint64()

    floats = block.random_block(count)
    assert floats.dtype == np.float64 and floats.shape == (count,)
    assert floats.tolist() == [scalar.random() for _ in range(count)]
    assert block.next_uint64() == scalar.next_uint64()


@pytest.mark.parametrize("count", [0, 1, 5, 1000])
def test_word_rows_continue_each_stream(count):
    seeds = [0, 12345, 2 ** 64 - 1, -3 * _GAMMA % 2 ** 64, 12345]
    streams = [SplitMix64(seed) for seed in seeds]
    # The two streams of seed 12345 stand at different positions.
    streams[1].uint64_block(7)
    singles = [SplitMix64(stream._state) for stream in streams]
    rows = _uint64_rows(streams, count)
    assert rows.dtype == np.uint64 and rows.shape == (len(streams), count)
    for row, single in zip(rows.tolist(), singles):
        assert row == [single.next_uint64() for _ in range(count)]
    assert [s._state for s in streams] == [s._state for s in singles]
    assert _uint64_rows([], count).shape == (0, count)
    with pytest.raises(ValueError):
        _uint64_rows(streams, -1)


def test_block_draws_wrap_the_counter():
    rng = SplitMix64(-3 * _GAMMA % 2 ** 64)
    assert rng.uint64_block(4)[2] == 0
    with pytest.raises(ValueError):
        rng.uint64_block(-1)


def test_below_is_in_range_and_roughly_uniform():
    rng = SplitMix64(99)
    counts = [0] * 7
    for _ in range(7000):
        counts[rng.below(7)] += 1
    assert sum(counts) == 7000
    assert min(counts) > 800

    with pytest.raises(ValueError):
        rng.below(0)


@pytest.mark.parametrize("bound", [np.int64(5), np.uint64(5), np.int8(5)])
def test_below_takes_numpy_integers(bound):
    plain, numpy_bound = SplitMix64(1), SplitMix64(1)
    assert [numpy_bound.below(bound) for _ in range(20)] == [
        plain.below(5) for _ in range(20)]
    assert numpy_bound.next_uint64() == plain.next_uint64()


def test_shuffle_is_a_permutation():
    rng = SplitMix64(5)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


@pytest.mark.parametrize("m, want", [
    (0, []), (1, [0]), (2, [0, 1]),
    (10, [9, 0, 6, 3, 4, 2, 5, 7, 8, 1])])
def test_shuffle_known_answer(m, want):
    rng = SplitMix64(2024)
    items = list(range(m))
    rng.shuffle(items)
    assert items == want
    # One accepted word per swap: m - 1 of them.
    assert rng._state == (2024 + max(m - 1, 0) * _GAMMA) % 2 ** 64


@pytest.mark.parametrize("m, position", [(3, 0), (1000, 0), (160, 5)])
def test_shuffle_keeps_the_stream_through_a_rejected_word(m, position):
    top = 2 ** 64 - 1
    # Word ``position`` of the stream is 2**64 - 1, the draw for bound
    # ``m - position``, which rejects it: 2**64 is not a multiple of it.
    seed = rejecting_seed(position)
    words = SplitMix64(seed).uint64_block(m).tolist()
    assert words[position] == top
    assert 2 ** 64 % (m - position) != 0
    # The swaps take the block's other words in order, each below its
    # bound, and pass over the rejected one.
    del words[position]
    want = list(range(m))
    for i, word in zip(range(m - 1, 0, -1), words):
        assert word < 2 ** 64 - 2 ** 64 % (i + 1)
        j = word % (i + 1)
        want[i], want[j] = want[j], want[i]
    rng = SplitMix64(seed)
    items = list(range(m))
    rng.shuffle(items)
    assert items == want
    # m - 1 accepted words and the rejected one.
    assert rng._state == (seed + m * _GAMMA) % 2 ** 64


def test_derive_seed_matches_stream_and_is_order_free():
    seed = 424242
    rng = SplitMix64(seed)
    stream = [rng.next_uint64() for _ in range(10)]
    derived = [derive_seed(seed, i) for i in range(10)]
    assert derived == stream
    # O(1) access: index 9 without touching earlier indices.
    assert derive_seed(seed, 9) == stream[9]
    with pytest.raises(ValueError):
        derive_seed(seed, -1)


@pytest.mark.parametrize("index", [np.int64(3), np.uint64(3), np.int8(3)])
def test_derive_seed_takes_numpy_integers(index):
    assert derive_seed(1, index) == derive_seed(1, 3)
    assert derive_seed(np.uint64(1), index) == derive_seed(1, 3)


def test_derived_children_differ():
    children = {derive_seed(1, i) for i in range(1000)}
    assert len(children) == 1000
