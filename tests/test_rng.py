import numpy as np
import pytest

from paradoxlab.rng import _GAMMA, SplitMix64, derive_seed


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


def test_shuffle_is_a_permutation():
    rng = SplitMix64(5)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


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


def test_derived_children_differ():
    children = {derive_seed(1, i) for i in range(1000)}
    assert len(children) == 1000
