import math

import pytest

from graphsample.rng import RandomStream


def test_same_seed_reproduces_bit_for_bit():
    a = RandomStream(12345, 7)
    b = RandomStream(12345, 7)
    assert [a.next_u64() for _ in range(200)] == [b.next_u64() for _ in range(200)]


def test_distinct_streams_differ():
    a = RandomStream(12345, 0)
    b = RandomStream(12345, 1)
    xs = [a.next_u64() for _ in range(100)]
    ys = [b.next_u64() for _ in range(100)]
    assert xs != ys
    # no shared values at matching positions either
    assert sum(x == y for x, y in zip(xs, ys)) == 0


def test_distinct_master_seeds_differ():
    xs = [RandomStream(1).next_u64(), RandomStream(2).next_u64()]
    assert xs[0] != xs[1]


def test_uniform_range_and_moments():
    rng = RandomStream(99)
    n = 20_000
    draws = [rng.uniform() for _ in range(n)]
    assert all(0.0 <= u < 1.0 for u in draws)
    mean = sum(draws) / n
    var = sum((u - mean) ** 2 for u in draws) / n
    assert abs(mean - 0.5) < 4 / math.sqrt(12 * n)
    assert abs(var - 1 / 12) < 0.005


def test_randbelow_bounds_and_coverage():
    rng = RandomStream(7)
    vals = [rng.randbelow(6) for _ in range(6000)]
    assert set(vals) == set(range(6))
    for v in range(6):
        assert abs(vals.count(v) / 6000 - 1 / 6) < 0.03


def test_substream_independent_of_consumption():
    a = RandomStream(5, 3)
    a.uniform()
    a.uniform()
    b = RandomStream(5, 3)
    assert a.substream("x", 1).next_u64() == b.substream("x", 1).next_u64()


def test_substream_keys_distinguish():
    base = RandomStream(5)
    assert base.substream(0).next_u64() != base.substream(1).next_u64()
    assert base.substream("a").next_u64() != base.substream("b").next_u64()
    assert base.substream(1, 2).next_u64() != base.substream(2, 1).next_u64()


def test_counter_tracks_draws():
    rng = RandomStream(1)
    assert rng.counter == 0
    rng.uniform()
    rng.randbelow(10)
    assert rng.counter == 2



@pytest.mark.parametrize("build, message", [
    (lambda: RandomStream(1).randbelow(0), r"randbelow requires n >= 1"),
], ids=["randbelow_zero"])
def test_rng_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
