import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.rng import RandomStream

import oracles


class _Key(str):
    """A str subclass: substream keys it like the str it holds."""


# Known answers: the stream as the module docstring defines it, each mix
# computed by a _mix64 call.  A change to a draw or a substream that moves
# one of these values moves every output of the package.
# (master_seed, stream_id) -> the first five next_u64(), uniform() and, per
# n, randbelow(n) values of a fresh stream
_KNOWN_DRAWS = {
    (0, 0): (
        [12646601798273316283, 2108894124796887513, 7463294520334176748,
         8653057892957985957, 7253919463480661915],
        [0.6855736572123508, 0.11432337958233507, 0.40458600664227373,
         0.46908320830939443, 0.3932357620670308],
        {1: [0, 0, 0, 0, 0], 4: [2, 0, 1, 1, 1],
         10**7: [6855736, 1143233, 4045860, 4690832, 3932357]},
    ),
    (0, 7): (
        [6733752007198681795, 2405982535185252520, 4105546870632529217,
         1038909028470440552, 17314584443677407536],
        [0.3650374277591718, 0.1304285745805016, 0.22256214181904255,
         0.05631937128412279, 0.9386255034759382],
        {1: [0, 0, 0, 0, 0], 4: [1, 0, 0, 0, 3],
         10**7: [3650374, 1304285, 2225621, 563193, 9386255]},
    ),
    (1, 0): (
        [244941104633458599, 5310358485559447007, 12222802092265776675,
         14438443888115391791, 2026584419606678865],
        [0.013278283888729647, 0.2878751103360192, 0.6625994291147461,
         0.782709611540238, 0.10986136152314174],
        {1: [0, 0, 0, 0, 0], 4: [0, 1, 2, 3, 0],
         10**7: [132782, 2878751, 6625994, 7827096, 1098613]},
    ),
    (1, 7): (
        [15730634965253809419, 16259127031548586262, 4255976709340140545,
         17975495578208050574, 2546186137821686225],
        [0.8527594301952308, 0.8814090425161384, 0.23071695971571438,
         0.9744535678698373, 0.13802902710893739],
        {1: [0, 0, 0, 0, 0], 4: [3, 3, 0, 3, 0],
         10**7: [8527594, 8814090, 2307169, 9744535, 1380290]},
    ),
    (-1, 0): (
        [15554304581381293116, 18109150572119785457, 7677277352424715739,
         1953890504032285001, 10956004557485264222],
        [0.8432005409317416, 0.9816990196079692, 0.41618603921363184,
         0.10592061646353002, 0.5939261971493305],
        {1: [0, 0, 0, 0, 0], 4: [3, 3, 1, 0, 2],
         10**7: [8432005, 9816990, 4161860, 1059206, 5939261]},
    ),
    (-1, 7): (
        [343960876899429412, 15328225657887169075, 7721598224249372958,
         5885804785676609524, 2298931272225200965],
        [0.01864615649921897, 0.8309447779314659, 0.41858867848956915,
         0.31907011677280783, 0.12462531398707133],
        {1: [0, 0, 0, 0, 0], 4: [0, 3, 1, 1, 0],
         10**7: [186461, 8309447, 4185886, 3190701, 1246253]},
    ),
    (2**64 + 5, 0): (
        [435406102459583426, 16904587853247472579, 15360377438952499731,
         5611724536549736682, 16497516497218580277],
        [0.023603412110006272, 0.9163995437731489, 0.8326877294754814,
         0.30421219669587174, 0.8943321613449916],
        {1: [0, 0, 0, 0, 0], 4: [0, 3, 3, 1, 3],
         10**7: [236034, 9163995, 8326877, 3042121, 8943321]},
    ),
    (2**64 + 5, 7): (
        [16017926672009157623, 11685962479606889529, 1642456549977802529,
         8152528629122252178, 16449116514927621344],
        [0.8683335448252917, 0.633497295398694, 0.0890377479849489,
         0.4419494625472308, 0.8917083930475858],
        {1: [0, 0, 0, 0, 0], 4: [3, 2, 0, 1, 3],
         10**7: [8683335, 6334972, 890377, 4419494, 8917083]},
    ),
}

# base (master_seed, stream_id) -> (keys, stream_id, counter, first
# next_u64()) of base.substream(*keys)
_KNOWN_SUBSTREAMS = {
    (5, 3): [
        ((0,), 2092789425003139053, 0, 14267469618479322428),
        ((1,), 10737740539711983098, 0, 952581214836541132),
        ((-1,), 8612688766699759606, 0, 11557691918293914996),
        ((2**64 + 3,), 13285047843028893854, 0, 408902617354832385),
        ((True,), 10737740539711983098, 0, 952581214836541132),
        (("lln",), 7849673289307110136, 0, 18052809914029281662),
        ((_Key("lln"),), 7849673289307110136, 0, 18052809914029281662),
        (("lln", 2, 7), 827265342704245710, 0, 16526733585427254027),
    ],
    (2**64 + 5, 0): [
        ((0,), 16294208416658607535, 0, 8325678452649579420),
        ((1,), 13830413928045401970, 0, 12728523137080049173),
        ((-1,), 11923130667873509210, 0, 14121943413708804565),
        ((2**64 + 3,), 15040763173281104258, 0, 900149329179366103),
        ((True,), 13830413928045401970, 0, 12728523137080049173),
        (("lln",), 3593178250624108100, 0, 4377760363174663920),
        ((_Key("lln"),), 3593178250624108100, 0, 4377760363174663920),
        (("lln", 2, 7), 5406113296198315325, 0, 2733515686634171411),
    ],
}


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


@pytest.mark.parametrize("seed, stream_id", list(_KNOWN_DRAWS))
def test_draws_match_known_answers(seed, stream_id):
    u64, uniforms, below = _KNOWN_DRAWS[seed, stream_id]
    rng = RandomStream(seed, stream_id)
    assert [rng.next_u64() for _ in range(5)] == u64
    rng = RandomStream(seed, stream_id)
    assert [rng.uniform() for _ in range(5)] == uniforms
    for n, values in below.items():
        rng = RandomStream(seed, stream_id)
        assert [rng.randbelow(n) for _ in range(5)] == values
        assert rng.counter == 5


@pytest.mark.parametrize("seed, stream_id", list(_KNOWN_SUBSTREAMS))
def test_substreams_match_known_answers(seed, stream_id):
    base = RandomStream(seed, stream_id)
    base.uniform()  # a consumed parent derives the same children
    for keys, sid, counter, first in _KNOWN_SUBSTREAMS[seed, stream_id]:
        sub = base.substream(*keys)
        assert (sub.master_seed, sub.stream_id, sub.counter) == (base.master_seed, sid, counter)
        draws = [sub.next_u64() for _ in range(3)]
        assert draws[0] == first
        fresh = RandomStream(seed, sid)  # the same stream, derived by __init__
        assert [fresh.next_u64() for _ in range(3)] == draws


_KEYS = st.one_of(st.integers(min_value=-2**70, max_value=2**70), st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(_KEYS, max_size=3), st.lists(_KEYS, min_size=1, max_size=2))
def test_substream_keys_fold_left(seed, stream_id, head, tail):
    # lln_trace derives rng.substream("lln", i) once and each replicate's
    # stream from it; that is rng.substream("lln", i, r) by this identity
    base = RandomStream(seed, stream_id)
    nested = base.substream(*head).substream(*tail)
    flat = base.substream(*head, *tail)
    assert nested.stream_id == flat.stream_id
    assert [nested.next_u64() for _ in range(3)] == [flat.next_u64() for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(), st.integers(min_value=0, max_value=2**64 - 1))
def test_distinct_matches_rejection_reference(data, seed, stream_id):
    n = data.draw(st.integers(min_value=1, max_value=60))
    k = data.draw(st.integers(min_value=0, max_value=n))
    rng, ref = RandomStream(seed, stream_id), RandomStream(seed, stream_id)
    assert rng.distinct(n, k) == oracles.draw_distinct_rejection(n, k, ref)
    assert rng.counter == ref.counter


@pytest.mark.parametrize("n, k, message", [
    (3, 5, r"cannot draw k = 5 distinct values from 1\.\.3"),
    (3, -1, r"cannot draw k = -1 distinct values from 1\.\.3"),
    (0, 1, r"randbelow requires n >= 1"),
    (-2, 3, r"randbelow requires n >= 1"),
], ids=["k_above_n", "k_negative", "n_zero", "n_negative"])
def test_distinct_refusals_draw_nothing(n, k, message):
    rng = RandomStream(1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rng.distinct(n, k)
    assert rng.counter == 0


@pytest.mark.parametrize("build, message", [
    (lambda: RandomStream(1).randbelow(0), r"randbelow requires n >= 1"),
], ids=["randbelow_zero"])
def test_rng_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
