import numpy as np
import pytest

from thermolearn.errors import ValidationError
from thermolearn.rng import RngStream, as_stream, mix_seed, splitmix64


def test_same_seed_same_sequence():
    a = RngStream(123, 7).random(100)
    b = RngStream(123, 7).random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_diverge():
    a = RngStream(123, 0).random(50)
    b = RngStream(123, 1).random(50)
    assert not np.array_equal(a, b)


def test_distinct_seeds_diverge():
    a = RngStream(1).random(50)
    b = RngStream(2).random(50)
    assert not np.array_equal(a, b)


def test_substream_is_deterministic():
    parent = RngStream(99)
    a = parent.substream(3).random(20)
    b = RngStream(99).substream(3).random(20)
    np.testing.assert_array_equal(a, b)


def test_substream_independent_of_parent_consumption():
    p1 = RngStream(5)
    p1.random(1000)
    a = p1.substream(2).random(10)
    b = RngStream(5).substream(2).random(10)
    np.testing.assert_array_equal(a, b)


def test_substreams_differ_from_each_other_and_parent():
    parent = RngStream(5)
    s0 = parent.substream(0).random(20)
    s1 = parent.substream(1).random(20)
    base = RngStream(5).random(20)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(s0, base)


def test_mix_seed_spreads_inputs():
    values = {mix_seed(s, t) for s in range(4) for t in range(4)}
    assert len(values) == 16


def test_splitmix64_known_fixed_point_free():
    # golden-ratio increment scheme never maps 0 and 1 to the same word
    assert splitmix64(0) != splitmix64(1)
    assert 0 <= splitmix64(0) < 2**64


def test_integers_range():
    vals = RngStream(0).integers(0, 10, size=1000)
    assert vals.min() >= 0 and vals.max() < 10


def test_as_stream_passthrough_and_coercion():
    stream = RngStream(1)
    assert as_stream(stream) is stream
    coerced = as_stream(7)
    assert isinstance(coerced, RngStream)
    np.testing.assert_array_equal(coerced.random(5), RngStream(7).random(5))


def test_as_stream_rejects_junk():
    with pytest.raises(ValidationError):
        as_stream("not an rng")
    # a bool was taken as the seed 1
    for junk in (True, np.True_, 2.0):
        with pytest.raises(ValidationError, match="as_stream: rng, if not an RngStream, must be an integer"):
            as_stream(junk)


def test_as_stream_takes_any_u64_seed():
    for seed in (0, np.uint8(7), np.int64(5), 2**64 - 1, np.uint64(2**64 - 1)):
        np.testing.assert_array_equal(as_stream(seed).random(3), RngStream(int(seed)).random(3))


def test_stream_ids_outside_u64_are_rejected():
    # -1 and 2^64 - 1 were one stream: each id was reduced mod 2^64
    for bad in (-1, 2**64, np.int64(-1)):
        with pytest.raises(ValidationError, match=rf"RngStream: seed must be an integer in \[0, {2**64}\), got "):
            RngStream(bad)
        with pytest.raises(ValidationError, match=rf"RngStream: stream_id must be an integer in \[0, {2**64}\)"):
            RngStream(1, bad)
        with pytest.raises(ValidationError, match="as_stream: rng, if not an RngStream, must be an integer"):
            as_stream(bad)
    for good in (0, 2**64 - 1):
        assert (RngStream(good).seed, RngStream(1, good).stream_id, as_stream(good).seed) == (good, good, good)
    assert not np.array_equal(as_stream(0).random(3), as_stream(2**64 - 1).random(3))
    # a substream's seed is a mix of its parent's pair, so always in range
    assert RngStream(2**64 - 1, 2**64 - 1).substream(2**64 - 1).random(3).shape == (3,)
