import hashlib

import numpy as np
import pytest

from thermolearn.errors import ValidationError
from thermolearn.rng import RngStream, mix_seed, splitmix64


def test_same_seed_same_sequence():
    a = RngStream(123, 7).generator.random(100)
    b = RngStream(123, 7).generator.random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_diverge():
    a = RngStream(123, 0).generator.random(50)
    b = RngStream(123, 1).generator.random(50)
    assert not np.array_equal(a, b)


def test_distinct_seeds_diverge():
    a = RngStream(1).generator.random(50)
    b = RngStream(2).generator.random(50)
    assert not np.array_equal(a, b)


def test_substream_is_deterministic():
    parent = RngStream(99)
    a = parent.substream(3).generator.random(20)
    b = RngStream(99).substream(3).generator.random(20)
    np.testing.assert_array_equal(a, b)


def test_substream_independent_of_parent_consumption():
    p1 = RngStream(5)
    p1.generator.random(1000)
    a = p1.substream(2).generator.random(10)
    b = RngStream(5).substream(2).generator.random(10)
    np.testing.assert_array_equal(a, b)


def test_substreams_differ_from_each_other_and_parent():
    parent = RngStream(5)
    s0 = parent.substream(0).generator.random(20)
    s1 = parent.substream(1).generator.random(20)
    base = RngStream(5).generator.random(20)
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
    vals = RngStream(0).generator.integers(0, 10, size=1000)
    assert vals.min() >= 0 and vals.max() < 10


def test_seed_rejects_junk():
    for junk in ("not an rng", True, np.True_, 2.0):
        with pytest.raises(ValidationError, match="RngStream: seed must be an integer"):
            RngStream(junk)


def test_seed_takes_any_u64_integer():
    for seed in (0, np.uint8(7), np.int64(5), 2**64 - 1, np.uint64(2**64 - 1)):
        np.testing.assert_array_equal(RngStream(seed).generator.random(3), RngStream(int(seed)).generator.random(3))


def test_stream_ids_outside_u64_are_rejected():
    # -1 and 2^64 - 1 were one stream: each id was reduced mod 2^64
    for bad in (-1, 2**64, np.int64(-1)):
        with pytest.raises(ValidationError, match=rf"RngStream: seed must be an integer in \[0, {2**64}\), got "):
            RngStream(bad)
        with pytest.raises(ValidationError, match=rf"RngStream: stream_id must be an integer in \[0, {2**64}\)"):
            RngStream(1, bad)
    for good in (0, 2**64 - 1):
        assert (RngStream(good).seed, RngStream(1, good).stream_id) == (good, good)
    assert not np.array_equal(RngStream(0).generator.random(3), RngStream(2**64 - 1).generator.random(3))
    # a substream's seed is a mix of its parent's pair, so always in range
    assert RngStream(2**64 - 1, 2**64 - 1).substream(2**64 - 1).generator.random(3).shape == (3,)


# Each Generator method that src/ calls, in the argument forms that src/ uses. NEP 19 keeps only
# the bit generators' raw output stable across numpy versions, so these pin the methods' streams.
STREAM_DRAWS = {
    "integers": lambda g: [
        *(g.integers(0, n, size=500) for n in (7, 16, 20, 30, 64)),
        *(g.integers(n) for n in (16, 20) for _ in range(50)),
        g.integers(0, 2, 64),
        g.integers(2, size=500),
        *(g.integers(-s, s + 1) for s in (1, 5) for _ in range(50)),
    ],
    "random": lambda g: [*(g.random() for _ in range(50)), g.random(500), g.random((3, 4, 5))],
    "uniform": lambda g: [g.uniform(-1.0, 1.0, 500)],
    "permutation": lambda g: [g.permutation(n) for n in (1, 2, 5, 15)],
    "choice": lambda g: [g.choice(np.arange(1, L), size=k, replace=False) for L, k in ((10, 0), (30, 4), (90, 9), (1000, 14))],
    "standard_normal": lambda g: [g.standard_normal((7, 5))],
    "exponential": lambda g: [g.exponential(scale, k) for scale, k in ((0.5, 500), (2.0, 10))],
    # an odd count of bounded draws leaves half a 64-bit word buffered (has_uint32); the last call uses it
    "integers, random, integers": lambda g: [g.integers(0, 7, 3), g.random(5), g.integers(0, 7, 3)],
}

STREAM_SHA256 = {
    "integers": "191838a56b401b7c44b1d35c1579981715a71bce828cc7b1a12e2ffc57f7c266",
    "random": "d8b02457e8f9e8e138c107029ba0dfe76e5b9e748dcd5c00e5bd75893212ad59",
    "uniform": "18cef9608d62dbc0d3e0e22d63338d8e42b772ab1fb0b22f505b107cee2b91d8",
    "permutation": "ed04b947da6679dac99a1501ab20173a300c1650255c1580da01c71326b3d59a",
    "choice": "2ab9aa8774f93e460bd33a52fc4446c14303da9f54588af86254ff3c01aee0c0",
    "standard_normal": "5b2fc90058d4cbda457cbabd8cc198d4821a4c598d5158caf86f5fa2a6b27da3",
    "exponential": "c097a90d551fb46f258792dc7cf67ab6411684a825284d5ffebf2d826e04b046",
    "integers, random, integers": "876f4b8a0e501dce54de917903684bcfef1c14b4ca4f2a34e101eb7b2071ca46",
}


def test_numpy_draw_streams_match_their_pinned_digests():
    changed = []
    for method, draws in STREAM_DRAWS.items():
        parts = [np.asarray(x) for x in draws(np.random.Generator(np.random.PCG64(20240601)))]
        data = b"".join(a.astype("<i8" if a.dtype.kind in "iu" else "<f8").tobytes() for a in parts)
        if hashlib.sha256(data).hexdigest() != STREAM_SHA256[method]:
            changed.append(method)
    assert not changed, f"numpy {np.__version__} draws other streams from Generator methods: {', '.join(changed)}"


def test_random_uniforms_are_whole_multiples_of_two_to_the_minus_53():
    # ebm.bm_gibbs_sample reads each uniform u as the integer u 2^53
    u = RngStream(33).generator.random((1000, 1000))
    k = u * 2.0**53
    assert np.all(k == np.floor(k)) and 0.0 <= u.min() and u.max() < 1.0
