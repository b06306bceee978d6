import math
import tracemalloc
import warnings

import numpy as np
import pytest

from thermolearn import convolution
from thermolearn.convolution import conv_fft, conv_naive, fft_radix2, ifft_radix2, next_pow2
from thermolearn.errors import NumericalError, ValidationError
from thermolearn.rng import RngStream


def test_next_pow2_values():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1025) == 2048
    with pytest.raises(ValidationError):
        next_pow2(0)


# --- transforms ------------------------------------------------------------


def test_fft_matches_reference_on_random_inputs():
    rng = RngStream(0)
    for n in (1, 2, 4, 8, 64, 256, 1024):
        x = rng.generator.random(size=n) - 0.5
        assert np.allclose(fft_radix2(x), np.fft.fft(x), atol=1e-10)


def test_fft_complex_input():
    rng = RngStream(1)
    x = rng.generator.random(size=128) + 1j * rng.generator.random(size=128)
    assert np.allclose(fft_radix2(x), np.fft.fft(x), atol=1e-10)


def test_transforms_leave_their_input_unchanged():
    # a complex128 input, or a view of one, is the caller's own memory, so the transform
    # works on a copy; a read-only input must not need to be writable
    gen = np.random.default_rng(5)
    whole = gen.normal(size=64) + 1j * gen.normal(size=64)
    read_only = whole.copy()
    read_only.flags.writeable = False
    for x in (whole, whole[::2], read_only):
        for transform, reference in ((fft_radix2, np.fft.fft), (ifft_radix2, np.fft.ifft)):
            before = x.tobytes()
            out = transform(x)
            assert x.tobytes() == before
            assert not np.shares_memory(out, x)
            assert np.allclose(out, reference(x), atol=1e-12)


def test_ifft_inverts_fft():
    rng = RngStream(2)
    x = rng.generator.random(size=512)
    assert np.allclose(ifft_radix2(fft_radix2(x)), x, atol=1e-12)


def test_fft_impulse_is_flat():
    x = np.zeros(16)
    x[0] = 1.0
    assert np.allclose(fft_radix2(x), np.ones(16))


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValidationError):
        fft_radix2(np.ones(12))
    with pytest.raises(ValidationError):
        ifft_radix2(np.ones(7))


def test_fft_parseval():
    rng = RngStream(3)
    x = rng.generator.random(size=256)
    X = fft_radix2(x)
    assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(X) ** 2) / 256)


# --- replay of the swap-loop transform ---------------------------------------
# The transform once permuted with a Python swap loop and built every pass's
# twiddles and butterfly temporaries afresh; that code is kept here as the
# oracle, and the current transform must match it bit for bit.


def _swap_loop_bit_reverse(a):
    n = a.size
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]


def _reference_transform(x, inverse):
    a = np.array(x, dtype=np.complex128)
    n = a.size
    _swap_loop_bit_reverse(a)
    sign = 1.0 if inverse else -1.0
    length = 2
    while length <= n:
        half = length // 2
        angles = sign * 2.0 * math.pi * np.arange(half) / length
        twiddle = np.exp(1j * angles)
        blocks = a.reshape(n // length, length)
        odd = blocks[:, half:] * twiddle
        even = blocks[:, :half].copy()
        blocks[:, :half] = even + odd
        blocks[:, half:] = even - odd
        length *= 2
    if inverse:
        a /= n
    return a


@pytest.mark.parametrize("k", range(19))
def test_transforms_replay_reference_bit_for_bit(k):
    n = 1 << k
    gen = np.random.default_rng(k)
    x = gen.normal(size=n) + 1j * gen.normal(size=n)
    assert fft_radix2(x).tobytes() == _reference_transform(x, inverse=False).tobytes()
    assert ifft_radix2(x).tobytes() == _reference_transform(x, inverse=True).tobytes()


def _unchecked_transform(x, inverse):
    # the transform of fft_radix2 and ifft_radix2 without their finite check,
    # as conv_fft runs it before its own
    a = np.array(x, dtype=np.complex128)
    convolution._fft_inplace(a, convolution._roots(a.size), np.empty_like(a), inverse)
    if inverse:
        a /= a.size
    return a


@pytest.mark.parametrize("k", [3, 6, 10, 14])
def test_transforms_replay_reference_where_passes_overflow(k):
    # six entries near the top of the float range among signed zeros and
    # ones: the sums overflow to inf, and inf - inf or inf times a twiddle
    # gives NaN, whose bytes depend on the operand order of O w. The public
    # transforms raise on that result, without a numpy warning.
    n = 1 << k
    gen = np.random.default_rng(100 + k)
    parts = gen.choice([0.0, -0.0, 1.0, -1.0], size=2 * n)
    parts[gen.choice(2 * n, size=6, replace=False)] = gen.choice([1.7e308, -1.7e308], size=6)
    x = parts.view(np.complex128)
    with np.errstate(all="ignore"):
        want = _reference_transform(x, inverse=False)
        assert np.isnan(want).any() and np.isinf(want).any()
        assert _unchecked_transform(x, inverse=False).tobytes() == want.tobytes()
        assert _unchecked_transform(x, inverse=True).tobytes() == _reference_transform(x, inverse=True).tobytes()
    for transform, name in ((fft_radix2, "fft_radix2"), (ifft_radix2, "ifft_radix2")):
        with pytest.raises(NumericalError, match=f"^{name}: result is not finite"):
            transform(x)


def _transform_bytes(sizes):
    # the bytes of both transforms and of a convolution at each size, on seeded inputs
    out = []
    for n in sizes:
        gen = np.random.default_rng(n)
        x = gen.normal(size=n) + 1j * gen.normal(size=n)
        conv = conv_fft(gen.normal(size=n // 2), gen.normal(size=n // 2 + 1))
        out.append(fft_radix2(x).tobytes() + ifft_radix2(x).tobytes() + conv.tobytes())
    return out


def test_transforms_keep_their_bytes_whatever_the_kept_twiddle_table(monkeypatch):
    # a size takes a strided slice of the one kept table, whichever size that
    # table was built for: before a larger transform, after one at the largest
    # size kept, and after one past it, which gets a table of its own
    monkeypatch.setattr(convolution, "_kept_roots", convolution._twiddles(2))
    sizes = (1 << 4, 1 << 12, 1 << 16)
    before = _transform_bytes(sizes)
    assert 2 * convolution._kept_roots.size == 1 << 16
    for larger in (convolution._KEPT_TWIDDLES, 2 * convolution._KEPT_TWIDDLES):
        fft_radix2(np.ones(larger))
        assert 2 * convolution._kept_roots.size == convolution._KEPT_TWIDDLES
        assert _transform_bytes(sizes) == before


def test_twiddle_tables_are_read_only():
    for n in (1 << 4, 2 * convolution._KEPT_TWIDDLES):
        with pytest.raises(ValueError, match="read-only"):
            convolution._roots(n)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        convolution._kept_roots[0] = 0


# --- convolution -------------------------------------------------------------


def test_naive_matches_numpy():
    rng = RngStream(4)
    x = rng.generator.random(size=37)
    y = rng.generator.random(size=11)
    assert np.allclose(conv_naive(x, y), np.convolve(x, y), atol=1e-12)


def test_conv_output_length():
    out = conv_fft(np.ones(5), np.ones(3))
    assert out.shape == (7,)


def test_conv_impulse_identity():
    x = np.array([1.0, -2.0, 3.0])
    delta = np.array([1.0])
    assert np.allclose(conv_fft(x, delta), x, atol=1e-12)


def test_conv_ones_gives_triangle():
    out = conv_fft(np.ones(3), np.ones(3))
    assert np.allclose(out, [1, 2, 3, 2, 1], atol=1e-10)


def test_conv_commutes():
    rng = RngStream(5)
    x = rng.generator.random(size=20)
    y = rng.generator.random(size=7)
    assert np.allclose(conv_fft(x, y), conv_fft(y, x), atol=1e-12)


def test_routes_agree_on_seeded_pairs():
    rng = RngStream(6)
    for _ in range(25):
        nx = int(rng.generator.integers(1, 300))
        ny = int(rng.generator.integers(1, 300))
        x = rng.generator.random(size=nx) * 2 - 1
        y = rng.generator.random(size=ny) * 2 - 1
        fast = conv_fft(x, y)
        slow = conv_naive(x, y)
        assert np.max(np.abs(fast - slow)) <= 1e-9


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 3), (2, 4), (1, 5), (5, 1)])
def test_conv_agrees_with_naive_at_the_shortest_outputs(nx, ny):
    # outputs of length 1, 2, 3 and 5 pad to 1, 2, 4 and 8 points, where the
    # DC and Nyquist bins pair with themselves in the packed spectrum
    gen = np.random.default_rng(10 * nx + ny)
    x, y = gen.normal(size=nx), gen.normal(size=ny)
    assert np.max(np.abs(conv_fft(x, y) - conv_naive(x, y))) <= 1e-12


@pytest.mark.parametrize("scale_x, scale_y", [(1e150, 1e-150), (1e-150, 1e150), (1e150, 1e150), (1e-150, 1e-150)])
def test_conv_keeps_signals_of_very_different_scale(scale_x, scale_y):
    # x and y share one transform; unscaled, the small signal was lost in the
    # large one's rounding
    gen = np.random.default_rng(11)
    x, y = scale_x * gen.normal(size=300), scale_y * gen.normal(size=200)
    slow = conv_naive(x, y)
    assert np.max(np.abs(conv_fft(x, y) - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_fft_traced_peak_is_under_three_spectra():
    # the result, the scratch array and the half-size twiddle table are 2.5
    # spectra; a further full-size buffer would pass 3
    size = 1 << 16
    x = np.random.default_rng(13).normal(size=size)
    tracemalloc.start()
    try:
        fft_radix2(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * size * 16


def test_conv_traced_peak_is_under_three_spectra():
    # the packed signal, the scratch array and the half-size twiddle table are
    # 2.5 spectra of 16 bytes a point; a further full-size buffer would pass 3
    size = 1 << 16
    gen = np.random.default_rng(12)
    x, y = gen.uniform(-1, 1, size // 2), gen.uniform(-1, 1, size // 2 + 1)
    tracemalloc.start()
    try:
        conv_fft(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * size * 16


def test_conv_scales_linearly():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    assert np.allclose(conv_fft(2 * x, y), 2 * conv_fft(x, y), atol=1e-12)


def test_conv_validation():
    with pytest.raises(ValidationError):
        conv_naive(np.array([]), np.array([1.0]))
    with pytest.raises(ValidationError):
        conv_fft(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValidationError):
        conv_fft(np.array([np.nan]), np.array([1.0]))
    # ragged input: numpy's "inhomogeneous shape" ValueError escaped before
    for route in (conv_fft, conv_naive):
        with pytest.raises(ValidationError, match="1-D sequence"):
            route([[1, 2], [3]], [1])
        with pytest.raises(ValidationError, match="1-D sequence"):
            route([1], [[1, 2], [3]])


@pytest.mark.parametrize("name, call", [
    ("fft_radix2", lambda: fft_radix2([1e308, 1e308])),
    ("ifft_radix2", lambda: ifft_radix2([1e308, 1e308])),
    ("conv_naive", lambda: conv_naive([1e308, 1e308], [1.0, 1.0])),  # returned [1e308, inf, 1e308]
], ids=["fft_radix2", "ifft_radix2", "conv_naive"])
def test_transform_and_naive_overflow_is_numerical_error(name, call):
    # the transforms printed numpy's overflow warning and returned inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{name}: result is not finite"):
            call()


@pytest.mark.parametrize("x, y", [([1e308], [1e308]), ([1e300, 1.0], [1e10, 1.0]), ([1e200] * 3, [-1e200, 1e200])])
def test_conv_fft_overflow_is_numerical_error(x, y):
    # the residue check compares false for NaN and for an infinite scale, so
    # an overflowing product came back as inf and NaN; numpy's overflow
    # warnings were printed above the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            conv_fft(x, y)


@pytest.mark.parametrize(
    "bad",
    [["a", "b"], [[1, 2], [3]], [{"a": 1}, 2], [], [[1.0, 2.0]], 3.0,
     [None, 1.0], [math.nan, 1.0], [math.inf, 0.0], [complex(0.0, -math.inf), 1.0]],
)
def test_transforms_reject_malformed_input(bad):
    # strings and ragged rows raised numpy's ValueError, a dict its TypeError;
    # None (which numpy reads as NaN), NaN and infinities gave NaN or inf output
    for name, transform in (("fft_radix2", fft_radix2), ("ifft_radix2", ifft_radix2)):
        with pytest.raises(ValidationError, match=f"{name}: x must be a non-empty 1-D sequence"):
            transform(bad)


@pytest.mark.parametrize("bad", [["a", "b"], np.array([1, None], dtype=object), [1 + 2j, 3], np.array([1.0], dtype=complex)])
def test_conv_rejects_non_real_signals(bad):
    for route in (conv_fft, conv_naive):
        with pytest.raises(ValidationError):
            route(bad, [1.0, 2.0])
        with pytest.raises(ValidationError):
            route([1.0, 2.0], bad)


def test_conv_accepts_int_signals_but_not_bool_ones():
    for x in (np.array([1, 0, 1], dtype=np.uint8), [1, 0, 1]):
        assert np.allclose(conv_fft(x, [2, 3]), [2.0, 3.0, 2.0, 3.0], atol=1e-12)
        assert np.array_equal(conv_naive(x, [2, 3]), [2.0, 3.0, 2.0, 3.0])
    # a bool is never a number here, as for every real argument
    for route in (conv_fft, conv_naive):
        with pytest.raises(ValidationError, match="x must be a non-empty 1-D sequence of finite reals, got entries of dtype bool"):
            route([True, False, True], [2, 3])
