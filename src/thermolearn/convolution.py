"""Linear convolution two ways: direct O(n^2) and via a radix-2 FFT.

The FFT here is written from scratch (iterative: Stockham autosort passes,
one transposing copy, then in-place butterfly passes) so the fast route is
fully independent of the quadratic reference route. ``conv_naive`` delegates
to the library's direct implementation and serves as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .config import _array, _count
from .errors import NumericalError, ValidationError

IMAG_RESIDUE_TOL = 1e-9

__all__ = ["fft_radix2", "ifft_radix2", "conv_naive", "conv_fft", "next_pow2"]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << (_count("next_pow2: n", n, 1) - 1).bit_length()


def _twiddles(n: int) -> np.ndarray:
    # the forward transform's last-pass twiddles exp(-2 pi i k / n), k < n/2, read-only.
    # Each pass's twiddles are a strided slice of these: the angle of
    # k * (n / length) over n rounds exactly as the angle of k over length.
    # The inverse uses their conjugate.
    angles = np.arange(n // 2, dtype=np.float64)
    angles *= -2.0 * math.pi
    angles /= n
    roots = np.multiply(1j, angles)
    np.exp(roots, out=roots)
    roots.flags.writeable = False
    return roots


_KEPT_TWIDDLES = 1 << 17  # the largest size whose twiddles are kept: 2^16 entries, 1 MB
_kept_roots = _twiddles(2)


def _roots(n: int) -> np.ndarray:
    # _twiddles(n). Up to _KEPT_TWIDDLES one table is kept, for the largest size
    # asked for so far, and a size n takes its slice of stride N / n, which by the
    # same exact rounding is bit for bit _twiddles(n) (size 1 gets a root it does
    # not use). A larger size gets a table of its own.
    global _kept_roots
    if n > _KEPT_TWIDDLES:
        return _twiddles(n)
    if n > 2 * _kept_roots.size:
        _kept_roots = _twiddles(n)
    return _kept_roots[:: 2 * _kept_roots.size // n]


def _fft_inplace(a: np.ndarray, roots: np.ndarray, work: np.ndarray, inverse: bool = False) -> None:
    # unscaled transform of complex128 a, whose size is a power of two, with
    # roots from _roots (never written: the inverse conjugates each pass's slice
    # into a copy) and scratch of a's size: the textbook butterflies E + O w,
    # E - O w, on rows >= ~sqrt(n) / 2 points
    n = a.size
    bits = n.bit_length() - 1
    if not bits:
        return
    # first bits // 2 | 1 Stockham passes between a and work, an odd count that
    # ends in work: before the pass that builds length-2L transforms, src seen
    # as L x n/L holds in row k the frequency k of the length-L transform of
    # x[r], x[r + n/L], ... for r < n/L
    src, dst, length = a, work, 1
    for _ in range(bits // 2 | 1):
        m = n // (2 * length)
        evens, odds = src.reshape(length, 2, m).transpose(1, 0, 2)
        low, high = dst.reshape(2, length, m)
        w = roots[::m, None]
        np.multiply(odds, w.conjugate() if inverse else w, out=low)
        np.subtract(evens, low, out=high)
        np.add(evens, low, out=low)
        src, dst, length = dst, src, 2 * length
    # the in-place passes want residue r in block rev(r), r's bits reversed:
    # a copy into a seen as a 2 x ... x 2 x length cube with its axes reversed
    rest = bits - length.bit_length() + 1
    np.copyto(a.reshape((2,) * rest + (length,)).T, work.reshape((length,) + (2,) * rest))
    # work holds the odd products and a contiguous copy of the twiddles
    odd, twiddle = work[: n // 2], work[n // 2 :]
    while length < n:
        half, length = length, 2 * length
        if inverse:
            np.conjugate(roots[:: n // length], out=twiddle[:half])
        else:
            twiddle[:half] = roots[:: n // length]
        blocks, products = a.reshape(-1, length), odd.reshape(-1, half)
        np.multiply(blocks[:, half:], twiddle[:half], out=products)
        np.subtract(blocks[:, :half], products, out=blocks[:, half:])
        blocks[:, :half] += products


def _transform(x, name: str, inverse: bool) -> np.ndarray:
    # validated x as complex128, transformed in place (unscaled); _array returns x's own memory
    # only as x itself or as a view, and only that is copied. A sum beyond the float range raises.
    out = _array(f"{name}: x", x, dtype=np.complex128)
    if out is x or out.base is not None:
        out = out.copy()
    if out.size & (out.size - 1):
        raise ValidationError(f"{name}: length must be a power of two, got {out.size}")
    work = np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite result
        _fft_inplace(out, _roots(out.size), work, inverse)
    if not np.isfinite(out).all():
        raise NumericalError(f"{name}: result is not finite; the input overflows the float range")
    return out


def fft_radix2(x) -> np.ndarray:
    """Discrete Fourier transform of a power-of-two-length sequence.

    Uses X_k = sum_m x_m exp(-2 pi i k m / n) with no normalization.
    """
    return _transform(x, "fft_radix2", inverse=False)


def ifft_radix2(x) -> np.ndarray:
    """Inverse transform: conjugate twiddles and a 1/n scale."""
    out = _transform(x, "ifft_radix2", inverse=True)
    out /= out.size
    return out


def conv_naive(x, y) -> np.ndarray:
    """Direct linear convolution, length len(x) + len(y) - 1; NumericalError if it overflows."""
    out = np.convolve(_array("conv_naive: x", x), _array("conv_naive: y", y))
    if not np.isfinite(out).all():
        raise NumericalError("conv_naive: result is not finite; the signals overflow the float range")
    return out


def _peak(v: np.ndarray) -> float:
    # max |v| of a real array, without an |v| temporary
    return float(max(v.max(), -v.min()))


def conv_fft(x, y) -> np.ndarray:
    """Linear convolution via zero-padding to a power of two and the radix-2 FFT.

    The product theorem gives circular convolution at the padded size N;
    padding to at least len(x) + len(y) - 1 makes it linear. Both real
    signals go through one forward transform, x as the real and y as the
    imaginary part of z. With Z = FFT(z), (Z_k + conj Z_{N-k})(Z_k - conj
    Z_{N-k}) = 4i X_k Y_k, formed in place over the lower half of the
    spectrum; the upper half is its Hermitian mirror. One inverse transform,
    scaled by -i/(4N), gives the convolution. Each signal is first scaled
    by a power of two to a peak in [0.5, 1), and the result by the inverse
    powers: these scalings are exact, and they keep a small signal from
    being lost in a large one's rounding. Both transforms read one table of
    twiddles, shared read-only with every transform up to 2^17 points and
    never written: the inverse conjugates each pass's slice into its scratch.
    Both also share one scratch array.

    The result is real: the imaginary residue is checked against
    ``IMAG_RESIDUE_TOL`` and discarded. A result that is not finite raises
    NumericalError.
    """
    a = _array("conv_fft: x", x)
    b = _array("conv_fft: y", y)
    out_len = a.size + b.size - 1
    size = next_pow2(out_len)
    z = np.zeros(size, dtype=np.complex128)
    # 4N is a power of two, so dividing by it folds into the exact rescaling
    shift = 1 - (4 * size).bit_length()
    for part, signal in ((z.real, a), (z.imag, b)):
        exponent = math.frexp(_peak(signal))[1]
        np.ldexp(signal, -exponent, out=part[: signal.size])
        shift += exponent
    work = np.empty_like(z)
    roots = _roots(size)
    _fft_inplace(z, roots, work)
    # k = 0 and k = N/2 pair with themselves: the product is 4i Re Z_k Im Z_k
    half = size // 2
    for k in {0, half}:
        z[k] = 4j * z[k].real * z[k].imag
    if half > 1:
        lower, mirror = z[1:half], z[: half : -1]
        plus, minus = work[: half - 1], work[half - 1 : size - 2]
        np.conjugate(mirror, out=plus)
        np.subtract(lower, plus, out=minus)
        plus += lower
        np.multiply(plus, minus, out=lower)
        upper = z[half + 1 :]
        np.conjugate(lower[::-1], out=upper)
        np.negative(upper, out=upper)
    _fft_inplace(z, roots, work, inverse=True)
    del work, roots  # so the result below is made with only z alive
    # times -i/(4N), the real part is Im z / (4N) and the residue -Re z / (4N);
    # an overflow shows as a non-finite result, reported below
    with np.errstate(over="ignore"):
        result = np.ldexp(z.imag[:out_len], shift)
        residue = float(np.ldexp(_peak(z.real[:out_len]), shift))
    if not np.isfinite(result).all():
        raise NumericalError("conv_fft: result is not finite; the signals overflow the float range")
    scale = max(1.0, _peak(result))
    if residue > IMAG_RESIDUE_TOL * scale:
        raise NumericalError(f"conv_fft: imaginary residue {residue:g} exceeds tolerance")
    return result
