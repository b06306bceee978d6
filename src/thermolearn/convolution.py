"""Linear convolution two ways: direct O(n^2) and via a radix-2 FFT.

The FFT here is written from scratch (iterative, in-place, bit-reversal
permutation followed by butterfly passes) so the fast route is fully
independent of the quadratic reference route. ``conv_naive`` delegates to
the library's direct implementation and serves as the oracle.
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


def _bit_reverse_permute(a: np.ndarray, work: np.ndarray) -> None:
    # moving a[i] to the index with i's log2(n) bits reversed is reversing
    # the axes of a seen as a 2 x 2 x ... x 2 array; work is scratch of a's size
    bits = a.size.bit_length() - 1
    if bits:
        cube = (2,) * bits
        np.copyto(work.reshape(cube), a.reshape(cube).transpose(range(bits - 1, -1, -1)))
        a[:] = work


# Passes of length up to _BLOCK stay inside blocks of that many items
# (64 KiB), so they run block by block while the block is in cache; the
# longer passes then span the whole array.
_BLOCK = 1 << 12
# numpy is slow on many short rows, so a pass whose half-length is below
# this runs column by column, each column a long strided vector.
_FEW_COLUMNS = 8


def _fft_inplace(signals, inverse: bool) -> None:
    # each signal must be complex128 with the same power-of-two length; they
    # share one scratch array and one table of twiddles
    n = signals[0].size
    work = np.empty(n, dtype=np.complex128)
    sign = 1.0 if inverse else -1.0
    # each pass's twiddles are a strided slice of the last pass's: the angle
    # of k * (n / length) over n rounds exactly as the angle of k over length
    angles = work.view(np.float64)[: n // 2]
    np.multiply(sign * 2.0 * math.pi, np.arange(n // 2), out=angles)
    angles /= n
    roots = np.multiply(1j, angles)
    np.exp(roots, out=roots)
    block = min(n, _BLOCK)
    for a in signals:
        _bit_reverse_permute(a, work)
        for start in range(0, n, block):
            _butterflies(a[start : start + block], 2, roots, work)
        _butterflies(a, 2 * block, roots, work)


def _butterflies(a: np.ndarray, length: int, roots: np.ndarray, work: np.ndarray) -> None:
    # the passes from `length` up to a.size; roots are the last pass's
    # twiddles for the whole transform, work is scratch of the transform's size
    n = roots.size * 2
    # work holds the odd products and a contiguous copy of the twiddles
    odd, twiddle = work[: a.size // 2], work[n // 2 :]
    while length <= a.size:
        half = length // 2
        rows = a.size // length
        twiddle[:half] = roots[:: n // length]
        blocks = a.reshape(rows, length)
        products = odd.reshape(rows, half)
        if half < _FEW_COLUMNS:
            for k in range(half):
                np.multiply(blocks[:, half + k], twiddle[k], out=products[:, k])
                np.subtract(blocks[:, k], products[:, k], out=blocks[:, half + k])
                blocks[:, k] += products[:, k]
        else:
            np.multiply(blocks[:, half:], twiddle[:half], out=products)
            np.subtract(blocks[:, :half], products, out=blocks[:, half:])
            blocks[:, :half] += products
        length *= 2


def _transform(x, name: str, inverse: bool) -> np.ndarray:
    # validated copy of x as complex128, transformed in place (unscaled)
    out = np.array(_array(f"{name}: x", x, dtype=np.complex128))
    if out.size & (out.size - 1):
        raise ValidationError(f"{name}: length must be a power of two, got {out.size}")
    _fft_inplace((out,), inverse)
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
    """Direct linear convolution, length len(x) + len(y) - 1."""
    return np.convolve(_array("conv_naive: x", x), _array("conv_naive: y", y))


def conv_fft(x, y) -> np.ndarray:
    """Linear convolution via zero-padding to a power of two and the radix-2 FFT.

    The product theorem gives circular convolution at the padded size;
    padding to at least len(x) + len(y) - 1 makes it linear. The result is
    real: the imaginary residue is checked against ``IMAG_RESIDUE_TOL``
    and discarded. A result that is not finite raises NumericalError.
    """
    a = _array("conv_fft: x", x)
    b = _array("conv_fft: y", y)
    out_len = a.size + b.size - 1
    size = next_pow2(out_len)
    fa = np.zeros(size, dtype=np.complex128)
    fb = np.zeros(size, dtype=np.complex128)
    fa[: a.size] = a
    fb[: b.size] = b
    _fft_inplace((fa, fb), inverse=False)
    # an overflow shows as a non-finite result, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        fa *= fb
        _fft_inplace((fa,), inverse=True)
        fa /= size
    result = fa[:out_len]
    if not np.isfinite(result).all():
        raise NumericalError("conv_fft: result is not finite; the signals overflow the float range")
    residue = float(np.abs(result.imag).max()) if out_len else 0.0
    scale = max(1.0, float(np.abs(result.real).max()))
    if residue > IMAG_RESIDUE_TOL * scale:
        raise NumericalError(f"conv_fft: imaginary residue {residue:g} exceeds tolerance")
    return result.real.copy()
