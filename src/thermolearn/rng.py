"""Seeded random streams with deterministic substream derivation.

A stream is identified by a ``(seed, stream_id)`` pair of integers in
[0, 2^64); anything else raises ValidationError. The pair is mixed
into a single 64-bit value with SplitMix64 and that value seeds a PCG64
generator, so the mapping from identifiers to sample sequences is fixed
for all time:

    state = splitmix64(splitmix64(seed) XOR splitmix64(stream_id XOR PHI))

where PHI = 0x9E3779B97F4A7C15 (the SplitMix64 golden-ratio increment).
Identical pairs always produce identical sequences; distinct stream ids
give statistically independent sequences. Streams are single-owner
mutable state: hand each concurrent task its own substream instead of
sharing one.
"""

from __future__ import annotations

import numpy as np

from .config import _count

_U64 = 1 << 64
_MASK64 = _U64 - 1
_PHI64 = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One SplitMix64 finalizer round on a 64-bit value."""
    z = (value + _PHI64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(seed: int, stream_id: int) -> int:
    """Collapse a (seed, stream-id) pair into the 64-bit generator seed."""
    return splitmix64(splitmix64(seed & _MASK64) ^ splitmix64((stream_id & _MASK64) ^ _PHI64))


class RngStream:
    """A reproducible random stream backed by numpy's PCG64.

    ``generator`` is a ``numpy.random.Generator``; use it directly for
    sampling. ``substream(k)`` derives stream k of this stream's family,
    again deterministically.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # each id is a U64; reducing other ints mod 2^64 would let two ids share one stream
        self.seed = _count("RngStream: seed", seed, 0, _U64)
        self.stream_id = _count("RngStream: stream_id", stream_id, 0, _U64)
        self.generator = np.random.Generator(np.random.PCG64(mix_seed(self.seed, self.stream_id)))

    def substream(self, stream_id: int) -> "RngStream":
        """Derive an independent child stream; child seed is this pair's mix."""
        return RngStream(mix_seed(self.seed, self.stream_id), stream_id)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
