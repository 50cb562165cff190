"""Reproducible counter-based random number streams.

Every sampler in this package draws its randomness from a RandomStream,
a splitmix64-style generator whose output sequence is a pure function of
(master_seed, stream_id).  The i-th draw of a stream is

    mix64((base + i * GAMMA) ^ tweak)

where ``base`` and ``tweak`` are both derived from (master_seed, stream_id)
through the mix64 finalizer.  Because the state is just a counter, streams
can be recreated at will and replicate r of a Monte Carlo loop can be
handed its own independent stream (``substream(r)``), so every output is
a pure function of (input, n, k, seed), whatever order replicates run in.
"""

from __future__ import annotations

import zlib

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment used by splitmix64
_TWEAK_SALT = 0xD1B54A32D192ED03


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _key_to_int(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key) & _MASK


class RandomStream:
    """Deterministic uniform stream indexed by (master_seed, stream_id).

    The draw sequence U_1, U_2, ... in [0, 1) depends only on the two
    identifiers, never on wall-clock state, so identical seeds reproduce
    identical outputs bit-for-bit on any platform.
    """

    __slots__ = ("master_seed", "stream_id", "counter", "_base", "_tweak")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & _MASK
        self.stream_id = int(stream_id) & _MASK
        self.counter = 0
        self._base = _mix64(_mix64(self.master_seed) ^ _mix64(self.stream_id ^ _GAMMA))
        self._tweak = _mix64(_mix64(self.stream_id + _TWEAK_SALT) ^ self.master_seed)

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64(((self._base + self.counter * _GAMMA) & _MASK) ^ self._tweak)

    def uniform(self) -> float:
        """Next draw as a float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via multiply-shift (bias < n / 2**64)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return (self.next_u64() * n) >> 64

    def substream(self, *keys) -> "RandomStream":
        """Derive an independent stream keyed by integers and/or strings.

        The derivation hashes the keys into a fresh stream_id, so
        ``s.substream(r)`` for distinct r gives statistically independent
        streams regardless of how much of ``s`` has been consumed.
        """
        sid = self.stream_id
        for key in keys:
            sid = _mix64((sid ^ _mix64(_key_to_int(key))) + _GAMMA)
        return RandomStream(self.master_seed, sid)

    def __repr__(self):
        return (f"RandomStream(master_seed={self.master_seed}, "
                f"stream_id={self.stream_id}, counter={self.counter})")
