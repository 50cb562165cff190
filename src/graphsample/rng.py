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

A Monte Carlo replicate is a substream derivation followed by a few draws,
so those are the package's hottest calls.  Each draw, ``distinct`` and
``substream`` therefore write the three lines of mix64 out where they are
used instead of calling ``_mix64``: in CPython a call costs more than the
mix itself.  The inlined lines are exactly ``_mix64``'s; the known-answer
values in tests/test_rng.py hold every path to them.
"""

from __future__ import annotations

import zlib

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment used by splitmix64
_TWEAK_SALT = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9  # splitmix64's two finalizer multipliers
_M2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic uniform stream indexed by (master_seed, stream_id).

    The draw sequence U_1, U_2, ... in [0, 1) depends only on the two
    identifiers, never on wall-clock state, so identical seeds reproduce
    identical outputs bit-for-bit on any platform.  ``counter`` is the
    number of draws taken so far.
    """

    __slots__ = ("master_seed", "stream_id", "counter", "_base", "_tweak", "_seed_mix")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & _MASK
        self.stream_id = int(stream_id) & _MASK
        self.counter = 0
        self._seed_mix = _mix64(self.master_seed)  # shared by every substream
        self._base = _mix64(self._seed_mix ^ _mix64(self.stream_id ^ _GAMMA))
        self._tweak = _mix64(_mix64(self.stream_id + _TWEAK_SALT) ^ self.master_seed)

    def next_u64(self) -> int:
        c = self.counter = self.counter + 1
        z = ((self._base + c * _GAMMA) & _MASK) ^ self._tweak
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Next draw as a float in [0, 1) with 53 random bits."""
        c = self.counter = self.counter + 1
        z = ((self._base + c * _GAMMA) & _MASK) ^ self._tweak
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via multiply-shift (bias < n / 2**64)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        c = self.counter = self.counter + 1
        z = ((self._base + c * _GAMMA) & _MASK) ^ self._tweak
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        return ((z ^ (z >> 31)) * n) >> 64

    def distinct(self, n: int, k: int) -> list:
        """k distinct uniform values from {1..n}, in selection order.

        Each value is ``randbelow(n) + 1``, and repeats are rejected, so
        ``counter`` advances by every draw, rejected ones included.  The
        accepted subsequence is a pure function of the stream, so the first
        k accepted values are the same in every call with k' >= k."""
        if n <= 0 < k:
            raise ValueError("randbelow requires n >= 1")
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw k = {k} distinct values from 1..{n}")
        base, tweak, c = self._base, self._tweak, self.counter
        chosen = []
        seen = set()
        while len(chosen) < k:
            c += 1
            z = ((base + c * _GAMMA) & _MASK) ^ tweak
            z = ((z ^ (z >> 30)) * _M1) & _MASK
            z = ((z ^ (z >> 27)) * _M2) & _MASK
            v = (((z ^ (z >> 31)) * n) >> 64) + 1
            if v not in seen:
                seen.add(v)
                chosen.append(v)
        self.counter = c
        return chosen

    def substream(self, *keys) -> "RandomStream":
        """Derive an independent stream keyed by integers and/or strings.

        The derivation hashes the keys into a fresh stream_id, so
        ``s.substream(r)`` for distinct r gives statistically independent
        streams regardless of how much of ``s`` has been consumed.  Keys
        fold left: ``s.substream(a, b).substream(c)`` is
        ``s.substream(a, b, c)``.
        """
        sid = self.stream_id
        for key in keys:
            # sid = mix64((sid ^ mix64(key as an int)) + GAMMA)
            z = zlib.crc32(key.encode("utf-8")) if isinstance(key, str) else int(key) & _MASK
            z = ((z ^ (z >> 30)) * _M1) & _MASK
            z = ((z ^ (z >> 27)) * _M2) & _MASK
            z = ((sid ^ z ^ (z >> 31)) + _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * _M1) & _MASK
            z = ((z ^ (z >> 27)) * _M2) & _MASK
            sid = z ^ (z >> 31)
        # the child of __init__(master_seed, sid), with master_seed's mix reused
        child = object.__new__(RandomStream)
        child.master_seed = seed = self.master_seed
        child.stream_id = sid
        child.counter = 0
        child._seed_mix = seed_mix = self._seed_mix
        # base = mix64(seed_mix ^ mix64(sid ^ GAMMA))
        z = sid ^ _GAMMA
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        z = seed_mix ^ z ^ (z >> 31)
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        child._base = z ^ (z >> 31)
        # tweak = mix64(mix64(sid + TWEAK_SALT) ^ seed)
        z = (sid + _TWEAK_SALT) & _MASK
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        z = seed ^ z ^ (z >> 31)
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        child._tweak = z ^ (z >> 31)
        return child

    def __repr__(self):
        return (f"RandomStream(master_seed={self.master_seed}, "
                f"stream_id={self.stream_id}, counter={self.counter})")

