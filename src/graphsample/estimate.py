"""Prefix-density estimation, symmetrized empirical averages, and limiting
degree/multiplicity profiles.

Monte Carlo estimators give replicate r its own random stream derived from
the master stream, rng.substream(r), and replicate r reads nothing else, so
a tally is a pure function of the input, sizes and seed.  That lets a long
replicate loop run its contiguous ranges in forked processes, one per CPU
the process may run on (_over_ranges); the ranges' parts merge in range
order, so a tally is bit-identical, dict order included, to one process.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass
from math import fsum

from .rng import RandomStream
from .sampling import _as_sampler, _check_schedule, _draw_distinct
from .structures import EdgeSeqGraph, key_for, restrict, size_of, subsample_in_order

EXACT_SYMMETRIZATION_MAX = 7  # k! grows past 5040 permutations above this
CAUCHY_TOL = 0.01  # profile items whose last two values differ by more are flagged
_SPLIT_S = 0.05  # seconds of replicates left that pay for one more process
_in_child = False  # set in a forked child, which never forks again


class PatternTally:
    """Counts of canonical pattern keys over Monte Carlo replicates."""

    def __init__(self):
        self.counts = {}
        self.reps = 0

    def add(self, key, times: int = 1):
        self.counts[key] = self.counts.get(key, 0) + times
        self.reps += times

    def density(self, key) -> float:
        return self.counts.get(key, 0) / self.reps if self.reps else 0.0

    def stderr(self, key) -> float:
        """Normal-approximation standard error; rule-of-three upper bound
        3/reps for patterns never observed."""
        if self.reps == 0:
            return 0.0
        c = self.counts.get(key, 0)
        if c == 0:
            return 3.0 / self.reps
        p = c / self.reps
        return math.sqrt(p * (1.0 - p) / self.reps)

    def densities(self) -> dict:
        return {k: c / self.reps for k, c in self.counts.items()}

    def tv(self, other) -> float:
        """Total variation distance to another tally or to an exact law
        given as a dict key -> probability."""
        mine = self.densities()
        theirs = other.densities() if isinstance(other, PatternTally) else dict(other)
        keys = set(mine) | set(theirs)
        return 0.5 * fsum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in keys)

    def sorted_items(self):
        """(key, count) pairs, most frequent first, key bytes as tiebreak."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0].kind, kv[0].data))


def tally_outputs(sampler, y, n: int, k: int, reps: int, rng: RandomStream) -> PatternTally:
    """Run ``sampler(y, n, k, stream_r)`` for reps replicates and tally the
    canonical keys of the outputs; replicate r always uses rng.substream(r).

    A sampler is taken to see y only through y|n, as every sampler of
    the paper does.  So for a structure y with 1 <= n < size_of(y), y is
    replaced by y|n once, and every replicate samples the same prepared
    structure (the graph samplers reuse its memoised adjacency and
    degrees).  Any other n, or a y with no size (a graphon, say, for a
    custom sampler), reaches the sampler as given, and the sampler's own
    checks apply.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    try:
        size = size_of(y)
    except TypeError:
        size = 0
    if 1 <= n < size:
        y = restrict(y, n)

    def run(lo, hi):  # {key: count} of replicates lo..hi-1, first occurrence first
        counts = {}
        for r in range(lo, hi):
            key = key_for(sampler(y, n, k, rng.substream(r)))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def merge(a, b):
        for key, c in b.items():
            a[key] = a.get(key, 0) + c
        return a

    tally = PatternTally()
    tally.counts = _over_ranges(reps, run, merge)
    tally.reps = reps
    return tally


def _over_ranges(reps: int, run, merge):
    """``run(0, reps)``, computed as contiguous ranges whose parts ``merge``
    joins in range order.

    ``run(lo, hi)`` computes replicates lo..hi-1 in order and returns their
    part; ``merge(a, b)`` appends part b after part a.  This process runs
    chunks of 1, 2, 4, ... replicates and times each.  Once the replicates
    left, at the last chunk's seconds per replicate, hold ``_SPLIT_S`` of
    work for each of two or more of the CPUs this process may run on, the
    rest is split among that many processes (_split).  The last chunk's
    rate, not the mean since the start, since the first replicates run slow
    while memos fill.  Only a process with one thread forks, and a forked
    child never forks again.
    """
    part, lo, size = None, 0, 1
    while lo < reps:
        hi = min(reps, lo + size)
        start = time.perf_counter()
        chunk = run(lo, hi)
        rate = (time.perf_counter() - start) / (hi - lo)
        part = chunk if part is None else merge(part, chunk)
        lo, size = hi, 2 * size
        if (_in_child or not hasattr(os, "sched_getaffinity")
                or not hasattr(os, "fork") or threading.active_count() != 1):
            continue
        # min(CPUs, replicates left, floor(work left / _SPLIT_S)), written
        # to divide by _SPLIT_S only when that bound is the smallest
        work, procs = rate * (reps - lo), min(len(os.sched_getaffinity(0)), reps - lo)
        if work < procs * _SPLIT_S:
            procs = int(work / _SPLIT_S)
        if procs >= 2:
            return merge(part, _split(lo, reps, procs, run, merge))
    return part


def _split(lo: int, hi: int, procs: int, run, merge):
    """``run(lo, hi)`` over ``procs`` contiguous ranges: this process runs
    the first, a forked child each of the others.

    A child sends its pickled part, or its pickled exception, through a
    pipe and always ends in os._exit.  The parts merge in range order, and
    an error is raised from the lowest range that failed, as in one
    process.  On any exception here every child is killed; every child is
    reaped before this returns or raises.
    """
    import pickle
    import signal

    cuts = [lo + (hi - lo) * i // procs for i in range(procs + 1)]
    children = []  # (pid, read end of its pipe), in range order
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                _child(wfd, run, a, b)
            children.append((pid, rfd))
            os.close(wfd)
        part = run(cuts[0], cuts[1])
        for (pid, rfd), a, b in zip(children, cuts[1:-1], cuts[2:]):
            with open(rfd, "rb", closefd=False) as f:
                data = f.read()
            if not data:
                raise RuntimeError(f"the process running replicates {a}..{b - 1} "
                                   f"exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            part = merge(part, value)
        return part
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, rfd in children:
            os.close(rfd)
            os.waitpid(pid, 0)


def _child(wfd: int, run, lo: int, hi: int):
    """Body of a forked child: run replicates lo..hi-1, send the outcome
    through ``wfd`` and exit, never returning into the caller's stack nor
    flushing the stdio buffers it inherited."""
    global _in_child
    import pickle

    try:
        _in_child = True
        try:
            outcome = (True, run(lo, hi))
        except BaseException as exc:
            outcome = (False, exc)
        with open(wfd, "wb") as f:
            f.write(pickle.dumps(outcome))
    finally:
        os._exit(0)


def estimate_prefix_density(spec_or_sampler, y, n: int, pattern, reps: int,
                            rng: RandomStream) -> tuple:
    """Monte Carlo estimate of the probability that a sample of the size of
    ``pattern`` equals it.  Returns (estimate, stderr)."""
    sampler = _as_sampler(spec_or_sampler)
    k = size_of(pattern)
    if k > n:
        raise ValueError(f"pattern size {k} exceeds n = {n}")
    tally = tally_outputs(sampler, y, n, k, reps, rng)
    key = key_for(pattern)
    return tally.density(key), tally.stderr(key)


def prefix_density_vector(spec_or_sampler, y, n: int, k: int, reps: int,
                          rng: RandomStream) -> PatternTally:
    """Tally of all observed size-k outputs; unobserved patterns implicitly
    carry density 0."""
    sampler = _as_sampler(spec_or_sampler)
    return tally_outputs(sampler, y, n, k, reps, rng)


# ---------------------------------------------------------------------------
# symmetrized empirical averages (the group-averaged LLN estimator)


def empirical_average(x, f, j: int, mode: str = "exact",
                      num_perms: int = 10_000, rng: RandomStream | None = None) -> float:
    """Average of f over the size-j restriction of the relabeling orbit of x:

        (1/|A|) * sum_{phi in A} f( restrict_j( T_phi(x) ) )

    with A = Sym(k) enumerated exactly (mode="exact", k <= 7) or sampled by
    ``num_perms`` uniform permutations (mode="monte_carlo").  T_phi permutes
    vertices of a vertex graph, positions of a sequence, and positions
    followed by canonical relabeling for partitions and edge sequences.

    The restriction to size j depends only on the first j images of phi, so
    the exact average is computed over ordered j-arrangements (each appears
    (k-j)! times in the full sum -- the value is identical).
    """
    k = size_of(x)
    if not 1 <= j <= k:
        raise ValueError(f"j = {j} outside 1..{k}")
    if mode == "exact":
        if k > EXACT_SYMMETRIZATION_MAX:
            raise ValueError(f"exact symmetrization needs k <= "
                             f"{EXACT_SYMMETRIZATION_MAX}, got {k}")
        vals = [f(subsample_in_order(x, pos))
                for pos in itertools.permutations(range(1, k + 1), j)]
        return fsum(vals) / len(vals)
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        if num_perms < 1:
            raise ValueError("num_perms must be >= 1")
        vals = [f(subsample_in_order(x, _draw_distinct(k, j, rng)))
                for _ in range(num_perms)]
        return fsum(vals) / num_perms
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class LLNTrace:
    ks: tuple
    estimates: tuple



def lln_trace(spec_or_sampler, y, n: int, f, j: int, k_schedule, reps: int,
              rng: RandomStream, num_perms: int = 10_000) -> LLNTrace:
    """Group-averaged law of large numbers trace: for each k in the schedule,
    the mean over replicates of the symmetrized empirical average of f
    applied to a fresh size-k sample.  Exact symmetrization is used for
    k <= 7, Monte Carlo permutations above."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    sampler = _as_sampler(spec_or_sampler)
    estimates = []
    ks = tuple(int(k) for k in k_schedule)
    for i, k in enumerate(ks):
        def run(lo, hi):  # the averages of replicates lo..hi-1
            vals = []
            for r in range(lo, hi):
                stream = rng.substream("lln", i, r)
                x_k = sampler(y, n, k, stream)
                if k <= EXACT_SYMMETRIZATION_MAX:
                    vals.append(empirical_average(x_k, f, j, mode="exact"))
                else:
                    vals.append(empirical_average(x_k, f, j, mode="monte_carlo",
                                                  num_perms=num_perms, rng=stream))
            return vals

        estimates.append(fsum(_over_ranges(reps, run, list.__add__)) / reps)
    return LLNTrace(ks, tuple(estimates))


# ---------------------------------------------------------------------------
# limiting degree / multiplicity / frequency profiles


@dataclass
class ItemProfile:
    """Per-item relative-occupancy estimates along a schedule of sizes.

    series[item] holds count(item, y|n) / normalizer(n) at each schedule n.
    The candidate window is the set of items already present at the first
    schedule point; mass sums their last-n values (items outside the window
    are treated as dust whose individual share vanishes).  cauchy[item]
    flags |last - previous| <= CAUCHY_TOL."""

    schedule: tuple
    window: tuple
    series: dict
    estimate: dict
    cauchy: dict
    mass: float
    ranked: tuple



def _item_profile(steps, schedule) -> ItemProfile:
    """Shared profile machinery: ``steps`` yields, per structure step, the
    list of items that step contributes; the normalizer at size n is the
    total number of items contributed by the first n steps."""
    schedule = _check_schedule(schedule)
    counts = {}
    snapshots = []
    window = None
    total_items = 0
    sched_iter = iter(schedule)
    next_mark = next(sched_iter)
    for step, items in enumerate(steps, start=1):
        for it in items:
            counts[it] = counts.get(it, 0) + 1
        total_items += len(items)
        if step == next_mark:
            snapshots.append((dict(counts), total_items))
            if window is None:
                window = tuple(sorted(counts))
            next_mark = next(sched_iter, None)
            if next_mark is None:
                break
    if len(snapshots) != len(schedule):
        raise ValueError("schedule exceeds input size")
    all_items = sorted(snapshots[-1][0])
    series = {it: tuple(snap.get(it, 0) / norm for snap, norm in snapshots)
              for it in all_items}
    estimate = {it: series[it][-1] for it in all_items}
    cauchy = {it: len(schedule) < 2
              or abs(series[it][-1] - series[it][-2]) <= CAUCHY_TOL
              for it in all_items}
    mass = fsum(estimate[it] for it in window)
    ranked = tuple(sorted((estimate[it] for it in window), reverse=True))
    return ItemProfile(schedule, window, series, estimate, cauchy, mass, ranked)


def degree_profile(y: EdgeSeqGraph, schedule) -> ItemProfile:
    """Per-vertex relative degrees deg(i, y|n) / 2n of an edge sequence
    along a schedule.

    In the paper's names, estimate[i] is dbar(i), mass is pbar (the
    limiting mass of persistent vertices, summed at the last n only over
    vertices already seen by the first schedule point) and ranked holds
    the deltas.  At each n the per-vertex values sum to exactly 1 (degrees
    total 2n)."""
    return _item_profile((e for e in y.edges), schedule)


def multiplicity_profile(y: EdgeSeqGraph, schedule) -> ItemProfile:
    """Relative multiplicities count((i, j), y|n) / n of an edge sequence
    along a schedule.

    In the paper's names, estimate[(i, j)] is mbar(i, j), mass is mubar and
    ranked holds the nus."""
    return _item_profile(((e,) for e in y.edges), schedule)


def frequency_profile(y: tuple, schedule) -> ItemProfile:
    """Label frequencies count(m, y|n) / n of a sequence along a schedule
    (the degree-profile analogue for sequence inputs)."""
    return _item_profile(((v,) for v in y), schedule)


def endpoint_slot_stats(g: EdgeSeqGraph) -> tuple:
    """Occupancy of the 2k endpoint slots of a k-edge sample.

    Returns (singleton_mass, repeated_fractions): the fraction of slots held
    by vertices appearing exactly once, and the sorted slot fractions of
    every vertex appearing at least twice."""
    if len(g.edges) == 0:
        raise ValueError("empty edge sequence")
    counts = {}
    for i, j in g.edges:
        counts[i] = counts.get(i, 0) + 1
        counts[j] = counts.get(j, 0) + 1
    slots = 2 * len(g.edges)
    singleton = sum(c for c in counts.values() if c == 1) / slots
    repeated = tuple(sorted((c / slots for c in counts.values() if c >= 2),
                            reverse=True))
    return singleton, repeated
