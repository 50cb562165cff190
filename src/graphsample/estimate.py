"""Prefix-density estimation, symmetrized empirical averages, and limiting
degree/multiplicity profiles.

Monte Carlo estimators give replicate r its own random stream derived from
the master stream, rng.substream(r), and replicate r reads nothing else, so
a tally is a pure function of the input, sizes and seed.  That lets a long
replicate loop run its contiguous ranges in forked processes, one per CPU
the process may run on (_over_ranges), which joins their parts in range
order, so a tally is bit-identical, dict order included, to one process.

A symmetrized empirical average is exact while its (k)_j arrangements fit
its num_perms budget, and sampled from the stream it is given above that.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from collections import Counter
from math import fsum

from .rng import RandomStream
from .sampling import _as_sampler, _check_k_within_n, _check_schedule
from .structures import EdgeSeqGraph, _Frozen, _Record, key_for, size_of, subsample_in_order

EXACT_TOL = 1e-9  # TV two equal exact laws may show from float rounding alone
_SPLIT_S = 0.05  # seconds of replicates left that pay for one more process
_in_child = False  # set in a forked child, which never forks again


class PatternTally(_Frozen):
    """Counts of canonical pattern keys over reps Monte Carlo replicates,
    in first-occurrence order; a key never drawn is absent."""

    def __init__(self, counts: dict, reps: int):
        self._set(counts, reps)

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

    def sorted_items(self):
        """(key, count) pairs, most frequent first, then by key bytes."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def compare(a, b) -> tuple:
    """(TV, threshold) between two laws, each a PatternTally or an exact law
    given as a dict key -> probability; they agree iff TV <= threshold.

    The threshold is 4 * sqrt(sum of 1/reps over the tallied sides), or
    EXACT_TOL for two exact laws.  It ignores the number of patterns, which
    the TV noise grows with, so a tally of many patterns can fail the very
    law it was drawn from."""
    law_a, law_b = (side.densities() if isinstance(side, PatternTally) else side
                    for side in (a, b))
    tv = 0.5 * fsum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0))
                    for k in set(law_a) | set(law_b))
    noise = sum(1.0 / side.reps for side in (a, b) if isinstance(side, PatternTally))
    return tv, (4.0 * math.sqrt(noise) if noise else EXACT_TOL)


def tally_outputs(sampler, y, n: int, k: int, reps: int, rng: RandomStream) -> PatternTally:
    """Run ``sampler(y, n, k, stream_r)`` for reps replicates and tally the
    canonical keys of the outputs; replicate r always uses rng.substream(r).

    y reaches the sampler as given.  A graph sampler of the package cuts
    y|n in its first replicate and y keeps that cut (restrict_vertices), so
    every replicate samples one y|n and reuses its memoised adjacency,
    degrees and ball keys.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")

    def run(lo, hi):  # key counts of replicates lo..hi-1, first occurrence first
        return Counter(key_for(sampler(y, n, k, rng.substream(r)))
                       for r in range(lo, hi))

    return PatternTally(_over_ranges(reps, run), reps)


def _over_ranges(reps: int, run):
    """``run(0, reps)``, computed as contiguous ranges whose parts are
    joined in range order.

    ``run(lo, hi)`` computes replicates lo..hi-1 in order and returns their
    part, ``run(0, 0)`` the empty one; ``a += b`` appends part b after part
    a, as for a list, or a Counter of keys in first-occurrence order (its
    ``+=`` appends b's new keys in b's order).  This process runs chunks of
    1, 2, 4, ... replicates and times each.  Once the replicates left, at
    the last chunk's seconds per replicate, hold ``_SPLIT_S`` of work for
    each of two or more of the CPUs this process may run on, the rest is
    split among that many processes (_split).  The last chunk's rate, not
    the mean since the start, since the first replicates run slow while
    memos fill.  Only a process with one thread forks, and a forked child
    never forks again.
    """
    part, lo, size = run(0, 0), 0, 1
    while lo < reps:
        hi = min(reps, lo + size)
        start = time.perf_counter()
        chunk = run(lo, hi)
        rate = (time.perf_counter() - start) / (hi - lo)
        part += chunk
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
            part += _split(lo, reps, procs, run)
            return part
    return part


def _split(lo: int, hi: int, procs: int, run):
    """``run(lo, hi)`` over ``procs`` contiguous ranges: this process runs
    the first, a forked child each of the others.

    A child sends its pickled part, or its pickled exception, through a
    pipe and always ends in os._exit.  The parts join in range order, and
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
            part += value
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


def prefix_density_vector(spec_or_sampler, y, n: int, k: int, reps: int,
                          rng: RandomStream) -> PatternTally:
    """Tally of all observed size-k outputs; unobserved patterns implicitly
    carry density 0."""
    sampler = _as_sampler(spec_or_sampler)
    return tally_outputs(sampler, y, n, k, reps, rng)


# ---------------------------------------------------------------------------
# symmetrized empirical averages (the group-averaged LLN estimator)


def empirical_average(x, f, j: int, num_perms: int = 10_000,
                      rng: RandomStream | None = None) -> float:
    """Average of f over the size-j restriction of the relabeling orbit of x:

        (1/|A|) * sum_{phi in A} f( restrict_j( T_phi(x) ) )

    with A = Sym(k).  T_phi permutes vertices of a vertex graph, positions
    of a sequence, and positions followed by canonical relabeling for
    partitions and edge sequences.

    The restriction depends only on phi's first j images, so the average is
    taken over the (k)_j = k!/(k-j)! ordered j-arrangements of 1..k: all of
    them when (k)_j <= num_perms, else num_perms uniform draws from rng.
    """
    k = size_of(x)
    if not 1 <= j <= k:
        raise ValueError(f"j = {j} outside 1..{k}")
    if num_perms < 1:
        raise ValueError("num_perms must be >= 1")
    count = math.perm(k, j)
    if count <= num_perms:
        arrangements = itertools.permutations(range(1, k + 1), j)
    elif rng is None:
        raise ValueError(f"{count} arrangements exceed num_perms = {num_perms}, "
                         f"and sampling them needs an rng")
    else:
        arrangements = (rng.distinct(k, j) for _ in range(num_perms))
    vals = [f(subsample_in_order(x, pos)) for pos in arrangements]
    return fsum(vals) / len(vals)


class LLNTrace(_Record):
    def __init__(self, ks: tuple, estimates: tuple):
        self._set(ks, estimates)


def lln_trace(spec_or_sampler, y, n: int, f, j: int, k_schedule, reps: int,
              rng: RandomStream, num_perms: int = 10_000) -> LLNTrace:
    """Group-averaged law of large numbers trace: for each k in the schedule,
    the mean over replicates of the symmetrized empirical average of f
    applied to a fresh size-k sample, exact while (k)_j <= num_perms and
    sampled from the replicate's stream above that.  y reaches the sampler
    as given, as in tally_outputs.  A schedule size above n is refused
    before any replicate, as sampling._check_k_within_n says."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    ks = _check_schedule(k_schedule)
    _check_k_within_n(spec_or_sampler, ks[-1], n, f"schedule size {ks[-1]}")
    sampler = _as_sampler(spec_or_sampler)
    estimates = []
    for i, k in enumerate(ks):
        point = rng.substream("lln", i)  # point.substream(r) is rng.substream("lln", i, r)

        def run(lo, hi):  # the averages of replicates lo..hi-1
            vals = []
            for r in range(lo, hi):
                stream = point.substream(r)
                x_k = sampler(y, n, k, stream)
                vals.append(empirical_average(x_k, f, j, num_perms, stream))
            return vals

        estimates.append(fsum(_over_ranges(reps, run)) / reps)
    return LLNTrace(ks, tuple(estimates))


# ---------------------------------------------------------------------------
# limiting degree / multiplicity / frequency profiles


class ItemProfile(_Record):
    """Per-item relative-occupancy estimates along a schedule of sizes.

    series[item] holds count(item, y|n) / normalizer(n) at each schedule n.
    mass sums the last-n values of the items already present at the first
    schedule point, and ranked holds those values in decreasing order
    (items that arrive later are treated as dust whose individual share
    vanishes)."""

    def __init__(self, schedule: tuple, series: dict, estimate: dict, mass: float,
                 ranked: tuple):
        self._set(schedule, series, estimate, mass, ranked)


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
    mass = fsum(estimate[it] for it in window)
    ranked = tuple(sorted((estimate[it] for it in window), reverse=True))
    return ItemProfile(schedule, series, estimate, mass, ranked)


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
