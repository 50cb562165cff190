"""Prefix-density estimation, symmetrized empirical averages, and limiting
degree/multiplicity profiles.

Monte Carlo estimators assign replicate r its own random stream derived from
the master stream, rng.substream(r), so a tally is a pure function of the
input, sizes and seed: any split of the replicate range into blocks, in any
order, merges to the same counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import fsum

from .rng import RandomStream
from .sampling import _as_sampler, _draw_distinct
from .structures import EdgeSeqGraph, key_for, size_of, subsample_in_order

EXACT_SYMMETRIZATION_MAX = 7  # k! grows past 5040 permutations above this


class PatternTally:
    """Counts of canonical pattern keys over Monte Carlo replicates."""

    def __init__(self):
        self.counts = {}
        self.reps = 0

    def add(self, key, times: int = 1):
        self.counts[key] = self.counts.get(key, 0) + times
        self.reps += times

    def merge(self, other: "PatternTally"):
        for key, c in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + c
        self.reps += other.reps

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


def tally_outputs(sampler, y, n: int, k: int, reps: int, rng: RandomStream,
                  transform=None) -> PatternTally:
    """Run ``sampler(y, n, k, stream_r)`` for reps replicates and tally the
    canonical keys of the outputs.

    ``transform(out, stream)`` is applied before keying when given (used by
    the invariance tests).  Replicate r always uses rng.substream(r).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    tally = PatternTally()
    for r in range(reps):
        stream = rng.substream(r)
        out = sampler(y, n, k, stream)
        if transform is not None:
            out = transform(out, stream)
        tally.add(key_for(out))
    return tally


def estimate_prefix_density(spec_or_sampler, y, n: int, pattern, reps: int,
                            rng: RandomStream, k: int | None = None) -> tuple:
    """Monte Carlo estimate of the probability that a size-k sample equals
    ``pattern``.  Returns (estimate, stderr)."""
    sampler = _as_sampler(spec_or_sampler)
    if k is None:
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

    @property
    def diffs(self) -> tuple:
        return tuple(abs(self.estimates[i + 1] - self.estimates[i])
                     for i in range(len(self.estimates) - 1))

    @property
    def slope(self) -> float:
        """Crude convergence rate: change in estimate per unit k."""
        if len(self.ks) < 2:
            return 0.0
        return (self.estimates[-1] - self.estimates[0]) / (self.ks[-1] - self.ks[0])


def lln_trace(spec_or_sampler, y, n: int, f, j: int, k_schedule, reps: int,
              rng: RandomStream, num_perms: int = 10_000) -> LLNTrace:
    """Group-averaged law of large numbers trace: for each k in the schedule,
    the mean over replicates of the symmetrized empirical average of f
    applied to a fresh size-k sample.  Exact symmetrization is used for
    k <= 7, Monte Carlo permutations above."""
    sampler = _as_sampler(spec_or_sampler)
    estimates = []
    ks = tuple(int(k) for k in k_schedule)
    for i, k in enumerate(ks):
        vals = []
        for r in range(reps):
            stream = rng.substream("lln", i, r)
            x_k = sampler(y, n, k, stream)
            if k <= EXACT_SYMMETRIZATION_MAX:
                vals.append(empirical_average(x_k, f, j, mode="exact"))
            else:
                vals.append(empirical_average(x_k, f, j, mode="monte_carlo",
                                              num_perms=num_perms, rng=stream))
        estimates.append(fsum(vals) / reps)
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
    flags |last - previous| <= cauchy_tol."""

    schedule: tuple
    window: tuple
    series: dict
    estimate: dict
    cauchy: dict
    mass: float
    ranked: tuple

    @property
    def converged(self) -> bool:
        return all(self.cauchy.values())


def _item_profile(steps, schedule, cauchy_tol: float) -> ItemProfile:
    """Shared profile machinery: ``steps`` yields, per structure step, the
    list of items that step contributes; the normalizer at size n is the
    total number of items contributed by the first n steps."""
    schedule = tuple(int(n) for n in schedule)
    if not schedule:
        raise ValueError("empty schedule")
    if any(schedule[i] >= schedule[i + 1] for i in range(len(schedule) - 1)):
        raise ValueError("schedule must be strictly increasing")
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
              or abs(series[it][-1] - series[it][-2]) <= cauchy_tol
              for it in all_items}
    mass = fsum(estimate[it] for it in window)
    ranked = tuple(sorted((estimate[it] for it in window), reverse=True))
    return ItemProfile(schedule, window, series, estimate, cauchy, mass, ranked)


@dataclass
class DegreeProfile:
    """Relative degrees deg(i, y|n) / 2n along a schedule; pbar is the
    estimated total mass of persistent vertices, deltas its sorted values."""

    profile: ItemProfile

    @property
    def schedule(self):
        return self.profile.schedule

    def dbar(self, vertex: int) -> float:
        return self.profile.estimate.get(vertex, 0.0)

    def series(self, vertex: int) -> tuple:
        return self.profile.series.get(vertex, ())

    @property
    def pbar(self) -> float:
        return self.profile.mass

    @property
    def deltas(self) -> tuple:
        return self.profile.ranked


def degree_profile(y: EdgeSeqGraph, schedule, cauchy_tol: float = 0.01) -> DegreeProfile:
    """Per-vertex relative degrees of an edge sequence along a schedule.

    At each n the per-vertex values sum to exactly 1 (degrees total 2n);
    pbar estimates the limiting mass by summing, at the last n, only over
    vertices already seen by the first schedule point."""
    return DegreeProfile(_item_profile((e for e in y.edges), schedule, cauchy_tol))


@dataclass
class MultiplicityProfile:
    """Relative multiplicities count((i,j), y|n) / n along a schedule."""

    profile: ItemProfile

    @property
    def schedule(self):
        return self.profile.schedule

    def mbar(self, pair) -> float:
        return self.profile.estimate.get(tuple(pair), 0.0)

    def series(self, pair) -> tuple:
        return self.profile.series.get(tuple(pair), ())

    @property
    def mubar(self) -> float:
        return self.profile.mass

    @property
    def nus(self) -> tuple:
        return self.profile.ranked


def multiplicity_profile(y: EdgeSeqGraph, schedule,
                         cauchy_tol: float = 0.01) -> MultiplicityProfile:
    return MultiplicityProfile(_item_profile(((e,) for e in y.edges),
                                             schedule, cauchy_tol))


def frequency_profile(y: tuple, schedule, cauchy_tol: float = 0.01) -> ItemProfile:
    """Label frequencies count(m, y|n) / n of a sequence along a schedule
    (the degree-profile analogue for sequence inputs)."""
    return _item_profile(((v,) for v in y), schedule, cauchy_tol)


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
