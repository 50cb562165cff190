"""Statistical verification of sampler symmetries on concrete inputs:
exchangeability, idempotence, output equivalence, and involution invariance.

Each test builds two pattern laws (tallies, or exact laws) and passes iff
their TV is at most the threshold of estimate.compare, a finite-replicate
artifact (the underlying statements are asymptotic).  That threshold does
not grow with the number of patterns, so a test of many patterns can fail
an exactly invariant sampler: a known defect, open in ROADMAP.md.  Every
report carries its threshold so the decision is auditable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from .estimate import PatternTally, compare, tally_outputs
from .rng import RandomStream
from .sampling import _check_k_within_n, _coded, _row
from .structures import (
    RootedGraph,
    VertexGraph,
    _Record,
    _bfs_distances,
    ball,
    key_for,
    restrict_vertices,
    size_of,
    subsample_in_order,
)


class TestReport(_Record):
    """Outcome of one invariance test: (statistic, threshold) is
    estimate.compare(tally_a, tally_b); pass iff statistic <= threshold.
    An exact report's tally_a and tally_b are exact laws, dicts key ->
    probability, and its reps is 0."""

    def __init__(self, name: str, statistic: float, threshold: float,
                 tally_a: PatternTally | dict, tally_b: PatternTally | dict,
                 notes: list | None = None):
        self._set(name, statistic, threshold, tally_a, tally_b,
                  [] if notes is None else notes)

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    @property
    def reps(self) -> int:
        return self.tally_a.reps if isinstance(self.tally_a, PatternTally) else 0

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {verdict}  TV = {self.statistic:.6f}  "
                 f"threshold = {self.threshold:.6f}  reps = {self.reps}"]
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _report(name, tally_a, tally_b, notes=()) -> TestReport:
    """The report of compare(tally_a, tally_b), noting a threshold of 1 or
    more: a TV never exceeds 1, so such a test passes whatever the laws."""
    tv, threshold = compare(tally_a, tally_b)
    notes = list(notes)
    if threshold >= 1:
        notes.append(f"vacuous threshold: a TV is at most 1, so none can exceed "
                     f"{threshold:.6f} at this replicate count and the test "
                     "passes whatever the laws")
    return TestReport(name, tv, threshold, tally_a, tally_b, notes)


# ---------------------------------------------------------------------------
# relabeling actions on finite outputs


def apply_relabeling(x, perm: tuple):
    """Apply a permutation of [k] to a size-k output structure, in the
    action native to its kind: vertices for vertex graphs, positions for
    sequences, positions followed by canonical relabeling for partitions
    and edge sequences.

    Position p moves to perm[p-1], so the result lists the positions in
    the inverse order (perm^-1(1), ..., perm^-1(k))."""
    order = [0] * len(perm)
    for p, q in enumerate(perm, 1):
        order[q - 1] = p
    return subsample_in_order(x, order)


def _random_perm(k: int, rng: RandomStream) -> tuple:
    vals = list(range(1, k + 1))
    for i in range(k - 1):
        j = i + rng.randbelow(k - i)
        vals[i], vals[j] = vals[j], vals[i]
    return tuple(vals)


# ---------------------------------------------------------------------------
# the tests


def test_exchangeability(spec_or_sampler, y, n: int, k: int, reps: int,
                         rng: RandomStream) -> TestReport:
    """Compare the law of S_{n->k}(y) to the law of T_pi(S_{n->k}(y)) for an
    independent uniform pi in Sym(k).  Exchangeable output passes.

    An algorithm that reports one ball (bs_root) is refused before any
    replicate: a ball's size is a radius, so it has no positions to permute."""
    if _row(spec_or_sampler).reported is RootedGraph:
        raise ValueError(f"{spec_or_sampler.algorithm} reports one ball, whose size is a radius, "
                         "so it has no positions to permute for exchangeability")
    tally_a = tally_outputs(spec_or_sampler, y, n, k, reps, rng.substream("exch", 0))
    sampler, _ = _coded(spec_or_sampler)

    def permuted(yy, nn, kk, stream):
        out = sampler(yy, nn, kk, stream)
        return apply_relabeling(out, _random_perm(size_of(out), stream))

    tally_b = tally_outputs(permuted, y, n, k, reps, rng.substream("exch", 1))
    return _report("exchangeability", tally_a, tally_b)


def test_idempotence(spec_or_sampler, y, n: int, m: int, k: int, reps: int,
                     rng: RandomStream) -> TestReport:
    """Compare the direct sample S_{n->k}(y) against the two-stage
    composition S_{m->k}(S_{n->m}(y)).  Idempotent samplers pass.

    Refused before any replicate: an algorithm whose row takes p
    (p_sample), since its output size is random and the second stage at a
    fixed m is undefined, and one whose output kind is not its input kind
    (shortest_path, ego, bs_root), since the second stage cannot sample it."""
    row = _row(spec_or_sampler)
    if row.takes == "p":
        raise ValueError(f"{spec_or_sampler.algorithm} has a random output size, so idempotence "
                         "through a fixed middle size m is undefined")
    if row.reported is not row.sampled:
        raise ValueError(f"{spec_or_sampler.algorithm} reports a {row.reported.__name__}, "
                         f"not the {row.sampled.__name__} it samples, so idempotence cannot "
                         "sample its output again")
    if not (1 <= k <= m <= n):
        raise ValueError("need k <= m <= n")
    tally_a = tally_outputs(spec_or_sampler, y, n, k, reps, rng.substream("idem", 0))
    sampler, _ = _coded(spec_or_sampler)

    def composed(yy, nn, kk, stream):
        z = sampler(yy, nn, m, stream)
        return sampler(z, m, kk, stream)

    tally_b = tally_outputs(composed, y, n, k, reps, rng.substream("idem", 1))
    return _report(f"idempotence(n={n},m={m},k={k})", tally_a, tally_b)


def test_equivalence(spec_or_sampler, y, y2, n: int, k_max: int, reps: int,
                     rng: RandomStream) -> TestReport:
    """Compare the truncated prefix-density vectors of two inputs: tallies
    at every k <= k_max.  Equivalent inputs (t(y) = t(y2) up to depth k_max)
    pass; the statistic is the worst TV over k.

    Exact equivalence needs all k, so a pass certifies only 'equivalent up
    to depth k_max'.  An algorithm whose row takes p (p_sample) ignores k,
    so it gets one comparison, named by no depth, and k_max is not read.
    A k_max above n is refused before any replicate, as
    sampling._check_k_within_n says."""
    takes_p = _row(spec_or_sampler).takes == "p"
    if k_max < 1 and not takes_p:
        raise ValueError("k_max must be >= 1")
    _check_k_within_n(spec_or_sampler, k_max, n, f"k_max = {k_max}")

    def compared(k, name, notes=()):
        ta = tally_outputs(spec_or_sampler, y, n, k, reps, rng.substream("equiv", 0, k))
        tb = tally_outputs(spec_or_sampler, y2, n, k, reps, rng.substream("equiv", 1, k))
        return _report(name, ta, tb, notes)

    if takes_p:  # one law per input, drawn from the depth-1 streams
        return compared(1, "equivalence")
    note = f"equivalent up to depth {k_max} only; exact equivalence would need all k"
    # the k of the largest TV above its threshold, the smallest such k on a tie
    return max((compared(k, f"equivalence(k<=[{k_max}])", [note])
                for k in range(1, k_max + 1)),
               key=lambda rep: rep.statistic - rep.threshold)


def _normalize_root_law(root_law, y_n: VertexGraph) -> list:
    if root_law is None or root_law == "uniform":
        return [(v, 1.0 / y_n.n) for v in range(1, y_n.n + 1)]
    items = sorted(root_law.items())
    for v, w in items:
        if not 1 <= v <= y_n.n:
            raise ValueError(f"root {v} outside 1..{y_n.n}")
        if not math.isfinite(w):
            raise ValueError(f"root {v} has weight {w}")
        if w < 0:
            raise ValueError(f"root {v} has negative weight {w}")
    total = sum(w for _, w in items)
    if total <= 0:
        raise ValueError("root law must have positive total mass")
    if total == math.inf:
        raise ValueError("root law total mass overflows")
    return [(v, w / total) for v, w in items if w > 0]


def _root_drawer(law: list):
    """Draw a root from a law: the first vertex whose running total, summed
    in law order, exceeds a uniform draw, or the last vertex if rounding
    leaves every total below it.  The totals are summed once per law, and
    each draw bisects them."""
    roots = [v for v, _ in law]
    totals = list(accumulate(w for _, w in law))
    return lambda rng: roots[min(bisect_right(totals, rng.uniform()), len(roots) - 1)]


def test_involution_invariance(root_law, y: VertexGraph, n: int, radius: int,
                               reps: int, rng: RandomStream,
                               exact: bool = False) -> TestReport:
    """Compare the law of the radius-r ball at a random root against the law
    after one step of simple random walk from that root.

    root_law is "uniform"/None or a dict vertex -> weight >= 0 on y|n; every
    supported root must have at least one neighbor.  With exact=True both
    ball laws are enumerated over the (finite) root distribution instead of
    sampled.  The comparison is purely distributional: balls are tallied by
    canonical rooted form."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    y_n = restrict_vertices(y, n)
    law = _normalize_root_law(root_law, y_n)
    adj = y_n.adjacency()
    for v, _ in law:
        if not adj[v]:
            raise ValueError(f"supported root {v} has degree zero")

    notes = []
    diam = _diameter(y_n, adj, 2 * radius + 2)
    if 2 * radius + 1 >= diam:
        notes.append(f"truncation warning: 2*radius+1 = {2 * radius + 1} is not "
                     f"below the diameter {diam}; ball comparison may not be "
                     f"meaningful for the infinite-graph statement")

    if exact:
        # the key of each ball the laws read, each ball built once
        touched = dict.fromkeys(u for v, _ in law for u in (v, *adj[v]))
        keys = {u: key_for(ball(y_n, u, radius)) for u in touched}
        law_a = {}
        law_b = {}
        for v, w in law:
            key = keys[v]
            law_a[key] = law_a.get(key, 0.0) + w
            nbrs = adj[v]
            for u in nbrs:
                key_u = keys[u]
                law_b[key_u] = law_b.get(key_u, 0.0) + w / len(nbrs)
        notes.append("exact enumeration over the root law (no Monte Carlo)")
        return _report("involution_invariance", law_a, law_b, notes)

    draw_root = _root_drawer(law)

    def at_root(g, nn, r, stream):
        return ball(g, draw_root(stream), r)

    def one_step(g, nn, r, stream):
        nbrs = adj[draw_root(stream)]
        return ball(g, nbrs[stream.randbelow(len(nbrs))], r)

    ta = tally_outputs(at_root, y_n, n, radius, reps, rng.substream("inv", 0))
    tb = tally_outputs(one_step, y_n, n, radius, reps, rng.substream("inv", 1))
    return _report("involution_invariance", ta, tb, notes)


def _diameter(g: VertexGraph, adj, cap: int) -> int:
    """The largest eccentricity of a vertex within its component, or cap as
    soon as some vertex has another at distance cap or more.  The first
    search starts at a vertex of largest degree.  When it reaches every
    vertex, the graph is connected, so each vertex's eccentricity e bounds
    the diameter by 2e: once the largest eccentricity seen is twice the
    smallest, it is the diameter, and the loop stops."""
    start = max(range(1, g.n + 1), key=lambda v: len(adj[v]))
    dist = _bfs_distances(adj, start, limit=cap)
    connected = len(dist) == g.n
    best = least = max(dist.values())
    for v in range(1, g.n + 1):
        if best >= cap or connected and best >= 2 * least:
            return best
        if v != start:
            ecc = max(_bfs_distances(adj, v, limit=cap).values())
            best, least = max(best, ecc), min(least, ecc)
    return best


# these are library operations, not pytest cases
for _fn in (test_exchangeability, test_idempotence, test_equivalence,
            test_involution_invariance):
    _fn.__test__ = False
del _fn
