"""Statistical verification of sampler symmetries on concrete inputs:
exchangeability, idempotence, output equivalence, and involution invariance.

Each test builds two pattern tallies and compares them in total variation.
Pass thresholds are finite-replicate artifacts (the underlying statements
are asymptotic): TV <= 4 * sqrt(sum_patterns pbar * (1/reps_a + 1/reps_b)),
a normal-approximation bound unioned over the observed patterns.  Every
report carries its threshold so the decision is auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .estimate import PatternTally, prefix_density_vector, tally_outputs
from .rng import RandomStream
from .sampling import _as_sampler
from .structures import (
    VertexGraph,
    _bfs_distances,
    ball,
    key_for,
    restrict_vertices,
    size_of,
    subsample_in_order,
)


@dataclass
class TestReport:
    """Outcome of one invariance test: pass iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    reps: int
    tally_a: PatternTally
    tally_b: PatternTally
    notes: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {verdict}  TV = {self.statistic:.6f}  "
                 f"threshold = {self.threshold:.6f}  reps = {self.reps}"]
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def tv_threshold(tally_a: PatternTally, tally_b: PatternTally | None) -> float:
    """4-sigma normal-approximation bound on the TV noise between two
    empirical tallies (tally_b = None means an exact law: no noise there)."""
    ra = tally_a.reps
    rb = tally_b.reps if tally_b is not None else None
    pooled = {}
    for key, c in tally_a.counts.items():
        pooled[key] = pooled.get(key, 0.0) + c / ra
    if tally_b is not None:
        for key, c in tally_b.counts.items():
            pooled[key] = pooled.get(key, 0.0) + c / rb
        scale = 1.0 / ra + 1.0 / rb
        mass = sum(p / 2.0 for p in pooled.values())
    else:
        scale = 1.0 / ra
        mass = sum(pooled.values())
    return 4.0 * math.sqrt(mass * scale)


def _report(name, tally_a, tally_b, notes=None, threshold=None) -> TestReport:
    stat = tally_a.tv(tally_b)
    thr = tv_threshold(tally_a, tally_b) if threshold is None else threshold
    return TestReport(name=name, statistic=stat, threshold=thr,
                      passed=stat <= thr, reps=tally_a.reps,
                      tally_a=tally_a, tally_b=tally_b, notes=notes or [])


# ---------------------------------------------------------------------------
# relabeling actions on finite outputs


def apply_relabeling(x, perm: tuple):
    """Apply a permutation of [k] to a size-k output structure, in the
    action native to its kind: vertices for vertex graphs, positions for
    sequences, positions followed by canonical relabeling for partitions
    and edge sequences.

    Position p moves to perm[p-1], so the result lists the positions in
    the inverse order (perm^-1(1), ..., perm^-1(k))."""
    return subsample_in_order(x, sorted(range(1, len(perm) + 1), key=lambda p: perm[p - 1]))


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
    independent uniform pi in Sym(k).  Exchangeable output passes."""
    sampler = _as_sampler(spec_or_sampler)
    tally_a = tally_outputs(sampler, y, n, k, reps, rng.substream("exch", 0))

    def permute(out, stream):
        return apply_relabeling(out, _random_perm(size_of(out), stream))

    tally_b = tally_outputs(sampler, y, n, k, reps, rng.substream("exch", 1),
                            transform=permute)
    return _report("exchangeability", tally_a, tally_b)


def test_idempotence(spec_or_sampler, y, n: int, m: int, k: int, reps: int,
                     rng: RandomStream) -> TestReport:
    """Compare the direct sample S_{n->k}(y) against the two-stage
    composition S_{m->k}(S_{n->m}(y)).  Idempotent samplers pass."""
    if not (1 <= k <= m <= n):
        raise ValueError("need k <= m <= n")
    sampler = _as_sampler(spec_or_sampler)
    tally_a = tally_outputs(sampler, y, n, k, reps, rng.substream("idem", 0))

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
    to depth k_max'."""
    sampler = _as_sampler(spec_or_sampler)
    worst = None
    for k in range(1, k_max + 1):
        ta = prefix_density_vector(sampler, y, n, k, reps, rng.substream("equiv", 0, k))
        tb = prefix_density_vector(sampler, y2, n, k, reps, rng.substream("equiv", 1, k))
        rep = _report(f"equivalence(k={k})", ta, tb)
        if worst is None or rep.statistic - rep.threshold > worst.statistic - worst.threshold:
            worst = rep
    worst.name = f"equivalence(k<=[{k_max}])"
    worst.notes.append(f"equivalent up to depth {k_max} only; exact "
                       f"equivalence would need all k")
    worst.passed = worst.statistic <= worst.threshold
    return worst


def _normalize_root_law(root_law, y_n: VertexGraph) -> list:
    if root_law is None or root_law == "uniform":
        return [(v, 1.0 / y_n.n) for v in range(1, y_n.n + 1)]
    items = sorted(root_law.items())
    total = sum(w for _, w in items)
    if total <= 0:
        raise ValueError("root law must have positive total mass")
    return [(v, w / total) for v, w in items if w > 0]


def _draw_from_law(law: list, rng: RandomStream) -> int:
    u = rng.uniform()
    acc = 0.0
    for v, w in law:
        acc += w
        if u < acc:
            return v
    return law[-1][0]


def test_involution_invariance(root_law, y: VertexGraph, n: int, radius: int,
                               reps: int, rng: RandomStream,
                               exact: bool = False) -> TestReport:
    """Compare the law of the radius-r ball at a random root against the law
    after one step of simple random walk from that root.

    root_law is "uniform"/None or a dict vertex -> weight on y|n; every
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
    diam = _diameter(y_n, adj)
    if 2 * radius + 1 >= diam:
        notes.append(f"truncation warning: 2*radius+1 = {2 * radius + 1} is not "
                     f"below the diameter {diam}; ball comparison may not be "
                     f"meaningful for the infinite-graph statement")

    if exact:
        law_a = {}
        law_b = {}
        for v, w in law:
            key = key_for(ball(y_n, v, radius))
            law_a[key] = law_a.get(key, 0.0) + w
            nbrs = adj[v]
            for u in nbrs:
                key_u = key_for(ball(y_n, u, radius))
                law_b[key_u] = law_b.get(key_u, 0.0) + w / len(nbrs)
        ta, tb = PatternTally(), PatternTally()
        # exact laws carried as integer tallies over a common denominator;
        # rounding error ~1e-12 per key, far below the 1e-9 pass threshold
        scale = 10 ** 12
        for key, w in law_a.items():
            ta.add(key, round(w * scale))
        for key, w in law_b.items():
            tb.add(key, round(w * scale))
        rep = _report("involution_invariance", ta, tb, notes=notes, threshold=1e-9)
        rep.reps = 0
        rep.notes.append("exact enumeration over the root law (no Monte Carlo)")
        return rep

    ta, tb = PatternTally(), PatternTally()
    for r in range(reps):
        stream = rng.substream("inv", 0, r)
        v = _draw_from_law(law, stream)
        ta.add(key_for(ball(y_n, v, radius)))
    for r in range(reps):
        stream = rng.substream("inv", 1, r)
        v = _draw_from_law(law, stream)
        nbrs = adj[v]
        u = nbrs[stream.randbelow(len(nbrs))]
        tb.add(key_for(ball(y_n, u, radius)))
    return _report("involution_invariance", ta, tb, notes=notes)


def _diameter(g: VertexGraph, adj) -> int:
    best = 0
    for v in range(1, g.n + 1):
        dist = _bfs_distances(adj, v)
        ecc = max(dist.values(), default=0)
        best = max(best, ecc)
    return best


# these are library operations, not pytest cases
for _fn in (test_exchangeability, test_idempotence, test_equivalence,
            test_involution_invariance):
    _fn.__test__ = False
del _fn
