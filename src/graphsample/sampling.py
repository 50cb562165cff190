"""The ten subsampling algorithms.

Each sampler is a deterministic function of (input, n, k, RandomStream):
it restricts the input to size n, consumes uniforms off the stream, and
reports a size-k output structure.  Selection of elements without
replacement draws one accepted uniform per element (rejecting repeats),
so for a fixed stream the selection order at size k is a prefix of the
selection order at size k' > k, and the outputs nest pathwise:
output(k) equals the restriction of output(k').  The single exception is
p-sampling, whose output size is random by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .models import _rho_at
from .rng import RandomStream
from .structures import (
    EdgeSeqGraph,
    MarkedCompleteGraph,
    Partition,
    RootedGraph,
    VertexGraph,
    ball,
    degrees,
    induced_ordered,
    relabel_r,
    relabel_rprime,
    restrict,
    restrict_edges,
    restrict_vertices,
    shortest_path_marks,
    size_of,
)

UNIFORM_VERTEX = "uniform_vertex"
SPARSIFIED = "sparsified"
P_SAMPLE = "p_sample"
DEGREE_BIASED = "degree_biased"
SHORTEST_PATH = "shortest_path"
SEQUENCE = "sequence"
PARTITION = "partition"
EDGE = "edge"
EGO = "ego"
BS_ROOT = "bs_root"

ALGORITHMS = (UNIFORM_VERTEX, SPARSIFIED, P_SAMPLE, DEGREE_BIASED, SHORTEST_PATH,
              SEQUENCE, PARTITION, EDGE, EGO, BS_ROOT)

_THIN_TAG = "edge-thinning"


@dataclass(frozen=True)
class SamplerSpec:
    """Which algorithm to run, plus its parameters.

    p is required for p_sample, rho (a constant, sequence, or callable
    schedule) for sparsified; all other algorithms take no parameters.
    """

    algorithm: str
    p: float | None = None
    rho: object = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == P_SAMPLE:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("p_sample requires p in [0,1]")
        elif self.p is not None:
            raise ValueError(f"{self.algorithm} takes no p parameter")
        if self.algorithm == SPARSIFIED:
            if self.rho is None:
                raise ValueError("sparsified requires a rho schedule")
            if isinstance(self.rho, (list, tuple)):
                vals = [float(x) for x in self.rho]
                if any(not 0.0 <= v <= 1.0 for v in vals):
                    raise ValueError("rho values must lie in [0,1]")
                if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                    raise ValueError("rho schedule must be non-increasing")
            elif not callable(self.rho):
                v = float(self.rho)
                if not 0.0 <= v <= 1.0:
                    raise ValueError("rho must lie in [0,1]")
        elif self.rho is not None:
            raise ValueError(f"{self.algorithm} takes no rho parameter")


def _check_n(y, n: int, kind=VertexGraph):
    """Bounds of n for a non-empty input of the sampler's kind.  A wrong
    kind (e.g. a shortest-path output fed back by the idempotence test) is
    a TypeError, not a failure deep inside the sampler."""
    if not isinstance(y, kind):
        raise TypeError(f"unsupported input type {type(y).__name__}")
    size = size_of(y)
    if size == 0:
        raise ValueError("empty input")
    if not 1 <= n <= size:
        raise ValueError(f"n = {n} outside 1..{size}")


def _check_nk(y, n: int, k: int, kind=VertexGraph):
    _check_n(y, n, kind)
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} outside 1..{n}")


def _draw_distinct(n: int, k: int, rng: RandomStream) -> list:
    """k distinct uniform values from {1..n}, in selection order.

    Rejection against already-chosen values: repeats are discarded, so the
    accepted subsequence is a pure function of the stream and the first k
    accepted values are the same in every call with k' >= k."""
    chosen = []
    seen = set()
    while len(chosen) < k:
        v = rng.randbelow(n) + 1
        if v not in seen:
            seen.add(v)
            chosen.append(v)
    return chosen


def _draw_weighted_distinct(weights: list, k: int, rng: RandomStream) -> list:
    """k distinct draws without replacement, each proportional to its fixed
    weight among the not-yet-selected; uniform among the remaining when all
    remaining weights are zero.  1-based values, selection order."""
    n = len(weights)
    remaining = list(range(1, n + 1))
    chosen = []
    for _ in range(k):
        total = 0.0
        for v in remaining:
            total += weights[v - 1]
        u = rng.uniform()
        if total <= 0.0:  # degenerate case: no positive weights left
            idx = min(int(u * len(remaining)), len(remaining) - 1)
        else:
            acc = 0.0
            target = u * total
            idx = len(remaining) - 1
            for i, v in enumerate(remaining):
                acc += weights[v - 1]
                if target < acc:
                    idx = i
                    break
        chosen.append(remaining.pop(idx))
    return chosen


# ---------------------------------------------------------------------------
# the algorithms


def sample_uniform_vertex(y: VertexGraph, n: int, k: int, rng: RandomStream) -> VertexGraph:
    """Select k vertices of y|n uniformly without replacement, report the
    induced subgraph relabeled 1..k in order of appearance."""
    _check_nk(y, n, k)
    y_n = restrict_vertices(y, n)
    order = _draw_distinct(n, k, rng)
    return induced_ordered(y_n, order)


def sample_sparsified(y: VertexGraph, n: int, k: int, rho, rng: RandomStream) -> VertexGraph:
    """Uniform vertex sample followed by independent edge deletion: each
    induced edge survives with probability rho(k).

    Thinning uniforms come from a substream keyed by the stream position at
    call time, one per present edge in colex order of the output labels:
    repeated calls on one stream thin independently, while for a constant
    rho the outputs of fresh same-seed calls nest pathwise just like the
    plain vertex sampler."""
    _check_nk(y, n, k)
    r = _rho_at(rho, k)
    y_n = restrict_vertices(y, n)
    start = rng.counter
    order = _draw_distinct(n, k, rng)
    induced = induced_ordered(y_n, order)
    thin = rng.substream(_THIN_TAG, start)
    kept = set()
    for a, b in sorted(induced.edges, key=lambda e: (e[1], e[0])):
        if thin.uniform() < r:
            kept.add((a, b))
    return VertexGraph(k, frozenset(kept))


def sample_p(y: VertexGraph, n: int, p: float, rng: RandomStream) -> VertexGraph:
    """p-sampling: keep each vertex of y|n independently with probability p,
    take the induced subgraph, delete isolated vertices, and relabel the
    survivors in increasing original order.  Output size is random."""
    _check_n(y, n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    y_n = restrict_vertices(y, n)
    kept = [v for v in range(1, n + 1) if rng.uniform() < p]
    kept_set = set(kept)
    edges = [(u, v) for u, v in y_n.edges if u in kept_set and v in kept_set]
    not_isolated = {x for e in edges for x in e}
    survivors = [v for v in kept if v in not_isolated]
    pos = {v: i + 1 for i, v in enumerate(survivors)}
    out_edges = frozenset((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges)
    return VertexGraph(len(survivors), out_edges)


def sample_degree_biased(y: VertexGraph, n: int, k: int, rng: RandomStream) -> VertexGraph:
    """k successive draws without replacement, each proportional to degree
    in y|n among the remaining vertices; induced subgraph relabeled in order
    of appearance.  Falls back to uniform among the remaining vertices when
    all remaining weights are zero (e.g. empty graphs), which keeps the
    sampler total and reduces to the uniform sampler there."""
    _check_nk(y, n, k)
    y_n = restrict_vertices(y, n)
    weights = [float(d) for d in degrees(y_n)]
    order = _draw_weighted_distinct(weights, k, rng)
    return induced_ordered(y_n, order)


def sample_shortest_path(y: VertexGraph, n: int, k: int, rng: RandomStream) -> MarkedCompleteGraph:
    """k uniform distinct vertices of y|n; report the complete graph on them
    with each edge marked by the shortest-path length inside y|n
    (UNREACHABLE for disconnected pairs)."""
    _check_nk(y, n, k)
    y_n = restrict_vertices(y, n)
    chosen = _draw_distinct(n, k, rng)
    return shortest_path_marks(y_n, chosen)


def sample_sequence(y: tuple, n: int, k: int, rng: RandomStream) -> tuple:
    """k uniform without-replacement positions J_1..J_k of [n]; report the
    subsequence (y_J1, ..., y_Jk)."""
    _check_nk(y, n, k, tuple)
    positions = _draw_distinct(n, k, rng)
    return tuple(y[j - 1] for j in positions)


def sample_partition(pi: Partition, n: int, k: int, rng: RandomStream) -> Partition:
    """Subsample the block-label sequence of pi and reorder the labels by
    first appearance; the output is always an ordered partition."""
    _check_nk(pi, n, k, Partition)
    sub = sample_sequence(pi.labels, n, k, rng)
    return Partition(relabel_r(sub))


def sample_edges(y: EdgeSeqGraph, n: int, k: int, rng: RandomStream) -> EdgeSeqGraph:
    """k uniform without-replacement edge positions of y|n; report the
    selected subsequence relabeled canonically.  Output is always canonical."""
    _check_nk(y, n, k, EdgeSeqGraph)
    y_n = restrict_edges(y, n)
    positions = _draw_distinct(n, k, rng)
    sub = tuple(y_n.edges[j - 1] for j in positions)
    return relabel_rprime(sub)


def sample_ego(y: VertexGraph, n: int, k: int, rng: RandomStream) -> list:
    """k uniform distinct vertices of y|n; report their 1-neighborhoods
    (ego networks), each rooted at the chosen vertex."""
    _check_nk(y, n, k)
    y_n = restrict_vertices(y, n)
    roots = _draw_distinct(n, k, rng)
    return [ball(y_n, v, 1) for v in roots]


def sample_bs(y: VertexGraph, n: int, k: int, rng: RandomStream) -> RootedGraph:
    """Uniform root V in y|n; report the ball of radius k centered at V."""
    _check_n(y, n)
    if k < 0:
        raise ValueError("radius must be >= 0")
    y_n = restrict_vertices(y, n)
    root = rng.randbelow(n) + 1
    return ball(y_n, root, k)


def make_sampler(spec: SamplerSpec):
    """Uniform call surface f(y, n, k, rng) for any SamplerSpec.

    p_sample ignores k (its output size is random)."""
    alg = spec.algorithm
    if alg == UNIFORM_VERTEX:
        return sample_uniform_vertex
    if alg == SPARSIFIED:
        return lambda y, n, k, rng: sample_sparsified(y, n, k, spec.rho, rng)
    if alg == P_SAMPLE:
        return lambda y, n, k, rng: sample_p(y, n, spec.p, rng)
    if alg == DEGREE_BIASED:
        return sample_degree_biased
    if alg == SHORTEST_PATH:
        return sample_shortest_path
    if alg == SEQUENCE:
        return sample_sequence
    if alg == PARTITION:
        return sample_partition
    if alg == EDGE:
        return sample_edges
    if alg == EGO:
        return sample_ego
    if alg == BS_ROOT:
        return sample_bs
    raise ValueError(f"unknown algorithm {alg!r}")


def _as_sampler(spec_or_sampler):
    """A sampler callable as is, or make_sampler of a SamplerSpec."""
    return spec_or_sampler if callable(spec_or_sampler) else make_sampler(spec_or_sampler)


@dataclass
class SampleRun:
    """A nested family of outputs from one seed: outputs[k] for each k asked.

    For fixed-output-size algorithms, outputs[k] is the restriction of
    outputs[k'] whenever k <= k'.  p_sample has random output size and is
    marked size_random; the nesting invariant does not apply to it."""

    spec: SamplerSpec
    n: int
    seed: int
    outputs: dict = field(default_factory=dict)
    size_random: bool = False


def run_nested(spec: SamplerSpec, y, n: int, ks, seed: int, stream_id: int = 0) -> SampleRun:
    """Sample at each k in ks, replaying the same stream each time so the
    outputs form a nested prefix family."""
    sampler = make_sampler(spec)
    run = SampleRun(spec=spec, n=n, seed=seed,
                    size_random=spec.algorithm == P_SAMPLE)
    for k in sorted(set(ks)):
        rng = RandomStream(seed, stream_id)
        run.outputs[k] = sampler(y, n, k, rng)
    return run


# ---------------------------------------------------------------------------
# limit-in-input-size diagnostic


@dataclass
class DiagnoseResult:
    schedule: tuple
    tallies: list       # one PatternTally per n
    tv_steps: tuple     # TV between consecutive tallies
    tolerance: float
    verdict: str        # STABILIZING | NOT_STABILIZING

    @property
    def stabilizing(self) -> bool:
        return self.verdict == "STABILIZING"


def diagnose_limit(spec: SamplerSpec, y, k: int, schedule, reps: int,
                   rng: RandomStream, tolerance: float = 0.02) -> DiagnoseResult:
    """Monte Carlo check that the size-k output law stabilizes as the input
    size n runs up a schedule.

    For each n, estimates the output distribution with ``reps`` replicates,
    then reports total-variation distances between consecutive estimates.
    Verdict is STABILIZING when every successive TV after the first
    comparison is below the tolerance (a pragmatic Cauchy proxy: empirical
    stabilization, never a claim that the limit exists).
    """
    from .estimate import tally_outputs

    schedule = tuple(int(n) for n in schedule)
    if any(schedule[i] >= schedule[i + 1] for i in range(len(schedule) - 1)):
        raise ValueError("schedule must be strictly increasing")
    if not schedule:
        raise ValueError("empty schedule")
    if schedule[-1] > size_of(y):
        raise ValueError(f"schedule maximum {schedule[-1]} exceeds input size "
                         f"{size_of(y)}")
    sampler = make_sampler(spec)
    tallies = []
    for i, n in enumerate(schedule):
        y_n = restrict(y, n)  # restrict once, not per replicate
        tallies.append(tally_outputs(sampler, y_n, n, k, reps,
                                     rng.substream("diagnose", i)))
    tvs = tuple(tallies[i].tv(tallies[i + 1]) for i in range(len(tallies) - 1))
    checked = tvs[1:] if len(tvs) > 1 else tvs
    verdict = "STABILIZING" if all(t < tolerance for t in checked) else "NOT_STABILIZING"
    return DiagnoseResult(schedule, tallies, tvs, tolerance, verdict)
