"""The ten subsampling algorithms.

Each sampler is a deterministic function of (input, n, k, RandomStream)
that sees the input y only through its size-n restriction y|n.  It is a
selection law followed by its kind's existing action.  The selection
draws vertices or positions of [n] off the stream: uniformly without
replacement, in proportion to degree, or by one p-coin each.  The action
reports what the selection carries in y|n, relabeled in selection order:
structures.subsample_in_order, or induced_ordered, its vertex-graph case.
The shortest-path, ego and ball samplers report the marks or balls around
the selection instead.  Selection without replacement draws one accepted
uniform per element (rejecting repeats), so for a fixed stream the
selection order at size k is a prefix of the selection order at size
k' > k, and the outputs nest pathwise: output(k) equals the restriction
of output(k').  The single exception is p-sampling, whose output size is
random by construction.  What is known of each algorithm is its row of
_ALGORITHMS, which every decision by algorithm reads.
"""

from __future__ import annotations

from .rng import RandomStream
from .structures import (
    EdgeSeqGraph,
    MarkedCompleteGraph,
    Partition,
    RootedGraph,
    VertexGraph,
    _Frozen,
    _Record,
    ball,
    degree_tree,
    degrees,
    induced_ordered,
    relabel_r,
    restrict_vertices,
    shortest_path_marks,
    size_of,
    subsample_in_order,
)

# name -> (the function that runs it, by its name in this module, the kind
# it samples, the kind it reports, the parameter it takes: "p" in k's place,
# "rho" after k, or None), in the order --help lists the names
_ALGORITHMS = {
    "uniform_vertex": ("sample_uniform_vertex", VertexGraph, VertexGraph, None),
    "sparsified": ("sample_sparsified", VertexGraph, VertexGraph, "rho"),
    "p_sample": ("sample_p", VertexGraph, VertexGraph, "p"),
    "degree_biased": ("sample_degree_biased", VertexGraph, VertexGraph, None),
    "shortest_path": ("sample_shortest_path", VertexGraph, MarkedCompleteGraph, None),
    "sequence": ("sample_sequence", tuple, tuple, None),
    "partition": ("sample_partition", Partition, Partition, None),
    "edge": ("sample_edges", EdgeSeqGraph, EdgeSeqGraph, None),
    "ego": ("sample_ego", VertexGraph, list, None),
    "bs_root": ("sample_bs", VertexGraph, RootedGraph, None),
}
ALGORITHMS = tuple(_ALGORITHMS)

_THIN_TAG = "edge-thinning"


class SamplerSpec(_Frozen):
    """Which algorithm to run, plus the parameter its _ALGORITHMS row names:
    p in [0,1] for "p" (p_sample), rho (a constant in [0,1] or a callable
    k -> [0,1]) for "rho" (sparsified).  It takes no other."""

    def __init__(self, algorithm: str, p: float | None = None, rho: object = None):
        if algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        extra = _ALGORITHMS[algorithm][3]
        if extra == "p" and (p is None or not 0.0 <= p <= 1.0):
            raise ValueError(f"{algorithm} requires p in [0,1]")
        for name, value in (("p", p), ("rho", rho)):
            if value is not None and name != extra:
                raise ValueError(f"{algorithm} takes no {name} parameter")
        if extra == "rho" and rho is None:
            raise ValueError(f"{algorithm} requires rho")
        if extra == "rho" and not callable(rho) and not 0.0 <= float(rho) <= 1.0:
            raise ValueError("rho must lie in [0,1]")
        self._set(algorithm, p, rho)


def _restricted(y, n: int, k: int | None = None, kind=VertexGraph):
    """y|n for a vertex graph and y as given for any other kind, once the
    input is checked: its kind, then non-empty, then n in 1..size, then k in
    1..n unless k is None.  A wrong kind (e.g. a shortest-path output fed
    back by the idempotence test) is a TypeError, not a failure deep inside
    the sampler."""
    if not isinstance(y, kind):
        raise TypeError(f"unsupported input type {type(y).__name__}")
    size = size_of(y)
    if size == 0:
        raise ValueError("empty input")
    if not 1 <= n <= size:
        raise ValueError(f"n = {n} outside 1..{size}")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k = {k} outside 1..{n}")
    return restrict_vertices(y, n) if kind is VertexGraph else y


def _rho_at(rho, k: int) -> float:
    """Evaluate rho, a constant or a callable k -> [0,1], at output size k."""
    val = float(rho(k) if callable(rho) else rho)
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"rho({k}) = {val} outside [0,1]")
    return val


def _draw_weighted_distinct(weights, tree: tuple, k: int, rng: RandomStream) -> list:
    """k distinct draws without replacement, each proportional to its fixed
    integer weight among the not-yet-selected; uniform among the remaining
    when all remaining weights are zero.  1-based values, selection order.

    ``tree`` is structures.fenwick(weights), built once per input (for a
    graph's degrees, structures.degree_tree); it is never changed, and its
    entry 0 is the total weight.  A draw with uniform u descends the tree to
    the first vertex whose prefix sum of remaining weight exceeds u * total
    and then zeroes that vertex's weight, keeping what it took from each
    tree entry in a dict, so a call costs O(k log n) (Wong & Easton 1980).
    Integer sums are exact and u * total < total for u < 1, so this is the
    vertex a linear scan over the remaining vertices in ascending order
    picks."""
    n = len(weights)
    total = tree[0]
    removed = {}  # tree index -> weight the draws so far took from it
    top = 1 << (n.bit_length() - 1) if n else 0
    chosen = []
    rest = None  # remaining vertices in ascending order, once all weigh zero
    for _ in range(k):
        u = rng.uniform()
        if not total:
            if rest is None:
                taken = set(chosen)
                rest = [v for v in range(1, n + 1) if v not in taken]
            chosen.append(rest.pop(int(u * len(rest))))
            continue
        target = u * total
        pos, acc, step = 0, 0, top
        while step:
            nxt = pos + step
            if nxt <= n:
                part = tree[nxt] - removed.get(nxt, 0)
                if acc + part <= target:
                    pos = nxt
                    acc += part
            step >>= 1
        v = pos + 1
        w = weights[pos]
        total -= w
        while v <= n:
            removed[v] = removed.get(v, 0) + w
            v += v & -v
        chosen.append(pos + 1)
    return chosen


# ---------------------------------------------------------------------------
# the algorithms


def sample_uniform_vertex(y: VertexGraph, n: int, k: int, rng: RandomStream) -> VertexGraph:
    """Select k vertices of y|n uniformly without replacement, report the
    induced subgraph relabeled 1..k in order of appearance."""
    y_n = _restricted(y, n, k)
    order = rng.distinct(n, k)
    return induced_ordered(y_n, order)


def sample_sparsified(y: VertexGraph, n: int, k: int, rho, rng: RandomStream) -> VertexGraph:
    """Uniform vertex sample followed by independent edge deletion: each
    induced edge survives with probability rho(k), for rho a constant or a
    callable k -> [0,1].

    Thinning uniforms come from a substream keyed by the stream position at
    call time, one per present edge in colex order of the output labels:
    repeated calls on one stream thin independently, while for a constant
    rho the outputs of fresh same-seed calls nest pathwise just like the
    plain vertex sampler."""
    start = rng.counter
    induced = sample_uniform_vertex(y, n, k, rng)
    r = _rho_at(rho, k)
    thin = rng.substream(_THIN_TAG, start)
    kept = set()
    for a, b in sorted(induced.edges, key=lambda e: (e[1], e[0])):
        if thin.uniform() < r:
            kept.add((a, b))
    return VertexGraph._of(k, frozenset(kept))


def sample_p(y: VertexGraph, n: int, p: float, rng: RandomStream) -> VertexGraph:
    """p-sampling: keep each vertex of y|n independently with probability p,
    take the induced subgraph, delete isolated vertices, and relabel the
    survivors in increasing original order.  Output size is random."""
    y_n = _restricted(y, n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    kept = induced_ordered(y_n, [v for v in range(1, n + 1) if rng.uniform() < p])
    return induced_ordered(kept, sorted({v for e in kept.edges for v in e}))


def sample_degree_biased(y: VertexGraph, n: int, k: int, rng: RandomStream) -> VertexGraph:
    """k successive draws without replacement, each proportional to degree
    in y|n among the remaining vertices; induced subgraph relabeled in order
    of appearance.  Falls back to uniform among the remaining vertices when
    all remaining weights are zero (e.g. empty graphs), which keeps the
    sampler total and reduces to the uniform sampler there."""
    y_n = _restricted(y, n, k)
    order = _draw_weighted_distinct(degrees(y_n), degree_tree(y_n), k, rng)
    return induced_ordered(y_n, order)


def sample_shortest_path(y: VertexGraph, n: int, k: int, rng: RandomStream) -> MarkedCompleteGraph:
    """k uniform distinct vertices of y|n; report the complete graph on them
    with each edge marked by the shortest-path length inside y|n
    (UNREACHABLE for disconnected pairs)."""
    y_n = _restricted(y, n, k)
    chosen = rng.distinct(n, k)
    return shortest_path_marks(y_n, chosen)


def sample_sequence(y: tuple, n: int, k: int, rng: RandomStream) -> tuple:
    """k uniform without-replacement positions J_1..J_k of [n]; report the
    subsequence (y_J1, ..., y_Jk)."""
    _restricted(y, n, k, tuple)
    return subsample_in_order(y, rng.distinct(n, k))


def sample_partition(pi: Partition, n: int, k: int, rng: RandomStream) -> Partition:
    """Subsample the block-label sequence of pi and reorder the labels by
    first appearance; the output is always an ordered partition."""
    _restricted(pi, n, k, Partition)
    sub = sample_sequence(pi.labels, n, k, rng)
    return Partition._of(relabel_r(sub))


def sample_edges(y: EdgeSeqGraph, n: int, k: int, rng: RandomStream) -> EdgeSeqGraph:
    """k uniform without-replacement edge positions of y|n; report the
    selected subsequence relabeled canonically.  Output is always canonical."""
    _restricted(y, n, k, EdgeSeqGraph)
    return subsample_in_order(y, rng.distinct(n, k))


def sample_ego(y: VertexGraph, n: int, k: int, rng: RandomStream) -> list:
    """k uniform distinct vertices of y|n; report their 1-neighborhoods
    (ego networks), each rooted at the chosen vertex."""
    y_n = _restricted(y, n, k)
    roots = rng.distinct(n, k)
    return [ball(y_n, v, 1) for v in roots]


def sample_bs(y: VertexGraph, n: int, k: int, rng: RandomStream) -> RootedGraph:
    """Uniform root V in y|n; report the ball of radius k centered at V."""
    y_n = _restricted(y, n)
    root = rng.randbelow(n) + 1
    return ball(y_n, root, k)


def make_sampler(spec: SamplerSpec):
    """Uniform call surface f(y, n, k, rng) for any SamplerSpec: the
    function its _ALGORITHMS row names, looked up in this module now, so a
    wrapper bound to that name runs.  p_sample ignores k (random size)."""
    name, _, _, extra = _ALGORITHMS[spec.algorithm]
    run = globals()[name]
    if extra == "p":
        return lambda y, n, k, rng: run(y, n, spec.p, rng)
    if extra == "rho":
        return lambda y, n, k, rng: run(y, n, k, spec.rho, rng)
    return run


def _check_schedule(schedule) -> tuple:
    """schedule as a tuple of ints; empty, holding a size below 1 or not
    strictly increasing is a ValueError."""
    schedule = tuple(int(n) for n in schedule)
    if not schedule:
        raise ValueError("empty schedule")
    if min(schedule) < 1:
        raise ValueError("schedule sizes must be >= 1")
    if any(schedule[i] >= schedule[i + 1] for i in range(len(schedule) - 1)):
        raise ValueError("schedule must be strictly increasing")
    return schedule


def _check_k_within_n(spec_or_sampler, k: int, n: int, what: str):
    """Refuse k, the largest size a caller is about to sample, when it
    exceeds n and spec_or_sampler is a SamplerSpec whose row bounds k by n:
    every row but bs_root, whose k is a radius, and p_sample, which reads
    no k.  what names k in the message.  A plain sampler callable is left
    to its own checks."""
    if isinstance(spec_or_sampler, SamplerSpec) and k > n:
        _, _, reported, extra = _ALGORITHMS[spec_or_sampler.algorithm]
        if reported is not RootedGraph and extra != "p":
            raise ValueError(f"{what} exceeds n = {n}")


def _as_sampler(spec_or_sampler):
    """A sampler callable as is, or make_sampler of a SamplerSpec."""
    return spec_or_sampler if callable(spec_or_sampler) else make_sampler(spec_or_sampler)


# ---------------------------------------------------------------------------
# limit-in-input-size diagnostic


class DiagnoseResult(_Record):
    """tallies holds one PatternTally per schedule n, tv_steps the TV
    between consecutive tallies; verdict is STABILIZING or NOT_STABILIZING."""

    def __init__(self, schedule: tuple, tallies: list, tv_steps: tuple,
                 tolerance: float, verdict: str):
        self._set(schedule, tallies, tv_steps, tolerance, verdict)


def diagnose_limit(spec: SamplerSpec, y, k: int, schedule, reps: int,
                   rng: RandomStream, tolerance: float = 0.02) -> DiagnoseResult:
    """Monte Carlo check that the size-k output law stabilizes as the input
    size n runs up a schedule.

    For each n, estimates the output distribution with ``reps`` replicates,
    then reports total-variation distances between consecutive estimates.
    Verdict is STABILIZING when every successive TV after the first
    comparison is below the tolerance (a pragmatic Cauchy proxy: empirical
    stabilization, never a claim that the limit exists).  A schedule of
    fewer than two sizes, which gives no TV to judge, and a tolerance not
    above 0, NaN included, are ValueErrors.
    """
    from .estimate import compare, tally_outputs

    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    schedule = _check_schedule(schedule)
    if len(schedule) < 2:
        raise ValueError("diagnose needs a schedule of at least two sizes")
    if schedule[-1] > size_of(y):
        raise ValueError(f"schedule maximum {schedule[-1]} exceeds input size "
                         f"{size_of(y)}")
    sampler = make_sampler(spec)
    tallies = [tally_outputs(sampler, y, n, k, reps, rng.substream("diagnose", i))
               for i, n in enumerate(schedule)]
    tvs = tuple(compare(a, b)[0] for a, b in zip(tallies, tallies[1:]))
    checked = tvs[1:] if len(tvs) > 1 else tvs
    verdict = "STABILIZING" if all(t < tolerance for t in checked) else "NOT_STABILIZING"
    return DiagnoseResult(schedule, tallies, tvs, tolerance, verdict)
