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
random by construction.  What is known of each algorithm is its _Row in
_ALGORITHMS, which every decision by algorithm reads by field name.
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
    _induced_edges,
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

class _Row(_Frozen):
    """What is known of one algorithm: run, the name in this module of the
    function that runs it; sampled, the kind it samples; reported, the kind
    it reports; takes, the parameter it takes ("p" in k's place, "rho" after
    k, or None); and code, the name in this module of its code function or
    None.  A code function (y, n, k, rng) makes the sampler's checks and
    draws, as the sampler makes them, and returns a hashable value that
    determines the output, so a tally builds and keys each distinct code's
    output once.  Outputs that rarely repeat get no code."""

    def __init__(self, run: str, sampled: type, reported: type,
                 takes: str | None = None, code: str | None = None):
        self._set(run, sampled, reported, takes, code)


# name -> its _Row, in the order --help lists the names
_ALGORITHMS = {
    "uniform_vertex": _Row("sample_uniform_vertex", VertexGraph, VertexGraph,
                           code="_code_uniform_vertex"),
    "sparsified": _Row("sample_sparsified", VertexGraph, VertexGraph, takes="rho"),
    "p_sample": _Row("sample_p", VertexGraph, VertexGraph, takes="p"),
    "degree_biased": _Row("sample_degree_biased", VertexGraph, VertexGraph,
                          code="_code_degree_biased"),
    "shortest_path": _Row("sample_shortest_path", VertexGraph, MarkedCompleteGraph),
    "sequence": _Row("sample_sequence", tuple, tuple, code="sample_sequence"),
    "partition": _Row("sample_partition", Partition, Partition, code="_code_partition"),
    "edge": _Row("sample_edges", EdgeSeqGraph, EdgeSeqGraph, code="_code_edge"),
    "ego": _Row("sample_ego", VertexGraph, list),
    "bs_root": _Row("sample_bs", VertexGraph, RootedGraph),
}
_NO_ROW = _Row(None, None, None)  # a plain sampler callable's: nothing is known
ALGORITHMS = tuple(_ALGORITHMS)

_THIN_TAG = "edge-thinning"


class SamplerSpec(_Frozen):
    """Which algorithm to run, plus the parameter its row takes:
    p in [0,1] for "p" (p_sample), rho (a constant in [0,1] or a callable
    k -> [0,1]) for "rho" (sparsified).  It takes no other."""

    def __init__(self, algorithm: str, p: float | None = None, rho: object = None):
        if algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        takes = _ALGORITHMS[algorithm].takes
        if takes == "p" and (p is None or not 0.0 <= p <= 1.0):
            raise ValueError(f"{algorithm} requires p in [0,1]")
        for name, value in (("p", p), ("rho", rho)):
            if value is not None and name != takes:
                raise ValueError(f"{algorithm} takes no {name} parameter")
        if takes == "rho" and rho is None:
            raise ValueError(f"{algorithm} requires rho")
        if takes == "rho" and not callable(rho) and not 0.0 <= float(rho) <= 1.0:
            raise ValueError("rho must lie in [0,1]")
        self._set(algorithm, p, rho)


def _row(spec_or_sampler) -> _Row:
    """A SamplerSpec's row, or _NO_ROW for a plain sampler callable."""
    if isinstance(spec_or_sampler, SamplerSpec):
        return _ALGORITHMS[spec_or_sampler.algorithm]
    return _NO_ROW


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


def _chosen(y, n: int, k: int, rng: RandomStream, kind=VertexGraph) -> tuple:
    """(y|n as _restricted checks and cuts it, k uniform distinct vertices
    or positions of [n] in selection order)."""
    y_n = _restricted(y, n, k, kind)
    return y_n, rng.distinct(n, k)


def _chosen_by_degree(y: VertexGraph, n: int, k: int, rng: RandomStream) -> tuple:
    """(y|n as _restricted checks and cuts it, k distinct vertices drawn in
    proportion to degree, as _draw_weighted_distinct draws them)."""
    y_n = _restricted(y, n, k)
    return y_n, _draw_weighted_distinct(degrees(y_n), degree_tree(y_n), k, rng)


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
    return induced_ordered(*_chosen(y, n, k, rng))


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
    return induced_ordered(*_chosen_by_degree(y, n, k, rng))


def sample_shortest_path(y: VertexGraph, n: int, k: int, rng: RandomStream) -> MarkedCompleteGraph:
    """k uniform distinct vertices of y|n; report the complete graph on them
    with each edge marked by the shortest-path length inside y|n
    (UNREACHABLE for disconnected pairs)."""
    return shortest_path_marks(*_chosen(y, n, k, rng))


def sample_sequence(y: tuple, n: int, k: int, rng: RandomStream) -> tuple:
    """k uniform without-replacement positions J_1..J_k of [n]; report the
    subsequence (y_J1, ..., y_Jk)."""
    return subsample_in_order(*_chosen(y, n, k, rng, tuple))


def sample_partition(pi: Partition, n: int, k: int, rng: RandomStream) -> Partition:
    """Subsample the block-label sequence of pi and reorder the labels by
    first appearance; the output is always an ordered partition."""
    return Partition._of(_code_partition(pi, n, k, rng))


def sample_edges(y: EdgeSeqGraph, n: int, k: int, rng: RandomStream) -> EdgeSeqGraph:
    """k uniform without-replacement edge positions of y|n; report the
    selected subsequence relabeled canonically.  Output is always canonical."""
    return subsample_in_order(*_chosen(y, n, k, rng, EdgeSeqGraph))


def sample_ego(y: VertexGraph, n: int, k: int, rng: RandomStream) -> list:
    """k uniform distinct vertices of y|n; report their 1-neighborhoods
    (ego networks), each rooted at the chosen vertex."""
    y_n, roots = _chosen(y, n, k, rng)
    return [ball(y_n, v, 1) for v in roots]


def sample_bs(y: VertexGraph, n: int, k: int, rng: RandomStream) -> RootedGraph:
    """Uniform root V in y|n; report the ball of radius k centered at V."""
    y_n = _restricted(y, n)
    root = rng.randbelow(n) + 1
    return ball(y_n, root, k)


# ---------------------------------------------------------------------------
# codes: what determines an output, found with the sampler's checks and
# draws.  sequence's output is its own code.


def _code_uniform_vertex(y: VertexGraph, n: int, k: int, rng: RandomStream) -> frozenset:
    return _induced_edges(*_chosen(y, n, k, rng))


def _code_degree_biased(y: VertexGraph, n: int, k: int, rng: RandomStream) -> frozenset:
    return _induced_edges(*_chosen_by_degree(y, n, k, rng))


def _code_partition(pi: Partition, n: int, k: int, rng: RandomStream) -> tuple:
    """The drawn labels relabeled by first appearance: the output's labels."""
    _restricted(pi, n, k, Partition)
    return relabel_r(sample_sequence(pi.labels, n, k, rng))


def _code_edge(y: EdgeSeqGraph, n: int, k: int, rng: RandomStream) -> tuple:
    """The drawn pairs' endpoints, relabeled by first appearance."""
    y, positions = _chosen(y, n, k, rng, EdgeSeqGraph)
    edges = y.edges
    return relabel_r([v for p in positions for v in edges[p - 1]])


def make_sampler(spec: SamplerSpec):
    """Uniform call surface f(y, n, k, rng) for any SamplerSpec: the
    function its row's run names, looked up in this module now, so a
    wrapper bound to that name runs.  p_sample ignores k (random size)."""
    row = _row(spec)
    run = globals()[row.run]
    if row.takes == "p":
        return lambda y, n, k, rng: run(y, n, spec.p, rng)
    if row.takes == "rho":
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


def _sized_by_k(spec_or_sampler) -> bool:
    """Whether spec_or_sampler is a SamplerSpec whose outputs have k
    elements: every row but bs_root, whose k is a radius, and p_sample,
    which reads no k and draws a random size.  A plain sampler callable is
    left to its own checks."""
    row = _row(spec_or_sampler)
    return row is not _NO_ROW and row.reported is not RootedGraph and row.takes != "p"


def _check_k_within_n(spec_or_sampler, k: int, n: int, what: str):
    """Refuse k, the largest size a caller is about to sample, when it
    exceeds n and spec_or_sampler's outputs have k elements (_sized_by_k).
    what names k in the message."""
    if k > n and _sized_by_k(spec_or_sampler):
        raise ValueError(f"{what} exceeds n = {n}")


def _coded(spec_or_sampler) -> tuple:
    """(the sampler, its code function or None): the code that a
    SamplerSpec's row names, looked up in this module now; a plain sampler
    callable has none."""
    if callable(spec_or_sampler):
        return spec_or_sampler, None
    code = _row(spec_or_sampler).code
    return make_sampler(spec_or_sampler), code and globals()[code]


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
    tallies = [tally_outputs(spec, y, n, k, reps, rng.substream("diagnose", i))
               for i, n in enumerate(schedule)]
    tvs = tuple(compare(a, b)[0] for a, b in zip(tallies, tallies[1:]))
    checked = tvs[1:] if len(tvs) > 1 else tvs
    verdict = "STABILIZING" if all(t < tolerance for t in checked) else "NOT_STABILIZING"
    return DiagnoseResult(schedule, tallies, tvs, tolerance, verdict)
