import math
import os

import pytest

from graphsample import sampling
from graphsample.estimate import (
    EXACT_TOL,
    PatternTally,
    compare,
    degree_profile,
    empirical_average,
    endpoint_slot_stats,
    frequency_profile,
    lln_trace,
    multiplicity_profile,
    prefix_density_vector,
    tally_outputs,
)
from graphsample.models import (
    MultiplicitySpec,
    Paintbox,
    StepGraphon,
    graphon_draw,
    half_multiplicity,
    matching_edgeseq,
    multigraph_from_multiplicities,
    paintbox_draw,
    star_edgeseq,
    y4,
)
from graphsample.models import complete_vertex, cycle_vertex
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec, sample_edges
from graphsample.structures import EdgeSeqGraph, Partition, VertexGraph, key_for

import oracles


# -- pattern tallies ------------------------------------------------------------

def test_tally_counts_and_densities():
    a, b = key_for((1,)), key_for((2,))
    t = PatternTally({a: 3, b: 1}, 4)
    assert t.reps == 4
    assert t.density(a) == 0.75
    assert t.stderr(b) == math.sqrt(0.25 * 0.75 / 4)
    assert t.stderr(key_for((9,))) == 3 / 4  # rule-of-three for unobserved
    assert abs(sum(t.densities().values()) - 1.0) < 1e-15


def test_empty_tally_reads_zero():
    t = PatternTally({}, 0)
    assert t.density(key_for((1,))) == 0.0 and t.stderr(key_for((1,))) == 0.0


def test_tally_tv_against_dict_and_tally():
    t = PatternTally({key_for((1,)): 60, key_for((2,)): 40}, 100)
    assert compare(t, {key_for((1,)): 0.5, key_for((2,)): 0.5})[0] == pytest.approx(0.1)
    u = PatternTally({key_for((1,)): 100}, 100)
    assert compare(t, u)[0] == pytest.approx(0.4)


def _tally(reps, *keys):
    """A tally of reps replicates spread evenly over the given keys."""
    return PatternTally({key_for((key,)): reps // len(keys) for key in keys}, reps)


_LAW = {key_for((1,)): 0.25, key_for((3,)): 0.75}


def test_compare_threshold_of_two_tallies_adds_both_noise_terms():
    # the term is 1/reps per side, whatever the number of patterns
    a, b = _tally(100, 1, 2), _tally(400, 1, 2, 3, 4)
    assert compare(a, b) == (pytest.approx(0.5), pytest.approx(4 * math.sqrt(1 / 100 + 1 / 400)))


def test_compare_threshold_of_a_tally_and_an_exact_law_is_the_tally_term():
    tv, threshold = compare(_tally(100, 1, 2), _LAW)
    assert tv == pytest.approx(0.75)
    assert threshold == pytest.approx(4 * math.sqrt(1 / 100))


def test_compare_threshold_of_two_exact_laws_is_the_rounding_constant():
    same = {key_for((3,)): 0.75, key_for((1,)): 0.25}
    assert compare(_LAW, same) == (0.0, EXACT_TOL)
    assert compare(_LAW, {key_for((2,)): 1.0}) == (1.0, EXACT_TOL)


@pytest.mark.parametrize("a, b", [(_tally(100, 1, 2), _tally(400, 1, 2, 3, 4)),
                                  (_tally(100, 1, 2), _LAW),
                                  (_LAW, {key_for((2,)): 1.0})])
def test_compare_is_symmetric(a, b):
    assert compare(a, b) == compare(b, a)


def test_tally_replicate_r_uses_substream_r():
    # Replicate r depends only on rng.substream(r), so any sharding of the
    # replicate range merges to these exact counts.
    from graphsample.sampling import make_sampler

    s = make_sampler(SamplerSpec("uniform_vertex"))
    rng = RandomStream(5)
    expected = {}
    for r in range(500):
        key = key_for(s(y4(), 4, 3, rng.substream(r)))
        expected[key] = expected.get(key, 0) + 1
    assert tally_outputs(s, y4(), 4, 3, 500, rng).counts == expected


# -- prefix densities --------------------------------------------------------------

def test_prefix_density_vector_constant_sequence():
    y = (7,) * 50
    tally = prefix_density_vector(SamplerSpec("sequence"), y, 50, 3, 2000,
                                  RandomStream(1))
    key = key_for((7, 7, 7))
    assert tally.density(key) == 1.0 and tally.stderr(key) == 0.0


def test_prefix_density_vector_impossible_pattern():
    star = star_edgeseq(20)
    pattern = EdgeSeqGraph(((1, 2), (3, 4)))  # two disjoint edges: no star holds them
    tally = prefix_density_vector(SamplerSpec("edge"), star, 20, 2, 2000,
                                  RandomStream(2))
    assert tally.density(key_for(pattern)) == 0.0
    assert tally.stderr(key_for(pattern)) == 3 / 2000


def test_prefix_density_vector_sums_to_one_and_matches_oracle():
    reps = 30_000
    tally = prefix_density_vector(SamplerSpec("uniform_vertex"), y4(), 4, 3,
                                  reps, RandomStream(3))
    assert sum(tally.densities().values()) == pytest.approx(1.0)
    law = oracles.law_uniform_vertex(y4(), 4, 3)
    for key, p in law.items():
        assert abs(tally.density(key) - float(p)) <= \
            4 * math.sqrt(float(p) * (1 - float(p)) / reps)


def test_prefix_density_vector_partition_singletons():
    pi = Partition(tuple(range(1, 21)))
    tally = prefix_density_vector(SamplerSpec("partition"), pi, 20, 3, 500,
                                  RandomStream(4))
    assert tally.density(key_for(Partition((1, 2, 3)))) == 1.0


# -- symmetrized empirical averages --------------------------------------------------

def test_empirical_average_sequence_frequency_identity():
    x = ("a", "b", "a")
    f = lambda s: 1.0 if s[0] == "a" else 0.0
    assert empirical_average(x, f, 1) == pytest.approx(2 / 3)


def test_empirical_average_constant_structure():
    x = (5, 5, 5, 5)
    f = lambda s: 3.25
    assert empirical_average(x, f, 2) == 3.25


def test_empirical_average_triangle_edge_indicator():
    tri = complete_vertex(3)
    f = lambda g: 1.0 if (1, 2) in g.edges else 0.0
    assert empirical_average(tri, f, 2) == 1.0


def test_empirical_average_exact_invariant_under_relabeling():
    from graphsample.invariance import apply_relabeling

    g = VertexGraph(4, frozenset({(1, 2), (2, 3)}))
    f = lambda h: float(len(h.edges))
    base = empirical_average(g, f, 2)
    for perm in [(2, 1, 3, 4), (4, 3, 2, 1), (3, 1, 4, 2)]:
        assert empirical_average(apply_relabeling(g, perm), f, 2) == base


def test_empirical_average_exact_up_to_the_budget():
    # C6 at j = 3: (6)_3 = 120 arrangements, 6 of whose 15 first pairs are edges
    x = cycle_vertex(6)
    calls = []

    def f(g):
        calls.append(g)
        return 1.0 if g.has_edge(1, 2) else 0.0

    assert empirical_average(x, f, 3, num_perms=120) == 0.4
    assert len(calls) == 120
    with pytest.raises(ValueError, match="needs an rng"):
        empirical_average(x, f, 3, num_perms=119)
    calls.clear()
    empirical_average(x, f, 3, num_perms=119, rng=RandomStream(0))
    assert len(calls) == 119


def test_empirical_average_monte_carlo_close_to_exact():
    # (200)_2 = 39800 arrangements exceed the default budget of 10,000 draws
    x = (1,) * 100 + (2,) * 60 + (3,) * 40
    calls = []

    def f(s):
        calls.append(s)
        return 1.0 if s[0] == s[1] else 0.0

    exact = sum(c * (c - 1) for c in (100, 60, 40)) / (200 * 199)
    mc = empirical_average(x, f, 2, rng=RandomStream(0))
    assert len(calls) == 10_000
    assert abs(mc - exact) < 0.02


def test_empirical_average_edge_seq_action():
    g = EdgeSeqGraph(((1, 2), (1, 3), (4, 5)))
    shared = key_for(EdgeSeqGraph(((1, 2), (1, 3))))
    f = lambda h: 1.0 if key_for(h) == shared else 0.0
    # 6 ordered pairs of edge positions; (0,1) and (1,0) share a vertex
    assert empirical_average(g, f, 2) == pytest.approx(2 / 6)


# -- LLN traces -------------------------------------------------------------------------

def test_lln_trace_paintbox_frequency():
    pb = Paintbox(((1, 0.7), (2, 0.3)))
    y = paintbox_draw(pb, 2000, RandomStream(10)).labels
    # ordered relabeling makes the heavy atom whichever label dominates
    heavy = max(set(y), key=y.count)
    f = lambda s: 1.0 if s[0] == heavy else 0.0
    trace = lln_trace(SamplerSpec("sequence"), y, 2000, f, 1, (5, 50, 500),
                      20, RandomStream(11), num_perms=2000)
    assert abs(trace.estimates[-1] - 0.7) < 0.05
    assert trace.ks == (5, 50, 500)


def test_lln_trace_constant_function():
    trace = lln_trace(SamplerSpec("sequence"), (1, 2) * 20, 40,
                      lambda s: 1.0, 1, (2, 4), 5, RandomStream(0))
    assert trace.estimates == (1.0, 1.0)


@pytest.mark.parametrize("reps", [0, -1])
def test_lln_trace_refuses_reps_below_one_before_sampling(reps):
    calls = []

    def sampler(y, n, k, stream):
        calls.append(k)
        return y[:k]

    with pytest.raises(ValueError, match="reps must be >= 1"):
        lln_trace(sampler, (1, 2) * 20, 40, lambda s: 1.0, 1, (2, 4), reps,
                  RandomStream(0))
    assert calls == []


def test_lln_trace_refuses_a_schedule_size_above_n_before_sampling(monkeypatch):
    calls = []

    def sampler(y, n, k, stream):
        calls.append(k)
        return y[:k]

    # the sequence row bounds k by n, so the k = 2 point does not run first
    monkeypatch.setattr(sampling, "sample_sequence", sampler)
    with pytest.raises(ValueError, match=r"^schedule size 41 exceeds n = 40$"):
        lln_trace(SamplerSpec("sequence"), (1, 2) * 20, 40, lambda s: 1.0, 1, (2, 41), 1,
                  RandomStream(0))
    assert calls == []
    # a plain sampler callable is left to its own checks
    lln_trace(sampler, (1, 2) * 20, 40, lambda s: 1.0, 1, (2, 41), 1, RandomStream(0))
    assert calls == [2, 41]


# -- profiles ----------------------------------------------------------------------------

def test_degree_profile_star():
    star = star_edgeseq(800)
    prof = degree_profile(star, (100, 200, 400, 800))
    assert prof.estimate[1] == 0.5
    assert prof.series[1] == (0.5, 0.5, 0.5, 0.5)
    assert prof.estimate[2] == 1 / 1600
    assert abs(prof.mass - 0.5) < 0.07  # window leaves carry O(n1/n) dust
    assert prof.ranked[0] == 0.5


def test_degree_profile_matching():
    prof = degree_profile(matching_edgeseq(640), (80, 160, 320, 640))
    assert prof.mass < 0.15
    assert all(v == 1 / 1280 for v in
               [prof.estimate[i] for i in (1, 2)])


def test_degree_profile_repeated_edge():
    g = EdgeSeqGraph(((1, 2),) * 200)
    prof = degree_profile(g, (50, 100, 200))
    assert prof.estimate[1] == 0.5 and prof.estimate[2] == 0.5
    assert prof.mass == pytest.approx(1.0)


def test_degree_conservation_per_n():
    g = half_multiplicity(64)
    prof = degree_profile(g, (16, 32, 64))
    for i, n in enumerate(prof.schedule):
        total = sum(series[i] for series in prof.series.values())
        assert total == pytest.approx(1.0)  # sum deg = 2n exactly


def test_multiplicity_profile_half():
    g = half_multiplicity(1600)
    prof = multiplicity_profile(g, (200, 400, 800, 1600))
    assert prof.estimate[(1, 2)] == 0.5
    assert abs(prof.mass - 0.5) < 0.07
    assert prof.ranked[0] == 0.5


def test_multiplicity_profile_simple_graph_vanishes():
    prof = multiplicity_profile(matching_edgeseq(400), (50, 100, 200, 400))
    assert prof.mass < 0.15
    assert prof.ranked[0] == 1 / 400


def test_multiplicity_profile_two_targets():
    spec = MultiplicitySpec((((1, 2), 0.5), ((3, 4), 0.5)))
    g = multigraph_from_multiplicities(spec, 1000)
    prof = multiplicity_profile(g, (100, 1000))
    assert abs(prof.mass - 1.0) <= 2 / 1000 + 1e-9
    assert all(abs(v - 0.5) <= 1 / 1000 + 1e-9 for v in prof.ranked)


def test_sampled_multiplicities_converge_when_mass_one():
    # mubar = 1 input: sorted output multiplicities track the input's
    spec = MultiplicitySpec((((1, 2), 0.5), ((3, 4), 0.5)))
    y = multigraph_from_multiplicities(spec, 20_000)
    out = sample_edges(y, 20_000, 10_000, RandomStream(77))
    prof = multiplicity_profile(out, (1_000, 10_000))
    assert len(prof.ranked) >= 2
    for nu in prof.ranked[:2]:
        assert abs(nu - 0.5) <= 0.02


def test_multiplicity_counts_sum_exactly_n():
    g = half_multiplicity(500 * 2)
    prof = multiplicity_profile(g, (250, 1000))
    for i, n in enumerate(prof.schedule):
        assert sum(s[i] for s in prof.series.values()) == pytest.approx(1.0)


def test_frequency_profile_singletons():
    y = tuple(range(1, 8001))
    prof = frequency_profile(y, (100, 1000, 8000))
    assert prof.mass == pytest.approx(100 / 8000)


def test_profile_schedule_validation():
    with pytest.raises(ValueError):
        degree_profile(star_edgeseq(10), (4, 20))
    with pytest.raises(ValueError):
        degree_profile(star_edgeseq(10), (8, 4))


# -- endpoint slots -------------------------------------------------------------------------

def test_endpoint_slot_stats_star_sample():
    star = star_edgeseq(500)
    out = sample_edges(star, 500, 200, RandomStream(5))
    singleton, repeated = endpoint_slot_stats(out)
    assert singleton == 0.5
    assert repeated == (0.5,)


def test_endpoint_slot_stats_matching_and_repeat():
    out = sample_edges(matching_edgeseq(100), 100, 40, RandomStream(6))
    singleton, repeated = endpoint_slot_stats(out)
    assert singleton == 1.0 and repeated == ()
    doubled = EdgeSeqGraph(((1, 2),) * 5)
    singleton, repeated = endpoint_slot_stats(doubled)
    assert singleton == 0.0
    assert repeated == (0.5, 0.5)


def test_endpoint_slot_stats_empty_error():
    with pytest.raises(ValueError):
        endpoint_slot_stats(EdgeSeqGraph(()))


def test_custom_sampler_gets_an_unsized_input_as_given():
    w = StepGraphon((0.0, 0.5, 1.0), ((0.9, 0.1), (0.1, 0.9)))
    seen = []

    def draw(y, n, k, stream):
        seen.append(y)
        return graphon_draw(y, k, stream)

    tally = prefix_density_vector(draw, w, 1, 2, 50, RandomStream(3))
    assert tally.reps == 50 and len(seen) == 50 and all(y is w for y in seen)
    tally = tally_outputs(lambda y, n, k, stream: seen.append(y) or (1,), None, 1, 1, 5,
                          RandomStream(3))
    assert tally.reps == 5 and seen[-5:] == [None] * 5


def test_sized_input_reaches_sampler_restricted_once(vertex_builds):
    # a plain callable gets y as given; a sampler of the package cuts y|n in
    # its first replicate, and y keeps that cut for the next tally at n
    g = complete_vertex(6)
    seen = []
    tally_outputs(lambda y, n, k, stream: seen.append(y) or (1,), g, 4, 1, 3, RandomStream(0))
    assert len(seen) == 3 and all(y is g for y in seen)
    g = cycle_vertex(60)
    sampler = sampling.make_sampler(SamplerSpec("uniform_vertex"))
    vertex_builds.clear()
    tally_outputs(sampler, g, 40, 3, 300, RandomStream(1))
    assert vertex_builds.count(40) == 1
    vertex_builds.clear()
    tally_outputs(sampler, g, 40, 3, 300, RandomStream(2))
    assert vertex_builds.count(40) == 0


def test_lln_trace_reaches_sampler_restricted_once(vertex_builds):
    # y as given to a plain callable at every schedule point, and one y|n cut
    # by a sampler of the package for every replicate at every schedule point
    g = complete_vertex(6)
    seen = []

    def sampler(y, n, k, stream):
        seen.append(y)
        return tuple(range(1, k + 1))

    lln_trace(sampler, g, 4, _first_is_one, 1, (2, 3), 3, RandomStream(0))
    assert len(seen) == 6 and all(y is g for y in seen)
    g = cycle_vertex(60)
    vertex_builds.clear()
    lln_trace(SamplerSpec("uniform_vertex"), g, 40, lambda x: len(x.edges), 1, (2, 3), 30,
              RandomStream(1))
    assert vertex_builds.count(40) == 1


# -- replicate ranges across processes -----------------------------------------------
#
# With the split threshold at 0, a tally splits after its first replicate into
# one contiguous range per CPU the process may run on (os.sched_getaffinity),
# the first run here, the others in forked children.

_RANGE_GRAPH = VertexGraph(9, frozenset({(i, i + 1) for i in range(1, 8)}
                                        | {(i, 9) for i in range(1, 9, 2)} | {(1, 8)}))
_RANGE_INPUTS = {
    "sequence": (1, 2, 1, 3, 2, 2, 4, 1, 5),
    "partition": Partition((1, 2, 1, 3, 2, 1, 4, 2, 5)),
    "edge": EdgeSeqGraph(((1, 2), (2, 3), (1, 2), (3, 4), (1, 4), (2, 5), (5, 6),
                          (1, 3), (6, 7))),
}
_RANGE_SPECS = {"p_sample": {"p": 0.5}, "sparsified": {"rho": 0.7}}


@pytest.fixture
def forked(monkeypatch):
    """Force a split at every tally on ``cpus`` CPUs; count the forks made
    here; afterwards, check that no child is left to reap."""
    from graphsample import estimate

    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def on(cpus):
        monkeypatch.setattr(estimate, "_SPLIT_S", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    yield on
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _every_tally(forks):
    """Each tally-producing entry point, with its results in full order, and
    the number of processes the lln trace forked."""
    from graphsample.invariance import (test_exchangeability, test_idempotence,
                                        test_involution_invariance)
    from graphsample.sampling import ALGORITHMS, diagnose_limit

    out = {}
    for algo in ALGORITHMS:
        spec = SamplerSpec(algo, **_RANGE_SPECS.get(algo, {}))
        y = _RANGE_INPUTS.get(algo, _RANGE_GRAPH)
        tally = prefix_density_vector(spec, y, 8, 3, 61, RandomStream(11))
        out[algo] = (list(tally.counts.items()), tally.reps)
    seq = paintbox_draw(Paintbox(((1, 0.5), (2, 0.3)), dust=0.2), 40, RandomStream(2))
    before = len(forks)
    # whether positions 1 and 2 share a block: exact at k = 2 and 4, and at
    # k = 9 from 40 draws of the (9)_2 = 72 arrangements
    out["lln"] = lln_trace(SamplerSpec("partition"), seq, 40,
                           lambda x: float(x.labels[1] == 1), 2, (2, 4, 9), 37,
                           RandomStream(4), num_perms=40).estimates
    lln_forks = len(forks) - before
    uv = SamplerSpec("uniform_vertex")
    for name, report in (
            ("involution", test_involution_invariance("uniform", _RANGE_GRAPH, 9, 1, 45,
                                                      RandomStream(5))),
            ("exchangeability", test_exchangeability(uv, _RANGE_GRAPH, 9, 3, 45,
                                                     RandomStream(6))),
            ("idempotence", test_idempotence(uv, _RANGE_GRAPH, 9, 5, 3, 45,
                                             RandomStream(7)))):
        out[name] = (report.summary(), list(report.tally_a.counts.items()),
                     list(report.tally_b.counts.items()))
    diag = diagnose_limit(uv, _RANGE_GRAPH, 2, (5, 7, 9), 45, RandomStream(8))
    out["diagnose"] = (diag.tv_steps, diag.verdict)
    return out, lln_forks


def test_tallies_do_not_depend_on_the_process_count(forked):
    forks = forked(1)
    one, _ = _every_tally(forks)
    assert forks == []
    forked(2)
    two, lln_forks = _every_tally(forks)
    assert two == one
    assert lln_forks == 3  # one child at each schedule point
    made = len(forks)
    assert made > 0
    forked(3)
    three, lln_forks = _every_tally(forks)
    assert three == one
    assert lln_forks == 6
    assert len(forks) - made == 2 * made  # two children a split at 3 CPUs, one at 2


def _failing(fail):
    """uniform_vertex with replicate r calling fail(r) first, and the
    replicate index read from its stream; reps 10 split at 3 CPUs into
    0 (this process), then 1..3 here, 4..6 and 7..9 in children."""
    from graphsample.sampling import make_sampler

    rng = RandomStream(1)
    index = {rng.substream(r).stream_id: r for r in range(10)}
    inner = make_sampler(SamplerSpec("uniform_vertex"))

    def sampler(y, n, k, stream):
        fail(index[stream.stream_id])
        return inner(y, n, k, stream)

    return lambda: tally_outputs(sampler, y4(), 4, 3, 10, rng)


def _raise_at(*reps):
    def fail(r):
        if r in reps:
            raise ValueError(f"replicate {r} failed")
    return fail


def test_a_childs_error_reaches_the_caller(forked):
    forks = forked(3)
    with pytest.raises(ValueError, match=r"^replicate 8 failed$"):
        _failing(_raise_at(8))()
    assert len(forks) == 2


@pytest.mark.parametrize("reps,raised", [((2, 8), 2), ((5, 8), 5)])
def test_the_lowest_failing_range_wins(forked, reps, raised):
    forked(3)
    with pytest.raises(ValueError, match=rf"^replicate {raised} failed$"):
        _failing(_raise_at(*reps))()


def test_a_child_that_dies_is_a_runtime_error(forked):
    parent = os.getpid()

    def die(r):
        if os.getpid() != parent:
            os._exit(7)

    forked(3)
    with pytest.raises(RuntimeError, match="exited without a result"):
        _failing(die)()


def test_a_child_that_dies_exits_4_through_the_cli(forked, monkeypatch, tmp_path, capsys):
    from graphsample import estimate
    from graphsample.cli import main

    parent, real_key = os.getpid(), key_for

    def key_or_die(x):
        if os.getpid() != parent:
            os._exit(7)
        return real_key(x)

    forked(2)
    monkeypatch.setattr(estimate, "key_for", key_or_die)
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2\n3\n")
    code = main(["estimate", "--what", "vector", "--algo", "sequence", "--in", str(seq),
                 "--n", "3", "--k", "2", "--reps", "10"])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal error: RuntimeError: ")


def test_an_interrupt_kills_the_children(forked):
    import time

    def fail(r):
        if r == 2:
            raise KeyboardInterrupt
        if r >= 4:
            time.sleep(60)

    forked(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _failing(fail)()
    assert time.perf_counter() - start < 30


def test_a_second_thread_keeps_the_loop_in_one_process(forked):
    import threading

    forks = forked(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        tally = _failing(lambda r: None)()
    finally:
        stop.set()
        thread.join()
    assert forks == [] and tally.reps == 10


# -- refusals ---------------------------------------------------------------------

def _first_is_one(x):
    return 1.0 if x[0] == 1 else 0.0


@pytest.mark.parametrize("build, message", [
    (lambda: empirical_average((1, 2, 1), _first_is_one, 4), "j = 4 outside 1..3"),
    (lambda: empirical_average((1, 2, 1), _first_is_one, 1, num_perms=2),
     "3 arrangements exceed num_perms = 2, and sampling them needs an rng"),
    (lambda: empirical_average((1, 2, 1), _first_is_one, 1, num_perms=0,
                               rng=RandomStream(0)),
     "num_perms must be >= 1"),
    (lambda: lln_trace(SamplerSpec("sequence"), (1, 2) * 5, 10, _first_is_one, 1,
                       (6, 4, 2), 5, RandomStream(0)),
     "schedule must be strictly increasing"),
    (lambda: lln_trace(SamplerSpec("sequence"), (1, 2) * 5, 10, _first_is_one, 1,
                       (4, 4), 5, RandomStream(0)),
     "schedule must be strictly increasing"),
    (lambda: lln_trace(SamplerSpec("sequence"), (1, 2) * 5, 10, _first_is_one, 1,
                       (0, 4), 5, RandomStream(0)),
     "schedule sizes must be >= 1"),
    (lambda: degree_profile(star_edgeseq(10), (0, 5)), "schedule sizes must be >= 1"),
], ids=["j_out_of_range", "monte_carlo_without_rng", "no_permutations",
        "lln_decreasing_schedule", "lln_repeated_schedule", "lln_size_zero",
        "degrees_size_zero"])
def test_estimate_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
