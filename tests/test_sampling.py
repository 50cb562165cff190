import ast
import math
import re
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.estimate import tally_outputs
from graphsample.models import (
    alternating_seq,
    complete_vertex,
    cycle_vertex,
    star_vertex,
    y4,
)
from graphsample.rng import RandomStream
from graphsample.sampling import (
    _ALGORITHMS,
    ALGORITHMS,
    SamplerSpec,
    _draw_weighted_distinct,
    diagnose_limit,
    make_sampler,
    sample_bs,
    sample_degree_biased,
    sample_edges,
    sample_ego,
    sample_p,
    sample_partition,
    sample_sequence,
    sample_shortest_path,
    sample_sparsified,
    sample_uniform_vertex,
)
from graphsample.structures import (
    EdgeSeqGraph,
    Partition,
    VertexGraph,
    ball,
    fenwick,
    is_ordered,
    key_for,
)
from graphsample.structures import restrict as restrict_output

import oracles


def _mc_law(sampler, y, n, k, reps, seed=0):
    rng = RandomStream(seed)
    return tally_outputs(sampler, y, n, k, reps, rng)


def assert_matches_oracle(tally, law, reps):
    """Every exact-law pattern within 4 standard errors; nothing unexpected."""
    law = oracles.as_floats(law)
    for key in tally.counts:
        assert key in law, f"sampled pattern outside oracle support: {key}"
    for key, p in law.items():
        est = tally.density(key)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / reps)
        assert abs(est - p) <= 4 * sigma + 1e-12, (key, est, p)


# -- uniform vertex sampling ------------------------------------------------------

def test_uniform_vertex_y4_oracle():
    law = oracles.law_uniform_vertex(y4(), 4, 3)
    # paper example: path with each middle label w.p. 1/4, empty w.p. 1/4
    probs = sorted(law.values())
    assert probs == [Fraction(1, 4)] * 4
    reps = 100_000
    tally = _mc_law(sample_uniform_vertex, y4(), 4, 3, reps)
    assert_matches_oracle(tally, law, reps)


def test_uniform_vertex_star_edge_probability():
    star = star_vertex(100)
    reps = 30_000
    tally = _mc_law(sample_uniform_vertex, star, 100, 2, reps)
    edge = key_for(VertexGraph(2, frozenset({(1, 2)})))
    p = 2 / 100
    assert abs(tally.density(edge) - p) <= 4 * math.sqrt(p * (1 - p) / reps)


def test_uniform_vertex_full_k_preserves_edge_count():
    g = y4()
    for seed in range(10):
        out = sample_uniform_vertex(g, 4, 4, RandomStream(seed))
        assert len(out.edges) == len(g.edges)


def test_sampler_contract_errors():
    with pytest.raises(ValueError):
        sample_uniform_vertex(y4(), 4, 5, RandomStream(0))
    with pytest.raises(ValueError):
        sample_uniform_vertex(y4(), 9, 2, RandomStream(0))
    with pytest.raises(ValueError):
        sample_sequence((), 1, 1, RandomStream(0))


# -- sparsified -------------------------------------------------------------------

def test_sparsified_rho_one_identical_to_uniform():
    for seed in range(30):
        a = sample_uniform_vertex(y4(), 4, 3, RandomStream(seed))
        b = sample_sparsified(y4(), 4, 3, 1.0, RandomStream(seed))
        assert a == b


def test_sparsified_rho_zero_empty():
    out = sample_sparsified(complete_vertex(5), 5, 3, 0.0, RandomStream(1))
    assert out == VertexGraph(3)


def test_sparsified_rho_sequence_is_rejected():
    # rho is a constant or a callable k -> [0,1]; a per-k sequence is not a form
    with pytest.raises(TypeError):
        SamplerSpec("sparsified", rho=[1.0, 0.5, 0.25])
    with pytest.raises(TypeError):
        sample_sparsified(y4(), 4, 3, [1.0, 0.5, 0.25], RandomStream(0))


def test_sparsified_k5_half():
    reps = 30_000
    tally = _mc_law(lambda y, n, k, r: sample_sparsified(y, n, k, 0.5, r),
                    complete_vertex(5), 5, 2, reps)
    edge = key_for(VertexGraph(2, frozenset({(1, 2)})))
    assert abs(tally.density(edge) - 0.5) <= 4 * math.sqrt(0.25 / reps)


def test_sparsified_sequential_calls_thin_independently():
    # second stage on the same stream must not reuse the first stage's
    # thinning uniforms: the composed edge probability is 0.25, not 0.5
    reps = 10_000
    hits = 0
    k2 = complete_vertex(2)
    for rep in range(reps):
        rng = RandomStream(400).substream(rep)
        z = sample_sparsified(k2, 2, 2, 0.5, rng)
        out = sample_sparsified(z, 2, 2, 0.5, rng)
        hits += len(out.edges)
    p = hits / reps
    assert abs(p - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / reps)


# -- p-sampling -------------------------------------------------------------------

def test_p_sample_k10_empty_probability():
    law = oracles.law_p_sample(complete_vertex(10), 10, Fraction(1, 2))
    empty = key_for(VertexGraph(0))
    assert law[empty] == Fraction(11, 1024)
    reps = 30_000
    rng = RandomStream(0)
    tally = tally_outputs(lambda y, n, k, r: sample_p(y, n, 0.5, r),
                          complete_vertex(10), 10, 1, reps, rng)
    p = 11 / 1024
    assert abs(tally.density(empty) - p) <= 4 * math.sqrt(p * (1 - p) / reps)


def test_p_sample_extremes():
    g = complete_vertex(6)
    assert sample_p(g, 6, 1.0, RandomStream(0)) == g
    assert sample_p(g, 6, 0.0, RandomStream(0)) == VertexGraph(0)


def test_p_sample_removes_isolated_and_relabels_in_order():
    g = VertexGraph(5, frozenset({(2, 4)}))
    # keep everything: vertices 1,3,5 become isolated and are dropped
    out = sample_p(g, 5, 1.0, RandomStream(0))
    assert out == VertexGraph(2, frozenset({(1, 2)}))


# -- degree-biased ------------------------------------------------------------------

def test_degree_biased_y4_oracle_exact_values():
    law = oracles.law_degree_biased(y4(), 4, 3)
    path_mid = {}
    for mid in (1, 2, 3):
        others = [v for v in (1, 2, 3) if v != mid]
        edges = frozenset({tuple(sorted((mid, others[0]))),
                           tuple(sorted((mid, others[1])))})
        path_mid[mid] = law[key_for(VertexGraph(3, edges))]
    assert path_mid[1] == Fraction(1, 2)
    assert path_mid[2] == Fraction(3, 10)
    assert path_mid[3] == Fraction(3, 20)
    assert law[key_for(VertexGraph(3))] == Fraction(1, 20)

    reps = 100_000
    tally = _mc_law(sample_degree_biased, y4(), 4, 3, reps)
    assert_matches_oracle(tally, law, reps)


def test_degree_biased_y4_k2_edge_probability():
    law = oracles.law_degree_biased(y4(), 4, 2)
    assert law[key_for(VertexGraph(2, frozenset({(1, 2)})))] == Fraction(4, 5)


def test_degree_biased_regular_graph_equals_uniform():
    c = cycle_vertex(6)
    law_db = oracles.law_degree_biased(c, 6, 3)
    law_u = oracles.law_uniform_vertex(c, 6, 3)
    assert law_db == law_u


def test_degree_biased_uniform_fallback_on_empty_graph():
    g = VertexGraph(4)
    out = sample_degree_biased(g, 4, 2, RandomStream(0))
    assert out == VertexGraph(2)


_WEIGHTS = st.integers(1, 40).flatmap(lambda n: st.one_of(
    st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
    st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=n, max_size=n),
    st.just([0] * n),
    st.integers(1, n).map(lambda i: [0] * (i - 1) + [7] + [0] * (n - i)),
))


@settings(max_examples=400, deadline=None)
@given(_WEIGHTS, st.data(), st.integers(0, 2**63))
def test_fenwick_draw_matches_linear_scan(weights, data, seed):
    n = len(weights)
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)))
    expected = oracles.draw_weighted_distinct_linear(weights, k, RandomStream(seed))
    assert fenwick(weights)[0] == sum(weights)
    assert _draw_weighted_distinct(weights, fenwick(weights), k, RandomStream(seed)) == expected


# u * total lands exactly on a prefix sum for these, which a seeded stream
# almost never produces.
_EDGE_UNIFORMS = st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75, 1 - 2.0 ** -53))


@settings(max_examples=400, deadline=None)
@given(_WEIGHTS, st.data())
def test_fenwick_draw_matches_linear_scan_at_exact_prefix_sums(weights, data):
    n = len(weights)
    k = data.draw(st.integers(1, n))
    us = data.draw(st.lists(st.one_of(_EDGE_UNIFORMS, st.floats(0, 1, exclude_max=True)),
                            min_size=k, max_size=k))
    expected = oracles.draw_weighted_distinct_linear(weights, k, oracles.Uniforms(us))
    got = _draw_weighted_distinct(weights, fenwick(weights), k, oracles.Uniforms(us))
    assert fenwick(weights)[0] == sum(weights)
    assert got == expected


class _CountingTree(Sequence):
    """A Fenwick tree that counts the entries a draw reads."""

    def __init__(self, tree):
        self.tree, self.reads = tree, 0

    def __len__(self):
        return len(self.tree)

    def __getitem__(self, i):
        self.reads += 1
        return self.tree[i]


def test_fenwick_draw_reads_a_few_entries_per_draw():
    """A draw descends the tree and never copies it, so k = 3 draws on 2^12
    weights read about 3 * 12 entries, not all 2^12 + 1."""
    weights = [1 + i % 5 for i in range(2 ** 12)]
    tree = _CountingTree(fenwick(weights))
    got = _draw_weighted_distinct(weights, tree, 3, RandomStream(4))
    assert got == _draw_weighted_distinct(weights, fenwick(weights), 3, RandomStream(4))
    assert tree.reads <= 3 * 13 + 1


# -- shortest path ------------------------------------------------------------------

def test_shortest_path_c10_mark_distribution():
    law = oracles.law_shortest_path(cycle_vertex(10), 10, 2)
    by_mark = {}
    for key, p in law.items():
        by_mark[key] = p
    # exact: P(mark 5) = 1/9, P(mark d) = 2/9 for d = 1..4
    from graphsample.structures import MarkedCompleteGraph

    for d in range(1, 5):
        assert law[key_for(MarkedCompleteGraph(2, (((1, 2), d),)))] == Fraction(2, 9)
    assert law[key_for(MarkedCompleteGraph(2, (((1, 2), 5),)))] == Fraction(1, 9)

    reps = 20_000
    tally = _mc_law(sample_shortest_path, cycle_vertex(10), 10, 2, reps)
    assert_matches_oracle(tally, law, reps)


def test_shortest_path_complete_and_disconnected():
    out = sample_shortest_path(complete_vertex(5), 5, 3, RandomStream(2))
    assert all(m == 1 for _, m in out.marks)
    iso = VertexGraph(4, frozenset({(1, 2), (3, 4)}))
    law = oracles.law_shortest_path(iso, 4, 2)
    from graphsample.structures import UNREACHABLE, MarkedCompleteGraph

    unreach = key_for(MarkedCompleteGraph(2, (((1, 2), UNREACHABLE),)))
    assert law[unreach] == Fraction(8, 12)


# -- sequences and partitions ----------------------------------------------------------

def test_sequence_alternating_hypergeometric():
    y = alternating_seq(100)
    law = oracles.law_sequence(y, 100, 2)
    assert law[key_for((1, 1))] == Fraction(50 * 49, 100 * 99)
    reps = 50_000
    tally = _mc_law(sample_sequence, y, 100, 2, reps)
    assert_matches_oracle(tally, law, reps)


def test_sequence_constant_input():
    y = (3,) * 10
    for seed in range(5):
        assert sample_sequence(y, 10, 4, RandomStream(seed)) == (3, 3, 3, 3)


def test_sequence_k1_is_frequency():
    y = (1, 1, 2)
    law = oracles.law_sequence(y, 3, 1)
    assert law[key_for((1,))] == Fraction(2, 3)


def test_partition_all_singletons_masked():
    pi = Partition(tuple(range(1, 11)))
    for seed in range(5):
        out = sample_partition(pi, 10, 3, RandomStream(seed))
        assert out.labels == (1, 2, 3)


def test_partition_single_block():
    pi = Partition((1,) * 8)
    assert sample_partition(pi, 8, 3, RandomStream(0)).labels == (1, 1, 1)


def test_partition_two_blocks_oracle():
    pi = Partition(tuple(1 if i % 2 == 0 else 2 for i in range(8)))
    law = oracles.law_partition(pi, 8, 2)
    reps = 30_000
    tally = _mc_law(sample_partition, pi, 8, 2, reps)
    assert_matches_oracle(tally, law, reps)


def test_partition_output_always_ordered():
    pi = Partition((1, 2, 1, 3, 2, 1, 4, 5))
    for seed in range(50):
        sample_partition(pi, 8, 4, RandomStream(seed))  # validates on build


# -- edge sampling -----------------------------------------------------------------------

def test_edges_star_forced_output():
    from graphsample.models import star_edgeseq

    star = star_edgeseq(6)
    for seed in range(10):
        out = sample_edges(star, 6, 3, RandomStream(seed))
        assert out.edges == ((1, 2), (1, 3), (1, 4))
        assert is_ordered(v for e in out.edges for v in e)


def test_edges_matching_forced_output():
    from graphsample.models import matching_edgeseq

    m = matching_edgeseq(5)
    for seed in range(10):
        out = sample_edges(m, 5, 2, RandomStream(seed))
        assert out.edges == ((1, 2), (3, 4))


def test_edges_multigraph_oracle():
    g = EdgeSeqGraph(((1, 2), (1, 2), (3, 4), (3, 4)))
    law = oracles.law_edges(g, 4, 2)
    doubled = key_for(EdgeSeqGraph(((1, 2), (1, 2))))
    assert law[doubled] == Fraction(4, 12)
    reps = 50_000
    tally = _mc_law(sample_edges, g, 4, 2, reps)
    assert_matches_oracle(tally, law, reps)


# -- neighborhoods -----------------------------------------------------------------------

def test_ego_star_oracle():
    star = star_vertex(5)
    law = oracles.law_ego(star, 5, 1)
    hub_ball = key_for([ball(star, 1, 1)])
    leaf_ball = key_for([ball(star, 2, 1)])
    assert law[hub_ball] == Fraction(1, 5)
    assert law[leaf_ball] == Fraction(4, 5)
    reps = 20_000
    tally = _mc_law(sample_ego, star, 5, 1, reps)
    assert_matches_oracle(tally, law, reps)


def test_ego_empty_graph_and_complete_graph():
    empty = VertexGraph(4)
    for b in sample_ego(empty, 4, 2, RandomStream(3)):
        assert len(b.vertices) == 1 and not b.edges
    k4 = complete_vertex(4)
    balls = sample_ego(k4, 4, 2, RandomStream(3))
    assert all(len(b.vertices) == 4 for b in balls)
    assert balls[0].root != balls[1].root


def test_bs_cycle_and_star():
    c6 = cycle_vertex(6)
    outs = {key_for(sample_bs(c6, 6, 1, RandomStream(s))) for s in range(20)}
    assert len(outs) == 1  # vertex-transitive: all radius-1 balls isomorphic
    law = oracles.law_bs(star_vertex(5), 5, 1)
    assert sorted(law.values()) == [Fraction(1, 5), Fraction(4, 5)]


def test_bs_radius_covers_component():
    g = VertexGraph(5, frozenset({(1, 2), (2, 3), (4, 5)}))
    out = sample_bs(g, 5, 4, RandomStream(7))
    assert len(out.vertices) in (2, 3)  # whole component of the chosen root


# -- nestedness, determinism -----------------------------------------------------

NESTED_CASES = [
    (SamplerSpec("uniform_vertex"), y4(), 4),
    (SamplerSpec("uniform_vertex"), star_vertex(8), 8),
    (SamplerSpec("degree_biased"), y4(), 4),
    (SamplerSpec("degree_biased"), star_vertex(7), 7),
    (SamplerSpec("sparsified", rho=0.6), complete_vertex(6), 6),
    (SamplerSpec("sequence"), (1, 2, 1, 3, 2, 2, 4, 1), 8),
    (SamplerSpec("partition"), Partition((1, 2, 1, 3, 2, 1, 1, 4)), 8),
    (SamplerSpec("edge"), EdgeSeqGraph(((1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (1, 2))), 6),
    (SamplerSpec("shortest_path"), cycle_vertex(8), 8),
    (SamplerSpec("ego"), star_vertex(6), 6),
]


@pytest.mark.parametrize("spec,y,n", NESTED_CASES,
                         ids=[c[0].algorithm + str(i) for i, c in enumerate(NESTED_CASES)])
def test_nestedness_output_k_is_restriction(spec, y, n):
    sampler = make_sampler(spec)
    for seed in range(25):
        outputs = {k: sampler(y, n, k, RandomStream(seed)) for k in range(1, n + 1)}
        for k in range(1, n):
            assert restrict_output(outputs[k + 1], k) == outputs[k], \
                f"seed {seed}, k {k}"


# A path 1..8 with a hub 9 joined to every vertex: restricting to y|n for
# n <= 8 drops the hub, which changes degrees, balls and hop distances.
_HUB_PATH = VertexGraph(9, frozenset({(i, i + 1) for i in range(1, 8)}
                                     | {(i, 9) for i in range(1, 9)}))
_RESTRICTION_INPUTS = {
    "sequence": (1, 2, 1, 3, 2, 2, 4, 1, 5),
    "partition": Partition((1, 2, 1, 3, 2, 1, 4, 2, 5)),
    "edge": EdgeSeqGraph(((1, 2), (2, 3), (1, 2), (3, 4), (1, 4), (2, 5), (5, 6),
                          (1, 3), (6, 7))),
}
_RESTRICTION_SPECS = {"p_sample": {"p": 0.5}, "sparsified": {"rho": 0.7}}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sampler_sees_input_only_through_its_restriction(algorithm):
    """f(y, n, k, stream) == f(y|n, n, k, stream) for every n below the
    input size 9: replicate loops hand y to the sampler as given and rely
    on it, and the sequence and edge samplers read y itself.  A graph's y|n
    is built here, not by restrict, which returns the cut y keeps, the very
    graph the sampler reads."""
    sampler = make_sampler(SamplerSpec(algorithm, **_RESTRICTION_SPECS.get(algorithm, {})))
    y = _RESTRICTION_INPUTS.get(algorithm, _HUB_PATH)
    for n in range(3, 9):
        y_n = (VertexGraph(n, frozenset(e for e in y.edges if e[1] <= n))
               if y is _HUB_PATH else restrict_output(y, n))
        for k in (1, 2, 3):
            for seed in range(10):
                full = sampler(y, n, k, RandomStream(seed))
                cut = sampler(y_n, n, k, RandomStream(seed))
                assert full == cut, f"n {n}, k {k}, seed {seed}"
                assert key_for(full) == key_for(cut)


def test_nestedness_bs_by_radius():
    c = cycle_vertex(9)
    sampler = make_sampler(SamplerSpec("bs_root"))
    for seed in range(20):
        outputs = {k: sampler(c, 9, k, RandomStream(seed)) for k in range(1, 4)}
        for k in (1, 2):
            assert restrict_output(outputs[k + 1], k) == outputs[k]


def test_mismatched_input_kind_is_type_error():
    rng = RandomStream(0)
    with pytest.raises(TypeError, match="unsupported input type tuple"):
        sample_uniform_vertex((1, 2, 3), 3, 2, rng)
    with pytest.raises(TypeError, match="unsupported input type VertexGraph"):
        sample_sequence(y4(), 4, 2, rng)
    marked = sample_shortest_path(cycle_vertex(6), 6, 3, rng)
    with pytest.raises(TypeError, match="unsupported input type MarkedCompleteGraph"):
        sample_shortest_path(marked, 3, 2, rng)


def test_determinism_identical_bytes():
    spec = SamplerSpec("edge")
    g = EdgeSeqGraph(((1, 2), (1, 3), (2, 3), (1, 4)))
    a = make_sampler(spec)(g, 4, 2, RandomStream(11, 5))
    b = make_sampler(spec)(g, 4, 2, RandomStream(11, 5))
    assert key_for(a) == key_for(b)


def test_sparsified_rho_identity_matches_uniform_distribution():
    # Algorithm with rho == 1 is the plain vertex sampler, pathwise
    spec = SamplerSpec("sparsified", rho=1.0)
    s = make_sampler(spec)
    for seed in range(40):
        assert s(y4(), 4, 2, RandomStream(seed)) == \
            sample_uniform_vertex(y4(), 4, 2, RandomStream(seed))


# -- diagnose_limit ---------------------------------------------------------------------------

def test_diagnose_constant_sequence_tv_zero():
    y = (2,) * 400
    res = diagnose_limit(SamplerSpec("sequence"), y, 3, (50, 100, 200, 400),
                         500, RandomStream(0))
    assert res.verdict == "STABILIZING"
    assert all(tv == 0.0 for tv in res.tv_steps)


def test_diagnose_star_uniform_stabilizes_to_empty():
    star = star_vertex(400)
    res = diagnose_limit(SamplerSpec("uniform_vertex"), star, 2,
                         (50, 100, 200, 400), 4000, RandomStream(1))
    assert res.verdict == "STABILIZING"
    edge = key_for(VertexGraph(2, frozenset({(1, 2)})))
    densities = [t.density(edge) for t in res.tallies]
    assert densities[-1] < densities[0]


def test_diagnose_star_degree_biased_keeps_edges():
    star = star_vertex(400)
    res = diagnose_limit(SamplerSpec("degree_biased"), star, 2,
                         (50, 100, 200, 400), 2000, RandomStream(2))
    edge = key_for(VertexGraph(2, frozenset({(1, 2)})))
    for t in res.tallies:
        assert t.density(edge) >= 0.5
    assert res.verdict == "STABILIZING"


def test_diagnose_detects_drifting_law():
    # frequency of label 1 falls 1 -> 0.5 -> 0.25 -> 0.125 along the schedule
    y = (1,) * 50 + (2,) * 350
    res = diagnose_limit(SamplerSpec("sequence"), y, 1, (50, 100, 200, 400),
                         3000, RandomStream(9))
    assert res.verdict == "NOT_STABILIZING"
    assert res.tv_steps[1] > res.tolerance


def test_diagnose_schedule_validation():
    with pytest.raises(ValueError):
        diagnose_limit(SamplerSpec("sequence"), (1, 2, 3), 1, (2, 8), 10,
                       RandomStream(0))
    with pytest.raises(ValueError):
        diagnose_limit(SamplerSpec("sequence"), (1, 2, 3), 1, (3, 2), 10,
                       RandomStream(0))


# -- refusals ---------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: SamplerSpec("no_such_algo"), "unknown algorithm 'no_such_algo'"),
    (lambda: SamplerSpec("p_sample"), r"p_sample requires p in \[0,1\]"),
    (lambda: SamplerSpec("uniform_vertex", p=0.5), "uniform_vertex takes no p parameter"),
    (lambda: SamplerSpec("sparsified"), "sparsified requires rho"),
    (lambda: SamplerSpec("sparsified", rho=1.5), r"rho must lie in \[0,1\]"),
    (lambda: SamplerSpec("ego", rho=0.5), "ego takes no rho parameter"),
    (lambda: sample_p(y4(), 4, 1.5, RandomStream(0)), r"p must lie in \[0,1\]"),
    (lambda: diagnose_limit(SamplerSpec("uniform_vertex"), y4(), 2, (), 10,
                            RandomStream(0)), "empty schedule"),
    (lambda: diagnose_limit(SamplerSpec("uniform_vertex"), y4(), 2, (4,), 10,
                            RandomStream(0)), "diagnose needs a schedule of at least two sizes"),
    (lambda: diagnose_limit(SamplerSpec("uniform_vertex"), y4(), 2, (0, 4), 10,
                            RandomStream(0)), "schedule sizes must be >= 1"),
    (lambda: diagnose_limit(SamplerSpec("uniform_vertex"), y4(), 2, (2, 4), 10,
                            RandomStream(0), tolerance=math.nan),
     "tolerance must be > 0"),
    (lambda: diagnose_limit(SamplerSpec("uniform_vertex"), y4(), 2, (2, 4), 10,
                            RandomStream(0), tolerance=-1.0),
     "tolerance must be > 0"),
], ids=["unknown_algorithm", "p_sample_without_p", "p_on_other_algorithm",
        "sparsified_without_rho", "rho_above_one", "rho_on_other_algorithm",
        "sample_p_above_one", "empty_schedule", "one_size_schedule",
        "size_zero_schedule", "nan_tolerance", "negative_tolerance"])
def test_sampling_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# -- the algorithm table ------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_algorithm_names_appear_only_in_the_table():
    """Each algorithm's facts live in its _ALGORITHMS row: no other string
    constant in the package equals an algorithm name (a name inside a
    longer message is fine), so no code decides by a name it spells out."""
    stray = []
    for path in sorted((ROOT / "src" / "graphsample").glob("*.py")):
        tree = ast.parse(path.read_text())
        table = {id(node) for top in tree.body
                 if isinstance(top, ast.Assign)
                 and [getattr(t, "id", None) for t in top.targets] == ["_ALGORITHMS"]
                 for node in ast.walk(top.value)}
        stray += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in ALGORITHMS
                  and id(node) not in table]
    assert stray == []


def test_readme_table_is_the_algorithm_table():
    """README's algorithm table lists ALGORITHMS in order, each with the
    kind its row samples."""
    words = {VertexGraph: "vertex graph", tuple: "label sequence",
             Partition: "ordered partition", EdgeSeqGraph: "edge sequence"}
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]*?) +\|", (ROOT / "README.md").read_text(),
                      re.MULTILINE)
    assert rows == [(name, words[row[1]]) for name, row in _ALGORITHMS.items()]
