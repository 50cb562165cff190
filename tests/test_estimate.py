import math

import pytest

from graphsample.estimate import (
    PatternTally,
    degree_profile,
    empirical_average,
    endpoint_slot_stats,
    estimate_prefix_density,
    frequency_profile,
    lln_trace,
    multiplicity_profile,
    prefix_density_vector,
    tally_outputs,
)
from graphsample.models import (
    MultiplicitySpec,
    Paintbox,
    half_multiplicity,
    matching_edgeseq,
    multigraph_from_multiplicities,
    paintbox_draw,
    star_edgeseq,
    y4,
)
from graphsample.models import complete_vertex
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec, sample_edges
from graphsample.structures import EdgeSeqGraph, Partition, VertexGraph, key_for

import oracles


# -- pattern tallies ------------------------------------------------------------

def test_tally_counts_and_densities():
    t = PatternTally()
    a, b = key_for((1,)), key_for((2,))
    for _ in range(3):
        t.add(a)
    t.add(b)
    assert t.reps == 4
    assert t.density(a) == 0.75
    assert t.stderr(b) == math.sqrt(0.25 * 0.75 / 4)
    assert t.stderr(key_for((9,))) == 3 / 4  # rule-of-three for unobserved
    assert abs(sum(t.densities().values()) - 1.0) < 1e-15


def test_tally_tv_against_dict_and_tally():
    t = PatternTally()
    t.add(key_for((1,)), times=60)
    t.add(key_for((2,)), times=40)
    assert t.tv({key_for((1,)): 0.5, key_for((2,)): 0.5}) == pytest.approx(0.1)
    u = PatternTally()
    u.add(key_for((1,)), times=100)
    assert t.tv(u) == pytest.approx(0.4)


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

def test_estimate_prefix_density_y4_oracle():
    law = oracles.law_uniform_vertex(y4(), 4, 3)
    mid1 = VertexGraph(3, frozenset({(1, 2), (1, 3)}))
    reps = 30_000
    est, err = estimate_prefix_density(SamplerSpec("uniform_vertex"), y4(), 4,
                                       mid1, reps, RandomStream(0))
    exact = float(law[key_for(mid1)])
    assert exact == 0.25
    assert abs(est - exact) <= 4 * err


def test_estimate_prefix_density_constant_sequence():
    y = (7,) * 50
    est, err = estimate_prefix_density(SamplerSpec("sequence"), y, 50,
                                       (7, 7, 7), 2000, RandomStream(1))
    assert est == 1.0 and err == 0.0


def test_estimate_prefix_density_impossible_pattern():
    star = star_edgeseq(20)
    pattern = EdgeSeqGraph(((1, 2), (3, 4)))
    est, err = estimate_prefix_density(SamplerSpec("edge"), star, 20,
                                       pattern, 2000, RandomStream(2))
    assert est == 0.0
    assert err == 3 / 2000


def test_estimate_prefix_density_size_mismatch():
    with pytest.raises(ValueError):
        estimate_prefix_density(SamplerSpec("uniform_vertex"), y4(), 2,
                                y4(), 10, RandomStream(0))


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
    assert empirical_average(x, f, 1, mode="exact") == pytest.approx(2 / 3)


def test_empirical_average_constant_structure():
    x = (5, 5, 5, 5)
    f = lambda s: 3.25
    assert empirical_average(x, f, 2, mode="exact") == 3.25


def test_empirical_average_triangle_edge_indicator():
    tri = complete_vertex(3)
    f = lambda g: 1.0 if (1, 2) in g.edges else 0.0
    assert empirical_average(tri, f, 2, mode="exact") == 1.0


def test_empirical_average_exact_invariant_under_relabeling():
    from graphsample.invariance import apply_relabeling

    g = VertexGraph(4, frozenset({(1, 2), (2, 3)}))
    f = lambda h: float(len(h.edges))
    base = empirical_average(g, f, 2, mode="exact")
    for perm in [(2, 1, 3, 4), (4, 3, 2, 1), (3, 1, 4, 2)]:
        assert empirical_average(apply_relabeling(g, perm), f, 2,
                                 mode="exact") == base


def test_empirical_average_exact_size_limit():
    with pytest.raises(ValueError):
        empirical_average(tuple(range(1, 9)), lambda s: 1.0, 1, mode="exact")


def test_empirical_average_monte_carlo_close_to_exact():
    x = (1, 2, 1, 1, 2, 1)
    f = lambda s: 1.0 if s[0] == 1 else 0.0
    exact = empirical_average(x, f, 1, mode="exact")
    mc = empirical_average(x, f, 1, mode="monte_carlo", num_perms=20_000,
                           rng=RandomStream(0))
    assert abs(mc - exact) < 0.02


def test_empirical_average_edge_seq_action():
    g = EdgeSeqGraph(((1, 2), (1, 3), (4, 5)))
    shared = key_for(EdgeSeqGraph(((1, 2), (1, 3))))
    f = lambda h: 1.0 if key_for(h) == shared else 0.0
    # 6 ordered pairs of edge positions; (0,1) and (1,0) share a vertex
    assert empirical_average(g, f, 2, mode="exact") == pytest.approx(2 / 6)


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
    assert trace.slope == 0.0


# -- profiles ----------------------------------------------------------------------------

def test_degree_profile_star():
    star = star_edgeseq(800)
    prof = degree_profile(star, (100, 200, 400, 800))
    assert prof.dbar(1) == 0.5
    assert prof.series(1) == (0.5, 0.5, 0.5, 0.5)
    assert prof.dbar(2) == 1 / 1600
    assert abs(prof.pbar - 0.5) < 0.07  # window leaves carry O(n1/n) dust
    assert prof.deltas[0] == 0.5


def test_degree_profile_matching():
    prof = degree_profile(matching_edgeseq(640), (80, 160, 320, 640))
    assert prof.pbar < 0.15
    assert all(v == 1 / 1280 for v in
               [prof.dbar(i) for i in (1, 2)])


def test_degree_profile_repeated_edge():
    g = EdgeSeqGraph(((1, 2),) * 200)
    prof = degree_profile(g, (50, 100, 200))
    assert prof.dbar(1) == 0.5 and prof.dbar(2) == 0.5
    assert prof.pbar == pytest.approx(1.0)


def test_degree_conservation_per_n():
    g = half_multiplicity(64)
    prof = degree_profile(g, (16, 32, 64))
    for i, n in enumerate(prof.schedule):
        total = sum(series[i] for series in prof.profile.series.values())
        assert total == pytest.approx(1.0)  # sum deg = 2n exactly


def test_multiplicity_profile_half():
    g = half_multiplicity(1600)
    prof = multiplicity_profile(g, (200, 400, 800, 1600))
    assert prof.mbar((1, 2)) == 0.5
    assert abs(prof.mubar - 0.5) < 0.07
    assert prof.nus[0] == 0.5


def test_multiplicity_profile_simple_graph_vanishes():
    prof = multiplicity_profile(matching_edgeseq(400), (50, 100, 200, 400))
    assert prof.mubar < 0.15
    assert prof.nus[0] == 1 / 400


def test_multiplicity_profile_two_targets():
    spec = MultiplicitySpec((((1, 2), 0.5), ((3, 4), 0.5)))
    g = multigraph_from_multiplicities(spec, 1000)
    prof = multiplicity_profile(g, (100, 1000))
    assert abs(prof.mubar - 1.0) <= 2 / 1000 + 1e-9
    assert all(abs(v - 0.5) <= 1 / 1000 + 1e-9 for v in prof.nus)


def test_sampled_multiplicities_converge_when_mass_one():
    # mubar = 1 input: sorted output multiplicities track the input's
    spec = MultiplicitySpec((((1, 2), 0.5), ((3, 4), 0.5)))
    y = multigraph_from_multiplicities(spec, 20_000)
    out = sample_edges(y, 20_000, 10_000, RandomStream(77))
    prof = multiplicity_profile(out, (1_000, 10_000))
    assert len(prof.nus) >= 2
    for nu in prof.nus[:2]:
        assert abs(nu - 0.5) <= 0.02


def test_multiplicity_counts_sum_exactly_n():
    g = half_multiplicity(500 * 2)
    prof = multiplicity_profile(g, (250, 1000))
    for i, n in enumerate(prof.schedule):
        assert sum(s[i] for s in prof.profile.series.values()) == pytest.approx(1.0)


def test_frequency_profile_singletons():
    y = tuple(range(1, 8001))
    prof = frequency_profile(y, (100, 1000, 8000))
    assert prof.mass == pytest.approx(100 / 8000)


def test_profile_cauchy_flags():
    star = star_edgeseq(800)
    prof = degree_profile(star, (100, 200, 400, 800))
    assert prof.profile.cauchy[1]  # hub series is constant at 0.5
    assert prof.profile.converged
    bursty = EdgeSeqGraph(((1, 2),) * 10 + ((3, 4), (5, 6)) * 45)
    prof2 = multiplicity_profile(bursty, (10, 100))
    assert not prof2.profile.cauchy[(1, 2)]  # share falls 1.0 -> 0.1


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
