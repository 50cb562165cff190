import math
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphsample.models import (
    MultiplicitySpec,
    Paintbox,
    StepGraphon,
    all_singletons_seq,
    alternating_seq,
    complete_vertex,
    cycle_vertex,
    graphon_draw,
    graphon_pattern_density,
    half_multiplicity,
    matching_edgeseq,
    misspec_table,
    multigraph_from_multiplicities,
    paintbox_draw,
    sparsified_graphon_draw,
    star_edgeseq,
    star_vertex,
    y4,
)
from graphsample.rng import RandomStream
from graphsample.structures import (
    VertexGraph,
    is_ordered,
    multiplicity_counts,
)

import oracles

TWO_BLOCK = StepGraphon((0.0, 0.5, 1.0), ((0.8, 0.1), (0.1, 0.6)))


def mc_edge_prob(draw_fn, reps, seed=0):
    rng = RandomStream(seed)
    hit = 0
    for r in range(reps):
        g = draw_fn(rng.substream(r))
        hit += len(g.edges)
    return hit / reps


# -- step graphons -------------------------------------------------------------

def test_step_graphon_validation():
    with pytest.raises(ValueError):
        StepGraphon((0.0, 0.5, 1.0), ((0.8, 0.1), (0.2, 0.6)))  # asymmetric
    with pytest.raises(ValueError):
        StepGraphon((0.0, 1.0), ((1.3,),))
    with pytest.raises(ValueError):
        StepGraphon((0.0, 0.5), ((0.5,),))


def test_graphon_block_lookup():
    w, block = TWO_BLOCK.values, TWO_BLOCK.block_of
    assert w[block(0.2)][block(0.7)] == 0.1
    assert w[block(0.9)][block(0.9)] == 0.6


def test_graphon_draw_complete_when_w_one():
    rng = RandomStream(3)
    g = graphon_draw(StepGraphon.constant(1.0), 5, rng)
    assert len(g.edges) == 10


def test_graphon_draw_constant_edge_probability():
    p = mc_edge_prob(lambda r: graphon_draw(StepGraphon.constant(0.3), 2, r), 20000)
    assert abs(p - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 20000)


def test_graphon_draw_two_block_edge_probability():
    p = mc_edge_prob(lambda r: graphon_draw(TWO_BLOCK, 2, r), 20000)
    assert abs(p - 0.4) < 4 * math.sqrt(0.4 * 0.6 / 20000)


def test_graphon_pattern_density_examples():
    edge = VertexGraph(2, frozenset({(1, 2)}))
    tri = complete_vertex(3)
    w = StepGraphon.constant(0.3)
    assert graphon_pattern_density(w, edge) == pytest.approx(0.3)
    assert graphon_pattern_density(w, tri) == pytest.approx(0.3 ** 3)
    assert graphon_pattern_density(TWO_BLOCK, edge) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        graphon_pattern_density(w, complete_vertex(6))


def test_graphon_pattern_density_sums_to_one():
    total = 0.0
    for mask in range(8):
        pairs = [(1, 2), (1, 3), (2, 3)]
        edges = frozenset(p for i, p in enumerate(pairs) if mask & (1 << i))
        total += graphon_pattern_density(TWO_BLOCK, VertexGraph(3, edges))
    assert total == pytest.approx(1.0)


def test_sparsified_examples():
    rng = RandomStream(5)
    w = StepGraphon.constant(0.5)
    assert len(sparsified_graphon_draw(w, 0.0, 6, rng).edges) == 0
    p = mc_edge_prob(lambda r: sparsified_graphon_draw(w, lambda k: 1 / k, 10, r),
                     5000)
    exact = 0.05  # rho(10) * w = 0.5 / 10
    assert abs(p / 45 - exact) < 4 * math.sqrt(exact * (1 - exact) / (5000 * 45))


def test_sparsified_rho_one_matches_graphon_draw():
    for seed in range(20):
        a = graphon_draw(TWO_BLOCK, 6, RandomStream(seed))
        b = sparsified_graphon_draw(TWO_BLOCK, 1.0, 6, RandomStream(seed))
        assert a == b


@pytest.mark.parametrize("build", [
    lambda: sparsified_graphon_draw(TWO_BLOCK, [1.0, 0.5], 3, RandomStream(0)),
    lambda: Paintbox({1: 0.5, 2: 0.5}),
    lambda: MultiplicitySpec({(1, 2): 0.5}),
], ids=["rho_sequence", "paintbox_dict", "multiplicity_dict"])
def test_removed_input_forms_are_rejected(build):
    # rho is a constant or a callable; atoms and targets are pair tuples
    with pytest.raises(TypeError):
        build()


# -- paintboxes ------------------------------------------------------------------

def test_paintbox_validation():
    with pytest.raises(ValueError):
        Paintbox(((1, 0.5),), dust=0.4)
    with pytest.raises(ValueError):
        Paintbox(((1, 0.5), (1, 0.5)))


def test_paintbox_pure_dust_gives_singletons():
    pb = Paintbox((), dust=1.0)
    for seed in range(5):
        out = paintbox_draw(pb, 6, RandomStream(seed))
        assert out.labels == (1, 2, 3, 4, 5, 6)


def test_paintbox_single_atom_gives_one_block():
    pb = Paintbox(((7, 1.0),))
    assert paintbox_draw(pb, 5, RandomStream(1)).labels == (1, 1, 1, 1, 1)


def test_paintbox_two_atoms_same_block_probability():
    pb = Paintbox(((1, 0.5), (2, 0.5)))
    rng = RandomStream(11)
    reps = 20000
    same = sum(paintbox_draw(pb, 2, rng.substream(r)).labels == (1, 1)
               for r in range(reps))
    assert abs(same / reps - 0.5) < 4 * math.sqrt(0.25 / reps)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30)
def test_paintbox_output_always_ordered(k, seed):
    pb = Paintbox(((1, 0.3), (2, 0.2)), dust=0.5)
    paintbox_draw(pb, k, RandomStream(seed))  # Partition validates on build


# atom and dust weights, normalized to masses by _paintbox; zero weights
# give massless atoms, whose running totals tie with the one before
_ATOM_WEIGHTS = st.lists(st.integers(0, 8), min_size=1, max_size=6)
_DUST_WEIGHTS = st.sampled_from((0, 0, 1, 3))


def _paintbox(weights, dust):
    total = sum(weights) + dust
    assume(total > 0)
    return Paintbox(tuple((m, w / total) for m, w in enumerate(weights, start=1)),
                    dust=dust / total)


@settings(max_examples=200, deadline=None)
@given(_ATOM_WEIGHTS, _DUST_WEIGHTS, st.integers(1, 40), st.integers(0, 2**63))
def test_paintbox_draw_matches_linear_scan(weights, dust, k, seed):
    pb = _paintbox(weights, dust)
    expected = oracles.paintbox_draw_linear(pb, k, RandomStream(seed))
    assert paintbox_draw(pb, k, RandomStream(seed)) == expected


@settings(max_examples=200, deadline=None)
@given(_ATOM_WEIGHTS, _DUST_WEIGHTS, st.data())
def test_paintbox_draw_matches_linear_scan_at_exact_running_totals(weights, dust, data):
    """Uniforms equal to a running total of the atom masses, which a seeded
    stream almost never produces, go to the next atom in both."""
    pb = _paintbox(weights, dust)
    totals = [t for t in accumulate(p for _, p in pb.atoms) if t < 1.0]
    edges = st.sampled_from((0.0, *totals, 1 - 2.0 ** -53))
    k = data.draw(st.integers(1, 20))
    us = data.draw(st.lists(st.one_of(edges, st.floats(0, 1, exclude_max=True)),
                            min_size=k, max_size=k))
    expected = oracles.paintbox_draw_linear(pb, k, oracles.Uniforms(us))
    assert paintbox_draw(pb, k, oracles.Uniforms(us)) == expected


def test_paintbox_matches_partition_sampler_on_long_input():
    # no dust: the paintbox law at k = 3 should match subsampling a long
    # sequence carrying the same block frequencies
    from graphsample.estimate import compare, tally_outputs
    from graphsample.sampling import sample_partition
    from graphsample.structures import Partition

    pb = Paintbox(((1, 0.5), (2, 0.5)))
    rng = RandomStream(21)
    reps = 20_000
    t_pb = tally_outputs(lambda y, n, k, r: paintbox_draw(pb, k, r),
                         (0,), 1, 3, reps, rng.substream("pb"))
    y = Partition(tuple(1 if i % 2 == 0 else 2 for i in range(2000)))
    t_sub = tally_outputs(sample_partition, y, 2000, 3, reps,
                          rng.substream("sub"))
    assert compare(t_pb, t_sub)[0] <= 0.02


# -- multiplicity schedules --------------------------------------------------------

def test_multigraph_from_multiplicities_examples():
    spec = MultiplicitySpec((((1, 2), 0.5),))
    assert multigraph_from_multiplicities(spec, 4).edges == \
        ((1, 2), (3, 4), (1, 2), (5, 6))
    full = MultiplicitySpec((((1, 2), 1.0),))
    assert multigraph_from_multiplicities(full, 3).edges == \
        ((1, 2), (1, 2), (1, 2))
    two = MultiplicitySpec((((1, 2), 0.5), ((3, 4), 0.5)))
    assert multigraph_from_multiplicities(two, 2).edges == ((1, 2), (3, 4))


def test_multiplicity_spec_validation():
    with pytest.raises(ValueError):
        MultiplicitySpec((((1, 2), 0.7), ((3, 4), 0.7)))
    with pytest.raises(ValueError):
        MultiplicitySpec((((2, 1), 0.5),))


@given(st.lists(st.floats(min_value=0.05, max_value=0.45), min_size=1, max_size=4),
       st.integers(min_value=5, max_value=120))
@settings(max_examples=40)
def test_multiplicity_deviation_bound(masses, n):
    # normalize to total mass 1 so every output pair is a specified target;
    # sorted count/mass vectors then compare within the 1/n guarantee
    total = sum(masses)
    masses = [m / total for m in masses]
    spec = MultiplicitySpec(tuple(((2 * i + 1, 2 * i + 2), m)
                                  for i, m in enumerate(masses)))
    g = multigraph_from_multiplicities(spec, n)
    counts = sorted(multiplicity_counts(g).values(), reverse=True)
    assert sum(counts) == n
    assert len(counts) <= len(masses)
    counts += [0] * (len(masses) - len(counts))
    for m, c in zip(sorted(masses, reverse=True), counts):
        assert abs(c / n - m) <= 1.0 / n + 1e-9


# -- refusals ---------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: StepGraphon((0.0, 0.5, 0.5, 1.0), ((0.1,) * 3,) * 3),
     "boundaries must be strictly increasing"),
    (lambda: StepGraphon((0.0, 0.5, 1.0), ((0.1, 0.1), (0.1,))),
     "values must be a square matrix"),
    (lambda: StepGraphon((0.0, NAN), ((0.5,),)),
     r"boundaries must run 0 = b0 < \.\.\. < bB = 1"),
    (lambda: StepGraphon((0.0, NAN, 1.0), ((0.5, 0.5), (0.5, 0.5))),
     "boundaries must be strictly increasing"),
    (lambda: sparsified_graphon_draw(TWO_BLOCK, 1.5, 3, RandomStream(0)),
     r"rho\(3\) = 1.5 outside \[0,1\]"),
    (lambda: sparsified_graphon_draw(TWO_BLOCK, 1.0, 0, RandomStream(0)),
     "k must be >= 1"),
    (lambda: Paintbox(((1, -0.5), (2, 1.5))), "masses must be >= 0"),
    (lambda: Paintbox(((1, NAN),)), "masses must be >= 0"),
    (lambda: Paintbox(((1, 0.5), (2, 0.5)), dust=NAN), "masses must be >= 0"),
    (lambda: paintbox_draw(Paintbox(((1, 1.0),)), 0, RandomStream(0)),
     "k must be >= 1"),
    (lambda: MultiplicitySpec((((1, 2), 0.0),)), "target multiplicities must be > 0"),
    (lambda: MultiplicitySpec((((1, 2), NAN),)), "target multiplicities must be > 0"),
    (lambda: MultiplicitySpec((((1, 2), 0.5), ((3, 4), NAN))),
     "target multiplicities must be > 0"),
    (lambda: multigraph_from_multiplicities(MultiplicitySpec((((1, 2), 0.5),)), 0),
     "n must be >= 1"),
    (lambda: star_vertex(1), "star needs n >= 2"),
    (lambda: star_edgeseq(0), "need n >= 1 edges"),
    (lambda: matching_edgeseq(0), "need n >= 1 edges"),
    (lambda: cycle_vertex(2), "cycle needs n >= 3"),
    (lambda: complete_vertex(0), "need n >= 1"),
], ids=["graphon_boundaries_repeat", "graphon_values_not_square",
        "graphon_last_boundary_nan", "graphon_inner_boundary_nan", "rho_above_one",
        "sparsified_k_zero", "paintbox_negative_mass", "paintbox_atom_nan",
        "paintbox_dust_nan", "paintbox_k_zero", "multiplicity_zero_target",
        "multiplicity_nan_target", "multiplicity_nan_second_target",
        "multigraph_n_zero", "star_vertex", "star_edgeseq", "matching_edgeseq",
        "cycle_vertex", "complete_vertex"])
def test_model_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# -- worked examples ----------------------------------------------------------------

def test_make_examples_exact_structures():
    assert y4() == VertexGraph(4, frozenset({(1, 2), (2, 3), (2, 4)}))
    assert star_edgeseq(3).edges == ((1, 2), (1, 3), (1, 4))
    assert matching_edgeseq(3).edges == ((1, 2), (3, 4), (5, 6))
    assert star_vertex(4).edges == frozenset({(1, 2), (1, 3), (1, 4)})
    assert alternating_seq(5) == (1, 2, 1, 2, 1)
    assert all_singletons_seq(4) == (1, 2, 3, 4)
    assert cycle_vertex(3).edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_half_multiplicity_structure():
    g = half_multiplicity(8)
    assert is_ordered(v for e in g.edges for v in e)
    counts = multiplicity_counts(g)
    assert counts[(1, 2)] == 4
    assert sum(1 for c in counts.values() if c == 1) == 4
    with pytest.raises(ValueError):
        half_multiplicity(7)


# -- the misspecification table ------------------------------------------

def test_misspec_table_exact():
    assert misspec_table(20, 3) == misspec_table(20, 3).__class__(1, 1140)
    assert misspec_table(20, 6).denominator == 38760
    assert misspec_table(5, 5) == 1
    with pytest.raises(ValueError):
        misspec_table(3, 4)
