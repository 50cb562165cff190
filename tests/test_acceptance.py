"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as: pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

from graphsample.estimate import (
    empirical_average,
    endpoint_slot_stats,
    frequency_profile,
    lln_trace,
    prefix_density_vector,
    tally_outputs,
)
from graphsample.invariance import test_idempotence, test_involution_invariance
from graphsample.models import (
    Paintbox,
    StepGraphon,
    all_singletons_seq,
    alternating_seq,
    cycle_vertex,
    graphon_draw,
    graphon_pattern_density,
    half_multiplicity,
    matching_edgeseq,
    misspec_table,
    multigraph_from_multiplicities,
    MultiplicitySpec,
    paintbox_draw,
    star_edgeseq,
    star_vertex,
    y4,
)
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec, diagnose_limit, make_sampler
from graphsample.structures import (
    EdgeSeqGraph,
    Partition,
    VertexGraph,
    key_for,
    multiplicity_counts,
)

import oracles

REPS = 100_000

X3 = VertexGraph(3, frozenset({(1, 2), (1, 3)}))       # path, middle label 1
X3_PRIME = VertexGraph(3, frozenset({(1, 3), (2, 3)}))  # path, middle label 3
EDGE2 = VertexGraph(2, frozenset({(1, 2)}))


def report(num, ok, detail):
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def within(est, exact, reps, sigmas=4.0):
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / reps)
    return abs(est - exact) <= sigmas * sigma


# -- 1. y4 under uniform vertex sampling ---------------------------------------

def test_c01_y4_uniform_vertex():
    start = time.monotonic()
    law = oracles.law_uniform_vertex(y4(), 4, 3)
    exact_x3 = law[key_for(X3)]
    exact_x3p = law[key_for(X3_PRIME)]
    tally = tally_outputs(make_sampler(SamplerSpec("uniform_vertex")),
                          y4(), 4, 3, REPS, RandomStream(101))
    elapsed = time.monotonic() - start
    ok = (exact_x3 == Fraction(1, 4) and exact_x3p == Fraction(1, 4)
          and within(tally.density(key_for(X3)), 0.25, REPS)
          and within(tally.density(key_for(X3_PRIME)), 0.25, REPS)
          and elapsed < 5.0)
    report(1, ok, f"oracle P(x3)={exact_x3}, P(x3')={exact_x3p}; MC "
                  f"{tally.density(key_for(X3)):.4f}/{tally.density(key_for(X3_PRIME)):.4f}; "
                  f"{elapsed:.1f}s")


# -- 2. y4 under degree-biased sampling -----------------------------------------

def test_c02_y4_degree_biased():
    start = time.monotonic()
    law = oracles.law_degree_biased(y4(), 4, 3)
    exact_x3 = law[key_for(X3)]
    exact_x3p = law[key_for(X3_PRIME)]
    tally = tally_outputs(make_sampler(SamplerSpec("degree_biased")),
                          y4(), 4, 3, REPS, RandomStream(102))
    elapsed = time.monotonic() - start
    ok = (exact_x3 == Fraction(1, 2) and exact_x3p == Fraction(3, 20)
          and within(tally.density(key_for(X3)), 0.5, REPS)
          and within(tally.density(key_for(X3_PRIME)), 0.15, REPS)
          and elapsed < 5.0)
    report(2, ok, f"oracle P(x3)={exact_x3}, P(x3')={exact_x3p}; MC "
                  f"{tally.density(key_for(X3)):.4f}/{tally.density(key_for(X3_PRIME)):.4f}; "
                  f"{elapsed:.1f}s")


# -- 3. idempotence ---------------------------------------------------------------

def test_c03a_idempotence_uniform_vertex():
    direct = oracles.law_uniform_vertex(y4(), 4, 2)
    rep_structs = oracles.enumerate_uniform_vertex_structures(y4(), 4, 3)
    composed = oracles.law_composed(oracles.law_uniform_vertex(y4(), 4, 3),
                                    oracles.law_uniform_vertex, 3, 2, rep_structs)
    oracle_tv = oracles.law_tv(direct, composed)
    mc = test_idempotence(SamplerSpec("uniform_vertex"), y4(), 4, 3, 2, REPS,
                          RandomStream(103))
    ok = oracle_tv == 0 and mc.passed
    report(3, ok, f"uniform vertex: oracle TV={oracle_tv}, MC verdict "
                  f"{'pass' if mc.passed else 'fail'} (TV={mc.statistic:.4f})")


def test_c03b_idempotence_degree_biased_as_stated():
    """Criterion 3 for degree-biased sampling on y4 at (n, m, k) = (4, 3, 2):
    the sampler is not idempotent. The criterion states 'oracle TV = 0.175
    (4/5 vs 5/8)'; those figures hold for a different composition.

    y4 has a hub of degree 3 and three leaves of degree 1 (total 6).
    - Direct: the edge appears iff the hub is drawn, so
      P(edge) = 3/6 + 3/6 * 3/5 = 4/5.
    - Degree-biased at both stages: the first stage yields the path (hub and
      two leaves) with probability 19/20, and the three edgeless leaves
      otherwise. Degree-biased k=2 on the path (degrees 1, 2, 1) gives
      P(edge | path) = 2/4 + 2/4 * 2/3 = 5/6. Composed P(edge) =
      19/20 * 5/6 = 19/24, so the exact TV is 4/5 - 19/24 = 1/120.
    - The stated 5/8 and TV 7/40 belong to a uniform first stage
      (P(path) = 3/4) followed by a degree-biased second stage:
      3/4 * 5/6 = 5/8. The sampler definition, pinned by criterion 2,
      rules that first stage out.

    The Monte Carlo verdict cannot show the gap at REPS = 1e5: the 4-sigma
    TV threshold is about 4 * sqrt(2/REPS) = 0.018, more than twice 1/120.
    So the run is checked for what it can resolve: each tally's edge density
    against its exact law, and the TV statistic against 1/120."""
    edge = key_for(EDGE2)
    direct = oracles.law_degree_biased(y4(), 4, 2)
    composed = oracles.law_composed(
        oracles.law_degree_biased(y4(), 4, 3), oracles.law_degree_biased, 3, 2,
        oracles.enumerate_degree_biased_structures(y4(), 4, 3))
    oracle_tv = oracles.law_tv(direct, composed)
    uniform_first = oracles.law_composed(
        oracles.law_uniform_vertex(y4(), 4, 3), oracles.law_degree_biased, 3, 2,
        oracles.enumerate_uniform_vertex_structures(y4(), 4, 3))
    uniform_first_tv = oracles.law_tv(direct, uniform_first)

    mc = test_idempotence(SamplerSpec("degree_biased"), y4(), 4, 3, 2, REPS,
                          RandomStream(104))
    p_a, p_b = direct[edge], composed[edge]
    mc_a, mc_b = mc.tally_a.density(edge), mc.tally_b.density(edge)
    # k = 2 has two outcomes, so the TV is |mc_a - mc_b|
    tv_sigma = math.sqrt((p_a * (1 - p_a) + p_b * (1 - p_b)) / REPS)
    ok = (p_a == Fraction(4, 5)
          and p_b == Fraction(19, 24)
          and oracle_tv == Fraction(1, 120)
          and uniform_first[edge] == Fraction(5, 8)
          and uniform_first_tv == Fraction(7, 40)
          and within(mc_a, p_a, REPS)
          and within(mc_b, p_b, REPS)
          and abs(mc.statistic - oracle_tv) <= 4.0 * tv_sigma)
    report(3, ok, f"degree biased: direct={p_a}, composed={p_b}, oracle "
                  f"TV={oracle_tv} (stated 5/8 and 7/40 are the uniform-first-"
                  f"stage {uniform_first[edge]} and {uniform_first_tv}); MC "
                  f"{mc_a:.4f}/{mc_b:.4f}, TV={mc.statistic:.4f}, verdict "
                  f"{'pass' if mc.passed else 'fail'} at threshold "
                  f"{mc.threshold:.4f}")


# -- 4. graphon consistency ----------------------------------------------------------

def _all_patterns(j):
    pairs = [(a, b) for a in range(1, j + 1) for b in range(a + 1, j + 1)]
    for mask in range(2 ** len(pairs)):
        yield VertexGraph(j, frozenset(p for i, p in enumerate(pairs)
                                       if mask & (1 << i)))


def test_c04_graphon_consistency():
    start = time.monotonic()
    graphons = [("constant 0.3", StepGraphon.constant(0.3)),
                ("two-block", StepGraphon((0.0, 0.5, 1.0), ((0.8, 0.1), (0.1, 0.6))))]
    worst = 0.0
    ok = True
    for idx, (name, w) in enumerate(graphons):
        for j in (1, 2, 3):
            tally = tally_outputs(lambda y, n, k, r: graphon_draw(w, k, r),
                                  VertexGraph(1), 1, j, REPS,
                                  RandomStream(105).substream(idx, j))
            for pattern in _all_patterns(j):
                exact = graphon_pattern_density(w, pattern)
                est = tally.density(key_for(pattern))
                worst = max(worst, abs(est - exact))
                if not within(est, exact, REPS) or abs(est - exact) > 0.02:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(4, ok, f"all pattern densities (sizes 1-3, both graphons) within "
                  f"4 sigma; worst |err| = {worst:.4f}; {elapsed:.1f}s")


# -- 5. star input limits --------------------------------------------------------------

def test_c05_star_limits():
    start = time.monotonic()
    star = star_vertex(800)
    schedule = (100, 200, 400, 800)
    reps_u, reps_d = 20_000, 5_000
    res_u = diagnose_limit(SamplerSpec("uniform_vertex"), star, 2, schedule,
                           reps_u, RandomStream(106))
    edge = key_for(EDGE2)
    ok = res_u.verdict == "STABILIZING"
    details = []
    for n, tally in zip(schedule, res_u.tallies):
        p = 2 / n
        bound = p + 4 * math.sqrt(p * (1 - p) / reps_u)
        est = tally.density(edge)
        details.append(f"{est:.4f}<=~{bound:.4f}")
        ok = ok and est <= bound
    res_d = diagnose_limit(SamplerSpec("degree_biased"), star, 2, schedule,
                           reps_d, RandomStream(107))
    for tally in res_d.tallies:
        ok = ok and tally.density(edge) >= 0.5
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(5, ok, f"uniform verdict {res_u.verdict}, edge trace {details}; "
                  f"degree-biased min edge density "
                  f"{min(t.density(edge) for t in res_d.tallies):.3f} >= 0.5; "
                  f"{elapsed:.1f}s")


# -- 6. edge sampling of simple graphs ----------------------------------------------------

def _star_or_isolated_components(g: EdgeSeqGraph) -> bool:
    simple = set(g.edges)
    adj = {}
    for u, v in simple:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = set()
    for v in adj:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comp_edges = {e for e in simple if e[0] in comp}
        # a star (or single edge) has some vertex covering every edge
        if not any(all(c in e for e in comp_edges) for c in comp):
            return False
    return True


def test_c06_edge_sampling_simple_graphs():
    sampler = make_sampler(SamplerSpec("edge"))
    violations = 0
    for idx, y in enumerate((star_edgeseq(200), matching_edgeseq(200))):
        for r in range(500):
            out = sampler(y, 200, 100, RandomStream(108).substream(idx, r))
            if not _star_or_isolated_components(out):
                violations += 1
    big = sampler(star_edgeseq(20_000), 20_000, 10_000, RandomStream(109))
    singleton, repeated = endpoint_slot_stats(big)
    hub_fraction = repeated[0] if repeated else 0.0
    ok = (violations == 0 and abs(hub_fraction - 0.5) <= 0.02
          and abs(singleton - 0.5) <= 0.02)
    report(6, ok, f"star/isolated-edge components: {violations} violations in "
                  f"1000 samples; hub slot fraction {hub_fraction:.4f}, "
                  f"singleton mass {singleton:.4f}")


# -- 7. multigraph multiplicities ------------------------------------------------------------

def test_c07_multigraph_multiplicities():
    y = half_multiplicity(20_000)
    out = make_sampler(SamplerSpec("edge"))(y, 20_000, 10_000, RandomStream(110))
    top = max(multiplicity_counts(out).values()) / 10_000
    spec = MultiplicitySpec((((1, 2), 0.3), ((3, 4), 0.25), ((5, 6), 0.2)))
    g = multigraph_from_multiplicities(spec, 5_000)
    counts = multiplicity_counts(g)
    realized = sorted((c / 5_000 for c in counts.values()), reverse=True)[:3]
    recov_ok = all(abs(r - m) <= 0.02
                   for r, m in zip(realized, (0.3, 0.25, 0.2)))
    ok = abs(top - 0.5) <= 0.02 and recov_ok
    report(7, ok, f"sampled top relative multiplicity {top:.4f} (target 0.5); "
                  f"scheduler recovery {['%.4f' % r for r in realized]} vs "
                  f"(0.3, 0.25, 0.2)")


# -- 8. sequence factorization ------------------------------------------------------------------

def test_c08_sequence_factorization():
    y = alternating_seq(10_000)
    spec = SamplerSpec("sequence")
    t2 = prefix_density_vector(spec, y, 10_000, 2, REPS, RandomStream(111))
    t1 = prefix_density_vector(spec, y, 10_000, 1, REPS, RandomStream(112))
    worst = 0.0
    for a in (1, 2):
        for b in (1, 2):
            gap = abs(t2.density(key_for((a, b)))
                      - t1.density(key_for((a,))) * t1.density(key_for((b,))))
            worst = max(worst, gap)
    ok = worst <= 0.01
    report(8, ok, f"max |t(a,b) - t(a)t(b)| = {worst:.5f} <= 0.01")


# -- 9. partition dust --------------------------------------------------------------------------

def test_c09_partition_dust():
    y = all_singletons_seq(8_000)
    pi = Partition(y)
    tally = prefix_density_vector(SamplerSpec("partition"), pi, 8_000, 3, REPS,
                                  RandomStream(113))
    all_singleton = tally.density(key_for(Partition((1, 2, 3))))
    prof = frequency_profile(y, (100, 1_000, 8_000))
    ok = all_singleton == 1.0 and prof.mass < 0.1
    report(9, ok, f"all-singleton output in {all_singleton:.0%} of {REPS} "
                  f"replicates; sequence-frequency mass {prof.mass:.4f} << 1")


# -- 10. involution invariance ---------------------------------------------------------------------

def test_c10_involution_invariance():
    cyc = test_involution_invariance("uniform", cycle_vertex(50), 50, 2, 2_000,
                                     RandomStream(114))
    hub = test_involution_invariance({1: 1.0}, star_vertex(10), 10, 1, 0,
                                     RandomStream(115), exact=True)
    ok = (cyc.passed and cyc.statistic == 0.0
          and not hub.passed and hub.statistic == 1.0)
    report(10, ok, f"C50 uniform root TV = {cyc.statistic} (exact 0); "
                   f"star hub root exact ball-law TV = {hub.statistic}")


# -- 11. misspecification arithmetic -----------------------------------------------------------------

def test_c11_misspec_arithmetic():
    a = misspec_table(20, 3)
    b = misspec_table(20, 6)
    ok = a == Fraction(1, 1140) and b == Fraction(1, 38760)
    report(11, ok, f"misspec(20,3) = {a}, misspec(20,6) = {b}")


# -- 12. LLN estimator ---------------------------------------------------------------------------------

def test_c12_lln_estimator():
    pb = Paintbox(((1, 0.7), (2, 0.3)))
    y = paintbox_draw(pb, 100_000, RandomStream(116)).labels
    heavy = max(set(y[:100]), key=y.count)
    f = lambda s: 1.0 if s[0] == heavy else 0.0
    trace = lln_trace(SamplerSpec("sequence"), y, 100_000, f, 1,
                      (100, 1_000, 10_000), 8, RandomStream(117))
    final = trace.estimates[-1]

    x7 = y[:7]
    exact = empirical_average(x7, f, 1)
    freq = sum(1 for v in x7 if v == heavy) / 7
    ok = abs(final - 0.7) <= 0.01 and exact == freq
    report(12, ok, f"LLN trace at k=10^4: {final:.4f} (target 0.7 +- 0.01); "
                   f"exact symmetrization at k=7: {exact} == frequency {freq}")
