import ast
import hashlib
import inspect
import itertools
import pickle
import random
import re
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample import estimate, invariance, models, sampling, structures
from graphsample.structures import (
    UNREACHABLE,
    EdgeSeqGraph,
    MarkedCompleteGraph,
    Partition,
    RootedGraph,
    VertexGraph,
    ball,
    canonical_rooted,
    degree_tree,
    degrees,
    induced_ordered,
    is_ordered,
    key_for,
    key_text,
    multiplicity_counts,
    relabel_r,
    relabel_rprime,
    restrict,
    restrict_vertices,
    shortest_path_marks,
    size_of,
    subsample_in_order,
)
from graphsample.estimate import PatternTally, prefix_density_vector
from graphsample.invariance import test_involution_invariance
from graphsample.io import render_rooted, render_tally_csv
from graphsample.models import cycle_vertex, star_vertex, y4
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec

import oracles
from oracles import canonical_rooted_reference, refine_full


# -- construction invariants -------------------------------------------------

def test_vertex_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        VertexGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        VertexGraph(3, frozenset({(2, 4)}))


def test_vertex_graph_normalizes_edge_order():
    g = VertexGraph(3, frozenset({(3, 1)}))
    assert g.edges == frozenset({(1, 3)})


def test_edge_seq_rejects_self_loops_and_unordered_pairs():
    with pytest.raises(ValueError):
        EdgeSeqGraph(((2, 2),))
    with pytest.raises(ValueError):
        EdgeSeqGraph(((3, 2),))


def test_edge_seq_rejects_a_pair_below_one():
    for pair in ((0.5, 2), (0, 2)):
        with pytest.raises(ValueError, match=r"must satisfy 1 <= i < j"):
            EdgeSeqGraph((pair,))


def test_edge_seq_canonical_flag():
    assert is_ordered(v for e in EdgeSeqGraph(((1, 2), (1, 3))).edges for v in e)
    assert not is_ordered(v for e in EdgeSeqGraph(((1, 2), (4, 5))).edges for v in e)


def test_partition_requires_ordered_labels():
    Partition((1, 2, 1, 3))
    with pytest.raises(ValueError):
        Partition((2, 1))


# -- restriction maps ---------------------------------------------------------

def test_restrict_vertices_y4_examples():
    g = y4()
    assert restrict_vertices(g, 3) == VertexGraph(3, frozenset({(1, 2), (2, 3)}))
    assert restrict_vertices(g, 1) == VertexGraph(1, frozenset())
    path = VertexGraph(3, frozenset({(1, 2), (2, 3)}))
    assert restrict_vertices(path, 3) == path
    with pytest.raises(ValueError):
        restrict_vertices(g, 0)
    with pytest.raises(ValueError):
        restrict_vertices(g, 5)


def test_restrict_edges_examples():
    g = EdgeSeqGraph(((1, 2), (1, 3), (4, 5)))
    assert restrict(g, 2).edges == ((1, 2), (1, 3))
    assert restrict(g, 0).edges == ()
    h = EdgeSeqGraph(((1, 2), (3, 4), (1, 5), (6, 7)))
    assert restrict(restrict(h, 3), 1) == restrict(h, 1)
    with pytest.raises(ValueError):
        restrict(g, 4)


_SIZED = {
    "vertex graph": (y4(), 1, 4),
    "edge sequence": (EdgeSeqGraph(((1, 2), (1, 3))), 0, 2),
    "partition": (Partition((1, 2, 1)), 0, 3),
    "marked complete graph": (MarkedCompleteGraph(2, (((1, 2), 1),)), 0, 2),
    "label tuple": ((1, 2, 3), 0, 3),
    "ego list": ([ball(cycle_vertex(6), 1, 1), ball(cycle_vertex(6), 4, 1)], 0, 2),
}


@pytest.mark.parametrize("kind", list(_SIZED))
@pytest.mark.parametrize("side", ["below", "above"])
def test_restrict_refuses_depth_outside_its_kind_range(kind, side):
    x, low, size = _SIZED[kind]
    assert size_of(restrict(x, low)) == low and restrict(x, size) == x
    depth = low - 1 if side == "below" else size + 1
    with pytest.raises(ValueError, match=f"restriction depth {depth} outside {low}..{size}"):
        restrict(x, depth)


def test_restrict_refuses_negative_radius():
    with pytest.raises(ValueError, match="radius must be >= 0"):
        restrict(ball(cycle_vertex(8), 1, 2), -1)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return VertexGraph(n, frozenset(edges))


@given(small_graphs(), st.data())
def test_restriction_functorial(g, data):
    m = data.draw(st.integers(min_value=1, max_value=g.n))
    k = data.draw(st.integers(min_value=1, max_value=m))
    assert restrict_vertices(restrict_vertices(g, m), k) == restrict_vertices(g, k)


# -- balls ---------------------------------------------------------------------

def test_ball_cycle_example():
    rg = ball(cycle_vertex(6), 1, 1)
    assert rg.vertices == frozenset({6, 1, 2})
    assert rg.edges == frozenset({(1, 2), (1, 6)})
    assert rg.root == 1


def test_ball_radius_zero_and_star_leaf():
    g = star_vertex(5)
    rg = ball(g, 3, 0)
    assert rg.vertices == frozenset({3}) and rg.edges == frozenset()
    leaf = ball(g, 2, 1)
    assert leaf.vertices == frozenset({1, 2})
    assert leaf.edges == frozenset({(1, 2)})
    assert leaf.root == 2


def test_ball_bad_center():
    with pytest.raises(ValueError):
        ball(y4(), 9, 1)


def _hops_by_edge_scan(g, center, r):
    """Reference hop distances up to r: BFS layer by layer over the edge set."""
    dist = {center: 0}
    for d in range(r):
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if dist.get(a) == d and b not in dist:
                    dist[b] = d + 1
    return dist


def _ball_by_edge_scan(g, center, r):
    """Reference ball on the vertices _hops_by_edge_scan reaches."""
    verts = frozenset(_hops_by_edge_scan(g, center, r))
    return RootedGraph.from_edges(verts, frozenset(e for e in g.edges if set(e) <= verts), center)


@pytest.mark.parametrize("g, center, r", [
    (cycle_vertex(20), 1, 2),                  # sparse: a 5-vertex ball
    (VertexGraph(8, frozenset(itertools.combinations(range(1, 9), 2))), 3, 1),
    (VertexGraph(9, frozenset(itertools.combinations(range(1, 9), 2))
                 | {(8, 9)}), 9, 1),           # dense graph, small ball at its pendant
])
def test_ball_same_through_adjacency_and_edge_scan(g, center, r):
    assert ball(g, center, r) == _ball_by_edge_scan(g, center, r)


@given(small_graphs(), st.data())
def test_ball_matches_edge_scan_reference(g, data):
    center = data.draw(st.integers(1, g.n))
    r = data.draw(st.integers(0, 3))
    b = ball(g, center, r)
    assert b == _ball_by_edge_scan(g, center, r)
    # a ball and the same graph built from its edges agree on every reading
    f = RootedGraph.from_edges(b.vertices, b.edges, b.root)
    assert hash(b) == hash(f) and repr(b) == repr(f) and b.dist == f.dist
    assert key_for(b) == key_for(f)
    assert render_rooted(b) == render_rooted(f)
    for d in range(r + 1):
        assert restrict(b, d) == restrict(f, d)
    for rg in (b, f):
        for name in ("root", "place"):
            with pytest.raises(AttributeError):
                setattr(rg, name, None)


def test_restrict_rooted_shrinks_radius():
    rg = ball(cycle_vertex(8), 1, 2)
    inner = restrict(rg, 1)
    assert inner == ball(cycle_vertex(8), 1, 1)


def test_rooted_graph_invariants():
    with pytest.raises(ValueError):  # root outside vertex set
        RootedGraph.from_edges(frozenset({1, 2}), frozenset({(1, 2)}), 3)
    with pytest.raises(ValueError):  # disconnected
        RootedGraph.from_edges(frozenset({1, 2, 3}), frozenset({(1, 2)}), 1)


def test_rooted_graph_checks_in_order():
    assert RootedGraph.from_edges({1, 2, 3}, {(2, 1), (3, 2)}, 2).edges == frozenset({(1, 2), (2, 3)})
    with pytest.raises(ValueError, match="^self-loop at vertex 2$"):  # before the root
        RootedGraph.from_edges({1, 2}, {(1, 2), (2, 2)}, 3)
    with pytest.raises(ValueError, match="^root must be a vertex$"):  # before endpoints
        RootedGraph.from_edges({1, 2}, {(5, 1)}, 3)
    with pytest.raises(ValueError, match=r"^edge \(1,5\) has endpoint outside vertex set$"):
        RootedGraph.from_edges({1, 2}, {(2, 1), (5, 1)}, 1)
    with pytest.raises(ValueError, match="^rooted graph must be connected$"):
        RootedGraph.from_edges({1, 2, 3, 4}, {(1, 2), (4, 3)}, 1)


# -- relabeling maps -----------------------------------------------------------

def test_relabel_r_examples():
    assert relabel_r((5, 9, 5, 2)) == (1, 2, 1, 3)
    assert relabel_r((1, 2, 3)) == (1, 2, 3)
    assert relabel_r(()) == ()


@given(st.lists(st.integers(min_value=1, max_value=8), max_size=12))
def test_relabel_r_idempotent_and_pattern_preserving(xs):
    out = relabel_r(xs)
    assert relabel_r(out) == out
    assert is_ordered(out)
    for a in range(len(xs)):
        for b in range(len(xs)):
            assert (xs[a] == xs[b]) == (out[a] == out[b])


def test_relabel_rprime_examples():
    assert relabel_rprime(((7, 3), (3, 9))).edges == ((1, 2), (2, 3))
    assert relabel_rprime(((2, 1),)).edges == ((1, 2),)
    assert relabel_rprime(((1, 2), (3, 4))).edges == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        relabel_rprime(((2, 2),))


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
    lambda p: p[0] != p[1]), max_size=8))
def test_relabel_rprime_canonical_and_idempotent(pairs):
    out = relabel_rprime(tuple(pairs))
    assert is_ordered(v for e in out.edges for v in e)
    assert relabel_rprime(out.edges) == out


def test_is_ordered_examples():
    assert is_ordered((1, 2, 1, 3))
    assert not is_ordered((2, 1))
    assert is_ordered(())


def test_degrees_and_multiplicity_examples():
    assert degrees(y4()) == (1, 3, 1, 1)
    assert degrees(VertexGraph(3, frozenset())) == (0, 0, 0)
    g = EdgeSeqGraph(((1, 2), (1, 2), (1, 3)))
    assert multiplicity_counts(g) == {(1, 2): 2, (1, 3): 1}


# -- memoised derived data -------------------------------------------------------

_CHORDED = VertexGraph(7, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                                     (1, 7), (2, 6), (3, 7)}))


def test_memoised_graph_equals_fresh_copy():
    g = VertexGraph(_CHORDED.n, _CHORDED.edges)
    fresh = VertexGraph(_CHORDED.n, _CHORDED.edges)
    adj, deg, tree = g.adjacency(), degrees(g), degree_tree(g)
    assert g.adjacency() is adj and degrees(g) is deg and degree_tree(g) is tree
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert all(isinstance(nbrs, tuple) for nbrs in adj.values())
    assert {v: sorted(nbrs) for v, nbrs in adj.items()} == {
        1: [2, 7], 2: [1, 3, 6], 3: [2, 4, 7], 4: [3, 5], 5: [4, 6], 6: [2, 5, 7],
        7: [1, 3, 6]}
    assert deg == tuple(len(adj[v]) for v in range(1, 8)) == (2, 3, 3, 2, 2, 3, 3)
    # entry 0 is the total, entry i sums deg over i - lowbit(i) + 1 .. i
    assert tree == (18, 2, 5, 3, 10, 2, 5, 3)


def test_restriction_does_not_inherit_parent_memo():
    g = VertexGraph(_CHORDED.n, _CHORDED.edges)
    g.adjacency(), degrees(g)
    sub = restrict_vertices(g, 5)
    fresh = VertexGraph(5, frozenset(e for e in _CHORDED.edges if e[1] <= 5))
    assert sub.adjacency() == fresh.adjacency()
    assert degrees(sub) == degrees(fresh) == (1, 2, 2, 2, 1)
    assert set(sub.adjacency()) == {1, 2, 3, 4, 5}


def test_graph_keeps_its_last_restriction_in_one_slot():
    g = VertexGraph(_CHORDED.n, _CHORDED.edges)
    fresh = VertexGraph(_CHORDED.n, _CHORDED.edges)
    sub = restrict_vertices(g, 5)
    assert restrict_vertices(g, 5) is sub
    other = restrict_vertices(g, 4)
    assert other is not sub
    assert other == VertexGraph(4, frozenset(e for e in _CHORDED.edges if e[1] <= 4))
    assert restrict_vertices(g, 4) is other and restrict_vertices(g, 5) is not sub
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


# -- rooted graphs keep their adjacency and depth map ------------------------------

@given(small_graphs(), st.data())
def test_restricted_ball_is_the_smaller_ball(g, data):
    center = data.draw(st.integers(1, g.n))
    big = data.draw(st.integers(0, 3))
    r = data.draw(st.integers(0, big))
    assert restrict(ball(g, center, big), r) == ball(g, center, r)


@given(small_graphs(), st.data())
def test_depths_are_hop_distances(g, data):
    center = data.draw(st.integers(1, g.n))
    r = data.draw(st.integers(0, 3))
    assert ball(g, center, r).dist == _hops_by_edge_scan(g, center, r)


def test_rooted_graph_index_is_outside_its_fields():
    rg = ball(_CHORDED, 1, 2)
    adj, depths = rg.adjacency(), rg.dist
    fresh = RootedGraph.from_edges(rg.vertices, rg.edges, rg.root)
    assert rg.adjacency() is adj
    assert rg == fresh and hash(rg) == hash(fresh) and repr(rg) == repr(fresh)
    assert all(isinstance(nbrs, tuple) for nbrs in adj.values())
    assert {v: sorted(nbrs) for v, nbrs in adj.items()} == {
        1: [2, 7], 2: [1, 3, 6], 3: [2, 7], 6: [2, 7], 7: [1, 3, 6]}
    assert depths == {1: 0, 2: 1, 7: 1, 3: 2, 6: 2}


def test_ball_is_built_from_the_bfs_that_found_it(monkeypatch):
    calls = []

    def counted(adj, source, limit=UNREACHABLE):
        calls.append(source)
        return bfs(adj, source, limit)

    bfs = structures._bfs_distances
    monkeypatch.setattr(structures, "_bfs_distances", counted)
    rg = ball(_CHORDED, 1, 2)
    assert calls == [1]
    small = restrict(rg, 1)
    assert calls == [1]
    assert small.dist == {1: 0, 2: 1, 7: 1}
    assert {v: sorted(nbrs) for v, nbrs in small.adjacency().items()} == {
        1: [2, 7], 2: [1], 7: [1]}
    assert small == RootedGraph.from_edges(small.vertices, small.edges, small.root)


def test_ball_key_memo_hit_builds_only_the_bfs(monkeypatch):
    g = VertexGraph(_CHORDED.n, _CHORDED.edges)
    key_for(ball(g, 2, 2))
    calls = []

    def counted(adj, source, limit=UNREACHABLE):
        calls.append(source)
        return bfs(adj, source, limit)

    bfs = structures._bfs_distances
    monkeypatch.setattr(structures, "_bfs_distances", counted)
    b = ball(g, 2, 2)
    assert key_for(b) is g.__dict__["_ball_keys"][(2, 2)]
    assert "_adjacency" not in b.__dict__
    assert calls == [2]


@st.composite
def rooted_balls(draw, n):
    """Balls at vertex 1 of a graph on n vertices, vertex 1 joined to a
    drawn number of others."""
    hub = draw(st.integers(0, n - 1))
    pairs = list(itertools.combinations(range(2, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {(1, v) for v in range(2, hub + 2)} | {p for p, k in zip(pairs, keep) if k}
    return ball(VertexGraph(n, frozenset(edges)), 1, draw(st.integers(1, 3)))


@st.composite
def ball_pairs(draw, max_n):
    """Two balls of graphs on the same number of vertices (often isomorphic
    when it is small), or a ball and one of its variants."""
    n = draw(st.integers(1, max_n))
    a = draw(rooted_balls(n))
    how = draw(st.sampled_from(("independent", "relabeled", "moved")))
    if how == "independent":
        return a, draw(rooted_balls(n))
    rnd = draw(st.randoms(use_true_random=False))
    return a, _relabeled(a, rnd) if how == "relabeled" else _moved_edge(a, rnd)


@st.composite
def sparse_balls(draw):
    """Radius-2 balls of sparse random graphs (mean degree 3 to 6), the
    shape whose layers are too large for any layer-permutation search."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(20, 80))
    p = draw(st.floats(3.0, 6.0)) / (n - 1)
    edges = {(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
             if rnd.random() < p}
    return ball(VertexGraph(n, frozenset(edges)), 1, 2)


def _relabeled(rg, rnd):
    """rg with its vertices renamed by a random injection into 1..2**40."""
    name = dict(zip(rg.vertices, rnd.sample(range(1, 2 ** 40), len(rg.vertices))))
    return RootedGraph.from_edges(frozenset(name.values()),
                       frozenset((name[u], name[v]) for u, v in rg.edges), name[rg.root])


def _moved_edge(rg, rnd):
    """rg with one edge moved onto a vertex pair it lacked, when that keeps
    it connected; else rg itself."""
    absent = [p for p in itertools.combinations(sorted(rg.vertices), 2)
              if p not in rg.edges]
    if not rg.edges or not absent:
        return rg
    edges = (rg.edges - {rnd.choice(sorted(rg.edges))}) | {rnd.choice(absent)}
    try:
        return RootedGraph.from_edges(rg.vertices, edges, rg.root)
    except ValueError:  # the move disconnected it
        return rg


def _nx_isomorphic(nx, a, b):
    """networkx's verdict on a root-preserving isomorphism between a and b."""
    def graph(rg):
        g = nx.Graph()
        g.add_nodes_from((v, {"root": v == rg.root}) for v in rg.vertices)
        g.add_edges_from(rg.edges)
        return g
    return nx.is_isomorphic(graph(a), graph(b),
                            node_match=lambda x, y: x["root"] == y["root"])


@st.composite
def keyed_graphs(draw):
    """A graph on up to 10 vertices, possibly disconnected, and a key of
    0..2 for each vertex."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    keys = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return VertexGraph(n, frozenset(edges)), dict(zip(range(1, n + 1), keys))


def _assert_partition(colouring):
    """Each cell lists exactly the vertices of its colour, in the order the
    colour map lists them."""
    listed = {}
    for v, c in colouring.colour.items():
        listed.setdefault(c, []).append(v)
    assert colouring.cells == listed


@settings(max_examples=200, deadline=None)
@given(keyed_graphs(), st.data())
def test_refine_matches_full_refinement(graph_keys, data):
    """The incremental refinement gives the colour map of the full rescan,
    from a key colouring and after a vertex of the stable colouring it
    reaches is individualized."""
    g, keys = graph_keys
    adj = g.adjacency()
    start = structures._cells(keys)
    want = refine_full(adj, dict(start.colour))
    stable = structures._refine(adj, start)
    assert stable.colour == want
    _assert_partition(stable)
    v = data.draw(st.integers(1, g.n))
    child = structures._recolour(stable, stable.cells[stable.colour[v]], (v,))
    assert stable.colour == want  # _recolour leaves its input as it was
    want = refine_full(adj, dict(child.colour))
    child = structures._refine(adj, child)
    assert child.colour == want
    _assert_partition(child)


# Balls of up to 8 vertices have at most 7! layer permutations, few enough
# for the brute-force reference form.
@settings(max_examples=150, deadline=None)
@given(ball_pairs(8))
def test_canonical_rooted_matches_reference(pair):
    a, b = pair
    assert (canonical_rooted(a) == canonical_rooted(b)) == (
        canonical_rooted_reference(a) == canonical_rooted_reference(b))


def test_canonical_rooted_matches_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=150, deadline=None)
    @given(ball_pairs(14))
    def agree(pair):
        a, b = pair
        assert (key_for(a) == key_for(b)) == _nx_isomorphic(nx, a, b)

    agree()


_TWO_LAYERS_OF_FIVE = VertexGraph(11, frozenset(
    [(1, v) for v in range(2, 7)] + [(v, v + 5) for v in range(2, 7)]
    + [(2, 3), (7, 8), (8, 9), (10, 11)]))
_ROOT_AND_EIGHT = VertexGraph(9, frozenset(
    [(1, v) for v in range(2, 10)] + [(2, 3), (3, 4), (5, 6), (7, 8)]))


@pytest.mark.parametrize("rg", [
    ball(star_vertex(10), 1, 1),               # layers 1 + 9
    ball(star_vertex(10), 2, 2),               # layers 1 + 1 + 8
    ball(_TWO_LAYERS_OF_FIVE, 1, 2),           # layers 1 + 5 + 5
    ball(_ROOT_AND_EIGHT, 1, 1),               # layers 1 + 8
    ball(_TWO_LAYERS_OF_FIVE, 2, 1),
    ball(cycle_vertex(12), 1, 3),
])
def test_canonical_rooted_matches_reference_examples(rg):
    """Balls whose layers are too large for the brute-force form.
    Relabelings keep the key, and a variant with one edge moved has the
    same key exactly when networkx finds it isomorphic to the ball with the
    root matched (checked where networkx is installed)."""
    rnd = random.Random(7)
    assert {key_for(_relabeled(rg, rnd)) for _ in range(50)} == {key_for(rg)}
    nx = pytest.importorskip("networkx")
    for _ in range(30):
        variant = _moved_edge(rg, rnd)
        assert (key_for(variant) == key_for(rg)) == _nx_isomorphic(nx, rg, variant)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 12).flatmap(rooted_balls), sparse_balls()),
       st.randoms(use_true_random=False))
def test_canonical_rooted_invariant_under_random_relabeling(rg, rnd):
    assert canonical_rooted(_relabeled(rg, rnd)) == canonical_rooted(rg)


def test_root_with_eight_neighbours_has_one_key():
    rg = ball(_ROOT_AND_EIGHT, 1, 1)
    rnd = random.Random(1)
    assert len({key_for(_relabeled(rg, rnd)) for _ in range(200)}) == 1


def _legs_over_cycles(lengths):
    """Root 1 joined to x_1..x_k, each x_i to its own y_i, and the y_i
    forming disjoint cycles of the given lengths.  Colour refinement cannot
    tell these balls apart for one k; two are isomorphic exactly when their
    cycle lengths agree as multisets."""
    k = sum(lengths)
    edges = [(1, 1 + i) for i in range(1, k + 1)] + [(1 + i, 1 + k + i) for i in range(1, k + 1)]
    first = 2 + k
    for length in lengths:
        cycle = list(range(first, first + length))
        edges += [(cycle[j - 1], cycle[j]) for j in range(length)]
        first += length
    return ball(VertexGraph(2 * k + 1, frozenset(edges)), 1, 2)


_CYCLE_LENGTHS_12 = [(12,), (9, 3), (8, 4), (7, 5), (6, 6), (6, 3, 3), (5, 4, 3), (4, 4, 4),
                     (3, 3, 3, 3)]


def test_canonical_rooted_separates_what_refinement_cannot():
    rnd = random.Random(3)
    keys = []
    for lengths in _CYCLE_LENGTHS_12:
        rg = _legs_over_cycles(lengths)
        relabeled = {key_for(_relabeled(rg, rnd)) for _ in range(20)}
        assert relabeled == {key_for(rg)}, lengths
        keys.append(key_for(rg))
    assert len(set(keys)) == len(_CYCLE_LENGTHS_12)


# Two cubic graphs on six vertices: K_{3,3} and the triangular prism.
_K33 = [(a, b) for a in range(3) for b in range(3, 6)]
_PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def _two_branches(first, second):
    """Root 1 joined to x_1 = 2 and x_2 = 3; each x_i joined to all six
    vertices of its own cubic graph.  After either x_i is individualized,
    refinement gives the same cell sizes, so only the graphs themselves
    tell whether the two branches are interchangeable."""
    edges = [(1, 2), (1, 3)]
    for x, cubic in ((2, first), (3, second)):
        base = 4 + 6 * (x - 2)
        edges += [(x, base + i) for i in range(6)] + [(base + a, base + b) for a, b in cubic]
    return ball(VertexGraph(15, frozenset(edges)), 1, 2)


def test_canonical_rooted_branches_with_equal_cells():
    rnd = random.Random(5)
    keys = {}
    for name, pair in (("same", (_K33, _K33)), ("mixed", (_K33, _PRISM)),
                       ("swapped", (_PRISM, _K33)), ("prisms", (_PRISM, _PRISM))):
        rg = _two_branches(*pair)
        assert {key_for(_relabeled(rg, rnd)) for _ in range(30)} == {key_for(rg)}, name
        keys[name] = key_for(rg)
    assert keys["mixed"] == keys["swapped"]
    assert len(set(keys.values())) == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CYCLE_LENGTHS_12), st.sampled_from(_CYCLE_LENGTHS_12),
       st.randoms(use_true_random=False))
def test_canonical_rooted_equal_iff_cycle_lengths_agree(a, b, rnd):
    """Shuffled cycle orders and random vertex names, against the known
    isomorphism classes."""
    rg_a = _relabeled(_legs_over_cycles(rnd.sample(a, len(a))), rnd)
    rg_b = _relabeled(_legs_over_cycles(rnd.sample(b, len(b))), rnd)
    assert (key_for(rg_a) == key_for(rg_b)) == (sorted(a) == sorted(b))


def _spider(legs):
    """Root 1 joined to a_i = 1 + i, each a_i to its own b_i = 1 + legs + i."""
    return VertexGraph(2 * legs + 1, frozenset(
        [(1, 1 + i) for i in range(1, legs + 1)]
        + [(1 + i, 1 + legs + i) for i in range(1, legs + 1)]))


def _windmill(blades):
    """Root 1 joined to both ends of blades disjoint edges (2i, 2i + 1)."""
    return VertexGraph(2 * blades + 1, frozenset(itertools.chain.from_iterable(
        ((1, 2 * i), (1, 2 * i + 1), (2 * i, 2 * i + 1)) for i in range(1, blades + 1))))


def _kneser(n, k):
    """Kneser graph K(n, k): the k-subsets of {0..n-1}, in combinations
    order, are vertices 1.., joined when disjoint."""
    subsets = [set(s) for s in itertools.combinations(range(n), k)]
    return VertexGraph(len(subsets), frozenset(
        (a + 1, b + 1) for a, b in itertools.combinations(range(len(subsets)), 2)
        if not subsets[a] & subsets[b]))


def _hypercube(d):
    """Hypercube Q_d: vertex i + 1 for i in 0..2**d - 1, joined when the
    two differ in one bit."""
    return VertexGraph(2 ** d, frozenset(
        (i + 1, (i | 1 << b) + 1) for i in range(2 ** d) for b in range(d) if not i >> b & 1))


# A spider or windmill of L legs descends L levels to its first leaf; each
# node above then refines one more child, which matches the first child's
# cells by an automorphism.  Leaf automorphisms alone cost L(L+1)/2 calls.
# The Kneser and hypercube balls need both the leaf automorphisms and the
# jump back to the node where two equal leaves part: without the jump they
# take 49 and 33 calls, without the automorphisms 80 and 34, without
# either 464 and 33.
@pytest.mark.parametrize("rg, bound", [
    (ball(star_vertex(2000), 1, 1), 3),        # 1999 twin leaves: no branching
    (ball(_spider(10), 1, 2), 20),             # 10! leaves without pruning
    (ball(_spider(200), 1, 2), 400),
    (ball(_windmill(200), 1, 1), 402),
    (ball(_kneser(8, 3), 1, 2), 27),
    (ball(_hypercube(6), 1, 3), 20),
    (ball(cycle_vertex(50), 1, 2), 3),         # a 5-vertex path
])
def test_canonical_rooted_search_stays_small(rg, bound, monkeypatch):
    calls = []
    refine = structures._refine

    def counted(adj, colour):
        calls.append(1)
        assert len(calls) <= bound, "refinement calls exceed the bound"
        return refine(adj, colour)

    monkeypatch.setattr(structures, "_refine", counted)
    size, edges = canonical_rooted(rg)
    assert size == len(rg.vertices) and len(edges) == len(rg.edges)


def _random_regular(n, d, seed):
    """A d-regular simple graph on 1..n drawn with stdlib random: the
    circulant joining i to i+1..i+d/2 (mod n), mixed by 10|E| double-edge
    swaps that keep it simple."""
    rnd = random.Random(seed)
    edges = [(i, (i + s) % n) for i in range(n) for s in range(1, d // 2 + 1)]
    present = {frozenset(e) for e in edges}
    swaps = 0
    while swaps < 10 * len(edges):
        i, j = rnd.randrange(len(edges)), rnd.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        new1, new2 = frozenset((a, e)), frozenset((c, b))
        if len({a, b, c, e}) < 4 or new1 in present or new2 in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, e))}
        present |= {new1, new2}
        edges[i], edges[j] = (a, e), (c, b)
        swaps += 1
    return VertexGraph(n, frozenset((u + 1, v + 1) for u, v in edges))


# SHA-256 over the keys of every radius-1 and radius-2 ball of a 6-regular
# 400-vertex graph, then of the K(8,3) radius-2, Q6 radius-3 and 40-leg
# spider balls, recorded before refinement re-sorted only the cells next to
# a recoloured vertex.
_LARGE_BALL_FORMS = "a3aa3366d9a19a407f4ec00b5fc63e7e0c178c60bf42306a1bd065bf135d9156"


def test_canonical_forms_of_larger_balls_pinned():
    g = _random_regular(400, 6, 2024)
    balls = [ball(g, v, r) for r in (1, 2) for v in range(1, g.n + 1)]
    balls += [ball(_kneser(8, 3), 1, 2), ball(_hypercube(6), 1, 3), ball(_spider(40), 1, 2)]
    digest = hashlib.sha256(b"".join(key_for(b).partition(b":")[2] for b in balls)).hexdigest()
    assert digest == _LARGE_BALL_FORMS


def test_canonical_rooted_search_depth_is_not_bounded_by_recursion():
    """The first descent into a 40-leg spider individualizes one leg per
    level, 39 levels deep; the search keeps its open nodes on a list, so a
    recursion limit of 20 frames above the caller is no obstacle."""
    rg = ball(_spider(40), 1, 2)
    rnd = random.Random(11)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        form = canonical_rooted(rg)
    finally:
        sys.setrecursionlimit(limit)
    assert form == canonical_rooted(_relabeled(rg, rnd))
    assert form[0] == 81 and len(form[1]) == 80


# -- shortest paths --------------------------------------------------------------

def test_shortest_path_marks_examples():
    c10 = cycle_vertex(10)
    m = shortest_path_marks(c10, (1, 6))
    assert dict(m.marks)[(1, 2)] == 5
    m2 = shortest_path_marks(y4(), (1, 2))
    assert dict(m2.marks)[(1, 2)] == 1
    iso = VertexGraph(4, frozenset({(1, 2)}))
    m3 = shortest_path_marks(iso, (3, 4))
    assert dict(m3.marks)[(1, 2)] == UNREACHABLE
    with pytest.raises(ValueError):
        shortest_path_marks(c10, (1, 1))


@given(small_graphs(), st.data())
def test_marked_relabeling_is_choosing_in_that_order(g, data):
    chosen = data.draw(st.permutations(range(1, g.n + 1)))
    chosen = chosen[:data.draw(st.integers(0, g.n))]
    pos = data.draw(st.permutations(range(1, len(chosen) + 1)))
    pos = pos[:data.draw(st.integers(0, len(chosen)))]
    assert (subsample_in_order(shortest_path_marks(g, chosen), pos)
            == shortest_path_marks(g, [chosen[p - 1] for p in pos]))


@given(small_graphs(), st.data())
def test_ego_list_relabeling_permutes_its_balls(g, data):
    roots = data.draw(st.permutations(range(1, g.n + 1)))
    balls = [ball(g, v, 1) for v in roots]
    pos = data.draw(st.permutations(range(1, g.n + 1)))
    assert size_of(balls) == g.n
    assert subsample_in_order(balls, pos) == [ball(g, roots[p - 1], 1) for p in pos]


def test_marked_complete_graph_requires_full_cover():
    with pytest.raises(ValueError):
        MarkedCompleteGraph(3, (((1, 2), 1),))
    with pytest.raises(ValueError):
        MarkedCompleteGraph(2, (((1, 2), 0),))


# -- canonical keys ---------------------------------------------------------------

def test_key_equality_iff_structural_equality():
    a = VertexGraph(3, frozenset({(1, 2)}))
    b = VertexGraph(3, frozenset({(1, 2)}))
    c = VertexGraph(3, frozenset({(2, 3)}))
    assert key_for(a) == key_for(b)
    assert key_for(a) != key_for(c)
    # same content, different kinds must not collide
    assert key_for((1, 2)) != key_for(Partition((1, 2)))


@given(st.lists(st.integers(1, 5), min_size=0, max_size=8),
       st.lists(st.integers(1, 5), min_size=0, max_size=8))
def test_key_injective_on_sequences(xs, ys):
    assert (key_for(tuple(xs)) == key_for(tuple(ys))) == (tuple(xs) == tuple(ys))


def test_canonical_rooted_cycle_balls_agree():
    c = cycle_vertex(50)
    keys = {key_for(ball(c, v, 2)) for v in range(1, 51)}
    assert len(keys) == 1


def test_canonical_rooted_star_centers_differ():
    s = star_vertex(10)
    hub = key_for(ball(s, 1, 1))
    leaf = key_for(ball(s, 2, 1))
    assert hub != leaf
    assert len({key_for(ball(s, v, 1)) for v in range(2, 11)}) == 1


def test_canonical_rooted_invariant_under_relabeling():
    # path rooted at middle, two labelings
    a = ball(VertexGraph(5, frozenset({(1, 2), (2, 3)})), 2, 1)
    b = ball(VertexGraph(5, frozenset({(3, 4), (4, 5)})), 4, 1)
    assert canonical_rooted(a) == canonical_rooted(b)
    assert key_for(a) == key_for(b)


_INT32 = st.integers(-2 ** 31 + 1, 2 ** 31 - 1)
_ANY_INT = st.one_of(_INT32, st.integers(-2 ** 70, 2 ** 70),
                     st.sampled_from([-2 ** 31, -2 ** 31 - 1, 2 ** 31, 2 ** 63]))


@given(st.lists(_INT32, max_size=8))
def test_key_packing_keeps_32_bit_words(xs):
    # every int with a 32-bit word of its own keeps the plain 32-bit packing
    assert key_for(tuple(xs)).partition(b":")[2] == struct.pack(f">{len(xs) + 1}i", len(xs), *xs)


def test_key_packing_escapes_ints_without_a_word():
    # bytes 80 00 00 00 across a word boundary are no escape
    assert key_for((128, 0)).partition(b":")[2].hex() == "000000020000008000000000"
    assert key_for((2 ** 31,)).partition(b":")[2].hex() == "000000018000000000000005" "0080000000"
    assert key_for((-2 ** 31,)).partition(b":")[2].hex() == "000000018000000000000005" "ff80000000"
    assert key_for((2 ** 63, 1)).partition(b":")[2].hex() == (
        "00000002" "80000000" "00000009" "008000000000000000" "00000001")


@given(st.lists(_ANY_INT, max_size=6), st.lists(_ANY_INT, max_size=6))
def test_key_injective_on_any_ints(xs, ys):
    assert (key_for(tuple(xs)) == key_for(tuple(ys))) == (xs == ys)


# -- a key is its kind's tag, a colon, then the kind's packing ---------------------

_pack = structures._pack


def _ball_packing(b):
    size, edges = canonical_rooted(b)
    return _pack([size, *itertools.chain.from_iterable(edges)])


_VERTEX = st.one_of(st.integers(1, 6), st.integers(1, 2 ** 70), st.just(2 ** 31))


@st.composite
def tagged_structures(draw):
    """A structure of any kind, with the tag and the packing of its own
    integers that its key must carry."""
    tag = draw(st.sampled_from(("vg", "es", "part", "seq", "mc", "ball", "balls")))
    if tag == "vg":
        g = draw(small_graphs())
        return g, tag, _pack([g.n, *itertools.chain.from_iterable(sorted(g.edges))])
    if tag == "es":
        pairs = draw(st.lists(st.tuples(_VERTEX, _VERTEX).filter(lambda e: e[0] != e[1])
                              .map(lambda e: tuple(sorted(e))), max_size=4))
        return EdgeSeqGraph(tuple(pairs)), tag, _pack(itertools.chain.from_iterable(pairs))
    if tag == "part":
        labels = relabel_r(draw(st.lists(st.integers(1, 4), max_size=6)))
        return Partition(labels), tag, _pack(labels)
    if tag == "seq":
        xs = tuple(draw(st.lists(_ANY_INT, max_size=6)))
        return xs, tag, _pack(xs)
    if tag == "mc":
        k = draw(st.integers(0, 4))
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        marks = draw(st.lists(st.one_of(st.integers(1, 2 ** 40), st.just(UNREACHABLE)),
                              min_size=len(pairs), max_size=len(pairs)))
        flat = [k]
        for (i, j), m in zip(pairs, marks):
            flat += (i, j, 0 if m == UNREACHABLE else m)
        return MarkedCompleteGraph(k, tuple(zip(pairs, marks))), tag, _pack(flat)
    balls = draw(st.lists(st.integers(1, 5).flatmap(rooted_balls), min_size=1, max_size=3))
    if tag == "ball":
        return balls[0], tag, _ball_packing(balls[0])
    return balls, tag, struct.pack(">i", len(balls)) + b"".join(map(_ball_packing, balls))


@given(st.lists(tagged_structures(), min_size=1, max_size=8))
def test_keys_read_and_sort_as_tag_then_packing(drawn):
    keyed = [(key_for(x), tag, packing) for x, tag, packing in drawn]
    for key, tag, packing in keyed:
        assert type(key) is bytes
        assert key_text(key) == f"{tag}:{packing.hex()}"
    by_bytes = [key for key, _, _ in sorted(keyed, key=lambda e: e[0])]
    assert by_bytes == [key for key, _, _ in sorted(keyed, key=lambda e: (e[1], e[2]))]


def test_a_ball_sorts_before_an_ego_list_of_it_on_a_count_tie():
    b = ball(cycle_vertex(5), 1, 1)
    packing = _ball_packing(b)
    tally = PatternTally({key_for([b]): 1, key_for(b): 1}, 2)
    assert render_tally_csv(tally).splitlines()[1:] == [
        f"ball:{packing.hex()},1,0.5,0.3535533906",
        f"balls:00000001{packing.hex()},1,0.5,0.3535533906"]


# -- ball keys are memoised on the graph the ball came from ---------------------

def _counted_searches(monkeypatch):
    """The root of every ball canonical_rooted searches from now on."""
    roots = []
    search = structures.canonical_rooted

    def counted(rg):
        roots.append(rg.root)
        return search(rg)

    monkeypatch.setattr(structures, "canonical_rooted", counted)
    return roots


def _assert_one_search_per_ball(roots, n):
    # every ball of one tally has the same radius, so a repeated root is a
    # repeated (centre, radius)
    assert len(roots) == len(set(roots)) <= n


@pytest.mark.parametrize("algo, k", [("bs_root", 2), ("ego", 3)])
def test_rooted_tally_searches_each_ball_once(algo, k, monkeypatch):
    g = _random_regular(30, 4, 7)
    roots = _counted_searches(monkeypatch)
    tally = prefix_density_vector(SamplerSpec(algo), g, 30, k, 10 * 30, RandomStream(5))
    assert tally.reps == 300
    _assert_one_search_per_ball(roots, 30)


def test_sampled_involution_searches_each_ball_once(monkeypatch):
    roots = _counted_searches(monkeypatch)
    rep = test_involution_invariance("uniform", cycle_vertex(50), 50, 2, 1000,
                                     RandomStream(3))
    assert rep.tally_a.reps == rep.tally_b.reps == 1000
    # both tallies share y|n, so together they search at most n balls
    _assert_one_search_per_ball(roots, 50)


def test_exact_involution_searches_each_ball_once(monkeypatch):
    g = _random_regular(30, 4, 7)
    roots = _counted_searches(monkeypatch)
    test_involution_invariance("uniform", g, 30, 2, 1, RandomStream(0), exact=True)
    # each neighbour's ball is read once per incident edge, searched once
    _assert_one_search_per_ball(roots, 30)


@given(small_graphs(), st.data())
def test_ball_key_memo_never_changes_a_key(g, data):
    # several balls per graph, so later ones are keyed next to memo entries
    # of other centres and radii
    for _ in range(3):
        center = data.draw(st.integers(1, g.n))
        r = data.draw(st.integers(0, 3))
        first = key_for(ball(g, center, r))
        second = key_for(ball(g, center, r))
        b = ball(g, center, r)
        assert first == second == key_for(RootedGraph.from_edges(b.vertices, b.edges, b.root))
        assert g.__dict__["_ball_keys"][(center, r)] is first


def test_restriction_keeps_its_own_ball_key_memo():
    g = VertexGraph(_CHORDED.n, _CHORDED.edges)
    sub = restrict_vertices(g, 5)
    # vertex 2's radius-1 ball is a claw in g (neighbours 1, 3, 6) and a
    # path in g|5, where vertex 6 is gone
    in_g, in_sub = key_for(ball(g, 2, 1)), key_for(ball(sub, 2, 1))
    assert in_g != in_sub
    assert key_for(ball(g, 2, 1)) == in_g and key_for(ball(sub, 2, 1)) == in_sub
    assert g.__dict__["_ball_keys"] is not sub.__dict__["_ball_keys"]
    b = ball(sub, 2, 1)
    assert in_sub == key_for(RootedGraph.from_edges(b.vertices, b.edges, b.root))


def test_ball_key_memo_holds_keys_only():
    g = _random_regular(30, 4, 7)
    prefix_density_vector(SamplerSpec("ego"), g, 30, 3, 100, RandomStream(2))
    test_involution_invariance("uniform", g, 30, 2, 100, RandomStream(2))
    memo = g.__dict__["_ball_keys"]
    assert {r for _, r in memo} == {1, 2}
    assert all(type(key) is bytes and key.startswith(b"ball:") for key in memo.values())


@pytest.mark.parametrize("build, message", [
    (lambda: ball(y4(), 2, -1), "radius must be >= 0"),
    (lambda: VertexGraph(-1), "vertex count must be >= 0"),
    (lambda: MarkedCompleteGraph(-1, ()), "vertex count must be >= 0"),
    (lambda: shortest_path_marks(y4(), [1, 5]), r"chosen vertex 5 outside 1\.\.4"),
], ids=["ball_negative_radius", "vertex_graph_negative_size",
        "marked_graph_negative_size", "chosen_vertex_outside_graph"])
def test_structure_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: restrict(object(), 1), "no restriction defined for object"),
    (lambda: subsample_in_order(object(), [1]), "no relabeling action for object"),
    (lambda: key_for(object()), "no canonical key for object"),
], ids=["restrict", "subsample_in_order", "key_for"])
def test_structure_kind_refusals(build, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


def test_is_ordered_refuses_labels_below_one():
    assert not is_ordered((0, 1))


# -- value semantics ---------------------------------------------------------

# Per value class: a value, one that differs from it in one field, the
# value's repr, the name of that field, and whether the class is frozen.
_VALUES = {
    "VertexGraph": (lambda: VertexGraph(3, frozenset({(2, 1)})),
                    lambda: VertexGraph(4, frozenset({(2, 1)})),
                    "VertexGraph(n=3, edges=frozenset({(1, 2)}))", "n", True),
    "EdgeSeqGraph": (lambda: EdgeSeqGraph([(1, 2), (1, 2)]),
                     lambda: EdgeSeqGraph([(1, 2)]),
                     "EdgeSeqGraph(edges=((1, 2), (1, 2)))", "edges", True),
    "Partition": (lambda: Partition([1, 2, 1]), lambda: Partition([1, 2, 2]),
                  "Partition(labels=(1, 2, 1))", "labels", True),
    "RootedGraph": (lambda: RootedGraph.from_edges({1, 2, 3}, {(2, 1), (3, 2)}, 2),
                    lambda: RootedGraph.from_edges({1, 2, 3}, {(2, 1), (3, 2)}, 1),
                    "RootedGraph(vertices=[1, 2, 3], edges=[(1, 2), (2, 3)], root=2)",
                    "root", True),
    "MarkedCompleteGraph": (lambda: MarkedCompleteGraph(2, (((1, 2), 1),)),
                            lambda: MarkedCompleteGraph(2, (((1, 2), UNREACHABLE),)),
                            "MarkedCompleteGraph(k=2, marks=(((1, 2), 1),))", "marks", True),
    "SamplerSpec": (lambda: sampling.SamplerSpec("p_sample", p=0.5),
                    lambda: sampling.SamplerSpec("p_sample", p=0.25),
                    "SamplerSpec(algorithm='p_sample', p=0.5, rho=None)", "p", True),
    "DiagnoseResult": (lambda: sampling.DiagnoseResult((2, 4), [PatternTally({b"v:1": 2}, 2)],
                                                       (0.0,), 0.02, "STABILIZING"),
                       lambda: sampling.DiagnoseResult((2, 4), [PatternTally({b"v:1": 2}, 2)],
                                                       (0.5,), 0.02, "STABILIZING"),
                       "DiagnoseResult(schedule=(2, 4), tallies=[PatternTally(counts="
                       "{b'v:1': 2}, reps=2)], tv_steps=(0.0,), tolerance=0.02, "
                       "verdict='STABILIZING')", "tv_steps", False),
    "PatternTally": (lambda: PatternTally({b"v:1": 2}, 2), lambda: PatternTally({b"v:1": 2}, 3),
                     "PatternTally(counts={b'v:1': 2}, reps=2)", "reps", True),
    "LLNTrace": (lambda: estimate.LLNTrace((2, 4), (0.5, 0.25)),
                 lambda: estimate.LLNTrace((2, 4), (0.5, 0.5)),
                 "LLNTrace(ks=(2, 4), estimates=(0.5, 0.25))", "estimates", False),
    "ItemProfile": (lambda: estimate.ItemProfile((2,), {1: (0.5,)}, {1: 0.5}, 0.5, (0.5,)),
                    lambda: estimate.ItemProfile((2,), {1: (0.5,)}, {1: 0.5}, 1.0, (0.5,)),
                    "ItemProfile(schedule=(2,), series={1: (0.5,)}, estimate={1: 0.5}, "
                    "mass=0.5, ranked=(0.5,))", "mass", False),
    "TestReport": (lambda: invariance.TestReport("t", 0.1, 0.2, {b"v:1": 1.0}, {b"v:1": 1.0}),
                   lambda: invariance.TestReport("t", 0.1, 0.2, {b"v:1": 1.0}, {b"v:1": 1.0},
                                                 ["n"]),
                   "TestReport(name='t', statistic=0.1, threshold=0.2, tally_a={b'v:1': 1.0}, "
                   "tally_b={b'v:1': 1.0}, notes=[])", "notes", False),
    "StepGraphon": (lambda: models.StepGraphon((0, 1), ((0.5,),)),
                    lambda: models.StepGraphon((0, 1), ((0.25,),)),
                    "StepGraphon(boundaries=(0.0, 1.0), values=((0.5,),))", "values", True),
    "Paintbox": (lambda: models.Paintbox([(1, 0.5)], dust=0.5),
                 lambda: models.Paintbox([(2, 0.5)], dust=0.5),
                 "Paintbox(atoms=((1, 0.5),), dust=0.5)", "atoms", True),
    "MultiplicitySpec": (lambda: models.MultiplicitySpec([((1, 2), 0.5)]),
                         lambda: models.MultiplicitySpec([((1, 3), 0.5)]),
                         "MultiplicitySpec(targets=(((1, 2), 0.5),))", "targets", True),
}


def _hash_or_refusal(value):
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_semantics(name):
    make, other, text, field, frozen = _VALUES[name]
    value = make()
    assert type(value).__name__ == name
    assert value == make() and not value != make()
    assert value != other() and not value == other()
    assert value != (getattr(value, field),)  # another class never compares equal
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    if not frozen:
        with pytest.raises(TypeError):  # mutable records stay unhashable
            hash(value)
        setattr(value, field, getattr(other(), field))
        assert value == other()
        return
    assert _hash_or_refusal(value) == _hash_or_refusal(make())
    for change in (lambda: setattr(value, field, None), lambda: delattr(value, field)):
        with pytest.raises(AttributeError):
            change()
    assert value == make()


def test_report_notes_are_not_shared():
    a = invariance.TestReport("t", 0.0, 0.0, {}, {})
    b = invariance.TestReport("t", 0.0, 0.0, {}, {})
    a.notes.append("n")
    assert b.notes == []


def test_vertex_graph_keeps_a_normal_edge_set_and_rebuilds_any_other():
    """A frozenset of (u, v) with 1 <= u < v <= n is kept as given; any
    other edge set is rebuilt, reversed pairs put in order, and a
    self-loop or an edge outside 1..n refused with the same messages."""
    edges = frozenset({(1, 3), (2, 3)})
    assert VertexGraph(3, edges).edges is edges
    assert VertexGraph(3, frozenset({(3, 1), (1, 3)})).edges == {(1, 3)}
    assert VertexGraph(3, [(2, 1), (1, 2)]).edges == {(1, 2)}
    for n, bad, message in ((3, {(2, 2)}, "self-loop at vertex 2"),
                            (3, {(1, 4)}, r"edge \(1,4\) outside 1\.\.3"),
                            (3, {(4, 1)}, r"edge \(1,4\) outside 1\.\.3"),
                            (3, {(0, 2)}, r"edge \(0,2\) outside 1\.\.3"),
                            (3, {(0.5, 2)}, r"edge \(0\.5,2\) outside 1\.\.3"),
                            (0, {(1, 2)}, r"edge \(1,2\) outside 1\.\.0")):
        for edge_set in (frozenset(bad), set(bad), list(bad)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                VertexGraph(n, edge_set)


# -- values built from checked parts by _Record._of ------------------------------

_PAIRS = st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(
    lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p))), max_size=9)
_LABELS = st.lists(st.integers(1, 5), max_size=9).map(relabel_r)


@settings(max_examples=60)
@given(small_graphs(), st.data())
def test_vertex_graphs_built_from_checked_parts_pass_the_checks(g, data):
    # induced_ordered, restrict_vertices and restrict build without __init__
    order = data.draw(st.permutations(range(1, g.n + 1)))
    order = order[:data.draw(st.integers(0, g.n))]
    assert oracles.as_checked(induced_ordered(g, order)) == oracles._induced(order, g)
    m = data.draw(st.integers(1, g.n))
    cut = restrict_vertices(g, m)
    oracles.as_checked(cut)
    assert cut.edges == {e for e in g.edges if e[1] <= m}
    assert restrict(g, m) is cut


@settings(max_examples=60)
@given(_PAIRS, _LABELS, st.data())
def test_prefixes_and_relabelings_built_from_checked_parts_pass_the_checks(pairs, labels, data):
    # restrict's edge-sequence and partition prefixes, and subsample_in_order
    for x in (EdgeSeqGraph(tuple(pairs)), Partition(labels)):
        size = size_of(x)
        d = data.draw(st.integers(0, size))
        prefix = restrict(x, d)
        if d < size:
            oracles.as_checked(prefix)
        assert prefix == type(x)(x._values()[0][:d])
        positions = data.draw(st.permutations(range(1, size + 1)))
        positions = positions[:data.draw(st.integers(0, size))]
        out = oracles.as_checked(subsample_in_order(x, positions))
        picked = [x._values()[0][p - 1] for p in positions]
        if isinstance(x, EdgeSeqGraph):
            assert out == oracles.relabel_rprime_three_pass(picked)
        else:
            assert out == Partition(relabel_r(picked))


@given(st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 6)), max_size=8))
def test_relabel_rprime_matches_the_three_pass_reference(pairs):
    """Each pair's endpoints relabeled in one pass: the same sequence, or
    the same self-loop refusal, as flattening, relabeling and regrouping."""
    try:
        want = oracles.relabel_rprime_three_pass(pairs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            relabel_rprime(pairs)
        return
    assert oracles.as_checked(relabel_rprime(pairs)) == want


@settings(max_examples=60)
@given(_LABELS.filter(bool), st.data())
def test_sample_partition_passes_the_checks(labels, data):
    n = data.draw(st.integers(1, len(labels)))
    k = data.draw(st.integers(1, n))
    out = sampling.sample_partition(Partition(labels), n, k, RandomStream(data.draw(st.integers(0, 99))))
    oracles.as_checked(out)


@settings(max_examples=40)
@given(small_graphs(), st.data())
def test_sparsified_sample_passes_the_checks(g, data):
    k = data.draw(st.integers(1, g.n))
    rho = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    out = sampling.sample_sparsified(g, g.n, k, rho, RandomStream(data.draw(st.integers(0, 99))))
    oracles.as_checked(out)


@settings(max_examples=40)
@given(st.integers(1, 12), st.sampled_from([0.3, 1.0]), st.integers(0, 99))
def test_graphon_draw_passes_the_checks(k, rho, seed):
    w = models.StepGraphon((0.0, 0.5, 1.0), ((0.9, 0.2), (0.2, 0.6)))
    oracles.as_checked(models.sparsified_graphon_draw(w, rho, k, RandomStream(seed)))


@settings(max_examples=40)
@given(st.integers(1, 12), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 99))
def test_paintbox_draw_passes_the_checks(k, dust, seed):
    pb = models.Paintbox(((1, (1 - dust) / 2), (3, (1 - dust) / 2)), dust=dust)
    oracles.as_checked(models.paintbox_draw(pb, k, RandomStream(seed)))


@settings(max_examples=60)
@given(small_graphs(), st.data())
def test_marked_complete_graphs_built_from_checked_parts_pass_the_checks(g, data):
    # shortest_path_marks, and restrict's and subsample_in_order's marked cases,
    # whose results are the marks of the vertices they keep
    chosen = data.draw(st.permutations(range(1, g.n + 1)))
    chosen = chosen[:data.draw(st.integers(0, g.n))]
    x = oracles.as_checked(shortest_path_marks(g, chosen))
    d = data.draw(st.integers(0, x.k))
    assert oracles.as_checked(restrict(x, d)) == shortest_path_marks(g, chosen[:d])
    positions = data.draw(st.permutations(range(1, x.k + 1)))
    positions = positions[:data.draw(st.integers(0, x.k))]
    assert (oracles.as_checked(subsample_in_order(x, positions))
            == shortest_path_marks(g, [chosen[p - 1] for p in positions]))


_PACK_EDGES = [-2 ** 31, -2 ** 31 + 1, 2 ** 31 - 1, 2 ** 31, 10 ** 20, -10 ** 20]


@pytest.mark.parametrize("ints", [[], *([v] for v in _PACK_EDGES), [1, -2 ** 31, 2],
                                  [3, 2 ** 31 - 1, -2 ** 31 + 1], _PACK_EDGES],
                         ids=lambda ints: ",".join(map(str, ints)) or "empty")
def test_pack_matches_the_min_max_reference_at_the_word_edges(ints):
    assert structures._pack(ints) == oracles.pack_min_max(ints)


@given(st.lists(st.one_of(st.integers(-2 ** 31 - 2, -2 ** 31 + 2), st.integers(-9, 9),
                          st.integers(2 ** 31 - 2, 2 ** 31 + 2), st.integers())))
def test_pack_matches_the_min_max_reference(ints):
    assert structures._pack(ints) == oracles.pack_min_max(ints)


def _of_calls() -> set:
    """(module, function) of every _of( call in the package, the function
    being the one that encloses the call (None at module level)."""
    found = set()
    for path in sorted(Path(structures.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_of"):
                found.add((path.stem, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, None)
    return found


def test_every_of_caller_is_named_in_its_docstring():
    """A value built by _Record._of skips its checks, so each function that
    calls it must be one the docstring names as building from checked parts."""
    callers = structures._Record._of.__doc__.split("callers are", 1)[1]
    named = set(re.findall(r"\b(\w+)\.(\w+)\b", callers))
    calls = _of_calls()
    assert calls, "no _of( call found"
    assert calls <= named, f"callers not named in _Record._of's docstring: {sorted(calls - named)}"
    assert named <= calls, f"named in _Record._of's docstring, calling no _of: {sorted(named - calls)}"
