"""Finite combinatorial structures, their restriction and relabeling maps.

Ground types for everything else in the package:

* VertexGraph        -- simple undirected graph on vertices 1..n, restricted
                        by taking induced subgraphs on initial vertex segments.
* EdgeSeqGraph       -- ordered edge sequence over positive-integer vertices
                        (repeats encode multiedges), restricted by edge prefix.
* RootedGraph        -- finite connected graph with a distinguished root,
                        restricted by balls around the root.
* Partition          -- ordered set partition encoded by its block-label
                        sequence, restricted by sequence prefix.
* MarkedCompleteGraph-- complete graph whose edges carry hop-distance marks.

Label sequences are plain tuples of positive ints.  All values here are
immutable after construction and safe to share across threads.

Each operation that depends on the kind has one home here: size_of,
restrict, subsample_in_order (the relabeling action) and key_for.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable

#: Edge mark meaning "no path exists between the two chosen vertices".
#: Finite restrictions of connected graphs can be disconnected, so shortest
#: path computations need a sentinel rather than an error.
UNREACHABLE = float("inf")

Edge = tuple[int, int]


def _check_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# vertex-counted world


@dataclass(frozen=True)
class VertexGraph:
    """Simple undirected graph with vertices labeled 1..n.

    Edges are stored once as pairs (u, v) with u < v <= n; no self-loops.
    """

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = frozenset(_check_edge(u, v) for u, v in self.edges)
        for u, v in norm:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) outside 1..{self.n}")
        object.__setattr__(self, "edges", norm)

    def adjacency(self) -> dict:
        adj = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges


def restrict_vertices(g: VertexGraph, m: int) -> VertexGraph:
    """Induced subgraph on the first m vertices."""
    if not 1 <= m <= g.n:
        raise ValueError(f"restriction depth {m} outside 1..{g.n}")
    if m == g.n:
        return g
    return VertexGraph(m, frozenset(e for e in g.edges if e[1] <= m))


def degrees(g: VertexGraph) -> tuple:
    """Degree vector (deg(1), ..., deg(n))."""
    deg = [0] * (g.n + 1)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg[1:])


def induced_ordered(g: VertexGraph, order) -> VertexGraph:
    """Induced subgraph on the given distinct vertices, relabeled 1..k in
    the order they are listed (label i+1 goes to order[i])."""
    order = list(order)
    k = len(order)
    edges = set()
    if k * (k - 1) // 2 <= len(g.edges):
        for a in range(k):
            for b in range(a + 1, k):
                if g.has_edge(order[a], order[b]):
                    edges.add((a + 1, b + 1))
    else:
        pos = {v: i + 1 for i, v in enumerate(order)}
        for u, v in g.edges:
            pu, pv = pos.get(u), pos.get(v)
            if pu is not None and pv is not None:
                edges.add((pu, pv) if pu < pv else (pv, pu))
    return VertexGraph(k, frozenset(edges))


def ball(g: VertexGraph, center: int, r: int) -> "RootedGraph":
    """Induced subgraph on vertices within hop-distance r of center,
    rooted at center.  Vertices keep their labels from g."""
    if not 1 <= center <= g.n:
        raise ValueError(f"center {center} outside 1..{g.n}")
    if r < 0:
        raise ValueError("radius must be >= 0")
    dist = _bfs_distances(g.adjacency(), center, limit=r)
    verts = frozenset(dist)
    edges = frozenset(e for e in g.edges if e[0] in verts and e[1] in verts)
    return RootedGraph(verts, edges, center)


def _bfs_distances(adj: dict, source: int, limit: float = UNREACHABLE) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] >= limit:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# edge-counted world


@dataclass(frozen=True)
class EdgeSeqGraph:
    """Graph as an ordered sequence of edges (i_k, j_k), i_k < j_k.

    Repeats of a pair encode multiedges.  ``canonical`` is true when the
    flattened vertex sequence (i_1, j_1, i_2, j_2, ...) is labeled in order
    of first appearance, i.e. satisfies s_m <= |{s_1..s_m}| for all m.
    """

    edges: tuple
    canonical: bool = field(init=False)

    def __post_init__(self):
        norm = []
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop pair ({i},{j})")
            if not (1 <= i < j):
                raise ValueError(f"pair ({i},{j}) must satisfy 1 <= i < j")
            norm.append((i, j))
        object.__setattr__(self, "edges", tuple(norm))
        flat = [x for e in norm for x in e]
        object.__setattr__(self, "canonical", is_ordered(tuple(flat)))

    def __len__(self):
        return len(self.edges)

    def vertices(self) -> frozenset:
        return frozenset(x for e in self.edges for x in e)


def restrict_edges(g: EdgeSeqGraph, m: int) -> EdgeSeqGraph:
    """First m edges, in order."""
    if not 0 <= m <= len(g.edges):
        raise ValueError(f"restriction depth {m} outside 0..{len(g.edges)}")
    if m == len(g.edges):
        return g
    return EdgeSeqGraph(g.edges[:m])


def multiplicity_counts(g: EdgeSeqGraph) -> dict:
    """Exact multiedge counts, pair -> number of occurrences."""
    return dict(Counter(g.edges))


def count_edge_patterns(g: EdgeSeqGraph, pattern: EdgeSeqGraph) -> int:
    """Number of ordered k-edge subsequences of g whose relabeling equals
    ``pattern``.

    Dividing by |g|(|g|-1)...(|g|-k+1) gives the exact probability that the
    uniform edge sampler produces ``pattern``; this is the enumeration oracle
    for edge-sampling prefix densities.  Cost grows like |g|^k.
    """
    if not pattern.canonical:
        raise ValueError("pattern must be canonical")
    k = len(pattern)
    if k > len(g):
        raise ValueError(f"pattern size {k} exceeds |g| = {len(g)}")
    target = pattern.edges
    count = 0
    for positions in itertools.permutations(range(len(g)), k):
        sub = tuple(g.edges[p] for p in positions)
        if relabel_rprime(sub).edges == target:
            count += 1
    return count


# ---------------------------------------------------------------------------
# label sequences, partitions, relabeling maps


def is_ordered(s: Iterable[int]) -> bool:
    """True iff s_m <= |{s_1, ..., s_m}| for every prefix (labels appear
    in order: each new label is one larger than the number seen so far)."""
    seen = set()
    for v in s:
        if v < 1:
            return False
        seen.add(v)
        if v > len(seen):
            return False
    return True


def relabel_r(s: Iterable[int]) -> tuple:
    """Relabel a sequence by order of first appearance.

    The output is the unique ordered sequence with the same equality
    pattern as s: s_a = s_b iff out_a = out_b.
    """
    first = {}
    out = []
    for v in s:
        if v not in first:
            first[v] = len(first) + 1
        out.append(first[v])
    return tuple(out)


def relabel_rprime(edges: Iterable[Edge]) -> EdgeSeqGraph:
    """Relabel an edge sequence: flatten, relabel by first appearance,
    regroup into pairs, and swap each pair so the smaller vertex comes
    first.  The result is always canonical."""
    flat = []
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop pair ({i},{j})")
        flat.extend((i, j))
    relab = relabel_r(flat)
    out = []
    for a in range(0, len(relab), 2):
        i, j = relab[a], relab[a + 1]
        out.append((i, j) if i < j else (j, i))
    return EdgeSeqGraph(tuple(out))


@dataclass(frozen=True)
class Partition:
    """Ordered partition of {1..n}, encoded by its block-label sequence."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not is_ordered(self.labels):
            raise ValueError("partition labels must be ordered "
                             "(s_m <= |{s_1..s_m}| for all m)")

    def __len__(self):
        return len(self.labels)


def restrict_partition(p: Partition, m: int) -> Partition:
    if not 0 <= m <= len(p.labels):
        raise ValueError(f"restriction depth {m} outside 0..{len(p.labels)}")
    return Partition(p.labels[:m])


# ---------------------------------------------------------------------------
# rooted graphs and balls


@dataclass(frozen=True)
class RootedGraph:
    """Finite connected graph with a distinguished root vertex."""

    vertices: frozenset
    edges: frozenset
    root: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        norm = frozenset(_check_edge(u, v) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)
        if self.root not in self.vertices:
            raise ValueError("root must be a vertex")
        for u, v in norm:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) has endpoint outside vertex set")
        if not self._connected():
            raise ValueError("rooted graph must be connected")

    def _connected(self) -> bool:
        adj = self.adjacency()
        return len(_bfs_distances(adj, self.root)) == len(self.vertices)

    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def restrict_rooted(rg: RootedGraph, r: int) -> RootedGraph:
    """Ball of radius r around the root, within rg."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    dist = _bfs_distances(rg.adjacency(), rg.root, limit=r)
    verts = frozenset(dist)
    edges = frozenset(e for e in rg.edges if e[0] in verts and e[1] in verts)
    return RootedGraph(verts, edges, rg.root)


# Exact rooted canonicalization enumerates label assignments within BFS
# layers; above this budget fall back to a deterministic BFS relabeling.
_CANON_BUDGET = 5040


def canonical_rooted(rg: RootedGraph) -> tuple:
    """Canonical form of a rooted graph: (size, edge tuple) after relabeling
    the root to 1 and remaining vertices to 2..m.

    Any isomorphism fixing the root preserves distance from the root, so
    candidate relabelings permute vertices only within BFS layers.  When the
    number of such relabelings is small the exact minimum encoding is taken
    (isomorphism-invariant); otherwise vertices are ordered deterministically
    by (layer, degree, original label), which is invariant for the symmetric
    shapes handled here but not for general graphs.
    """
    dist = _bfs_distances(rg.adjacency(), rg.root)
    layers = {}
    for v, d in dist.items():
        layers.setdefault(d, []).append(v)
    layer_lists = [sorted(layers[d]) for d in sorted(layers)]

    budget = 1
    for lay in layer_lists:
        for i in range(2, len(lay) + 1):
            budget *= i
        if budget > _CANON_BUDGET:
            break

    if budget <= _CANON_BUDGET:
        best = None
        for perm_choice in itertools.product(
                *(itertools.permutations(lay) for lay in layer_lists)):
            label = {}
            nxt = 1
            for lay in perm_choice:
                for v in lay:
                    label[v] = nxt
                    nxt += 1
            enc = tuple(sorted(
                (label[u], label[v]) if label[u] < label[v] else (label[v], label[u])
                for u, v in rg.edges))
            if best is None or enc < best:
                best = enc
        return (len(rg.vertices), best)

    deg = {v: 0 for v in rg.vertices}
    for u, v in rg.edges:
        deg[u] += 1
        deg[v] += 1
    order = sorted(rg.vertices, key=lambda v: (dist[v], deg[v], v))
    label = {v: i + 1 for i, v in enumerate(order)}
    enc = tuple(sorted(
        (label[u], label[v]) if label[u] < label[v] else (label[v], label[u])
        for u, v in rg.edges))
    return (len(rg.vertices), enc)


# ---------------------------------------------------------------------------
# marked complete graphs (shortest-path sampler output)


@dataclass(frozen=True)
class MarkedCompleteGraph:
    """Complete graph on k vertices whose edges carry path-length marks.

    marks maps every pair (i, j) with i < j <= k to a hop distance >= 1,
    or to UNREACHABLE when no path exists.
    """

    k: int
    marks: tuple  # tuple of ((i, j), mark), sorted by pair

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("vertex count must be >= 0")
        d = dict(self.marks)
        want = {(i, j) for i in range(1, self.k + 1) for j in range(i + 1, self.k + 1)}
        if set(d) != want:
            raise ValueError("marks must cover exactly the pairs i < j <= k")
        for pair, m in d.items():
            if m != UNREACHABLE and (not isinstance(m, int) or m < 1):
                raise ValueError(f"mark for {pair} must be an int >= 1 or UNREACHABLE")
        object.__setattr__(self, "marks", tuple(sorted(d.items())))

    def mark(self, i: int, j: int):
        key = (i, j) if i < j else (j, i)
        return dict(self.marks)[key]


def restrict_marked(m: MarkedCompleteGraph, j: int) -> MarkedCompleteGraph:
    if not 0 <= j <= m.k:
        raise ValueError(f"restriction depth {j} outside 0..{m.k}")
    kept = {p: v for p, v in m.marks if p[1] <= j}
    return MarkedCompleteGraph(j, tuple(sorted(kept.items())))


def shortest_path_marks(g: VertexGraph, chosen) -> MarkedCompleteGraph:
    """Pairwise shortest-path lengths in g between the chosen vertices.

    chosen[a] becomes vertex a+1 of the output; mark {a,b} is the hop length
    of the shortest path in g, UNREACHABLE when the two sit in different
    components."""
    chosen = list(chosen)
    if len(set(chosen)) != len(chosen):
        raise ValueError("chosen vertices must be distinct")
    for v in chosen:
        if not 1 <= v <= g.n:
            raise ValueError(f"chosen vertex {v} outside 1..{g.n}")
    adj = g.adjacency()
    k = len(chosen)
    marks = {}
    for a in range(k):
        dist = _bfs_distances(adj, chosen[a])
        for b in range(a + 1, k):
            marks[(a + 1, b + 1)] = dist.get(chosen[b], UNREACHABLE)
    return MarkedCompleteGraph(k, tuple(sorted(marks.items())))


# ---------------------------------------------------------------------------
# per-kind operations: size, restriction, relabeling


def size_of(x) -> int:
    """Size of a structure in its own restriction world: vertices of a
    vertex graph or marked complete graph, edges of an edge sequence,
    entries of a partition or label sequence."""
    if isinstance(x, VertexGraph):
        return x.n
    if isinstance(x, EdgeSeqGraph):
        return len(x.edges)
    if isinstance(x, Partition):
        return len(x.labels)
    if isinstance(x, MarkedCompleteGraph):
        return x.k
    if isinstance(x, tuple):
        return len(x)
    raise TypeError(f"no size defined for {type(x).__name__}")


def restrict(x, d: int):
    """Restriction map of each kind: the size-d initial substructure, the
    radius-d ball for rooted graphs, the first d balls of an ego output
    list.  Sampler outputs nest under it: output(k)|_j == output(j)."""
    if isinstance(x, VertexGraph):
        return restrict_vertices(x, d)
    if isinstance(x, EdgeSeqGraph):
        return restrict_edges(x, d)
    if isinstance(x, Partition):
        return restrict_partition(x, d)
    if isinstance(x, MarkedCompleteGraph):
        return restrict_marked(x, d)
    if isinstance(x, RootedGraph):
        return restrict_rooted(x, d)
    if isinstance(x, (tuple, list)):
        return x[:d]
    raise TypeError(f"no restriction defined for {type(x).__name__}")


def subsample_in_order(x, positions):
    """The structure carried by the given positions/vertices, relabeled in
    that order: vertices for vertex graphs, positions for sequences,
    positions followed by canonical relabeling for partitions and edge
    sequences.  A permutation of all positions is the relabeling action."""
    if isinstance(x, VertexGraph):
        return induced_ordered(x, positions)
    if isinstance(x, EdgeSeqGraph):
        return relabel_rprime(tuple(x.edges[p - 1] for p in positions))
    if isinstance(x, Partition):
        return Partition(relabel_r(tuple(x.labels[p - 1] for p in positions)))
    if isinstance(x, tuple):
        return tuple(x[p - 1] for p in positions)
    raise TypeError(f"no relabeling action for {type(x).__name__}")


# ---------------------------------------------------------------------------
# prefix metric


def prefix_distance(x, x2, max_depth: int) -> float:
    """Prefix ultrametric: 2**-d for the deepest d <= max_depth at which the
    restrictions of x and x2 agree (2**-max_depth if they agree throughout).

    Rooted graphs restrict by ball radius, all other kinds by their size-d
    initial substructure.
    """
    if type(x) is not type(x2):
        raise TypeError(f"cannot compare {type(x).__name__} with {type(x2).__name__}")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if not isinstance(x, RootedGraph):
        if size_of(x) < max_depth or size_of(x2) < max_depth:
            raise ValueError("restriction not defined to max_depth")
    for d in range(1, max_depth + 1):
        if restrict(x, d) != restrict(x2, d):
            return 2.0 ** -(d - 1)
    return 2.0 ** -max_depth


# ---------------------------------------------------------------------------
# canonical pattern keys


@dataclass(frozen=True)
class PatternKey:
    """Canonical byte encoding of a structure, used as a tally key.

    Encoding is a length-prefixed big-endian integer serialization per kind,
    so equal structures give equal keys, deterministically across runs and
    platforms.
    """

    kind: str
    data: bytes

    def hex(self) -> str:
        return f"{self.kind}:{self.data.hex()}"


def _pack(ints) -> bytes:
    ints = list(ints)
    return struct.pack(f">{len(ints) + 1}i", len(ints), *ints)


def key_for(x) -> PatternKey:
    """Canonical PatternKey for any structure kind in this module."""
    if isinstance(x, VertexGraph):
        flat = [x.n]
        for u, v in sorted(x.edges):
            flat.extend((u, v))
        return PatternKey("vg", _pack(flat))
    if isinstance(x, EdgeSeqGraph):
        flat = []
        for i, j in x.edges:
            flat.extend((i, j))
        return PatternKey("es", _pack(flat))
    if isinstance(x, Partition):
        return PatternKey("part", _pack(x.labels))
    if isinstance(x, tuple):
        return PatternKey("seq", _pack(x))
    if isinstance(x, MarkedCompleteGraph):
        flat = [x.k]
        for (i, j), m in x.marks:
            flat.extend((i, j, 0 if m == UNREACHABLE else int(m)))
        return PatternKey("mc", _pack(flat))
    if isinstance(x, RootedGraph):
        size, edges = canonical_rooted(x)
        flat = [size]
        for u, v in edges:
            flat.extend((u, v))
        return PatternKey("ball", _pack(flat))
    if isinstance(x, list):  # list of rooted balls (ego sampler output)
        parts = [key_for(b) for b in x]
        blob = struct.pack(">i", len(parts)) + b"".join(p.data for p in parts)
        return PatternKey("balls", blob)
    raise TypeError(f"no canonical key for {type(x).__name__}")
