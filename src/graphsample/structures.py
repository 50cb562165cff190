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
immutable after construction, so a sampler's output is a pure function of
(input, n, k, seed) however often the input is reused.  That holds also for
derived data kept outside a value's fields (equality, hashing and repr
ignore it; it is never mutated once built, but for the ball-key memo below,
which only gains entries that are pure functions of their place, and the
restriction slot, which holds one pure function of g at a time).  A vertex
graph memoises its adjacency, degrees and Fenwick tree on first use, so
samplers build them once per input, not per replicate.  It keeps its last
restriction in one slot (restrict_vertices), so a replicate loop cuts y|n
once.  It also memoises the pattern keys of its balls by (center, radius),
so a ball that many replicates draw is canonicalised once per graph in each
process (a forked child starts from the memo as it stood at the fork); the
memo holds key bytes (8 an edge), never balls or forms, and dies with the
graph.  A rooted graph is the breadth-first search that found it (root,
host adjacency, depth map and, for a ball, its place in that memo); its
adjacency, vertices and edges are derived on first read, so a ball whose
key the memo holds costs only its search.

Outside input enters through a checking constructor: each value class's
__init__, and RootedGraph.from_edges for a rooted graph.  A value the
library builds from parts it has already checked (a replicate's output, a
restriction, a line-by-line checked file) is built by _Record._of, which
stores the fields and runs no check; _Record._of's docstring lists every
function that calls it.

Each operation that depends on the kind has one home here: size_of,
restrict, subsample_in_order (the relabeling action) and key_for.  A
pattern key is bytes: the kind's tag, a colon and the kind's integer
packing; this module alone writes that layout (key_for) and reads it
(key_text, the CSV column).  Tallies and CSVs sort keys by their bytes.
Keys are exact: a rooted graph is keyed by its canonical form under
root-preserving isomorphism (canonical_rooted), and the packing takes any
Python int.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections import Counter, deque
from typing import Iterable

#: Edge mark meaning "no path exists between the two chosen vertices".
#: Finite restrictions of connected graphs can be disconnected, so shortest
#: path computations need a sentinel rather than an error.
UNREACHABLE = float("inf")

Edge = tuple[int, int]


def _memo(obj, name: str, build):
    """build(), computed once per obj and kept in the private attribute
    ``name``.  Only for values that depend on nothing but an immutable obj;
    writing to __dict__ passes the guard of a _Frozen obj."""
    try:
        return obj.__dict__[name]
    except KeyError:
        value = obj.__dict__[name] = build()
        return value


class _Record:
    """A value whose fields are the parameters of its class's __init__, in
    order, which __init__ stores with _set.  Two values are == when of one
    class with equal fields; repr shows Name(field=value!r, ...).  Defining
    __eq__ leaves it unhashable."""

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _of(cls, *values):
        """The value of cls with these fields, stored as given: __init__
        and its checks do not run, so the fields must be what __init__
        would store.  Only for values built from parts already checked; its
        callers are structures.induced_ordered, structures.restrict_vertices,
        structures.restrict, structures.subsample_in_order,
        structures.relabel_rprime, structures.shortest_path_marks,
        sampling.sample_partition, sampling.sample_sparsified,
        models.sparsified_graphon_draw, models.paintbox_draw,
        io.parse_vertex_graph and io.parse_edge_seq."""
        self = object.__new__(cls)
        fields = self.__dict__
        for name, value in zip(cls._fields, values):
            fields[name] = value
        return self

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A _Record hashed by its fields, whose attributes cannot be assigned
    or deleted once __init__ has stored them."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _adjacency(vertices, edges) -> dict:
    """Vertex -> tuple of neighbours, in the order the edges list them."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(nbrs) for v, nbrs in adj.items()}


def _check_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# vertex-counted world


class VertexGraph(_Frozen):
    """Simple undirected graph with vertices labeled 1..n.

    Edges are stored once as pairs (u, v) with u < v <= n; no self-loops.
    A frozenset already in that form is kept as given, else rebuilt.
    """

    def __init__(self, n: int, edges: frozenset = frozenset()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if not (type(edges) is frozenset and all(1 <= u < v <= n for u, v in edges)):
            edges = frozenset(_check_edge(u, v) for u, v in edges)
            for u, v in edges:
                if not (1 <= u < v <= n):
                    raise ValueError(f"edge ({u},{v}) outside 1..{n}")
        self._set(n, edges)

    def adjacency(self) -> dict:
        """Vertex -> tuple of neighbours, built once per graph; callers
        must not mutate the dict."""
        return _memo(self, "_adjacency",
                     lambda: _adjacency(range(1, self.n + 1), self.edges))

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges


def restrict_vertices(g: VertexGraph, m: int) -> VertexGraph:
    """Induced subgraph on the first m vertices.  g keeps its last cut in
    one slot, so a replicate loop cuts y|n once and a repeated m returns
    that same graph."""
    if not 1 <= m <= g.n:
        raise ValueError(f"restriction depth {m} outside 1..{g.n}")
    if m == g.n:
        return g
    cut = g.__dict__.get("_cut")
    if cut is None or cut.n != m:
        cut = g.__dict__["_cut"] = VertexGraph._of(
            m, frozenset([e for e in g.edges if e[1] <= m]))
    return cut


def degrees(g: VertexGraph) -> tuple:
    """Degree vector (deg(1), ..., deg(n)), computed once per graph.  Counted
    off the edge set: a degree-biased sampler needs no adjacency dict."""
    def build():
        deg = [0] * (g.n + 1)
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg[1:])
    return _memo(g, "_degrees", build)


def fenwick(weights) -> tuple:
    """Fenwick tree of integer weights (Fenwick 1994): entry i holds the sum
    of weights[i - lowbit(i) .. i - 1] and entry 0, which no descent reads,
    the total."""
    n = len(weights)
    tree = [sum(weights)]
    tree.extend(weights)
    for i in range(1, n + 1):
        j = i + (i & -i)
        if j <= n:
            tree[j] += tree[i]
    return tuple(tree)


def degree_tree(g: VertexGraph) -> tuple:
    """fenwick(degrees(g)), computed once per graph."""
    return _memo(g, "_degree_tree", lambda: fenwick(degrees(g)))


def induced_ordered(g: VertexGraph, order) -> VertexGraph:
    """Induced subgraph on the given distinct vertices, relabeled 1..k in
    the order they are listed (label i+1 goes to order[i])."""
    order = list(order)
    return VertexGraph._of(len(order), _induced_edges(g, order))


def _induced_edges(g: VertexGraph, order: list) -> frozenset:
    """The edges of induced_ordered(g, order), which determine it given k:
    found pair by pair when the pairs are no more than g's edges, and edge
    by edge otherwise."""
    k = len(order)
    edges = set()
    if k * (k - 1) // 2 <= len(g.edges):
        present = g.edges
        for a in range(k):
            u = order[a]
            for b in range(a + 1, k):
                v = order[b]
                if ((u, v) if u < v else (v, u)) in present:
                    edges.add((a + 1, b + 1))
    else:
        pos = {v: i + 1 for i, v in enumerate(order)}
        for u, v in g.edges:
            pu, pv = pos.get(u), pos.get(v)
            if pu is not None and pv is not None:
                edges.add((pu, pv) if pu < pv else (pv, pu))
    return frozenset(edges)


def ball(g: VertexGraph, center: int, r: int) -> "RootedGraph":
    """Induced subgraph on vertices within hop-distance r of center,
    rooted at center.  Vertices keep their labels from g.  The ball is the
    search over g's adjacency that found its vertices, placed at
    (center, r) in g's ball-key memo, where key_for keeps its key."""
    if not 1 <= center <= g.n:
        raise ValueError(f"center {center} outside 1..{g.n}")
    if r < 0:
        raise ValueError("radius must be >= 0")
    adj = g.adjacency()
    return RootedGraph(center, adj, _bfs_distances(adj, center, limit=r),
                       (_memo(g, "_ball_keys", dict), (center, r)))


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


def _distances_to(adj: dict, source: int, targets) -> dict:
    """BFS hop distances from source, stopped as soon as every vertex of
    targets (non-empty, source excluded) has one.  A distance is final when
    first assigned, so the targets' distances equal those of a full search;
    targets left out of the result are unreachable."""
    pending = set(targets)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if w not in dist:
                dist[w] = du
                queue.append(w)
                if w in pending:
                    pending.remove(w)
                    if not pending:
                        return dist
    return dist


# ---------------------------------------------------------------------------
# edge-counted world


class EdgeSeqGraph(_Frozen):
    """Graph as an ordered sequence of edges (i_k, j_k), i_k < j_k.

    Repeats of a pair encode multiedges.
    """

    def __init__(self, edges: tuple):
        norm = []
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop pair ({i},{j})")
            if not (1 <= i < j):
                raise ValueError(f"pair ({i},{j}) must satisfy 1 <= i < j")
            norm.append((i, j))
        self._set(tuple(norm))


def multiplicity_counts(g: EdgeSeqGraph) -> dict:
    """Exact multiedge counts, pair -> number of occurrences."""
    return dict(Counter(g.edges))


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
    """Relabel an edge sequence's endpoints by first appearance, read pair
    by pair, and swap each pair so the smaller vertex comes first.  The
    result is always canonical."""
    first = {}
    out = []
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop pair ({i},{j})")
        a = first.setdefault(i, len(first) + 1)
        b = first.setdefault(j, len(first) + 1)
        out.append((a, b) if a < b else (b, a))
    return EdgeSeqGraph._of(tuple(out))


class Partition(_Frozen):
    """Ordered partition of {1..n}, encoded by its block-label sequence."""

    def __init__(self, labels: tuple):
        labels = tuple(labels)
        if not is_ordered(labels):
            raise ValueError("partition labels must be ordered "
                             "(s_m <= |{s_1..s_m}| for all m)")
        self._set(labels)


# ---------------------------------------------------------------------------
# rooted graphs and balls


class RootedGraph(_Frozen):
    """Finite connected graph with a distinguished root vertex: the subgraph
    of the adjacency host induced on dist, the hop distances from root in
    host of its vertices.  place is (memo, at) for a ball, the dict that
    keeps its pattern key and the key's slot in it, else None.  Its own ==,
    hash and repr read the graph, not the fields."""

    def __init__(self, root: int, host: dict, dist: dict, place: tuple | None = None):
        self._set(root, host, dist, place)

    @classmethod
    def from_edges(cls, vertices, edges, root: int) -> "RootedGraph":
        """The rooted graph on vertices and edges (pairs in either order),
        checked for self-loops, root, edge endpoints and connectivity."""
        vertices = frozenset(vertices)
        edges = frozenset((u, v) if u < v else _check_edge(u, v) for u, v in edges)
        if root not in vertices:
            raise ValueError("root must be a vertex")
        try:
            adj = _adjacency(vertices, edges)
        except KeyError:
            u, v = next(e for e in edges if not vertices.issuperset(e))
            raise ValueError(f"edge ({u},{v}) has endpoint outside vertex set") from None
        dist = _bfs_distances(adj, root)
        if len(dist) != len(vertices):
            raise ValueError("rooted graph must be connected")
        return cls(root, adj, dist)

    def adjacency(self) -> dict:
        """Vertex -> tuple of neighbours, host's rows cut to the graph's
        vertices, built once; do not mutate."""
        dist = self.dist
        return _memo(self, "_adjacency", lambda: {
            v: tuple(w for w in self.host[v] if w in dist) for v in dist})

    @property
    def vertices(self) -> frozenset:
        return _memo(self, "_vertices", lambda: frozenset(self.dist))

    @property
    def edges(self) -> frozenset:
        return _memo(self, "_edges", lambda: frozenset(
            (u, w) for u, nbrs in self.adjacency().items() for w in nbrs if u < w))

    def __eq__(self, other):
        if not isinstance(other, RootedGraph):
            return NotImplemented
        return (self.vertices, self.edges, self.root) == (other.vertices, other.edges, other.root)

    def __hash__(self):
        return hash((self.vertices, self.edges, self.root))

    def __repr__(self):
        return (f"RootedGraph(vertices={sorted(self.vertices)}, "
                f"edges={sorted(self.edges)}, root={self.root})")


def canonical_rooted(rg: RootedGraph) -> tuple:
    """Canonical form of a rooted graph: (size, edge tuple) after relabeling
    the root to 1 and the other vertices to 2..m.  Two rooted graphs have
    equal forms exactly when an isomorphism maps one root to the other.

    An individualization-refinement search (McKay & Piperno 2014,
    "Practical graph isomorphism II").  Colours start as the rank of
    (BFS depth, degree), which puts the root alone in the first cell, and
    are refined until stable (_refine).  A colour is the position of its
    cell in the ordered partition, so a colouring with one vertex per cell
    is a labeling 1..m: a leaf of the search.  Refinement is incremental:
    a cell of a stable colouring can split only after a neighbour of one of
    its vertices is recoloured, so a round re-sorts only the cells next to
    the vertices the step before it recoloured.  Elsewhere _search
    individualizes the vertices of the first smallest tied cell in turn; a
    tied cell of pairwise twins is split in one fixed order instead, since
    permuting twins is an automorphism that keeps the colouring.  The form
    is the least _encode over the leaves; _search keeps no other leaf.
    Automorphisms prune: a leaf that encodes as the least reveals one, and
    so does a child whose cells the first child's match vertex for vertex
    (_automorphism); the search skips the subtrees they map onto ones
    already visited.
    """
    adj = rg.adjacency()
    colouring = _refine(adj, _cells({v: (d, len(adj[v])) for v, d in rg.dist.items()}))
    return (len(adj), _search(adj, colouring))


class _Colouring:
    """An ordered partition of a ball's vertices.  colour maps each vertex
    to the position of its cell, 1 + the number of vertices in the cells
    before it; cells maps each position to the cell's vertices in BFS
    order.  dirty lists the vertices recoloured since the colouring was
    last stable, every vertex before its first refinement."""

    __slots__ = ("colour", "cells", "dirty")

    def __init__(self, colour: dict, cells: dict, dirty):
        self.colour, self.cells, self.dirty = colour, cells, dirty


def _cells(keys: dict) -> _Colouring:
    """Ordered partition by key: vertex -> 1 + the number of vertices whose
    key is smaller, so vertices of equal key share a colour."""
    colour, cells = {}, {}
    prev = None
    for i, v in enumerate(sorted(keys, key=keys.__getitem__), 1):
        if keys[v] != prev:
            start, prev = i, keys[v]
            cells[start] = []
        colour[v] = start
        cells[start].append(v)
    return _Colouring(colour, cells, list(colour))


def _refine(adj: dict, colouring: _Colouring) -> _Colouring:
    """Colour refinement, in place: in synchronous rounds, split cells by
    their vertices' sorted neighbour colours until no cell splits.  A split
    keeps the cell's place, so the result depends on the colouring and the
    graph, not on the labels.  The vertices of a cell had equal sorted
    neighbour colours one round before, so the cell can split only if one
    of them has a neighbour recoloured since.  A round therefore sorts only
    the cells of more than one vertex next to a vertex recoloured by the
    round before; the first round, those next to the dirty vertices."""
    colour, cells = colouring.colour, colouring.cells
    recoloured = colouring.dirty
    while len(cells) < len(colour):
        starts = set()
        for v in recoloured:
            starts.update(map(colour.__getitem__, adj[v]))
        members = [v for start in starts if len(cells[start]) > 1 for v in cells[start]]
        key = {v: (colour[v], sorted(map(colour.__getitem__, adj[v]))) for v in members}
        members.sort(key=key.__getitem__)
        # Each run of equal keys is a piece of the cell its old colour
        # names, placed after the pieces before it; the first keeps the place.
        recoloured, prev = [], (None,)
        for v in members:
            if key[v] != prev:
                at = key[v][0] if key[v][0] != prev[0] else at + len(piece)
                piece = cells[at] = []
                prev = key[v]
            if at != prev[0]:
                colour[v] = at
                recoloured.append(v)
            piece.append(v)
        if not recoloured:
            break
    colouring.dirty = ()
    return colouring


def _target_cell(colouring: _Colouring):
    """The first smallest cell of more than one vertex, or None when every
    vertex has a colour of its own."""
    cells = colouring.cells
    if len(cells) == len(colouring.colour):
        return None
    _, start = min((len(members), start) for start, members in cells.items()
                   if len(members) > 1)
    return cells[start]


def _twins(adj: dict, cell: list) -> bool:
    """True when every two vertices of cell have the same neighbours outside
    the pair: the same neighbours outside cell, and cell a clique or
    independent."""
    members = set(cell)
    outside = None
    for v in cell:
        nbrs = set(adj[v])
        if len(nbrs & members) not in (0, len(cell) - 1):
            return False
        nbrs -= members
        if outside is None:
            outside = nbrs
        elif nbrs != outside:
            return False
    return True


def _recolour(colouring: _Colouring, cell: list, order) -> _Colouring:
    """colouring with cell's place given to the vertices of order, one place
    each in turn; cell vertices not in order share the next place.  Only
    cell's entries change, and every vertex of cell but order[0] is dirty."""
    start = colouring.colour[cell[0]]
    colour, cells = dict(colouring.colour), dict(colouring.cells)
    for i, v in enumerate(order, start):
        colour[v] = i
        cells[i] = [v]
    picked = set(order)
    rest = [v for v in cell if v not in picked]
    if rest:
        cells[start + len(order)] = rest
        for v in rest:
            colour[v] = start + len(order)
    return _Colouring(colour, cells, [*order[1:], *rest])


class _Node:
    """An open node of the search tree: its stable colouring and target
    cell, the index in cell of the next child to try (the last one tried,
    cell[next - 1], is its step on the branch path) and the first child's
    colour map.  Its orbits under the automorphisms found so far that keep
    colour, the first `seen` of them merged, form a union-find forest
    (parent) in which the explored children share the tree of the key
    None: a child in that tree is covered, in the orbit of an explored one."""

    __slots__ = ("colouring", "cell", "next", "first", "parent", "seen")

    def __init__(self, colouring: _Colouring, cell: list):
        self.colouring, self.cell = colouring, cell
        self.next, self.first, self.parent, self.seen = 0, None, {}, 0

    def root(self, v):
        parent = self.parent
        while parent.get(v, v) != v:
            parent[v] = v = parent.get(parent[v], parent[v])
        return v

    def join(self, u, v):
        u, v = self.root(u), self.root(v)
        if u != v:
            self.parent[u] = v

    def covered(self, v, autos: list) -> bool:
        colour = self.colouring.colour
        for g in autos[self.seen:]:
            if all(colour[x] == colour[y] for x, y in g.items()):
                for x, y in g.items():
                    self.join(x, y)
        self.seen = len(autos)
        return self.root(v) == self.root(None)


def _automorphism(adj: dict, source: dict, target: dict):
    """The map that sends each vertex whose colour differs in source and
    target to one of its source colour in target, in a fixed order, and
    fixes the rest, as a dict of the vertices it moves.  Returned when it
    is an automorphism of the graph, which then carries source onto
    target, else None."""
    vertex_at = {}
    for w, c in target.items():
        if source[w] != c:
            vertex_at.setdefault(c, []).append(w)
    g = {}
    for v, c in source.items():
        if target[v] != c:
            ws = vertex_at.get(c)
            if not ws:
                return None
            g[v] = ws.pop()
    for v, w in g.items():
        if set(map(g.get, adj[v], adj[v])) != set(adj[w]):
            return None
    return g


def _search(adj: dict, colouring: _Colouring) -> tuple:
    """The least _encode over the leaves of the search tree below the
    stable colouring, visited depth first.  The open nodes sit on an
    explicit stack, so the depth of the tree (one level per individualized
    vertex) is not bounded by the interpreter's recursion limit; a leaf's
    branch path is read off it.  The least leaf so far is kept as
    (encoding, colour map, path).  A leaf of equal encoding adds the
    automorphism from that leaf onto it, and the nodes below the one where
    their paths part, which only repeat visited branches, are cut off.
    Before a node descends into a later child, _automorphism tries the map
    that matches the child's cells with the first child's; when it is one,
    the child's subtree repeats the first's and is skipped."""
    stack, autos, best = [], [], None
    while True:
        cell = _target_cell(colouring)
        while cell is not None and _twins(adj, cell):
            colouring = _refine(adj, _recolour(colouring, cell, cell))
            cell = _target_cell(colouring)
        if cell is not None:
            stack.append(_Node(colouring, cell))
        else:
            colour = colouring.colour
            enc = _encode(adj, colour)
            path = [node.cell[node.next - 1] for node in stack]
            if best is None or enc < best[0]:
                best = (enc, colour, path)
            elif enc == best[0]:
                autos.append(_automorphism(adj, best[1], colour))
                depth = next(i for i, (a, b) in enumerate(zip(path, best[2])) if a != b)
                del stack[depth + 1:]
        while stack:
            node = stack[-1]
            child = None
            while child is None and node.next < len(node.cell):
                v = node.cell[node.next]
                node.next += 1
                if node.first is not None and node.covered(v, autos):
                    continue
                child = _refine(adj, _recolour(node.colouring, node.cell, (v,)))
                if node.first is None:
                    node.first = child.colour
                else:
                    g = _automorphism(adj, child.colour, node.first)
                    if g is not None:
                        autos.append(g)
                        child = None
            if child is None:
                stack.pop()
                continue
            node.join(v, None)
            colouring = child
            break
        else:
            return best[0]


def _encode(adj: dict, label: dict) -> tuple:
    """Sorted edge tuple of a graph under the bijective vertex labeling
    label: each vertex in label order, paired with its higher-labelled
    neighbours in order."""
    out = []
    for v in sorted(label, key=label.__getitem__):
        i = label[v]
        out.extend([(i, j) for j in sorted(map(label.__getitem__, adj[v])) if j > i])
    return tuple(out)


# ---------------------------------------------------------------------------
# marked complete graphs (shortest-path sampler output)


class MarkedCompleteGraph(_Frozen):
    """Complete graph on k vertices whose edges carry path-length marks.

    marks maps every pair (i, j) with i < j <= k to a hop distance >= 1,
    or to UNREACHABLE when no path exists.
    """

    def __init__(self, k: int, marks: tuple):
        if k < 0:
            raise ValueError("vertex count must be >= 0")
        d = dict(marks)
        want = {(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
        if set(d) != want:
            raise ValueError("marks must cover exactly the pairs i < j <= k")
        for pair, m in d.items():
            if m != UNREACHABLE and (not isinstance(m, int) or m < 1):
                raise ValueError(f"mark for {pair} must be an int >= 1 or UNREACHABLE")
        self._set(k, tuple(sorted(d.items())))  # ((i, j), mark), sorted by pair


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
    for a in range(k - 1):
        dist = _distances_to(adj, chosen[a], chosen[a + 1:])
        for b in range(a + 1, k):
            marks[(a + 1, b + 1)] = dist.get(chosen[b], UNREACHABLE)
    return MarkedCompleteGraph._of(k, tuple(sorted(marks.items())))


# ---------------------------------------------------------------------------
# per-kind operations: size, restriction, relabeling


def size_of(x) -> int:
    """Size of a structure in its own restriction world: vertices of a
    vertex graph or marked complete graph, edges of an edge sequence,
    entries of a partition or label sequence, balls of an ego list."""
    if isinstance(x, VertexGraph):
        return x.n
    if isinstance(x, EdgeSeqGraph):
        return len(x.edges)
    if isinstance(x, Partition):
        return len(x.labels)
    if isinstance(x, MarkedCompleteGraph):
        return x.k
    if isinstance(x, (tuple, list)):
        return len(x)
    raise TypeError(f"no size defined for {type(x).__name__}")


def restrict(x, d: int):
    """Restriction map of each kind: the size-d initial substructure, the
    radius-d ball for rooted graphs, the first d balls of an ego output
    list.  Sampler outputs nest under it: output(k)|_j == output(j).  Depth
    bounds: 1..n for a vertex graph, d >= 0 for a rooted graph, and
    0..size_of(x) for every other kind."""
    if isinstance(x, VertexGraph):
        return restrict_vertices(x, d)
    if isinstance(x, RootedGraph):
        if d < 0:
            raise ValueError("radius must be >= 0")
        return RootedGraph(x.root, x.host, {v: r for v, r in x.dist.items() if r <= d})
    try:
        size = size_of(x)
    except TypeError:
        raise TypeError(f"no restriction defined for {type(x).__name__}") from None
    if not 0 <= d <= size:
        raise ValueError(f"restriction depth {d} outside 0..{size}")
    if isinstance(x, EdgeSeqGraph):
        return x if d == size else EdgeSeqGraph._of(x.edges[:d])
    if isinstance(x, Partition):
        return Partition._of(x.labels[:d])
    if isinstance(x, MarkedCompleteGraph):
        return MarkedCompleteGraph._of(d, tuple((p, v) for p, v in x.marks if p[1] <= d))
    return x[:d]


def subsample_in_order(x, positions):
    """The structure carried by the given positions/vertices, relabeled in
    that order: vertices for vertex graphs and marked complete graphs,
    positions for sequences and ego lists, positions followed by canonical
    relabeling for partitions and edge sequences.  A permutation of all
    positions is the relabeling action."""
    if isinstance(x, VertexGraph):
        return induced_ordered(x, positions)
    if isinstance(x, EdgeSeqGraph):
        return relabel_rprime([x.edges[p - 1] for p in positions])
    if isinstance(x, Partition):
        return Partition._of(relabel_r([x.labels[p - 1] for p in positions]))
    if isinstance(x, MarkedCompleteGraph):
        marks = dict(x.marks)
        k = len(positions)
        return MarkedCompleteGraph._of(k, tuple(
            ((a + 1, b + 1), marks[tuple(sorted((positions[a], positions[b])))])
            for a in range(k) for b in range(a + 1, k)))
    if isinstance(x, (tuple, list)):
        return type(x)([x[p - 1] for p in positions])
    raise TypeError(f"no relabeling action for {type(x).__name__}")


# ---------------------------------------------------------------------------
# canonical pattern keys


#: Stands for an int outside the signed 32-bit range, or for itself: it is
#: followed by a 32-bit byte count and the int's big-endian two's complement.
_ESCAPE = -2 ** 31
_WORD = struct.Struct(">i").pack
_BALL = b"ball:"  # the tag of a rooted graph's key


@functools.cache
def _words(count: int):
    """Packs the count and count ints as signed 32-bit big-endian words in
    one call; a compiled Struct is about 140 bytes whatever its length."""
    return struct.Struct(f">{count + 1}i").pack


def _pack(ints) -> bytes:
    """The count, then each int as a signed 32-bit big-endian word; an int
    that has no word of its own is escaped, so the packing is total over
    Python ints and injective."""
    if type(ints) is not list:
        ints = list(ints)
    if _ESCAPE not in ints:
        try:
            return _words(len(ints))(len(ints), *ints)
        except struct.error:  # an int outside the signed 32-bit range
            pass
    words = [_WORD(len(ints))]
    for v in ints:
        if _ESCAPE < v < 2 ** 31:
            words.append(_WORD(v))
        else:
            raw = v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
            words += (_WORD(_ESCAPE), _WORD(len(raw)), raw)
    return b"".join(words)


def _rooted_key(rg: RootedGraph) -> bytes:
    size, edges = canonical_rooted(rg)
    return _BALL + _pack([size, *itertools.chain.from_iterable(edges)])


def key_for(x) -> bytes:
    """Canonical pattern key of any kind in this module: the kind's tag, a
    colon, then its packing.  Tags are lowercase and the colon sorts below
    every letter, so keys sort as (tag, packing) pairs, ball before balls."""
    if isinstance(x, VertexGraph):
        flat = [x.n]
        for edge in sorted(x.edges):
            flat += edge
        return b"vg:" + _pack(flat)
    if isinstance(x, EdgeSeqGraph):
        flat = []
        for edge in x.edges:
            flat += edge
        return b"es:" + _pack(flat)
    if isinstance(x, Partition):
        return b"part:" + _pack(x.labels)
    if isinstance(x, tuple):
        return b"seq:" + _pack(x)
    if isinstance(x, MarkedCompleteGraph):
        flat = [x.k]
        for (i, j), m in x.marks:
            flat.extend((i, j, 0 if m == UNREACHABLE else int(m)))
        return b"mc:" + _pack(flat)
    if isinstance(x, RootedGraph):
        if x.place is None:
            return _rooted_key(x)
        keys, at = x.place
        key = keys.get(at)
        if key is None:
            key = keys[at] = _rooted_key(x)
        return key
    if isinstance(x, list):  # list of rooted balls (ego sampler output)
        return b"balls:" + _WORD(len(x)) + b"".join(key_for(b)[len(_BALL):] for b in x)
    raise TypeError(f"no canonical key for {type(x).__name__}")


def key_text(key: bytes) -> str:
    """A key as ``tag:hex of the packing``, the pattern_key column of a CSV."""
    tag, _, packing = key.partition(b":")
    return f"{tag.decode()}:{packing.hex()}"
