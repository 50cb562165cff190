"""Exact enumeration oracles for the samplers on tiny inputs, and the
reference text readers.

These enumerate every ordered selection with its exact (Fraction)
probability and build the output with straightforward code, independently
of the sampler implementations.  They are the reference laws that the
Monte Carlo samplers are checked against.  The readers at the end are the
reference for the one-pass readers of graphsample.io.
"""

from collections import deque
from fractions import Fraction
from itertools import permutations, product

from graphsample.structures import (
    _ESCAPE,
    _WORD,
    EdgeSeqGraph,
    Partition,
    VertexGraph,
    ball,
    key_for,
    relabel_r,
    relabel_rprime,
    restrict,
    restrict_vertices,
    shortest_path_marks,
    _words,
)


def _induced(selection, g):
    """Induced subgraph on the selected vertices, labels = selection order."""
    pos = {v: i + 1 for i, v in enumerate(selection)}
    edges = set()
    for u, v in g.edges:
        if u in pos and v in pos:
            a, b = pos[u], pos[v]
            edges.add((a, b) if a < b else (b, a))
    return VertexGraph(len(selection), frozenset(edges))


def _accumulate(law, key, prob):
    law[key] = law.get(key, Fraction(0)) + prob


def law_uniform_vertex(y, n, k):
    """Exact output law of the uniform vertex sampler, key -> Fraction."""
    g = restrict_vertices(y, n)
    law = {}
    total = 0
    for sel in permutations(range(1, n + 1), k):
        _accumulate(law, key_for(_induced(sel, g)), Fraction(1))
        total += 1
    return {key: p / total for key, p in law.items()}


def law_degree_biased(y, n, k):
    """Exact output law of degree-biased selection (fixed weights from y|n,
    uniform fallback when all remaining weights vanish)."""
    g = restrict_vertices(y, n)
    deg = {v: 0 for v in range(1, n + 1)}
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    law = {}

    def rec(remaining, chosen, prob):
        if len(chosen) == k:
            _accumulate(law, key_for(_induced(chosen, g)), prob)
            return
        total = sum(deg[v] for v in remaining)
        for v in remaining:
            p = Fraction(deg[v], total) if total > 0 else Fraction(1, len(remaining))
            if p == 0:
                continue
            rec([w for w in remaining if w != v], chosen + [v], prob * p)

    rec(list(range(1, n + 1)), [], Fraction(1))
    return law


def draw_weighted_distinct_linear(weights, k, rng):
    """Reference for sampling._draw_weighted_distinct: the same draws by a
    linear scan over the remaining vertices in ascending order, with float
    weights, consuming one uniform per draw.  Returns 1-based vertices in
    selection order."""
    weights = [float(w) for w in weights]
    remaining = list(range(1, len(weights) + 1))
    chosen = []
    for _ in range(k):
        total = 0.0
        for v in remaining:
            total += weights[v - 1]
        u = rng.uniform()
        if total <= 0.0:  # no positive weights left: uniform among the remaining
            idx = min(int(u * len(remaining)), len(remaining) - 1)
        else:
            acc = 0.0
            target = u * total
            idx = len(remaining) - 1
            for i, v in enumerate(remaining):
                acc += weights[v - 1]
                if target < acc:
                    idx = i
                    break
        chosen.append(remaining.pop(idx))
    return chosen


def draw_distinct_rejection(n, k, rng):
    """Reference for RandomStream.distinct: one randbelow(n) + 1 call per
    draw, repeats rejected, accepted values in selection order."""
    chosen = []
    seen = set()
    while len(chosen) < k:
        v = rng.randbelow(n) + 1
        if v not in seen:
            seen.add(v)
            chosen.append(v)
    return chosen


class Uniforms:
    """Stand-in stream that replays the given uniforms."""

    def __init__(self, us):
        self._us = iter(us)

    def uniform(self):
        return next(self._us)


def paintbox_draw_linear(pb, k, rng):
    """Reference for models.paintbox_draw: each element scans the atoms in
    block order for the first running total above its uniform; with none,
    the element is dust and starts a fresh singleton label.  The labels are
    then ordered by first appearance."""
    max_id = max((m for m, _ in pb.atoms), default=0)
    raw = []
    for i in range(k):
        u = rng.uniform()
        acc = 0.0
        chosen = max_id + 1 + i
        for m, p in pb.atoms:
            acc += p
            if u < acc:
                chosen = m
                break
        raw.append(chosen)
    return Partition(relabel_r(raw))


def canonical_rooted_reference(rg):
    """Brute-force canonical form of a rooted graph, with its own adjacency
    and BFS: the minimum sorted edge encoding over every relabeling that
    permutes vertices within BFS layers (root first, then layer by layer).
    Exact, and cheap while the layer permutations number a few thousand."""
    adj = {v: [] for v in rg.vertices}
    for u, v in rg.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {rg.root: 0}
    queue = deque([rg.root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    layers = [sorted(v for v in dist if dist[v] == d)
              for d in range(max(dist.values()) + 1)]

    def encode(order):
        label = {v: i + 1 for i, v in enumerate(order)}
        return tuple(sorted((min(label[u], label[v]), max(label[u], label[v]))
                            for u, v in rg.edges))

    best = min(encode([v for lay in choice for v in lay])
               for choice in product(*(permutations(lay) for lay in layers)))
    return (len(rg.vertices), best)


def _ranks(keys):
    """vertex -> 1 + the number of vertices whose key is smaller."""
    order = sorted(keys, key=keys.__getitem__)
    colour = {}
    start = prev = None
    for i, v in enumerate(order, 1):
        if keys[v] != prev:
            start, prev = i, keys[v]
        colour[v] = start
    return colour


def refine_full(adj, colour):
    """Reference colour refinement: every round re-sorts every vertex by
    (colour, sorted neighbour colours) until the number of colours stops
    growing.  Takes and returns a plain vertex -> colour map."""
    count = len(set(colour.values()))
    while count < len(colour):
        colour = _ranks({v: (c, sorted(map(colour.__getitem__, adj[v])))
                         for v, c in colour.items()})
        split = len(set(colour.values()))
        if split == count:
            break
        count = split
    return colour


def law_sequence(y, n, k):
    law = {}
    total = 0
    for sel in permutations(range(n), k):
        _accumulate(law, key_for(tuple(y[j] for j in sel)), Fraction(1))
        total += 1
    return {key: p / total for key, p in law.items()}


def law_partition(pi, n, k):
    law = {}
    total = 0
    for sel in permutations(range(n), k):
        sub = tuple(pi.labels[j] for j in sel)
        _accumulate(law, key_for(Partition(relabel_r(sub))), Fraction(1))
        total += 1
    return {key: p / total for key, p in law.items()}


def law_edges(y, n, k):
    g = restrict(y, n)
    law = {}
    total = 0
    for sel in permutations(range(n), k):
        sub = tuple(g.edges[j] for j in sel)
        _accumulate(law, key_for(relabel_rprime(sub)), Fraction(1))
        total += 1
    return {key: p / total for key, p in law.items()}


def law_shortest_path(y, n, k):
    g = restrict_vertices(y, n)
    law = {}
    total = 0
    for sel in permutations(range(1, n + 1), k):
        _accumulate(law, key_for(shortest_path_marks(g, sel)), Fraction(1))
        total += 1
    return {key: p / total for key, p in law.items()}


def law_ego(y, n, k):
    g = restrict_vertices(y, n)
    law = {}
    total = 0
    for sel in permutations(range(1, n + 1), k):
        _accumulate(law, key_for([ball(g, v, 1) for v in sel]), Fraction(1))
        total += 1
    return {key: p / total for key, p in law.items()}


def law_bs(y, n, k):
    g = restrict_vertices(y, n)
    law = {}
    for v in range(1, n + 1):
        _accumulate(law, key_for(ball(g, v, k)), Fraction(1, n))
    return law


def law_p_sample(y, n, p):
    """Exact law of p-sampling with rational p."""
    g = restrict_vertices(y, n)
    p = Fraction(p).limit_denominator(10 ** 6)
    law = {}
    for mask in range(2 ** n):
        kept = [v for v in range(1, n + 1) if mask & (1 << (v - 1))]
        prob = p ** len(kept) * (1 - p) ** (n - len(kept))
        kept_set = set(kept)
        edges = [(u, v) for u, v in g.edges if u in kept_set and v in kept_set]
        covered = {x for e in edges for x in e}
        survivors = [v for v in kept if v in covered]
        pos = {v: i + 1 for i, v in enumerate(survivors)}
        out = VertexGraph(len(survivors),
                          frozenset((pos[u], pos[v]) for u, v in edges))
        _accumulate(law, key_for(out), prob)
    return law


def law_composed(law_stage1, stage2, m, k, decode):
    """Exact law of a two-stage composition.

    law_stage1 maps keys to probabilities; ``decode`` recovers the structure
    from the enumeration (pass a dict key -> structure); stage2(z, m, k)
    returns the exact law of the second stage on input z."""
    out = {}
    for key, p1 in law_stage1.items():
        for key2, p2 in stage2(decode[key], m, k).items():
            _accumulate(out, key2, p1 * p2)
    return out


def enumerate_uniform_vertex_structures(y, n, k):
    """key -> one representative output structure (for composition oracles)."""
    g = restrict_vertices(y, n)
    rep = {}
    for sel in permutations(range(1, n + 1), k):
        out = _induced(sel, g)
        rep.setdefault(key_for(out), out)
    return rep


def enumerate_degree_biased_structures(y, n, k):
    rep = {}
    for key, out in enumerate_uniform_vertex_structures(y, n, k).items():
        rep.setdefault(key, out)
    return rep


def law_tv(law_a, law_b):
    """Exact total variation distance between two key -> Fraction laws."""
    keys = set(law_a) | set(law_b)
    return sum(abs(law_a.get(c, Fraction(0)) - law_b.get(c, Fraction(0)))
               for c in keys) / 2


def as_floats(law):
    return {key: float(p) for key, p in law.items()}


# ---------------------------------------------------------------------------
# text readers


#: The reference readers' vertex cap; a test that lowers io.MAX_VERTICES
#: lowers this too.
MAX_VERTICES = 10**7

# The three readers below and their helpers are copied verbatim from
# graphsample.io as it was before its readers became one pass each: a
# header scan over the whole file, then one check after another on each
# data line.  They are the reference for which structure a file holds and
# which message a faulty file gets.


def _data_lines(text: str, vertex_count: bool = False):
    """The ``#n`` header, as (1-based line number in text, vertex count) or
    None without one, and the data lines, each as (line number, stripped
    line).  Only a vertex_count format holds a header, at most one."""
    header = None
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.split()[0] == "#n":
                if not vertex_count:
                    raise ValueError(f"line {number}: #n header outside a vertex-graph "
                                     f"file: {line!r}")
                if header is not None:
                    raise ValueError(f"line {number}: second #n header (first on "
                                     f"line {header[0]}): {line!r}")
                (n,) = _ints(number, line, line.split()[1:], 1)
                if n < 0:
                    raise ValueError(f"line {number}: vertex count must be >= 0: {line!r}")
                _check_cap(number, line, n)
                header = (number, n)
            continue
        out.append((number, line))
    return header, out


def _check_cap(number: int, line: str, n: int):
    """Refuse a vertex count above MAX_VERTICES: a vertex graph's adjacency
    and degree vector take memory for every vertex, isolated or not."""
    if n > MAX_VERTICES:
        raise ValueError(f"line {number}: vertex count {n} exceeds the limit "
                         f"{MAX_VERTICES}: {line!r}")


def _ints(number: int, line: str, fields: list, count: int) -> list:
    """fields as integers, or a ValueError naming the line and quoting it
    when there are not exactly count of them or one is not an integer."""
    if len(fields) != count:
        raise ValueError(f"line {number}: expected {count} field(s), found "
                         f"{len(fields)}: {line!r}")
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ValueError(f"line {number}: not an integer: {line!r}") from None


def parse_vertex_graph(text: str) -> VertexGraph:
    header, lines = _data_lines(text, vertex_count=True)
    edges = set()
    max_label = 0
    for number, line in lines:
        u, v = _ints(number, line, line.split(), 2)
        if header is None:
            _check_cap(number, line, max(u, v))
        elif max(u, v) > header[1]:
            raise ValueError(f"line {number}: edge ({u},{v}) outside 1..{header[1]} "
                             f"declared on line {header[0]}: {line!r}")
        if u == v:
            raise ValueError(f"line {number}: self-loop at vertex {u}: {line!r}")
        if u < 1 or v < 1:
            raise ValueError(f"line {number}: edge ({u},{v}) has a vertex below 1: "
                             f"{line!r}")
        edges.add((u, v))
        max_label = max(max_label, u, v)
    n = header[1] if header is not None else max_label
    return VertexGraph(n, frozenset(edges))


def parse_edge_seq(text: str) -> EdgeSeqGraph:
    _, lines = _data_lines(text)
    edges = []
    for number, line in lines:
        i, j = _ints(number, line, line.split(), 2)
        if i == j:
            raise ValueError(f"line {number}: self-loop pair ({i},{j}): {line!r}")
        if not 1 <= i < j:
            raise ValueError(f"line {number}: pair ({i},{j}) must satisfy 1 <= i < j: "
                             f"{line!r}")
        edges.append((i, j))
    return EdgeSeqGraph(tuple(edges))


def parse_label_seq(text: str) -> tuple:
    _, lines = _data_lines(text)
    seq = []
    for number, line in lines:
        (v,) = _ints(number, line, line.split(), 1)
        if v < 1:
            raise ValueError(f"line {number}: label {v} is not a positive "
                             f"integer: {line!r}")
        seq.append(v)
    return tuple(seq)


# ---------------------------------------------------------------------------
# the replicate-path builders as they were before their one-pass versions,
# and the checking constructors that _Record._of skips


def relabel_rprime_three_pass(edges):
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


def pack_min_max(ints) -> bytes:
    """The count, then each int as a signed 32-bit big-endian word; an int
    that has no word of its own is escaped, so the packing is total over
    Python ints and injective."""
    ints = list(ints)
    if not ints or _ESCAPE < min(ints) and max(ints) < 2 ** 31:
        return _words(len(ints))(len(ints), *ints)
    words = [_WORD(len(ints))]
    for v in ints:
        if _ESCAPE < v < 2 ** 31:
            words.append(_WORD(v))
        else:
            raw = v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
            words += (_WORD(_ESCAPE), _WORD(len(raw)), raw)
    return b"".join(words)


def as_checked(x):
    """x's fields passed through its class's checking __init__, which must
    accept them and store them unchanged: the value it builds equals x,
    hashes as x does and holds fields of the same types."""
    checked = type(x)(*x._values())
    assert checked == x and hash(checked) == hash(x), (x, checked)
    assert [type(v) for v in checked._values()] == [type(v) for v in x._values()], x
    return checked
