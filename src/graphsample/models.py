"""Generative models and synthetic inputs used as ground truth.

Step graphons (block-constant symmetric functions on [0,1]^2), paintbox
partitions, deterministic multigraphs with prescribed limiting relative
multiplicities, and the small worked-example structures that the samplers
and estimators are checked against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import TYPE_CHECKING

from .rng import RandomStream
from .sampling import _rho_at
from .structures import EdgeSeqGraph, Partition, VertexGraph, _Frozen, relabel_r, relabel_rprime

if TYPE_CHECKING:  # annotation only: fractions loads where a Fraction is built
    from fractions import Fraction

_EPS = 1e-12


class StepGraphon(_Frozen):
    """Symmetric block-constant function on [0,1]^2.

    boundaries are cut points 0 = b_0 < ... < b_B = 1; values is a B x B
    symmetric matrix of edge probabilities.
    """

    def __init__(self, boundaries: tuple, values: tuple):
        b = tuple(float(x) for x in boundaries)
        v = tuple(tuple(float(x) for x in row) for row in values)
        B = len(v)
        # each check is written so that a NaN fails it
        if len(b) != B + 1 or b[0] != 0.0 or not abs(b[-1] - 1.0) <= _EPS:
            raise ValueError("boundaries must run 0 = b0 < ... < bB = 1")
        if not all(b[i] < b[i + 1] for i in range(B)):
            raise ValueError("boundaries must be strictly increasing")
        for row in v:
            if len(row) != B:
                raise ValueError("values must be a square matrix")
            for x in row:
                if not 0.0 <= x <= 1.0:
                    raise ValueError("values must lie in [0,1]")
        for a in range(B):
            for c in range(B):
                if abs(v[a][c] - v[c][a]) > _EPS:
                    raise ValueError("values must be symmetric")
        self._set(b, v)

    @property
    def num_blocks(self) -> int:
        return len(self.values)

    def block_of(self, u: float) -> int:
        idx = bisect_right(self.boundaries, u) - 1
        return min(max(idx, 0), self.num_blocks - 1)

    def block_masses(self) -> tuple:
        b = self.boundaries
        return tuple(b[i + 1] - b[i] for i in range(self.num_blocks))

    @classmethod
    def constant(cls, p: float) -> "StepGraphon":
        return cls((0.0, 1.0), ((p,),))


def graphon_draw(w: StepGraphon, k: int, rng: RandomStream) -> VertexGraph:
    """Random graph of size k from the canonical distribution of w:
    vertex marks U_i i.i.d. uniform, edge {i,j} present iff U_ij < w(U_i, U_j).

    Draws are interleaved (U_1, U_2, U_12, U_3, U_13, U_23, ...) so a draw
    of size k is a pathwise prefix of a draw of size k+1 on the same stream.
    This is the sparsified draw at rho = 1 (1.0 * p == p exactly).
    """
    return sparsified_graphon_draw(w, 1.0, k, rng)


def sparsified_graphon_draw(w: StepGraphon, rho, k: int, rng: RandomStream) -> VertexGraph:
    """Graphon draw with each edge threshold thinned to rho(k) * w, for rho
    a constant or a callable k -> [0,1]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = _rho_at(rho, k)
    # r * w(U_i, U_j) by the blocks of U_i and U_j: the same product of the
    # same value that w's own lookup gives, so draws are bit-identical
    thresholds = [[r * x for x in row] for row in w.values]
    blocks = []
    edges = set()
    for j in range(1, k + 1):
        bj = w.block_of(rng.uniform())
        column = [row[bj] for row in thresholds]
        for i, bi in enumerate(blocks, start=1):
            if rng.uniform() < column[bi]:
                edges.add((i, j))
        blocks.append(bj)
    return VertexGraph._of(k, frozenset(edges))


_PATTERN_DENSITY_MAX = 5


def graphon_pattern_density(w: StepGraphon, pattern: VertexGraph) -> float:
    """Exact probability that graphon_draw(w, j) equals the labeled pattern.

    Sums over all B^j block assignments, weighting by block masses and
    multiplying an edge/non-edge factor per vertex pair.  Only feasible for
    small patterns (j <= 5)."""
    j = pattern.n
    if j > _PATTERN_DENSITY_MAX:
        raise ValueError(f"pattern size {j} too large for exact summation "
                         f"(max {_PATTERN_DENSITY_MAX})")
    masses = w.block_masses()
    pairs = [(a, b, pattern.has_edge(a + 1, b + 1))
             for a in range(j) for b in range(a + 1, j)]
    total = 0.0
    for assign in itertools.product(range(w.num_blocks), repeat=j):
        p = 1.0
        for blk in assign:
            p *= masses[blk]
        for a, b, edge in pairs:
            val = w.values[assign[a]][assign[b]]
            p *= val if edge else 1.0 - val
        total += p
    return total


# ---------------------------------------------------------------------------
# paintbox partitions


class Paintbox(_Frozen):
    """Kingman paintbox: atom masses p(m) for infinite blocks, as
    (block_id, mass) pairs, plus dust p0 generating singletons.  Masses
    must sum to 1."""

    def __init__(self, atoms: tuple, dust: float = 0.0):
        atoms = tuple(sorted((int(m), float(p)) for m, p in atoms))
        # each check is written so that a NaN fails it
        if not all(p >= 0 for _, p in atoms) or not dust >= 0:
            raise ValueError("masses must be >= 0")
        total = dust + sum(p for _, p in atoms)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"masses must sum to 1 (got {total})")
        ids = [m for m, _ in atoms]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate block ids")
        self._set(atoms, dust)


def paintbox_draw(pb: Paintbox, k: int, rng: RandomStream) -> Partition:
    """Exchangeable partition of [k] from the paintbox: each element joins
    block m with probability p(m) or starts a fresh singleton with
    probability p0, by bisecting the atoms' running totals of mass with its
    uniform; the label sequence is then ordered by first appearance."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = [m for m, _ in pb.atoms]
    totals = list(itertools.accumulate(p for _, p in pb.atoms))
    fresh = max(ids, default=0) + 1  # dust labels fresh + i are never reused
    raw = []
    for i in range(k):
        a = bisect_right(totals, rng.uniform())
        raw.append(ids[a] if a < len(ids) else fresh + i)
    return Partition._of(relabel_r(raw))


# ---------------------------------------------------------------------------
# multigraphs with prescribed limiting relative multiplicities


class MultiplicitySpec(_Frozen):
    """Target limiting relative multiplicities for specific edges.

    targets holds ((i, j), mbar) items: canonical pairs i < j with masses
    mbar > 0 of sum <= 1; the residual mass 1 - sum is realized as never-repeating
    fresh simple edges."""

    def __init__(self, targets: tuple):
        t = tuple(sorted((tuple(p), float(m)) for p, m in targets))
        for (i, j), m in t:
            if not (1 <= i < j):
                raise ValueError(f"pair ({i},{j}) must satisfy 1 <= i < j")
            if not m > 0:  # NaN fails too
                raise ValueError("target multiplicities must be > 0")
        if not sum(m for _, m in t) <= 1.0 + _EPS:
            raise ValueError("target multiplicities must sum to <= 1")
        self._set(t)

    @property
    def residual(self) -> float:
        return max(0.0, 1.0 - sum(m for _, m in self.targets))


def multigraph_from_multiplicities(spec: MultiplicitySpec, n: int) -> EdgeSeqGraph:
    """Deterministic length-n edge sequence realizing the target multiplicities.

    Greedy largest-deficit scheduling keeps each pair's running relative
    multiplicity within 1/position of its target; residual mass goes to
    fresh simple edges on new vertices.  Output relabeled canonically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = [p for p, _ in spec.targets]
    target = {p: m for p, m in spec.targets}
    residual = spec.residual
    counts = {p: 0 for p in pairs}
    fresh_count = 0
    next_vertex = max((j for _, j in pairs), default=0) + 1
    seq = []
    for t in range(1, n + 1):
        best = None
        best_deficit = None
        for p in pairs:
            d = target[p] * t - counts[p]
            if best_deficit is None or d > best_deficit + _EPS:
                best, best_deficit = p, d
        fresh_deficit = residual * t - fresh_count
        if best_deficit is None or fresh_deficit > best_deficit + _EPS:
            seq.append((next_vertex, next_vertex + 1))
            next_vertex += 2
            fresh_count += 1
        else:
            seq.append(best)
            counts[best] += 1
    return relabel_rprime(seq)


# ---------------------------------------------------------------------------
# worked-example structures


def y4() -> VertexGraph:
    """4-vertex graph with hub 2: edges {1,2}, {2,3}, {2,4}."""
    return VertexGraph(4, frozenset({(1, 2), (2, 3), (2, 4)}))


def star_vertex(n: int) -> VertexGraph:
    """Star on n vertices: hub 1 joined to leaves 2..n."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return VertexGraph(n, frozenset((1, j) for j in range(2, n + 1)))


def star_edgeseq(n: int) -> EdgeSeqGraph:
    """Star as an edge sequence: ((1,2), (1,3), ..., (1,n+1)), n edges."""
    if n < 1:
        raise ValueError("need n >= 1 edges")
    return EdgeSeqGraph(tuple((1, j + 1) for j in range(1, n + 1)))


def matching_edgeseq(n: int) -> EdgeSeqGraph:
    """Perfect matching as an edge sequence: ((1,2), (3,4), ...), n edges."""
    if n < 1:
        raise ValueError("need n >= 1 edges")
    return EdgeSeqGraph(tuple((2 * i + 1, 2 * i + 2) for i in range(n)))


def half_multiplicity(n: int) -> EdgeSeqGraph:
    """Multigraph whose heavy hub edge has relative multiplicity 1/2.

    n must be even: n/2 copies of the edge (1,2) interleaved with n/2
    distinct simple hub edges (1,3), (1,4), ...; the heavy edge occupies
    every other slot so its running multiplicity converges to 1/2."""
    if n < 2 or n % 2 != 0:
        raise ValueError("half_multiplicity needs even n >= 2")
    seq = []
    nxt = 3
    for t in range(n):
        if t % 2 == 0:
            seq.append((1, 2))
        else:
            seq.append((1, nxt))
            nxt += 1
    return EdgeSeqGraph(tuple(seq))


def alternating_seq(n: int) -> tuple:
    """Sequence (1, 2, 1, 2, ...) of length n."""
    return tuple(1 if i % 2 == 0 else 2 for i in range(n))


def all_singletons_seq(n: int) -> tuple:
    """Sequence (1, 2, 3, ..., n): every label occurs exactly once."""
    return tuple(range(1, n + 1))


def cycle_vertex(n: int) -> VertexGraph:
    """Cycle C_n on vertices 1..n."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return VertexGraph(n, frozenset(edges))


def complete_vertex(n: int) -> VertexGraph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return VertexGraph(n, frozenset((i, j) for i in range(1, n + 1)
                                    for j in range(i + 1, n + 1)))


# ---------------------------------------------------------------------------
# graphon fitting and the misspecification table


def misspec_table(k: int, j: int) -> Fraction:
    """Probability 1/C(k,j) that a graphon model assigns to a once-observed
    size-j pattern recurring in a given position of a size-k sample."""
    from fractions import Fraction

    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    return Fraction(1, math.comb(k, j))
