"""Seeded input files for the benchmark workloads.

Every input is written here with stdlib ``random.Random(seed)`` and plain
text formatting, never through ``graphsample`` itself, so a change to the
package's models, RNG or generators cannot silently change what a workload
feeds the program.  The files use the package's documented text formats
(edge lists, label sequences, step graphons).
"""

from __future__ import annotations

import os
import random

# Two-block graphon shared by the dense graph and the step-graphon file:
# within-block densities 0.3 and 0.2, 0.05 across, equal block masses.
TWO_BLOCK = ((0.3, 0.05), (0.05, 0.2))
DENSE_N = 400
SPARSE_N = 400
SPARSE_DEGREE = 6
STAR_N = 5000
PARTITION_N = 200
PARTITION_ATOMS = (0.5, 0.3)  # remaining mass 0.2 is dust (singleton blocks)
EDGE_SEQ_N = 200


def _write(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _edge_lines(n, edges):
    """Edge-list text for a vertex graph on 1..n; ``#n`` is written only
    when trailing isolated vertices would otherwise shrink n."""
    lines = [f"{u} {v}" for u, v in sorted(edges)]
    if max((v for _, v in edges), default=0) != n:
        lines.insert(0, f"#n {n}")
    return lines


def two_block_graph(rng: random.Random, n: int = DENSE_N):
    """Canonical draw from TWO_BLOCK: vertex marks uniform on [0,1], block
    by mark < 0.5, each pair independently present with its block value."""
    block = [0 if rng.random() < 0.5 else 1 for _ in range(n)]
    edges = []
    for v in range(2, n + 1):
        bv = block[v - 1]
        for u in range(1, v):
            if rng.random() < TWO_BLOCK[block[u - 1]][bv]:
                edges.append((u, v))
    return edges


def regular_graph(rng: random.Random, n: int = SPARSE_N, d: int = SPARSE_DEGREE):
    """Random d-regular simple graph: the circulant graph joining i to
    i+1..i+d/2 (mod n), mixed by 10|E| degree-preserving double-edge swaps,
    then randomly relabeled."""
    edges = [(i, (i + s) % n) for i in range(n) for s in range(1, d // 2 + 1)]
    present = {frozenset(e) for e in edges}
    swaps = 0
    while swaps < 10 * len(edges):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = frozenset((a, e)), frozenset((c, b))
        if len({a, b, c, e}) < 4 or new1 in present or new2 in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, e))}
        present |= {new1, new2}
        edges[i], edges[j] = (a, e), (c, b)
        swaps += 1
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return [(min(label[u], label[v]), max(label[u], label[v])) for u, v in edges]


def paintbox_labels(rng: random.Random, n: int = PARTITION_N):
    """Block-label sequence of a paintbox draw, labels in order of first
    appearance: atom i with probability PARTITION_ATOMS[i], otherwise a
    new singleton block."""
    labels = []
    atom_label = {}
    next_label = 1
    for _ in range(n):
        u = rng.random()
        acc = 0.0
        atom = None
        for i, mass in enumerate(PARTITION_ATOMS):
            acc += mass
            if u < acc:
                atom = i
                break
        if atom is not None and atom in atom_label:
            labels.append(atom_label[atom])
            continue
        labels.append(next_label)
        if atom is not None:
            atom_label[atom] = next_label
        next_label += 1
    return labels


def half_multiplicity_edges(n: int = EDGE_SEQ_N):
    """The heavy hub edge (1,2) in every other slot, interleaved with
    distinct simple hub edges (1,3), (1,4), ..."""
    seq = []
    nxt = 3
    for t in range(n):
        if t % 2 == 0:
            seq.append((1, 2))
        else:
            seq.append((1, nxt))
            nxt += 1
    return seq


def write_inputs(workdir: str, seed: int) -> dict:
    """Write every input file into workdir; returns name -> path.

    Each randomised input has its own Random instance keyed by the seed and
    the input's name, so adding an input never changes another one."""

    def rng(name):
        return random.Random(f"{seed}:{name}")

    paths = {}

    def put(name, lines):
        paths[name] = os.path.join(workdir, name + ".txt")
        _write(paths[name], lines)

    put("y4", _edge_lines(4, [(1, 2), (2, 3), (2, 4)]))
    put("c50", _edge_lines(50, [(i, i + 1) for i in range(1, 50)] + [(1, 50)]))
    put("partition", [str(x) for x in paintbox_labels(rng("partition"))])
    put("edges", [f"{i} {j}" for i, j in half_multiplicity_edges()])
    put("dense", _edge_lines(DENSE_N, two_block_graph(rng("dense"))))
    put("sparse", _edge_lines(SPARSE_N, regular_graph(rng("sparse"))))
    put("star", _edge_lines(STAR_N, [(1, j) for j in range(2, STAR_N + 1)]))
    put("graphon", ["2", "0.0 0.5 1.0"]
        + [" ".join(repr(x) for x in row) for row in TWO_BLOCK])
    return paths
