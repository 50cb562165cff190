"""Machine-speed probe for normalising wall times.

On a shared host the speed of a core drifts with what other tenants run:
on the 2-vCPU machine this benchmark was built on, a fixed pure-Python
loop took anywhere from 20 to 34 ms over a few minutes, and every wall time
in a run moves with it.  That drift is far larger than the regressions the
benchmark has to catch, and no estimator inside one run removes it.

The probe is a fixed pure-Python workload in the benchmark's own process,
built from the same kinds of operations the package spends its time in
(adjacency lists, BFS, frozenset filtering, sorted tuple keys, 64-bit
integer mixing).  It never imports ``graphsample``, so no change to the
program can change it.  Timed between commands, it gives the speed factor
by which the machine was slower than nominal at that moment; dividing a
wall time by the factor gives the time at nominal speed.
"""

from __future__ import annotations

import random
import time
from collections import deque

NOMINAL_S = 0.025  # probe time that defines nominal machine speed
ROUNDS = 4         # repetitions of the probe workload per call
_MASK = (1 << 64) - 1


class SpeedProbe:
    """Call to time one probe; returns its time divided by NOMINAL_S."""

    def __init__(self, n: int = 400, p: float = 0.1, seed: int = 0):
        rng = random.Random(seed)
        self.n = n
        self.edges = [(u, v) for v in range(2, n + 1) for u in range(1, v)
                      if rng.random() < p]

    def _work(self):
        adj = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        keys = []
        for root in (1, self.n // 2, self.n):
            dist = {root: 0}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                if dist[u] >= 1:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            verts = frozenset(dist)
            keys.append(tuple(sorted(e for e in self.edges
                                     if e[0] in verts and e[1] in verts)))
        z = 0
        for i in range(20_000):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 + i) & _MASK
        return keys, z

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            self._work()
        return (time.perf_counter() - start) / NOMINAL_S
