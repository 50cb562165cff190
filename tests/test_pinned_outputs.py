"""Byte-level pins on Monte Carlo outputs.

Each case runs 200 replicates at seed 1 on a small input and compares the
SHA-256 of the rendered tally (or value) with a recorded digest.  A
refactor that changes any draw, key or rendering byte fails here, so
"same program, less code" is checked by the unit suite and not only by
the benchmark.  ``ego`` and ``bs_root`` are left out: their rooted keys
are expected to change with an exact canonical form.
"""

import hashlib

import pytest

from graphsample import io as gio
from graphsample.estimate import empirical_average, prefix_density_vector
from graphsample.invariance import test_exchangeability
from graphsample.models import alternating_seq, cycle_vertex, half_multiplicity
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec
from graphsample.structures import Partition, VertexGraph

REPS = 200
SEED = 1

GRAPH = VertexGraph(7, frozenset({(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
                                  (2, 6), (6, 7)}))
EDGES = half_multiplicity(10)
PARTITION = Partition((1, 2, 1, 3, 2, 1, 4, 3, 1))
SEQUENCE = (3, 1, 4, 1, 5, 9, 2, 6, 5)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _vector(spec, y, n, k):
    tally = prefix_density_vector(spec, y, n, k, REPS, RandomStream(SEED))
    return gio.render_tally_csv(tally)


def _exchangeability(algo, y, n, k):
    report = test_exchangeability(SamplerSpec(algo), y, n, k, REPS, RandomStream(SEED))
    return (report.summary() + "\n" + gio.render_tally_csv(report.tally_a)
            + gio.render_tally_csv(report.tally_b))


def _monte_carlo_average():
    x = cycle_vertex(6)

    def f(g):
        return 1.0 if g.has_edge(1, 2) else 0.0

    value = empirical_average(x, f, 3, mode="monte_carlo", num_perms=REPS,
                              rng=RandomStream(SEED))
    return repr(value)


CASES = {
    "vector.uniform_vertex": lambda: _vector(SamplerSpec("uniform_vertex"), GRAPH, 7, 3),
    "vector.sparsified": lambda: _vector(SamplerSpec("sparsified", rho=0.5), GRAPH, 7, 3),
    "vector.p_sample": lambda: _vector(SamplerSpec("p_sample", p=0.5), GRAPH, 7, 1),
    "vector.degree_biased": lambda: _vector(SamplerSpec("degree_biased"), GRAPH, 7, 3),
    "vector.shortest_path": lambda: _vector(SamplerSpec("shortest_path"), GRAPH, 6, 3),
    "vector.sequence": lambda: _vector(SamplerSpec("sequence"), SEQUENCE, 9, 3),
    "vector.partition": lambda: _vector(SamplerSpec("partition"), PARTITION, 9, 4),
    "vector.edge": lambda: _vector(SamplerSpec("edge"), EDGES, 10, 3),
    "exchangeability.vertex_graph": lambda: _exchangeability("uniform_vertex", GRAPH, 7, 3),
    "exchangeability.edge_seq": lambda: _exchangeability("edge", EDGES, 10, 3),
    "exchangeability.partition": lambda: _exchangeability("partition", PARTITION, 9, 4),
    "exchangeability.sequence": lambda: _exchangeability("sequence", alternating_seq(9), 9, 3),
    "empirical_average.monte_carlo": _monte_carlo_average,
}

# captured before the structure-kind operations were merged
DIGESTS = {
    "empirical_average.monte_carlo": "b635f81c034b6fbf71e4037c020d5fa178f9c32be19be26c2147f643aa0b1b36",
    "exchangeability.edge_seq": "ba0628708049504de4da408c77eaeb4389a77c69593f956f60c4d710bd55dfa9",
    "exchangeability.partition": "92237d17dee03d10b1de7e970eb13d1a888a911a890e31aec9bde76d897bf52b",
    "exchangeability.sequence": "55e6bc208b915d9950a067dc0451340aad9d77f12dba48c18c8a5982e84a410f",
    "exchangeability.vertex_graph": "8c4d46a930ea3001fbacdb7e9b8cdfb807e78bbea84291f34a86f061200589cc",
    "vector.degree_biased": "58e193cd15946d665910e2f23e9be0745d404971042d81af2730b47c58268ab8",
    "vector.edge": "33ec8fdd6a8040060a452d227de75cb953dbb1392aeb89a67cfcc57d839a0103",
    "vector.p_sample": "77d124dddd388c1eb36a5acadc63477d919d78b5146ace875c067f81252e4137",
    "vector.partition": "6a2b16480a7b9bcf8f712399ded7229915e61d8227120e468fa5c253624cd39a",
    "vector.sequence": "5c1fd94473a4707157d4a4f6ddbe98a099f4d2ac8278fa3f52fc6ae9d0b65a9e",
    "vector.shortest_path": "36b9b0e4b2b268e4742ce903cd1aebcf2372f85f6314774333db6756cc0c05db",
    "vector.sparsified": "e9362ae02347ef164a4eaa16ac126490fefc9c4530309fbaf15e853391020594",
    "vector.uniform_vertex": "144db4e1faf3ef8f3ad2e7ec7fd20c02e17a278de58265bb624ae34a93c63ec6",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest_pinned(name):
    assert _digest(CASES[name]()) == DIGESTS[name]
