"""Byte-level pins on Monte Carlo outputs.

Each case runs 200 replicates at seed 1 on a small input and compares the
SHA-256 of the rendered tally (or value) with a recorded digest.  A
refactor that changes any draw, key or rendering byte fails here, so
"same program, less code" is checked by the unit suite and not only by
the benchmark.

Rooted outputs are pinned too: ``ego`` and ``bs_root`` tallies and the
Monte Carlo involution-invariance report.  Their keys are the bytes of
``canonical_rooted``'s form, so a change of canonical form that keeps
every isomorphism class re-records these digests and says so in its
change notes.  Some rooted cases run ten or more replicates per vertex
(the C50 involution test runs 500), so most of their balls are keyed
from the graph's ball-key memo.  The exact involution cases pin both
enumerated laws, which key each neighbour's ball once per edge.  A report
holds those laws as probabilities, so the pin writes each one as
``round(w * 10**12)``, an integer count, and lists a law's keys as a tally
lists them, most frequent first.
"""

import hashlib
import itertools
import random
import tempfile
from pathlib import Path

import pytest

from graphsample import io as gio
from graphsample.cli import main
from graphsample.estimate import empirical_average, prefix_density_vector
from graphsample.invariance import test_exchangeability, test_involution_invariance
from graphsample.models import (
    Paintbox,
    StepGraphon,
    alternating_seq,
    cycle_vertex,
    graphon_pattern_density,
    half_multiplicity,
    paintbox_draw,
    star_vertex,
)
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec, diagnose_limit
from graphsample.structures import Partition, VertexGraph, key_text

REPS = 200
SEED = 1

GRAPH = VertexGraph(7, frozenset({(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
                                  (2, 6), (6, 7)}))
EDGES = half_multiplicity(10)
PARTITION = Partition((1, 2, 1, 3, 2, 1, 4, 3, 1))
SEQUENCE = (3, 1, 4, 1, 5, 9, 2, 6, 5)
# Vertex 4's only edge goes to vertex 8, so it is isolated in the restriction
# to 7 vertices (a zero weight for degree-biased draws).
ISOLATED = VertexGraph(8, frozenset({(1, 2), (1, 3), (2, 3), (3, 5), (5, 6), (6, 7),
                                     (4, 8)}))
EDGELESS = VertexGraph(6)
# Vertex 8 joins {1, 2, 3}, {4, 5} and {6, 7}; without it they are disconnected.
BRIDGED = VertexGraph(8, frozenset({(1, 2), (2, 3), (4, 5), (6, 7), (3, 8), (5, 8),
                                    (7, 8)}))


# G(12, 0.3) drawn with random.Random(3).  At 200 replicates (more than ten
# per vertex) most balls repeat, so these pins cover ball keys read back from
# the graph's memo as well as ones computed afresh.
_rand = random.Random(3)
RANDOM12 = VertexGraph(12, frozenset(
    (u, v) for u in range(1, 13) for v in range(u + 1, 13) if _rand.random() < 0.3))
HIGH_HIT_REPS = 500  # cycle_vertex(50): ten replicates per vertex

TWO_BLOCK_TEXT = "2\n0.0 0.4 1.0\n0.8 0.1\n0.1 0.6\n"
TWO_BLOCK = StepGraphon((0.0, 0.4, 1.0), ((0.8, 0.1), (0.1, 0.6)))
PAIRS_3 = ((1, 2), (1, 3), (2, 3))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _vector(spec, y, n, k):
    tally = prefix_density_vector(spec, y, n, k, REPS, RandomStream(SEED))
    return gio.render_tally_csv(tally)


def _exchangeability(algo, y, n, k):
    return _report(test_exchangeability(SamplerSpec(algo), y, n, k, REPS,
                                        RandomStream(SEED)))


def _report(report):
    return (report.summary() + "\n" + gio.render_tally_csv(report.tally_a)
            + gio.render_tally_csv(report.tally_b))


def _involution():
    return _report(test_involution_invariance("uniform", GRAPH, 7, 1, REPS,
                                              RandomStream(SEED)))


def _exact_involution(y, n, radius):
    report = test_involution_invariance("uniform", y, n, radius, REPS, RandomStream(SEED),
                                        exact=True)
    rows = []
    for law in (report.tally_a, report.tally_b):
        counts = {key: round(w * 10**12) for key, w in law.items()}
        rows += [f"{key_text(key)},{count}"
                 for key, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    return "\n".join(rows)


def _diagnose_star():
    result = diagnose_limit(SamplerSpec("degree_biased"), star_vertex(50), 2,
                            (10, 25, 50), REPS, RandomStream(SEED))
    return gio.render_diagnose_csv(result)


def _monte_carlo_average():
    x = cycle_vertex(6)

    def f(g):
        return 1.0 if g.has_edge(1, 2) else 0.0

    # 100 draws, below the (6)_3 = 120 arrangements that would be averaged exactly
    value = empirical_average(x, f, 3, num_perms=100, rng=RandomStream(SEED))
    return repr(value)


# atoms given out of block order, one of them massless, with dust and without
PAINTBOXES = (Paintbox(((3, 0.25), (1, 0.5), (4, 0.0), (2, 0.125)), dust=0.125),
              Paintbox(((2, 0.3), (1, 0.5), (5, 0.2))))


def _paintbox_draws():
    return "\n".join(repr(paintbox_draw(pb, REPS, RandomStream(SEED)).labels)
                     for pb in PAINTBOXES)


def _cli_output(argv, inputs) -> str:
    """Run ``main`` in a temporary directory: each input is written first,
    ``{name}`` in argv becomes that file's path, and the text that
    ``--out`` receives is returned."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in inputs}
        for name, text in inputs.items():
            Path(paths[name]).write_text(text)
        out = Path(tmp) / "out.txt"
        argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
        assert main(argv) == 0
        return out.read_text()


def _profile_cli(what):
    edges = _cli_output(["generate", "half_multiplicity", "--n", "400"], {})
    return _cli_output(["estimate", "--what", what, "--in", "{edges}",
                        "--schedule", "50,100,400", "--seed", str(SEED)],
                       {"edges": edges})


def _graphon_cli():
    return _cli_output(["generate", "graphon", "--file", "{w}", "--k", "60",
                        "--seed", str(SEED)], {"w": TWO_BLOCK_TEXT})


def _sample_cli(algo, k):
    return _cli_output(["sample", "--algo", algo, "--in", "{g}", "--n", "7",
                        "--k", str(k), "--seed", str(SEED)],
                       {"g": gio.render_structure(GRAPH)})


def _rooted_vector_cli(algo, k):
    return _cli_output(["estimate", "--what", "vector", "--algo", algo, "--in", "{g}",
                        "--n", "12", "--k", str(k), "--reps", str(REPS),
                        "--seed", str(SEED)], {"g": gio.render_structure(RANDOM12)})


def _cycle_involution_cli():
    return _cli_output(["test", "--test", "involution", "--in", "{g}", "--n", "50",
                        "--radius", "2", "--reps", str(HIGH_HIT_REPS),
                        "--seed", str(SEED)], {"g": gio.render_structure(cycle_vertex(50))})


def _edge_vector_cli():
    edges = _cli_output(["generate", "half_multiplicity", "--n", "40"], {})
    return _cli_output(["estimate", "--what", "vector", "--algo", "edge",
                        "--in", "{edges}", "--n", "40", "--k", "3",
                        "--reps", str(REPS), "--seed", str(SEED)],
                       {"edges": edges})


def _density_cli(pattern):
    return _cli_output(["estimate", "--what", "density", "--algo", "uniform_vertex",
                        "--in", "{g}", "--pattern", "{pattern}", "--n", "7",
                        "--reps", str(REPS), "--seed", str(SEED)],
                       {"g": gio.render_structure(GRAPH), "pattern": pattern})


def _lln_cli():
    return _cli_output(["estimate", "--what", "lln", "--algo", "sequence", "--in", "{s}",
                        "--n", "9", "--schedule", "3,9", "--label", "1", "--j", "2",
                        "--reps", str(REPS), "--seed", str(SEED)],
                       {"s": gio.render_structure(SEQUENCE)})


def _diagnose_cli():
    return _cli_output(["diagnose", "--algo", "degree_biased", "--in", "{g}",
                        "--n", "50", "--k", "2", "--schedule", "10,25,50",
                        "--reps", str(REPS), "--seed", str(SEED)],
                       {"g": gio.render_structure(star_vertex(50))})


SIZED_GENERATORS = ("star", "star_edges", "matching", "half_multiplicity",
                    "alternating", "singletons", "cycle", "complete")


def _pattern_densities():
    lines = []
    for present in itertools.product((False, True), repeat=len(PAIRS_3)):
        edges = frozenset(p for p, on in zip(PAIRS_3, present) if on)
        lines.append(repr(graphon_pattern_density(TWO_BLOCK, VertexGraph(3, edges))))
    return "\n".join(lines)


CASES = {
    "vector.uniform_vertex": lambda: _vector(SamplerSpec("uniform_vertex"), GRAPH, 7, 3),
    "vector.sparsified": lambda: _vector(SamplerSpec("sparsified", rho=0.5), GRAPH, 7, 3),
    "vector.p_sample": lambda: _vector(SamplerSpec("p_sample", p=0.5), GRAPH, 7, 1),
    "vector.degree_biased": lambda: _vector(SamplerSpec("degree_biased"), GRAPH, 7, 3),
    "vector.shortest_path": lambda: _vector(SamplerSpec("shortest_path"), GRAPH, 6, 3),
    "vector.degree_biased.isolated": lambda: _vector(SamplerSpec("degree_biased"),
                                                     ISOLATED, 7, 4),
    "vector.degree_biased.edgeless": lambda: _vector(SamplerSpec("degree_biased"),
                                                     EDGELESS, 6, 3),
    "vector.shortest_path.disconnected": lambda: _vector(SamplerSpec("shortest_path"),
                                                         BRIDGED, 7, 4),
    "diagnose.degree_biased.star": _diagnose_star,
    "vector.sequence": lambda: _vector(SamplerSpec("sequence"), SEQUENCE, 9, 3),
    "vector.partition": lambda: _vector(SamplerSpec("partition"), PARTITION, 9, 4),
    "vector.edge": lambda: _vector(SamplerSpec("edge"), EDGES, 10, 3),
    "exchangeability.vertex_graph": lambda: _exchangeability("uniform_vertex", GRAPH, 7, 3),
    "exchangeability.edge_seq": lambda: _exchangeability("edge", EDGES, 10, 3),
    "exchangeability.partition": lambda: _exchangeability("partition", PARTITION, 9, 4),
    "exchangeability.sequence": lambda: _exchangeability("sequence", alternating_seq(9), 9, 3),
    "empirical_average.monte_carlo": _monte_carlo_average,
    "paintbox_draw": _paintbox_draws,
    "vector.ego": lambda: _vector(SamplerSpec("ego"), GRAPH, 7, 2),
    "vector.bs_root": lambda: _vector(SamplerSpec("bs_root"), GRAPH, 7, 2),
    # layers 1+9 at the hub and 1+1+8 at a leaf: twin cells, no branching
    "vector.bs_root.star": lambda: _vector(SamplerSpec("bs_root"), star_vertex(10), 10, 2),
    "involution.monte_carlo": _involution,
    "cli.estimate.degrees": lambda: _profile_cli("degrees"),
    "cli.estimate.multiplicity": lambda: _profile_cli("multiplicity"),
    "cli.generate.graphon": _graphon_cli,
    "graphon_pattern_density.two_block": _pattern_densities,
    # io.render_structure's marked, rooted and ego-list branches
    "cli.sample.shortest_path": lambda: _sample_cli("shortest_path", 4),
    "cli.sample.ego": lambda: _sample_cli("ego", 3),
    "cli.sample.bs_root": lambda: _sample_cli("bs_root", 2),
    "cli.estimate.vector.edge": _edge_vector_cli,
    "cli.estimate.vector.bs_root.repeated": lambda: _rooted_vector_cli("bs_root", 2),
    "cli.estimate.vector.ego.repeated": lambda: _rooted_vector_cli("ego", 3),
    "cli.test.involution.cycle50": _cycle_involution_cli,
    # GRAPH holds one triangle and no K4, so the second pattern is never drawn
    "cli.estimate.density.observed": lambda: _density_cli("1 2\n1 3\n2 3\n"),
    "cli.estimate.density.unobserved": lambda: _density_cli(
        "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"),
    "cli.estimate.lln": _lln_cli,
    "cli.diagnose.degree_biased.star": _diagnose_cli,
    "involution.exact.random12": lambda: _exact_involution(RANDOM12, 12, 2),
    "involution.exact.graph": lambda: _exact_involution(GRAPH, 7, 1),
    **{f"cli.generate.{name}": (lambda name=name: _cli_output(
        ["generate", name, "--n", "6"], {})) for name in SIZED_GENERATORS},
}

# captured before the structure-kind operations were merged
DIGESTS = {
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
    # captured before inputs were prepared once per tally
    "vector.degree_biased.edgeless": "cbd4e22f9208732e8edb7e23f7633f41c7013ef672a1b851cd294af9997af17a",
    "vector.degree_biased.isolated": "a0b995691f5b099b9bfe213707d3fce779d1f6dd3d0ae2ffce07b5b48cf5a892",
    "vector.shortest_path.disconnected": "025505578fad7847fe9becda3ebd89a8f0bab0c510a16cdb9494362a69cc2c26",
    # captured before rooted graphs kept their adjacency and depth map; the
    # star's keys came out the same under the individualization-refinement form
    "vector.bs_root.star": "ed68e99cb3d863d8da7b511f03b724f85f381f7e46cdde8788c74acb5d399a93",
    # re-recorded for the individualization-refinement form: the same
    # isomorphism classes of balls as before, under other key bytes
    "involution.monte_carlo": "b9db763183acbb8cbc338bac2604efedbe53b7a252a0bb2102a786d0a5111aac",
    "vector.bs_root": "ff32e52c3eef4b8435f09b502d34d28d182357409ed2d1fe156aaee4927b934e",
    "vector.ego": "1b2d5fb22122173ca868a265f726a0bd1ceaa5cf7c75f43316d9e53f53c8bfe4",
    # captured before the degree and multiplicity profiles shared one
    # renderer and the graphon draw looked each block up once per vertex
    "cli.estimate.degrees": "d45676be0fc67de5768d65ddbc3fa9d594535fea0ab81874154fcfcb84d62f3e",
    "cli.estimate.multiplicity": "286274e5a165b86d76f5284f3547ee341d624711bf035ddd8f6039563a58276e",
    "cli.generate.graphon": "f35a48a87c0dd8d100c9e78b7628a83fad41786bfb00b90ea147674193e06b75",
    "graphon_pattern_density.two_block": "09a323104f01b20ac88fd94b431161ce1ec9ae01efb6eb80b9b88c56d8a45ba3",
    # captured before the unused input forms and parameters were deleted
    # and generate's elif chain became a table
    "cli.estimate.vector.edge": "8bac9ce40e24e624f1c8fbbebcd7750bc91b145760ec0f24a1d0212be838f85d",
    "cli.generate.alternating": "896a23fe4e18dff98125c2bc4a0fe182b64b9dae6a5123ffea8b20ef3978fc90",
    "cli.generate.complete": "0d7520198b1c888449e82342b1a031d4d8927f9bf3f6fd06cb765c1c65470559",
    "cli.generate.cycle": "0660a257c4c5ec4c22e8bac14ce36e88daa9825529acc20b7b57964b19921f6f",
    "cli.generate.half_multiplicity": "63802c5ae794efab88a76261463e381d0ed8e53fdbd793879f45ff058059eb93",
    "cli.generate.matching": "a954969f34e1479c11b1d92a3ed34673e34ed80e6dc49329d9c12b2a6fb03cc7",
    "cli.generate.singletons": "31156a95eca0533ac0f1cad543c46f57fc57b6943eee840a1ee84363938abe98",
    "cli.generate.star": "68e251dc1c77bcbc104767e4d31a3ff44a15fd2ada2b0bab1867428808cd9b6c",
    "cli.generate.star_edges": "c064cdaabfaadc579f082416b4b7ef6da5b5712fe493e9e3ceda0254605fd2b1",
    "cli.sample.bs_root": "84ca5cf018930cd7e8c3472c3a82d31891b191ce2284dea2d005a2da7a5bf5bf",
    "cli.sample.ego": "8007dd03be3c0cb9308c361d2ae8ea666aa5ae8cbb15e6856d0d239577a9bfa2",
    "cli.sample.shortest_path": "8aae71bbaff09581525858ca0049f5f1de4e9a2e850caaf40c38795ed60ccba0",
    # captured before ball keys were memoised on the graph they came from
    "cli.estimate.vector.bs_root.repeated": "1917d054a5d17dec10ee2965eecb9a64bb6fd969c44efc80a1bbb12aef641817",
    "cli.estimate.vector.ego.repeated": "4f08bb762daef77111f861970b396d43c7c26db4e0f986636e553ce20ac58da4",
    "cli.test.involution.cycle50": "bdc6761146006f8793705f5d201c36afb92d71801f0fb7a7be5d83e1f09604b1",
    "involution.exact.graph": "7a75617c04d614fb212316ad38679b2d245bc94940d93dc19b1cadc462260c55",
    "involution.exact.random12": "6b060a29cc0c5406b3173cd282fd40530c96c7b44eef4099f133bf4e53e5a4cc",
    # captured before the CLI became the one writer of # seed= lines and
    # --what density went through the tally renderer
    "cli.diagnose.degree_biased.star": "069f44d14fbdd4cbcaf045476f3416494ed9bf9dd8cd347b0ad3d028e62cea66",
    "cli.estimate.density.observed": "3a92d6979e34de2a1aa1f67322e990b6269cc68cfa6e8329b1a9a87f2a34eb82",
    "cli.estimate.density.unobserved": "da4c5669c9ea36499f756240f4d33520d1bdab36078411e2ae0caa188bbfb842",
    # re-recorded when empirical_average began averaging exactly whenever
    # (k)_j <= num_perms: lln's k=3 row kept its bytes and its k=9 row became
    # exactly 2/9 (72 arrangements), and the sampled pin, whose 200 draws
    # would now be C6's 120 arrangements exactly, draws 100
    "cli.estimate.lln": "f96cc1f7778f94a219c0cdb1a0a69eb2c8101d72ecd9f585a2bebd144b1a17f0",
    "empirical_average.monte_carlo": "bffb16d6fe1445f051b3cff3025340011b817b391ffc04dcd77d1452efa10c25",
    # re-recorded when the CLI took over the # verdict= and # tolerance=
    # lines: the renderer's output lost exactly those two lines, and the
    # parent's output without them has this digest
    "diagnose.degree_biased.star": "3e9858b09c3f73a34592d837c83b4025a8d1f12bd805ea35387a39930d5206d6",
    # captured while paintbox_draw still scanned the atoms for every element
    "paintbox_draw": "b939542e8e4ce0f3938b51e231eb59b5de32b0a5fdd2042d164fe10346efcaf9",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest_pinned(name):
    assert _digest(CASES[name]()) == DIGESTS[name]
