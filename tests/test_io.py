import pytest

from graphsample import io as gio
from graphsample.estimate import prefix_density_vector
from graphsample.models import (
    StepGraphon,
    half_multiplicity,
    star_vertex,
    y4,
)
from graphsample.rng import RandomStream
from graphsample.sampling import SamplerSpec, sample_bs, sample_shortest_path
from graphsample.structures import (
    UNREACHABLE,
    EdgeSeqGraph,
    Partition,
    VertexGraph,
)


def test_vertex_graph_format_bit_exact():
    text = gio.render_vertex_graph(y4())
    assert text == "1 2\n2 3\n2 4\n"  # n = max label: no #n line
    assert gio.parse_vertex_graph(text) == y4()


def test_vertex_graph_header_for_isolated_vertices():
    g = VertexGraph(5, frozenset({(1, 2)}))
    text = gio.render_vertex_graph(g)
    assert text.splitlines()[0] == "#n 5"
    assert gio.parse_vertex_graph(text) == g


def test_vertex_graph_n_defaults_to_max_label():
    assert gio.parse_vertex_graph("2 7\n1 2\n").n == 7


def test_edge_seq_order_significant():
    g = EdgeSeqGraph(((1, 2), (1, 3), (1, 2)))
    text = gio.render_edge_seq(g)
    assert text == "1 2\n1 3\n1 2\n"
    assert gio.parse_edge_seq(text) == g
    assert gio.parse_edge_seq("1 3\n1 2\n1 2\n") != g


def test_seed_comment_skipped_on_load(tmp_path):
    path = tmp_path / "g.txt"
    gio.write_structure(path, half_multiplicity(6), seed=42)
    assert path.read_text().splitlines()[0] == "# seed=42"
    assert gio.read_edge_seq(path) == half_multiplicity(6)


def test_label_seq_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    gio.write_structure(path, (1, 2, 1, 3), seed=0)
    assert gio.read_label_seq(path) == (1, 2, 1, 3)
    gio.write_structure(path, Partition((1, 2, 1)), seed=0)
    assert gio.read_label_seq(path) == (1, 2, 1)


def test_label_seq_rejects_non_positive_labels():
    with pytest.raises(ValueError, match="label 0 is not a positive integer"):
        gio.parse_label_seq("0\n1\n")
    with pytest.raises(ValueError, match="label -2"):
        gio.parse_label_seq("1\n-2\n")


def test_marked_graph_rendering():
    m = sample_shortest_path(VertexGraph(4, frozenset({(1, 2), (3, 4)})),
                             4, 2, RandomStream(1))
    text = gio.render_marked(m)
    assert text.startswith("#n 2\n")
    assert ("inf" in text) == any(v == UNREACHABLE for _, v in m.marks)


def test_rooted_rendering_contains_root():
    rg = sample_bs(star_vertex(5), 5, 1, RandomStream(0))
    text = gio.render_rooted(rg)
    assert text.splitlines()[0] == f"#root {rg.root}"


def test_step_graphon_roundtrip(tmp_path):
    w = StepGraphon((0.0, 0.25, 1.0), ((0.9, 0.2), (0.2, 0.4)))
    path = tmp_path / "w.txt"
    gio.write_step_graphon(path, w)
    w2 = gio.read_step_graphon(path)
    assert w2 == w


def test_step_graphon_asymmetric_rejected():
    bad = "2\n0.0 0.5 1.0\n0.9 0.2\n0.3 0.4\n"
    with pytest.raises(ValueError):
        gio.parse_step_graphon(bad)


def test_tally_csv_schema_and_counts():
    tally = prefix_density_vector(SamplerSpec("uniform_vertex"), y4(), 4, 3,
                                  1000, RandomStream(3))
    text = gio.render_tally_csv(tally, seed=3)
    lines = text.splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "pattern_key,count,density,stderr"
    assert sum(int(l.split(",")[1]) for l in lines[2:]) == 1000


def test_fraction_rendering():
    from fractions import Fraction

    assert gio.render_fraction(Fraction(1, 1140)) == "1/1140"
    assert gio.render_fraction(Fraction(3, 1)) == "3"


def test_lln_csv_header():
    from graphsample.estimate import LLNTrace

    text = gio.render_lln_csv(LLNTrace((2, 4), (0.5, 0.25)), seed=9)
    lines = text.splitlines()
    assert lines[0] == "# seed=9"
    assert lines[1] == "k,estimate"
    assert lines[2] == "2,0.5"
