import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    gio.write_text(path, "# seed=42\n" + gio.render_structure(half_multiplicity(6)))
    assert path.read_text().splitlines()[0] == "# seed=42"
    assert gio.read_edge_seq(path) == half_multiplicity(6)


def test_label_seq_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    gio.write_text(path, "# seed=0\n" + gio.render_structure((1, 2, 1, 3)))
    assert gio.read_label_seq(path) == (1, 2, 1, 3)
    gio.write_text(path, "# seed=0\n" + gio.render_structure(Partition((1, 2, 1))))
    assert gio.read_label_seq(path) == (1, 2, 1)


def test_label_seq_rejects_non_positive_labels():
    with pytest.raises(ValueError, match="label 0 is not a positive integer"):
        gio.parse_label_seq("0\n1\n")
    with pytest.raises(ValueError, match="label -2"):
        gio.parse_label_seq("1\n-2\n")


def test_malformed_line_is_named_by_number():
    # blank and comment lines count towards the number
    with pytest.raises(ValueError, match=r"^line 3: expected 2 field\(s\), found 1: '3'$"):
        gio.parse_vertex_graph("# seed=1\n1 2\n3\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 2 field\(s\), found 3: '1 2 3'$"):
        gio.parse_edge_seq("1 2\n\n1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: not an integer: 'x y'$"):
        gio.parse_vertex_graph("1 2\nx y\n")
    with pytest.raises(ValueError, match=r"^line 2: not an integer: '1.5'$"):
        gio.parse_label_seq("1\n1.5\n")
    with pytest.raises(ValueError, match=r"^line 1: expected 1 field\(s\), found 2: '2 3'$"):
        gio.parse_label_seq("2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: not an integer: '#n five'$"):
        gio.parse_vertex_graph("# seed=1\n#n five\n1 2\n")
    with pytest.raises(ValueError, match=r"^line 2: label 0 is not a positive integer: '0'$"):
        gio.parse_label_seq("1\n0\n")


def test_vertex_count_header_is_named_by_line():
    with pytest.raises(ValueError, match=r"^line 3: edge \(2,5\) outside 1\.\.3 "
                                         r"declared on line 1: '2 5'$"):
        gio.parse_vertex_graph("#n 3\n1 2\n2 5\n")
    with pytest.raises(ValueError, match=r"^line 2: vertex count must be >= 0: '#n -2'$"):
        gio.parse_vertex_graph("# seed=1\n#n -2\n")
    with pytest.raises(ValueError, match=r"^line 2: second #n header \(first on line 1\): "
                                         r"'#n 9'$"):
        gio.parse_vertex_graph("#n 4\n#n 9\n1 2\n")
    with pytest.raises(ValueError, match=r"^line 3: second #n header \(first on line 1\): "
                                         r"'#n 3'$"):
        gio.parse_vertex_graph("#n 5\n1 2\n#n 3\n")


def test_vertex_count_header_outside_vertex_graph_files_is_refused():
    # A vertex count means nothing to an edge sequence, a label sequence or
    # a step graphon; the header is refused, not silently skipped.
    with pytest.raises(ValueError, match=r"^line 1: #n header outside a vertex-graph "
                                         r"file: '#n 2'$"):
        gio.parse_edge_seq("#n 2\n1 5\n")
    with pytest.raises(ValueError, match=r"^line 2: #n header outside a vertex-graph "
                                         r"file: '#n 3'$"):
        gio.parse_label_seq("1\n#n 3\n2\n")
    with pytest.raises(ValueError, match=r"^line 2: #n header outside a vertex-graph "
                                         r"file: '#n 2'$"):
        gio.parse_step_graphon("# seed=1\n#n 2\n2\n0 0.5 1\n0.3 0.1\n0.1 0.2\n")
    # comments that only start with "#n" are still comments
    assert gio.parse_edge_seq("#note\n1 5\n").edges == ((1, 5),)


def test_vertex_count_above_the_limit_is_refused(monkeypatch):
    monkeypatch.setattr(gio, "MAX_VERTICES", 5)
    assert gio.parse_vertex_graph("#n 5\n1 2\n").n == 5
    assert gio.parse_vertex_graph("1 5\n").n == 5
    with pytest.raises(ValueError, match=r"^line 1: vertex count 6 exceeds the limit 5: "
                                         r"'#n 6'$"):
        gio.parse_vertex_graph("#n 6\n1 2\n")
    with pytest.raises(ValueError, match=r"^line 2: vertex count 6 exceeds the limit 5: "
                                         r"'1 6'$"):
        gio.parse_vertex_graph("1 2\n1 6\n")


def test_malformed_graphon_line_is_named_by_number():
    with pytest.raises(ValueError, match=r"^line 1: not an integer: 'two'$"):
        gio.parse_step_graphon("two\n0 0.5 1\n0.3 0.1\n0.1 0.2\n")
    with pytest.raises(ValueError, match=r"^line 2: block count must be >= 1: '0'$"):
        gio.parse_step_graphon("# seed=1\n0\n0 1\n")
    with pytest.raises(ValueError, match=r"^line 2: not a number: '0 half 1'$"):
        gio.parse_step_graphon("2\n0 half 1\n0.3 0.1\n0.1 0.2\n")
    with pytest.raises(ValueError, match=r"^line 4: not a number: '0.3 x'$"):
        gio.parse_step_graphon("2\n0 0.5 1\n\n0.3 x\n0.1 0.2\n")


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
    path = tmp_path / "w.txt"
    gio.write_text(path, "2\n0.0 0.25 1.0\n0.9 0.2\n0.2 0.4\n")
    w = gio.read_step_graphon(path)
    assert w == StepGraphon((0.0, 0.25, 1.0), ((0.9, 0.2), (0.2, 0.4)))


def test_step_graphon_asymmetric_rejected():
    bad = "2\n0.0 0.5 1.0\n0.9 0.2\n0.3 0.4\n"
    with pytest.raises(ValueError):
        gio.parse_step_graphon(bad)


def test_tally_csv_schema_and_counts():
    tally = prefix_density_vector(SamplerSpec("uniform_vertex"), y4(), 4, 3,
                                  1000, RandomStream(3))
    text = gio.render_tally_csv(tally)
    lines = text.splitlines()
    assert lines[0] == "pattern_key,count,density,stderr"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 1000


def test_fraction_rendering():
    from fractions import Fraction

    assert gio.render_fraction(Fraction(1, 1140)) == "1/1140"
    assert gio.render_fraction(Fraction(3, 1)) == "3"


def test_lln_csv_header():
    from graphsample.estimate import LLNTrace

    text = gio.render_lln_csv(LLNTrace((2, 4), (0.5, 0.25)))
    lines = text.splitlines()
    assert lines[0] == "k,estimate"
    assert lines[1] == "2,0.5"


@pytest.mark.parametrize("text, message", [
    ("2\n", "graphon file needs a block count and boundaries"),
    ("2\n0 0.5 1\n0.3 0.1\n", "expected 2 value rows, found 1"),
    ("2\n0 0.5 1\n0.1 0.2\n0.2 0.3\n0.9 0.9\n",
     "line 5: extra line after the 2 value rows: '0.9 0.9'"),
], ids=["short_file", "missing_rows", "extra_row"])
def test_step_graphon_refusals(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gio.parse_step_graphon(text)


def test_step_graphon_allows_comments_after_its_rows():
    w = gio.parse_step_graphon("1\n0 1\n0.5\n\n# seed=3\n")
    assert w == StepGraphon((0.0, 1.0), ((0.5,),))


def test_vertex_count_header_is_its_first_token():
    # "#n" followed by any whitespace is the header; "#note" stays a comment
    assert gio.parse_vertex_graph("#n\t7\n1 2\n").n == 7
    assert gio.parse_vertex_graph("#note 7\n# seed=1\n1 2\n").n == 2
    with pytest.raises(ValueError, match=r"^line 1: expected 1 field\(s\), found 0: '#n'$"):
        gio.parse_vertex_graph("#n\n1 2\n")
    refused = re.escape("line 1: #n header outside a vertex-graph file: '#n\\t2'")
    for parse, text in ((gio.parse_edge_seq, "#n\t2\n1 5\n"),
                        (gio.parse_label_seq, "#n\t2\n1\n"),
                        (gio.parse_step_graphon, "#n\t2\n1\n0 1\n0.5\n")):
        with pytest.raises(ValueError, match=f"^{refused}$"):
            parse(text)


def test_render_structure_refuses_unknown_kind():
    with pytest.raises(TypeError, match="^cannot render object$"):
        gio.render_structure(object())


# ---------------------------------------------------------------------------
# the one-pass readers against the two-pass reference in oracles

_CAP = 20  # MAX_VERTICES while a file is read, so labels near it are cheap
# every line boundary str.splitlines knows, and whitespace that is not one
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                           "\x85", "\u2028", "\u2029"])
_PAD = st.sampled_from(["", " ", "\t", "\x1f", " \t "])
_GAP = st.sampled_from([" ", "  ", "\t", " \x1f "])
_SKIPPED = st.sampled_from(["", "  ", "\t", "#note 7", "# seed=12", "#", "##n 3", "#n3",
                            " # x y"])


@st.composite
def _spelled(draw, v: int) -> str:
    """v as int() reads it: plain, with a sign, or with an underscore."""
    text = str(v)
    options = [text, "+" + text] if v >= 0 else [text]
    if abs(v) >= 10:
        options.append(text[:-1] + "_" + text[-1])
    return draw(st.sampled_from(options))


@st.composite
def _line(draw, *values, tag=None) -> str:
    fields = [draw(_spelled(v)) for v in values]
    return draw(_PAD) + draw(_GAP).join([tag, *fields] if tag else fields) + draw(_PAD)


@st.composite
def _valid(draw, fmt: str):
    """The lines of a file that fmt's reader accepts, and the largest label
    an edge line may hold: the #n count, or _CAP without a #n line."""
    bound = _CAP
    if fmt == "label":
        lines = [draw(_line(v)) for v in draw(st.lists(st.integers(1, 12), max_size=10))]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12))
                              .filter(lambda p: p[0] != p[1]), max_size=10))
        if fmt == "edge":
            pairs = [(min(p), max(p)) for p in pairs]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
        lines = [draw(_line(*p)) for p in pairs]  # reversed and repeated edges
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_SKIPPED))
    place = draw(st.sampled_from(["first", "late", "absent"])) if fmt == "vertex" else "absent"
    if place != "absent":
        top = max((max(map(int, line.split())) for line in lines
                   if line.strip() and not line.strip().startswith("#")), default=0)
        bound = draw(st.integers(top, top + 3))
        at = 0 if place == "first" else draw(st.integers(1, max(1, len(lines))))
        lines.insert(at, draw(_line(bound, tag="#n")))
    return lines, bound


def _fault(fmt: str, bound: int, has_header: bool):
    """One line that makes a file of fmt faulty wherever it goes."""
    fixed = ["x", "1.5", "1 #2", "#n 3"] if fmt != "vertex" else [
        "x 2", "1.5 2", "1 #2", "#n -1", "#n x", "#n", "#n 1 2"]
    if fmt == "label":
        drawn = [_line(2, 3), _line(0), _line(-2)]
    else:
        drawn = [_line(4), _line(1, 2, 3), _line(3, 3), _line(0, 2), _line(-1, 5)]
    if fmt == "edge":
        drawn.append(_line(5, 2))
    if fmt == "vertex":
        drawn += [_line(1, bound + 1), _line(bound + 2, 2), _line(_CAP + 1, 1),
                  _line(_CAP + 1, tag="#n")]
        if has_header:  # a second #n, the same as the first or not
            drawn += [_line(bound, tag="#n"), st.integers(0, bound + 2).flatmap(lambda m: _line(m, tag="#n"))]
    return st.one_of(st.sampled_from(fixed), *drawn)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        return f"refused: {exc}"


_READERS = {"vertex": (gio.parse_vertex_graph, oracles.parse_vertex_graph),
            "edge": (gio.parse_edge_seq, oracles.parse_edge_seq),
            "label": (gio.parse_label_seq, oracles.parse_label_seq)}


@pytest.mark.parametrize("fmt", ["vertex", "edge"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reader_value_passes_the_checks(fmt, data):
    """A valid file's graph, built without its class's checks, is what the
    checking constructor builds from the same fields."""
    lines, _ = data.draw(_valid(fmt))
    text = "".join(line + data.draw(_BREAKS) for line in lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "MAX_VERTICES", _CAP)
        oracles.as_checked(_READERS[fmt][0](text))


@pytest.mark.parametrize("faults", [0, 1, 2])
@pytest.mark.parametrize("fmt", list(_READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reader_matches_the_two_pass_reference(fmt, faults, data):
    """Every file, valid or with one or two faulty lines anywhere, gives the
    structure or the message the two-pass reference gives."""
    lines, bound = data.draw(_valid(fmt))
    has_header = any(line.split()[:1] == ["#n"] for line in lines)
    for _ in range(faults):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(_fault(fmt, bound, has_header)))
    text = "".join(line + data.draw(_BREAKS) for line in lines)
    if data.draw(st.booleans()):
        text = text.rstrip("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
    new, reference = _READERS[fmt]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "MAX_VERTICES", _CAP)
        mp.setattr(oracles, "MAX_VERTICES", _CAP)
        expected = _outcome(reference, text)
        assert isinstance(expected, str) == (faults > 0), text
        assert _outcome(new, text) == expected, text
