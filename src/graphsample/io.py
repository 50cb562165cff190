"""Text formats for structures and CSV output for estimates.

Edge-list format (bit-exact): one edge per line, two 1-based decimal
integers separated by a single space, LF line endings.  Line order is
significant for edge sequences.  A line ``#n <N>`` fixes the vertex count
of a VertexGraph (otherwise n = max label); it is written first, and only
when needed, i.e. when the graph has trailing isolated vertices.  A ``#``
line is that header when its first whitespace-separated token is ``#n``.
A vertex-graph file may hold one ``#n`` line, on any line: the edges
before it are checked against N just as those after it are.  Other formats
refuse it.  A vertex graph's declared or implied vertex count may not
exceed MAX_VERTICES.  Every other line starting with ``#`` is a metadata
comment (e.g. ``# seed=...``) and is skipped on load.  Lines are those of
str.splitlines, which also ends a line at CR, form feed, vertical tab,
U+001C-U+001E, U+0085, U+2028 and U+2029; a message's line number counts
blank and comment lines.

Step-graphon format: line 1 the block count B, line 2 the B+1 boundaries,
then B lines of B decimals and nothing more; validated symmetric on load.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .structures import (
    EdgeSeqGraph,
    MarkedCompleteGraph,
    Partition,
    RootedGraph,
    UNREACHABLE,
    VertexGraph,
    key_text,
)

if TYPE_CHECKING:  # annotations only: fractions, estimate and models load on first use
    from fractions import Fraction

    from .estimate import ItemProfile, LLNTrace, PatternTally
    from .models import StepGraphon

#: Most vertices a vertex-graph file may declare (``#n``) or imply (its
#: largest label).  Memory grows with the vertex count, about 220 bytes a
#: vertex once adjacency and degrees are built, so this is about 2 GB.
MAX_VERTICES = 10**7


# ---------------------------------------------------------------------------
# structures


def render_vertex_graph(g: VertexGraph) -> str:
    lines = []
    max_label = max((v for e in g.edges for v in e), default=0)
    if g.n != max_label:
        lines.append(f"#n {g.n}")
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "".join(line + "\n" for line in lines)


def render_edge_seq(g: EdgeSeqGraph) -> str:
    return "".join(f"{i} {j}\n" for i, j in g.edges)


def render_label_seq(s) -> str:
    labels = s.labels if isinstance(s, Partition) else s
    return "".join(f"{v}\n" for v in labels)


def render_marked(m: MarkedCompleteGraph) -> str:
    lines = [f"#n {m.k}"]
    for (i, j), mark in m.marks:
        text = "inf" if mark == UNREACHABLE else str(mark)
        lines.append(f"{i} {j} {text}")
    return "".join(line + "\n" for line in lines)


def render_rooted(rg: RootedGraph) -> str:
    lines = [f"#root {rg.root}",
             "#vertices " + " ".join(str(v) for v in sorted(rg.vertices))]
    lines.extend(f"{u} {v}" for u, v in sorted(rg.edges))
    return "".join(line + "\n" for line in lines)


def render_structure(x) -> str:
    if isinstance(x, VertexGraph):
        return render_vertex_graph(x)
    if isinstance(x, EdgeSeqGraph):
        return render_edge_seq(x)
    if isinstance(x, (Partition, tuple)):
        return render_label_seq(x)
    if isinstance(x, MarkedCompleteGraph):
        return render_marked(x)
    if isinstance(x, RootedGraph):
        return render_rooted(x)
    if isinstance(x, list):  # ego networks: one block per rooted ball
        return "\n".join(render_rooted(b) for b in x)
    raise TypeError(f"cannot render {type(x).__name__}")


def _header(lines: list, vertex_count: bool = False):
    """The file's ``#n <N>`` line as (number, N), or None when it has none.
    A ValueError names the first ``#n`` line that is refused: any in a
    format that is not a vertex_count one, a second one, or one whose N is
    no count."""
    header = None
    for number, line in enumerate(lines, start=1):
        if "#n" not in line or line.split()[0] != "#n":
            continue
        line = line.strip()
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
        header = number, n
    return header


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


def _skipped(line: str) -> bool:
    """Whether a reader passes over line: blank, a comment or a ``#n``
    line, each a line whose first field starts with ``#``."""
    fields = line.split()
    return not fields or fields[0][0] == "#"


def _refuse(number: int, line: str, count: int, check, header=None):
    """Raise the error for line number (1-based), a data line its reader
    refused: it does not hold count integers, or check(number, line,
    header, values) refuses them, header being the file's (number, N) or None."""
    line = line.strip()
    check(number, line, header, _ints(number, line, line.split(), count))
    raise AssertionError(f"a reader refused line {number}, which has no fault")


def _check_edge_line(number: int, line: str, header, values):
    u, v = values
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


def _check_pair_line(number: int, line: str, header, values):
    i, j = values
    if i == j:
        raise ValueError(f"line {number}: self-loop pair ({i},{j}): {line!r}")
    if not 1 <= i < j:
        raise ValueError(f"line {number}: pair ({i},{j}) must satisfy 1 <= i < j: "
                         f"{line!r}")


def _check_label_line(number: int, line: str, header, values):
    (v,) = values
    if v < 1:
        raise ValueError(f"line {number}: label {v} is not a positive "
                         f"integer: {line!r}")


# Each reader below reads the text's ``#n`` line first, when it holds one,
# so a ``#n`` fault comes before every other, then makes one pass over the
# lines.  A line is split once and its fields converted by one
# map(int, ...); a data line whose integers pass one chained comparison is
# kept, a blank, comment or ``#n`` line is passed over, and the first
# refused data line raises its error.


def parse_vertex_graph(text: str) -> VertexGraph:
    """The vertex graph text holds.  Each edge is kept as (u, v) with
    u < v, so the induced subgraph on 1..m holds just the edges with
    v <= m.  A ``#n`` line may come anywhere, once: it is read before the
    edges, so those above it are checked against it as those below it are."""
    lines = text.splitlines()
    header = _header(lines, vertex_count=True) if "#n" in text else None
    bound = header[1] if header is not None else MAX_VERTICES  # the largest label
    edges = []
    for number, line in enumerate(lines, start=1):
        try:
            u, v = map(int, line.split())
            if 0 < u < v <= bound:
                edges.append((u, v))
                continue
            if 0 < v < u <= bound:
                edges.append((v, u))
                continue
        except ValueError:
            if _skipped(line):
                continue
        _refuse(number, line, 2, _check_edge_line, header)
    n = header[1] if header is not None else max((e[1] for e in edges), default=0)
    return VertexGraph._of(n, frozenset(edges))


def parse_edge_seq(text: str) -> EdgeSeqGraph:
    lines = text.splitlines()
    if "#n" in text:
        _header(lines)
    edges = []
    for number, line in enumerate(lines, start=1):
        try:
            i, j = map(int, line.split())
            if 0 < i < j:
                edges.append((i, j))
                continue
        except ValueError:
            if _skipped(line):
                continue
        _refuse(number, line, 2, _check_pair_line)
    return EdgeSeqGraph._of(tuple(edges))


def parse_label_seq(text: str) -> tuple:
    lines = text.splitlines()
    if "#n" in text:
        _header(lines)
    seq = []
    for number, line in enumerate(lines, start=1):
        try:
            (v,) = map(int, line.split())
            if v > 0:
                seq.append(v)
                continue
        except ValueError:
            if _skipped(line):
                continue
        _refuse(number, line, 1, _check_label_line)
    return tuple(seq)


def read_vertex_graph(path) -> VertexGraph:
    with open(path) as fh:
        return parse_vertex_graph(fh.read())


def read_edge_seq(path) -> EdgeSeqGraph:
    with open(path) as fh:
        return parse_edge_seq(fh.read())


def read_label_seq(path) -> tuple:
    with open(path) as fh:
        return parse_label_seq(fh.read())


# ---------------------------------------------------------------------------
# step graphons


def _floats(number: int, line: str) -> tuple:
    """The fields of line as floats, or a ValueError naming the line and
    quoting it when one is not a number."""
    try:
        return tuple(float(x) for x in line.split())
    except ValueError:
        raise ValueError(f"line {number}: not a number: {line!r}") from None


def parse_step_graphon(text: str) -> StepGraphon:
    from .models import StepGraphon

    if "#n" in text:
        _header(text.splitlines())
    lines = [(number, raw.strip()) for number, raw in enumerate(text.splitlines(), start=1)
             if not _skipped(raw)]
    if len(lines) < 2:
        raise ValueError("graphon file needs a block count and boundaries")
    number, line = lines[0]
    (B,) = _ints(number, line, line.split(), 1)
    if B < 1:
        raise ValueError(f"line {number}: block count must be >= 1: {line!r}")
    boundaries = _floats(*lines[1])
    rows = [_floats(number, line) for number, line in lines[2:2 + B]]
    if len(rows) != B:
        raise ValueError(f"expected {B} value rows, found {len(rows)}")
    if len(lines) > 2 + B:
        number, line = lines[2 + B]
        raise ValueError(f"line {number}: extra line after the {B} value rows: {line!r}")
    return StepGraphon(boundaries, tuple(rows))  # symmetry checked on build


def read_step_graphon(path) -> StepGraphon:
    with open(path) as fh:
        return parse_step_graphon(fh.read())


# ---------------------------------------------------------------------------
# CSV outputs


def render_tally_csv(tally: PatternTally) -> str:
    lines = ["pattern_key,count,density,stderr"]
    for key, count in tally.sorted_items():
        lines.append(f"{key_text(key)},{count},{count / tally.reps:.10g},"
                      f"{tally.stderr(key):.10g}")
    return "".join(line + "\n" for line in lines)


def render_profile_csv(profile: ItemProfile, header: str) -> str:
    """One ``n,<item>,<value>`` row per item and schedule point, items in
    sorted order; ``header`` names the columns and a pair item is written
    ``i-j``."""
    lines = [header]
    for item in sorted(profile.series):
        name = f"{item[0]}-{item[1]}" if isinstance(item, tuple) else item
        for n, val in zip(profile.schedule, profile.series[item]):
            lines.append(f"{n},{name},{val:.10g}")
    return "".join(line + "\n" for line in lines)


def render_lln_csv(trace: LLNTrace) -> str:
    lines = ["k,estimate"]
    for k, est in zip(trace.ks, trace.estimates):
        lines.append(f"{k},{est:.10g}")
    return "".join(line + "\n" for line in lines)


def render_diagnose_csv(result) -> str:
    lines = ["n,pattern_key,density"]
    for n, tally in zip(result.schedule, result.tallies):
        for key, count in tally.sorted_items():
            lines.append(f"{n},{key_text(key)},{count / tally.reps:.10g}")
    lines.append("")
    lines.append("step,tv")
    for i, tv in enumerate(result.tv_steps):
        lines.append(f"{result.schedule[i]}->{result.schedule[i + 1]},{tv:.10g}")
    return "".join(line + "\n" for line in lines)


def render_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def write_text(path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
