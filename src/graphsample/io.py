"""Text formats for structures and CSV output for estimates.

Edge-list format (bit-exact): one edge per line, two 1-based decimal
integers separated by a single space, LF line endings.  Line order is
significant for edge sequences.  An optional first line ``#n <N>`` fixes
the vertex count of a VertexGraph (otherwise n = max label); it is written
only when needed, i.e. when the graph has trailing isolated vertices.
Lines starting with ``# `` are metadata comments (e.g. ``# seed=...``)
and are skipped on load.

Step-graphon format: line 1 the block count B, line 2 the B+1 boundaries,
then B lines of B decimals; validated symmetric on load.
"""

from __future__ import annotations

from fractions import Fraction

from .estimate import ItemProfile, LLNTrace, PatternTally
from .models import StepGraphon
from .structures import (
    EdgeSeqGraph,
    MarkedCompleteGraph,
    Partition,
    RootedGraph,
    UNREACHABLE,
    VertexGraph,
)


def _meta_lines(seed=None, extra=None) -> list:
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    for key, val in (extra or {}).items():
        lines.append(f"# {key}={val}")
    return lines


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


def _data_lines(text: str):
    n_decl = None
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#n "):
                n_decl = int(line.split()[1])
            continue
        out.append(line)
    return n_decl, out


def parse_vertex_graph(text: str) -> VertexGraph:
    n_decl, lines = _data_lines(text)
    edges = set()
    max_label = 0
    for line in lines:
        u, v = (int(x) for x in line.split())
        edges.add((u, v) if u < v else (v, u))
        max_label = max(max_label, u, v)
    n = n_decl if n_decl is not None else max_label
    return VertexGraph(n, frozenset(edges))


def parse_edge_seq(text: str) -> EdgeSeqGraph:
    _, lines = _data_lines(text)
    edges = []
    for line in lines:
        i, j = (int(x) for x in line.split())
        edges.append((i, j))
    return EdgeSeqGraph(tuple(edges))


def parse_label_seq(text: str) -> tuple:
    _, lines = _data_lines(text)
    seq = tuple(int(line) for line in lines)
    for v in seq:
        if v < 1:
            raise ValueError(f"label {v} is not a positive integer")
    return seq


def write_structure(path, x, seed=None):
    body = render_structure(x)
    head = "".join(line + "\n" for line in _meta_lines(seed))
    with open(path, "w", newline="\n") as fh:
        fh.write(head + body)


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


def render_step_graphon(w: StepGraphon) -> str:
    lines = [str(w.num_blocks),
             " ".join(repr(b) for b in w.boundaries)]
    for row in w.values:
        lines.append(" ".join(repr(x) for x in row))
    return "".join(line + "\n" for line in lines)


def parse_step_graphon(text: str) -> StepGraphon:
    _, lines = _data_lines(text)
    if len(lines) < 2:
        raise ValueError("graphon file needs a block count and boundaries")
    B = int(lines[0])
    boundaries = tuple(float(x) for x in lines[1].split())
    rows = [tuple(float(x) for x in line.split()) for line in lines[2:2 + B]]
    if len(rows) != B:
        raise ValueError(f"expected {B} value rows, found {len(rows)}")
    return StepGraphon(boundaries, tuple(rows))  # symmetry checked on build


def write_step_graphon(path, w: StepGraphon):
    with open(path, "w", newline="\n") as fh:
        fh.write(render_step_graphon(w))


def read_step_graphon(path) -> StepGraphon:
    with open(path) as fh:
        return parse_step_graphon(fh.read())


# ---------------------------------------------------------------------------
# CSV outputs


def render_tally_csv(tally: PatternTally, seed=None, extra=None) -> str:
    lines = _meta_lines(seed, extra)
    lines.append("pattern_key,count,density,stderr")
    for key, count in tally.sorted_items():
        lines.append(f"{key.hex()},{count},{count / tally.reps:.10g},"
                      f"{tally.stderr(key):.10g}")
    return "".join(line + "\n" for line in lines)


def render_degree_profile_csv(profile, seed=None) -> str:
    prof = profile.profile if not isinstance(profile, ItemProfile) else profile
    lines = _meta_lines(seed)
    lines.append("n,vertex,dbar")
    for item in sorted(prof.series):
        for n, val in zip(prof.schedule, prof.series[item]):
            lines.append(f"{n},{item},{val:.10g}")
    return "".join(line + "\n" for line in lines)


def render_multiplicity_profile_csv(profile, seed=None) -> str:
    prof = profile.profile
    lines = _meta_lines(seed)
    lines.append("n,pair,mbar")
    for item in sorted(prof.series):
        name = f"{item[0]}-{item[1]}"
        for n, val in zip(prof.schedule, prof.series[item]):
            lines.append(f"{n},{name},{val:.10g}")
    return "".join(line + "\n" for line in lines)


def render_lln_csv(trace: LLNTrace, seed=None) -> str:
    lines = _meta_lines(seed)
    lines.append("k,estimate")
    for k, est in zip(trace.ks, trace.estimates):
        lines.append(f"{k},{est:.10g}")
    return "".join(line + "\n" for line in lines)


def render_diagnose_csv(result, seed=None) -> str:
    lines = _meta_lines(seed, {"verdict": result.verdict,
                               "tolerance": result.tolerance})
    lines.append("n,pattern_key,density")
    for n, tally in zip(result.schedule, result.tallies):
        for key, count in tally.sorted_items():
            lines.append(f"{n},{key.hex()},{count / tally.reps:.10g}")
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
