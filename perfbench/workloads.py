"""The benchmark's workloads: CLI command lists and output checks.

Replicate counts are fixed per command; a run's length is set only by how
many passes over the list it makes.  Peak memory and CSV size grow with
``--reps`` on the dense graph, so changing a count here changes what the
metrics mean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

TALLY_HEADER = "pattern_key,count,density,stderr"


@dataclass(frozen=True)
class Command:
    """One CLI invocation, without --seed, --threads and --out.

    ``argv`` tokens of the form ``{name}`` are replaced by the path of the
    generated input ``name``.  ``replicates`` is the number of Monte Carlo
    replicates the command completes (0 when it runs none); ``kind`` names
    the output check."""

    name: str
    argv: tuple
    replicates: int
    kind: str
    reps: int = 0
    schedule: tuple = ()
    threaded: bool = True


def _cmd(name, text, kind, reps=0, schedule=(), tallies=1, threaded=True):
    argv = tuple(text.split())
    if reps:
        argv += ("--reps", str(reps))
    replicates = reps * (len(schedule) if schedule else tallies)
    return Command(name, argv, replicates, kind, reps, tuple(schedule), threaded)


STAR_SCHEDULE = (625, 1250, 2500, 5000)
LLN_SCHEDULE = (2, 4, 6)
_star = ",".join(map(str, STAR_SCHEDULE))
_lln = ",".join(map(str, LLN_SCHEDULE))

WORKLOADS = {
    # Tiny inputs, many replicates: input preparation costs nothing, so the
    # per-replicate overhead (substream, induced_ordered, key_for, tally)
    # dominates.  Covers every non-graph key/relabel branch.
    "small-mc": (
        _cmd("y4.vector.uniform_vertex",
             "estimate --what vector --algo uniform_vertex --in {y4} --n 4 --k 3",
             "tally", reps=20000),
        _cmd("y4.idempotence.uniform_vertex",
             "test --test idempotence --algo uniform_vertex --in {y4} --n 4 --m 3 --k 2",
             "test", reps=10000, tallies=2),
        _cmd("c50.involution",
             "test --test involution --in {c50} --n 50 --radius 2",
             "test", reps=2000, tallies=2, threaded=False),
        _cmd("partition.exchangeability",
             "test --test exchangeability --algo partition --in {partition} --n 200 --k 4",
             "test", reps=10000, tallies=2),
        _cmd("partition.lln",
             f"estimate --what lln --algo partition --in {{partition}} --n 200 --schedule {_lln}",
             "lln", reps=5000, schedule=LLN_SCHEDULE, threaded=False),
        _cmd("edges.vector.edge",
             "estimate --what vector --algo edge --in {edges} --n 200 --k 3",
             "tally", reps=20000),
    ),
    # Large inputs: adjacency, degree and restriction rebuilds on every
    # replicate dominate.  diagnose restricts once per schedule point, so it
    # uses the restriction layer differently from estimate; uniform_vertex
    # on the star is the in-workload no-change control.
    "dense-prep": (
        _cmd("dense.vector.ego",
             "estimate --what vector --algo ego --in {dense} --n 400 --k 3",
             "tally", reps=80),
        _cmd("dense.vector.shortest_path",
             "estimate --what vector --algo shortest_path --in {dense} --n 400 --k 3",
             "tally", reps=60),
        _cmd("dense.vector.degree_biased",
             "estimate --what vector --algo degree_biased --in {dense} --n 400 --k 3",
             "tally", reps=100),
        _cmd("dense.vector.bs_root",
             "estimate --what vector --algo bs_root --in {dense} --n 300 --k 2",
             "tally", reps=30),
        _cmd("graphon.generate",
             "generate graphon --file {graphon} --k 400", "graph", threaded=False),
        _cmd("star.diagnose.uniform_vertex",
             f"diagnose --algo uniform_vertex --in {{star}} --n 5000 --k 2 --schedule {_star}",
             "diagnose", reps=1000, schedule=STAR_SCHEDULE),
        _cmd("star.diagnose.degree_biased",
             f"diagnose --algo degree_biased --in {{star}} --n 5000 --k 2 --schedule {_star}",
             "diagnose", reps=100, schedule=STAR_SCHEDULE),
    ),
    # A sparse 6-regular graph: every radius-1 ball has a first BFS layer of
    # six vertices, so canonical_rooted takes its exact layer-permutation
    # path (6! labelings) and dominates, while adjacency is a small share.
    "sparse-canon": (
        _cmd("sparse.vector.ego",
             "estimate --what vector --algo ego --in {sparse} --n 400 --k 3",
             "tally", reps=150),
        _cmd("sparse.vector.bs_root1",
             "estimate --what vector --algo bs_root --in {sparse} --n 400 --k 1",
             "tally", reps=300),
        _cmd("sparse.vector.bs_root2",
             "estimate --what vector --algo bs_root --in {sparse} --n 400 --k 2",
             "tally", reps=300),
    ),
}

# Inputs each workload loads, with the io reader the CLI uses for them;
# set-up time is measured by loading exactly these.
LOADS = {
    "small-mc": (("vertex_graph", "y4"), ("vertex_graph", "c50"),
                 ("label_seq", "partition"), ("edge_seq", "edges")),
    "dense-prep": (("vertex_graph", "dense"), ("step_graphon", "graphon"),
                   ("vertex_graph", "star")),
    "sparse-canon": (("vertex_graph", "sparse"),),
}


def argv_for(cmd: Command, paths: dict, seed: int, threads: int, out: str) -> list:
    argv = [paths[tok[1:-1]] if tok.startswith("{") else tok for tok in cmd.argv]
    argv += ["--seed", str(seed), "--out", out]
    if cmd.threaded:
        argv += ["--threads", str(threads)]
    return argv


def data_lines(text: str) -> list:
    """Output lines without ``#`` metadata comments."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def digest(text: str) -> str:
    """SHA-256 of an output with its ``#`` metadata lines removed."""
    return hashlib.sha256("\n".join(data_lines(text)).encode()).hexdigest()


def check_output(cmd: Command, text: str) -> str | None:
    """None when the output is well formed and every tally sums to its
    replicate count; otherwise a one-line reason."""
    try:
        return _CHECKS[cmd.kind](cmd, data_lines(text))
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparsable output: {exc!r}"


def _tally_sums(lines):
    sums = []
    for line in lines:
        if line == TALLY_HEADER:
            sums.append(0)
        elif sums and line and not line.startswith(" "):
            sums[-1] += int(line.split(",")[1])
    return sums


def _check_tally(cmd, lines):
    sums = _tally_sums(lines)
    return f"tally sums {sums} != [{cmd.reps}]" if sums != [cmd.reps] else None


def _check_test(cmd, lines):
    summary = lines[0]
    if "PASS" not in summary or f"reps = {cmd.reps}" not in summary:
        return f"unexpected summary {summary!r}"
    sums = _tally_sums(lines)
    if sums != [cmd.reps, cmd.reps]:
        return f"tally sums {sums} != [{cmd.reps}, {cmd.reps}]"
    return None


def _check_lln(cmd, lines):
    rows = [line.split(",") for line in lines[1:]]
    if tuple(int(k) for k, _ in rows) != cmd.schedule:
        return f"lln sizes {[k for k, _ in rows]} != {cmd.schedule}"
    if not all(0.0 <= float(v) <= 1.0 for _, v in rows):
        return "lln estimate outside [0, 1]"
    return None


def _check_diagnose(cmd, lines):
    per_n = {}
    for line in lines[1:lines.index("")]:
        n, _, density = line.split(",")
        per_n[int(n)] = per_n.get(int(n), 0.0) + float(density) * cmd.reps
    if tuple(per_n) != cmd.schedule:
        return f"diagnose sizes {tuple(per_n)} != {cmd.schedule}"
    bad = {n: c for n, c in per_n.items() if abs(c - cmd.reps) > 1e-6 * cmd.reps}
    return f"diagnose tallies {bad} != {cmd.reps}" if bad else None


def _check_graph(cmd, lines):
    k = int(cmd.argv[cmd.argv.index("--k") + 1])
    edges = [tuple(int(x) for x in line.split()) for line in lines if line]
    if not edges or not all(1 <= u < v <= k for u, v in edges):
        return f"generated graph is empty or has vertices outside 1..{k}"
    return None


_CHECKS = {"tally": _check_tally, "test": _check_test, "lln": _check_lln,
           "diagnose": _check_diagnose, "graph": _check_graph}
