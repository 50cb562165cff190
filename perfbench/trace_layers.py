"""Per-layer trace: the workload's commands run in-process through
``graphsample.cli.main`` at one thread, with the package's public functions
wrapped from outside.

Nothing in the package is edited.  Each wrapped function is replaced in
every ``graphsample`` module namespace that binds it (``key_for``, for
example, is looked up in ``cli``, ``estimate``, ``invariance`` and
``structures``), and ``VertexGraph.adjacency`` and
``RandomStream.substream`` are replaced on their classes.  A span's self
time is its duration minus the time of the wrapped spans it called.
Stream draws are read off ``RandomStream.counter`` around each outermost
sampler call, so ``next_u64`` itself carries no wrapper.  Calls that cost
about a microsecond (a draw, a substream derivation) are timed separately
over at least 10^5 direct calls, because through a wrapper they would
mostly measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, argv_for, check_output, digest

SRC = Path(__file__).resolve().parent.parent / "src"
MICRO_CALLS = 100_000
MICRO_BLOCKS = 3

# span name -> (module, attribute) of the functions it wraps; classes are
# given as "module:Class" with the method as the attribute.
SPANS = {
    "cli": [("cli", "main")],
    "io.read": [("io", "read_vertex_graph"), ("io", "read_edge_seq"),
                ("io", "read_label_seq"), ("io", "read_step_graphon")],
    "io.render": [("io", "render_tally_csv"), ("io", "render_lln_csv"),
                  ("io", "render_diagnose_csv"), ("io", "render_structure")],
    "models.graphon_draw": [("models", "graphon_draw")],
    "invariance": [("invariance", "test_exchangeability"),
                   ("invariance", "test_idempotence"),
                   ("invariance", "test_involution_invariance")],
    "estimate.tally_outputs": [("estimate", "tally_outputs")],
    "estimate.empirical_average": [("estimate", "empirical_average")],
    # Estimator drivers whose own loops would otherwise count as CLI time.
    "estimate.drivers": [("estimate", "prefix_density_vector"), ("estimate", "lln_trace"),
                         ("sampling", "diagnose_limit")],
    "structures.adjacency": [("structures:VertexGraph", "adjacency")],
    "structures.degrees": [("structures", "degrees")],
    "structures.restrict_vertices": [("structures", "restrict_vertices")],
    "structures.ball": [("structures", "ball")],
    "structures.shortest_path_marks": [("structures", "shortest_path_marks")],
    "structures.canonical_rooted": [("structures", "canonical_rooted")],
    "structures.key_for": [("structures", "key_for")],
    "structures.induced_ordered": [("structures", "induced_ordered")],
    "rng.substream": [("rng:RandomStream", "substream")],
}
SAMPLERS = {"uniform_vertex": "sample_uniform_vertex",
            "degree_biased": "sample_degree_biased",
            "shortest_path": "sample_shortest_path", "ego": "sample_ego",
            "bs_root": "sample_bs", "partition": "sample_partition",
            "edge": "sample_edges", "sequence": "sample_sequence"}
for _alg, _fn in SAMPLERS.items():
    SPANS[f"sampling.{_alg}"] = [("sampling", _fn)]

# Self time per call: metric name -> (span, scale to the unit, unit).
SELF_TIME = {f"sampling.{alg}.self_us": (f"sampling.{alg}", 1e6, "us") for alg in SAMPLERS}
SELF_TIME.update({
    "structures.adjacency.self_us": ("structures.adjacency", 1e6, "us"),
    "structures.degrees.self_us": ("structures.degrees", 1e6, "us"),
    "structures.restrict_vertices.self_us": ("structures.restrict_vertices", 1e6, "us"),
    "structures.ball.self_us": ("structures.ball", 1e6, "us"),
    "structures.shortest_path_marks.self_us": ("structures.shortest_path_marks", 1e6, "us"),
    "structures.canonical_rooted.self_us": ("structures.canonical_rooted", 1e6, "us"),
    "structures.key_for.self_us": ("structures.key_for", 1e6, "us"),
    "structures.induced_ordered.self_us": ("structures.induced_ordered", 1e6, "us"),
    "estimate.empirical_average.self_us": ("estimate.empirical_average", 1e6, "us"),
    "invariance.self_ms": ("invariance", 1e3, "ms"),
    "io.read.self_ms": ("io.read", 1e3, "ms"),
    "io.render.self_ms": ("io.render", 1e3, "ms"),
    "models.graphon_draw.self_ms": ("models.graphon_draw", 1e3, "ms"),
    "cli.self_ms": ("cli", 1e3, "ms"),
})
# Calls per replicate, over the commands that make at least one call.
PER_REP = {"structures.adjacency.per_rep": "structures.adjacency",
           "structures.degrees.per_rep": "structures.degrees",
           "structures.canonical_rooted.per_rep": "structures.canonical_rooted"}

# Coverage guard: spans each workload must call at least once.  A refactor
# that routes around a wrapped function then breaks the benchmark instead
# of reporting a silent zero.
REQUIRED = {
    "small-mc": ["sampling.uniform_vertex", "sampling.partition", "sampling.sequence",
                 "sampling.edge", "structures.key_for", "structures.induced_ordered",
                 "estimate.tally_outputs", "estimate.empirical_average", "invariance",
                 "rng.substream", "io.read", "io.render", "cli"],
    "dense-prep": ["sampling.ego", "sampling.shortest_path", "sampling.degree_biased",
                   "sampling.bs_root", "sampling.uniform_vertex", "structures.adjacency",
                   "structures.degrees", "structures.restrict_vertices",
                   "structures.ball", "structures.shortest_path_marks",
                   "structures.canonical_rooted", "estimate.tally_outputs",
                   "models.graphon_draw", "io.read", "io.render", "cli"],
    "sparse-canon": ["sampling.ego", "sampling.bs_root", "structures.adjacency",
                     "structures.ball", "structures.canonical_rooted",
                     "estimate.tally_outputs", "io.read", "io.render", "cli"],
}


class Tracer:
    """Span statistics for wrapped functions: name -> [calls, total s, self s].

    Single-threaded by design: the traced pass runs at --threads 1."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.draws = 0
        self.selections = 0
        self._open = []          # child time accumulated by each open span
        self._sampler_depth = 0
        self._undo = []

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.draws = self.selections = 0

    def _wrap(self, name, fn):
        stats, open_spans, clock = self.stats[name], self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
        return traced

    def _wrap_sampler(self, name, fn):
        """Span plus draw accounting: stream draws consumed and elements
        selected (k, or the one root of bs_root) by each outermost call of
        sampler(y, n, k, rng)."""
        inner = self._wrap(name, fn)
        one_root = name == "sampling.bs_root"

        def sampler(y, n, k, rng):
            outermost = self._sampler_depth == 0
            before = rng.counter
            self._sampler_depth += 1
            try:
                return inner(y, n, k, rng)
            finally:
                self._sampler_depth -= 1
                if outermost:
                    self.draws += rng.counter - before
                    self.selections += 1 if one_root else k
        return functools.wraps(fn)(sampler)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "graphsample" or name.startswith("graphsample.")]
        for span, targets in SPANS.items():
            for owner, attr in targets:
                mod_name, _, cls_name = owner.partition(":")
                mod = importlib.import_module(f"graphsample.{mod_name}")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[attr]
                    self._set(cls, attr, self._wrap(span, fn))
                    continue
                fn = getattr(mod, attr)
                wrapper = (self._wrap_sampler if span.startswith("sampling.")
                           else self._wrap)(span, fn)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _import_package():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("graphsample.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"graphsample imported from {cli.__file__}, not {SRC}")
    return cli


def micro_timings(rng_cls) -> tuple:
    """(seconds per uniform draw, seconds per substream derivation), each the
    median over MICRO_BLOCKS blocks of MICRO_CALLS direct calls."""
    stream = rng_cls(12345, 1)
    uniform, substream = stream.uniform, stream.substream
    per_draw, per_sub = [], []
    for _ in range(MICRO_BLOCKS):
        start = time.perf_counter()
        for _ in range(MICRO_CALLS):
            uniform()
        per_draw.append((time.perf_counter() - start) / MICRO_CALLS)
        start = time.perf_counter()
        for r in range(MICRO_CALLS):
            substream(r)
        per_sub.append((time.perf_counter() - start) / MICRO_CALLS)
    return statistics.median(per_draw), statistics.median(per_sub)


def _run_commands(main, cmds, paths, seed, threads, workdir, tracer=None) -> list:
    """One in-process pass; per command (exit code, seconds, output text,
    span stats snapshot)."""
    results = []
    for cmd in cmds:
        out = os.path.join(workdir, cmd.name + ".trace.out")
        argv = argv_for(cmd, paths, seed, threads, out)
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        seconds = time.perf_counter() - start
        with open(out) as fh:
            text = fh.read()
        snap = None
        if tracer is not None:
            snap = {"spans": {k: list(v) for k, v in tracer.stats.items()},
                    "draws": tracer.draws, "selections": tracer.selections}
        results.append((cmd, code, seconds, text, snap))
    return results


def _seconds(results, replicates_only=False) -> float:
    return sum(sec for cmd, _, sec, _, _ in results
               if cmd.replicates or not replicates_only)


def _traced_pass(tracer, cli, cmds, paths, seed, workdir):
    tracer.install()
    try:
        # cli.main is looked up at call time, so the pass enters its wrapper
        return _run_commands(lambda argv: cli.main(argv), cmds, paths, seed, 1,
                             workdir, tracer)
    finally:
        tracer.uninstall()


def traced_run(workload, seed, seconds, paths, workdir, threads):
    """Rounds of three in-process passes (untraced at one thread, traced at
    one thread, untraced at ``threads``) until ``seconds`` have elapsed,
    at least one round.  Span statistics add up over the traced passes;
    pass times are medians over rounds."""
    cli = _import_package()
    rng_cls = importlib.import_module("graphsample.rng").RandomStream
    cmds = WORKLOADS[workload]
    draw_s, substream_s = micro_timings(rng_cls)
    tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        # alternate which one-thread pass goes first, so warm-up and drift
        # do not always land on the same side of the overhead ratio
        if len(rounds) % 2:
            traced = _traced_pass(tracer, cli, cmds, paths, seed, workdir)
        untraced_1 = _run_commands(cli.main, cmds, paths, seed, 1, workdir)
        if len(rounds) % 2 == 0:
            traced = _traced_pass(tracer, cli, cmds, paths, seed, workdir)
        untraced_n = _run_commands(cli.main, cmds, paths, seed, threads, workdir)
        rounds.append({"threads=1": untraced_1, "traced": traced,
                       f"threads={threads}": untraced_n})

    reference = {cmd.name: digest(text) for cmd, _, _, text, _ in rounds[0]["threads=1"]}
    problems = []
    for passes in rounds:
        for label, results in passes.items():
            for cmd, code, _, text, _ in results:
                if code != 0:
                    problem = f"exit code {code}"
                elif digest(text) != reference[cmd.name]:
                    problem = "output differs from the first untraced one-thread pass"
                else:
                    problem = check_output(cmd, text)
                if problem:
                    problems.append(f"{cmd.name} ({label}): {problem}")

    traced_all = [res for passes in rounds for res in passes["traced"]]
    totals = {name: [0, 0.0, 0.0] for name in SPANS}
    for *_, snap in traced_all:
        for name, stats in snap["spans"].items():
            totals[name] = [a + b for a, b in zip(totals[name], stats)]
    missing = [name for name in REQUIRED[workload] if totals[name][0] == 0]
    if missing:
        raise RuntimeError(f"coverage guard: no calls recorded on {workload} for "
                           f"{', '.join(missing)}")

    def reps_using(pred):
        return sum(cmd.replicates for cmd, *_, snap in traced_all if pred(snap))

    def median_over_rounds(label, replicates_only=False):
        return statistics.median(_seconds(p[label], replicates_only) for p in rounds)

    traced_wall = totals["cli"][1]
    wall_1 = median_over_rounds("threads=1")
    draws = sum(snap["draws"] for *_, snap in traced_all)
    selections = sum(snap["selections"] for *_, snap in traced_all)
    sampled_reps = reps_using(lambda s: s["draws"] > 0)
    n = len(rounds)
    metrics = {
        "rng.uniform_ns": (draw_s * 1e9, "ns"),
        # shares of calls timed outside the trace are taken against the
        # untraced pass, which is what those calls actually cost
        "rng.uniform_ns.share": (draws / n * draw_s / wall_1, "fraction"),
        "rng.substream_us": (substream_s * 1e6, "us"),
        "rng.substream_us.share": (totals["rng.substream"][0] / n * substream_s / wall_1,
                                   "fraction"),
        "rng.draws_per_rep": (draws / sampled_reps if sampled_reps else 0.0, "draws/rep"),
        "sampling.accept_ratio": (selections / draws if draws else 0.0, "ratio"),
    }
    for metric, (span, scale, unit) in SELF_TIME.items():
        calls, _, self_s = totals[span]
        metrics[metric] = (self_s / calls * scale if calls else 0.0, unit)
        metrics[metric + ".share"] = (self_s / traced_wall, "fraction")
    for metric, span in PER_REP.items():
        reps = reps_using(lambda s: s["spans"][span][0] > 0)
        metrics[metric] = (totals[span][0] / reps if reps else 0.0, "calls/rep")
    tally_reps = reps_using(lambda s: s["spans"]["estimate.tally_outputs"][0] > 0)
    tally_self = totals["estimate.tally_outputs"][2]
    metrics["estimate.tally_outputs.self_us_per_rep"] = (
        tally_self / tally_reps * 1e6 if tally_reps else 0.0, "us")
    metrics["estimate.tally_outputs.self_us_per_rep.share"] = (tally_self / traced_wall,
                                                               "fraction")
    metrics["estimate.pool_speedup"] = (
        median_over_rounds("threads=1", True)
        / median_over_rounds(f"threads={threads}", True), "ratio")
    metrics["trace.overhead_frac"] = (median_over_rounds("traced") / wall_1 - 1.0,
                                      "fraction")

    detail = {
        "threads": threads,
        "rounds": n,
        "pass_s": {label: [_seconds(p[label]) for p in rounds] for label in rounds[0]},
        "spans_by_self_time": [
            [name, calls, round(self_s, 6), round(self_s / traced_wall, 4)]
            for name, (calls, _, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][2])],
        "commands": {cmd.name: {"replicates": cmd.replicates, "digest": reference[cmd.name]}
                     for cmd in cmds},
        "problems": problems,
    }
    attempted = sum(len(results) for passes in rounds for results in passes.values())
    return metrics, attempted, len(problems), detail, reference
