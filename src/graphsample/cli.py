"""Command-line surface: generate inputs, run samplers, estimate densities
and profiles, run invariance tests, and diagnose input-size stabilization.

Exit codes: 0 success / test pass, 1 test failure, 2 usage error or
invalid input, 3 I/O error, 4 internal error.  generate, sample, estimate
(but for ``--what misspec``, one exact fraction) and diagnose start their
output with a ``# seed=<u64>`` comment so any run can be replayed exactly;
test writes its one-line summary first, and with ``--out`` the two tallies
after it, each under its own ``# seed=`` comment.  _provenance writes every
such line; the io renderers write bodies only.

A task is a command, with its ``--what``, ``--test`` or generator name.
_TASKS lists the flags each task reads and marks those it needs; the
parsers are built from it, and one check before the handler refuses the
first flag given that the task does not read, then names the first flag
it needs that is missing (exit 2 both).
``--threads`` is accepted by estimate, test and diagnose and has no
effect: long tallies split across the CPUs the process may run on, and
results are bit-identical to one process.
"""

from __future__ import annotations

import argparse
import sys

from . import io as gio
from .estimate import (
    PatternTally,
    degree_profile,
    lln_trace,
    multiplicity_profile,
    prefix_density_vector,
)
from .rng import RandomStream
from .sampling import ALGORITHMS, _ALGORITHMS, SamplerSpec, diagnose_limit, make_sampler
from .structures import EdgeSeqGraph, Partition, VertexGraph, key_for, restrict, size_of

# the generators that take --n, in the order --help lists them, each named
# by its function in models, which only generate and misspec import
_SIZED_GENERATORS = {
    "star": "star_vertex", "star_edges": "star_edgeseq",
    "matching": "matching_edgeseq", "half_multiplicity": "half_multiplicity",
    "alternating": "alternating_seq", "singletons": "all_singletons_seq",
    "cycle": "cycle_vertex", "complete": "complete_vertex",
}

# every flag but the selectors: dest -> (option, add_argument keywords), in
# the order --help lists them; a flag's default is None unless given here
_FLAGS = {
    "algo": ("--algo", {"choices": ALGORITHMS}),
    "infile": ("--in", {}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "out": ("--out", {}),
    "n": ("--n", {"type": int}),
    "k": ("--k", {"type": int}),
    "p": ("--p", {"type": float}),
    "rho": ("--rho", {"type": float}),
    "reps": ("--reps", {"type": int, "default": 10_000}),
    "threads": ("--threads", {"type": int, "help": (
        "accepted, has no effect; long tallies split across the CPUs the "
        "process may run on, bit-identical to one process")}),
    "pattern": ("--pattern", {"help": "pattern file (density)"}),
    "schedule": ("--schedule", {"help": "comma-separated sizes"}),
    "j": ("--j", {"type": int, "default": 1, "help": "restriction size for lln"}),
    "label": ("--label", {"type": int, "default": 1,
                          "help": "label whose first-entry indicator lln traces"}),
    "misspec_k": ("--misspec-k", {"type": int}),
    "misspec_j": ("--misspec-j", {"type": int}),
    "in2": ("--in2", {"help": "second input (equivalence)"}),
    "m": ("--m", {"type": int, "help": "middle size (idempotence)"}),
    "k_max": ("--k-max", {"type": int, "default": 3}),
    "radius": ("--radius", {"type": int, "default": 1}),
    "root": ("--root", {"default": "uniform",
                        "help": '"uniform" or a fixed root vertex (involution)'}),
    "tol": ("--tol", {"type": float, "default": 0.02}),
    "file": ("--file", {"help": "step-graphon file (graphon)"}),
    "atoms": ("--atoms", {"help": "comma-separated paintbox atom masses"}),
    "dust": ("--dust", {"type": float, "default": 0.0}),
}
_READ_BY_ALL = {"seed", "out"}
_SAMPLER = "algo! infile! p rho"
_MC = "reps threads"  # --threads is read, and ignored, by every Monte Carlo task
# The CLI's contract.  command -> (its help, the selector that picks its
# task, task -> the flags the task reads besides --seed and --out); a !
# marks a flag the task needs.  generate's selector is the positional
# generator name.  The parsers, the refusal of a flag a task does not read
# and the missing-flag errors are all derived from this table.
_TASKS = {
    "generate": ("write a synthetic input structure", "name", {
        "y4": "",
        **dict.fromkeys(_SIZED_GENERATORS, "n!"),
        "graphon": "file! k!",
        "paintbox": "atoms! n! dust",
    }),
    "sample": ("run one sampler, write the output", None, {
        None: f"{_SAMPLER} n! k!",
    }),
    "estimate": ("prefix densities, profiles, LLN traces", "--what", {
        "vector": f"{_SAMPLER} n! k! {_MC}",
        "density": f"{_SAMPLER} n! pattern! {_MC}",
        "degrees": "infile! schedule! threads",
        "multiplicity": "infile! schedule! threads",
        "lln": f"{_SAMPLER} n! schedule! j label {_MC}",
        "misspec": "misspec_k! misspec_j! threads",
    }),
    "test": ("invariance / idempotence / equivalence tests", "--test", {
        "exchangeability": f"{_SAMPLER} n! k! {_MC}",
        "idempotence": f"{_SAMPLER} n! m! k! {_MC}",
        "equivalence": f"{_SAMPLER} n! in2! k_max {_MC}",
        "involution": f"infile! n! radius root {_MC}",
    }),
    "diagnose": ("limit-in-input-size stabilization trace", None, {
        None: f"{_SAMPLER} n k! schedule! tol {_MC}",  # y|n when --n is given
    }),
}
GENERATORS = tuple(_TASKS["generate"][2])


def _build_parser() -> argparse.ArgumentParser:
    """One parser per command: its selector (argparse requires it), then
    every flag any of its tasks reads, and --seed and --out."""
    top = argparse.ArgumentParser(prog="graphsample",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, selector, tasks) in _TASKS.items():
        p = sub.add_parser(command, help=help_text)
        if selector == "name":
            p.add_argument(selector, choices=tuple(tasks))
        elif selector:
            p.add_argument(selector, choices=tuple(tasks), required=True)
        reads = {flag.rstrip("!") for flags in tasks.values() for flag in flags.split()}
        for dest, (option, kw) in _FLAGS.items():
            if dest in reads | _READ_BY_ALL:
                p.add_argument(option, dest=dest, **kw)
    return top


class UsageError(Exception):
    pass


def _parse(args, dest: str, parse, what: str):
    """parse(the text of flag dest); a ValueError there becomes a usage
    error that names the flag and the text."""
    text = getattr(args, dest)
    try:
        return parse(text)
    except ValueError:
        raise UsageError(f"{_FLAGS[dest][0]} takes {what}, not {text!r}") from None


def _schedule(args) -> tuple:
    return _parse(args, "schedule", lambda text: tuple(map(int, text.split(","))),
                  "comma-separated sizes")


def _check_flags(args):
    """Refuse the first flag the task does not read, then name the first
    flag it needs that is missing.  A flag counts as given when its value
    differs from its default.  An algorithm whose row takes "p" (p_sample)
    reads neither --k nor --k-max: its output size is random."""
    _, selector, tasks = _TASKS[args.command]
    value = getattr(args, selector.lstrip("-")) if selector else None
    # the task as messages name it: "sample", "generate star", "estimate --what lln"
    task = " ".join(w for w in (args.command, selector, value) if w and w != "name")
    algo = getattr(args, "algo", None)
    unread = {"k!", "k_max"} if algo and _ALGORITHMS[algo].takes == "p" else set()
    flags = [flag for flag in tasks[value].split() if flag not in unread]
    reads = {flag.rstrip("!") for flag in flags} | _READ_BY_ALL
    for dest, (option, kw) in _FLAGS.items():
        default = kw.get("default")
        if dest not in reads and getattr(args, dest, default) != default:
            raise UsageError(f"{task} does not read {option}")
    for flag in flags:
        if flag.endswith("!") and getattr(args, flag[:-1]) is None:
            raise UsageError(f"missing required flag {_FLAGS[flag[:-1]][0]}")


def _spec_from_args(args) -> SamplerSpec:
    """The named sampler; SamplerSpec refuses a --p or --rho it does not take."""
    return SamplerSpec(args.algo, p=args.p, rho=args.rho)


def _load(algo: str, path):
    """Read the kind that ``algo``'s row samples (also used for patterns
    and second inputs)."""
    kind = _ALGORITHMS[algo].sampled
    if kind is VertexGraph:
        return gio.read_vertex_graph(path)
    if kind is EdgeSeqGraph:
        return gio.read_edge_seq(path)
    seq = gio.read_label_seq(path)
    return Partition(seq) if kind is Partition else seq


def _provenance(seed, **extra) -> str:
    """``# seed=<seed>``, then a ``# key=value`` line per extra: the lines
    that say what ran, above every seeded artifact's body."""
    return "".join(f"# {key}={val}\n" for key, val in {"seed": seed, **extra}.items())


def _emit(args, text: str, seeded: bool = True, **extra):
    if seeded:
        text = _provenance(args.seed, **extra) + text
    if args.out:
        gio.write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    from . import models

    rng = RandomStream(args.seed)
    name = args.name
    if name == "y4":
        x = models.y4()
    elif name == "graphon":
        x = models.graphon_draw(gio.read_step_graphon(args.file), args.k, rng)
    elif name == "paintbox":
        masses = _parse(args, "atoms", lambda text: [float(v) for v in text.split(",")],
                        "comma-separated masses")
        pb = models.Paintbox(tuple((i + 1, m) for i, m in enumerate(masses)),
                             dust=args.dust)
        x = models.paintbox_draw(pb, args.n, rng).labels
    else:
        x = getattr(models, _SIZED_GENERATORS[name])(args.n)
    _emit(args, gio.render_structure(x))
    return 0


def _cmd_sample(args) -> int:
    spec = _spec_from_args(args)
    y = _load(args.algo, args.infile)
    sampler = make_sampler(spec)
    out = sampler(y, args.n, args.k, RandomStream(args.seed))
    _emit(args, gio.render_structure(out))
    return 0


def _cmd_estimate(args) -> int:
    if args.what == "misspec":
        from .models import misspec_table

        fraction = misspec_table(args.misspec_k, args.misspec_j)
        _emit(args, gio.render_fraction(fraction) + "\n", seeded=False)
        return 0
    rng = RandomStream(args.seed)
    if args.what in ("vector", "density", "lln"):
        row = _ALGORITHMS[args.algo]
        if args.what == "density" and row.reported is not row.sampled:
            # a pattern file is read as the kind sampled
            names = [a for a, r in _ALGORITHMS.items() if r.reported is not r.sampled]
            raise UsageError("--what density reads its pattern as the sampler's "
                             f"output, and {', '.join(names[:-1])} and {names[-1]} "
                             "outputs have no pattern file format; use --what vector")
        spec = _spec_from_args(args)
        if args.what == "lln":  # refused before the input is read
            if row.sampled not in (tuple, Partition):
                raise UsageError("--what lln supports sequence/partition inputs; "
                                 "use --what density for graph functionals")
            schedule = _schedule(args)
        y = _load(args.algo, args.infile)
        n = args.n
        if args.what == "vector":
            tally = prefix_density_vector(spec, y, n, args.k, args.reps, rng)
            _emit(args, gio.render_tally_csv(tally))
            return 0
        if args.what == "density":
            pattern = _load(args.algo, args.pattern)
            k = size_of(pattern)
            if k == 0:
                raise ValueError(f"pattern {args.pattern} is empty")
            if k > n:
                raise ValueError(f"pattern size {k} exceeds n = {n}")
            tally = prefix_density_vector(spec, y, n, k, args.reps, rng)
            key = key_for(pattern)  # its row reads 0 if never drawn
            row = PatternTally({key: tally.counts.get(key, 0)}, tally.reps)
            _emit(args, gio.render_tally_csv(row))
            return 0
        label = args.label

        def f(x):  # indicator that the restriction starts with the label
            entries = x.labels if isinstance(x, Partition) else x
            return 1.0 if entries[0] == label else 0.0

        trace = lln_trace(spec, y, n, f, args.j, schedule, args.reps, rng)
        _emit(args, gio.render_lln_csv(trace))
        return 0
    profile, header = {"degrees": (degree_profile, "n,vertex,dbar"),
                       "multiplicity": (multiplicity_profile, "n,pair,mbar")}[args.what]
    schedule = _schedule(args)
    g = gio.read_edge_seq(args.infile)
    _emit(args, gio.render_profile_csv(profile(g, schedule), header))
    return 0


def _cmd_test(args) -> int:
    from .invariance import (
        test_equivalence,
        test_exchangeability,
        test_idempotence,
        test_involution_invariance,
    )

    rng = RandomStream(args.seed)
    n = args.n
    if args.test == "involution":
        y = gio.read_vertex_graph(args.infile)
        root_law = ("uniform" if args.root == "uniform" else
                    {_parse(args, "root", int, '"uniform" or a vertex'): 1.0})
        report = test_involution_invariance(root_law, y, n, args.radius,
                                            args.reps, rng)
    else:
        spec = _spec_from_args(args)
        y = _load(args.algo, args.infile)
        if args.test == "exchangeability":
            report = test_exchangeability(spec, y, n, args.k, args.reps, rng)
        elif args.test == "idempotence":
            report = test_idempotence(spec, y, n, args.m, args.k, args.reps, rng)
        else:
            y2 = _load(args.algo, args.in2)
            report = test_equivalence(spec, y, y2, n, args.k_max, args.reps, rng)
    text = report.summary() + "\n"
    if args.out:
        for operand, tally in (("a", report.tally_a), ("b", report.tally_b)):
            text += _provenance(args.seed, operand=operand) + gio.render_tally_csv(tally)
    _emit(args, text, seeded=False)
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    spec = _spec_from_args(args)
    schedule = _schedule(args)
    y = _load(args.algo, args.infile)
    if args.n is not None:  # diagnose y|n, so a schedule past n is refused
        y = restrict(y, args.n)
    rng = RandomStream(args.seed)
    result = diagnose_limit(spec, y, args.k, schedule, args.reps, rng,
                            tolerance=args.tol)
    _emit(args, gio.render_diagnose_csv(result),
          verdict=result.verdict, tolerance=result.tolerance)
    sys.stderr.write(f"verdict: {result.verdict}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": _cmd_generate, "sample": _cmd_sample,
                "estimate": _cmd_estimate, "test": _cmd_test,
                "diagnose": _cmd_diagnose}
    try:
        _check_flags(args)
        code = handlers[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return 3
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a fault in the package, never a test verdict
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
