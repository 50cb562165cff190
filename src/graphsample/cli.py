"""Command-line surface: generate inputs, run samplers, estimate densities
and profiles, run invariance tests, and diagnose input-size stabilization.

Exit codes: 0 success / test pass, 1 test failure, 2 usage error or
invalid input, 3 I/O error, 4 internal error.  generate, sample, estimate
(but for ``--what misspec``, one exact fraction) and diagnose start their
output with a ``# seed=<u64>`` comment so any run can be replayed exactly;
test writes its one-line summary first, and with ``--out`` the two tallies
after it, each under its own ``# seed=`` comment.  _provenance writes every
such line; the io renderers write bodies only.
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
from .sampling import (
    ALGORITHMS,
    BS_ROOT,
    EDGE,
    EGO,
    P_SAMPLE,
    PARTITION,
    SEQUENCE,
    SHORTEST_PATH,
    SamplerSpec,
    diagnose_limit,
    make_sampler,
)
from .structures import Partition, key_for, restrict, size_of

# the generators that take --n, in the order --help lists them, each named
# by its function in models, which only generate and misspec import
_SIZED_GENERATORS = {
    "star": "star_vertex", "star_edges": "star_edgeseq",
    "matching": "matching_edgeseq", "half_multiplicity": "half_multiplicity",
    "alternating": "alternating_seq", "singletons": "all_singletons_seq",
    "cycle": "cycle_vertex", "complete": "complete_vertex",
}
GENERATORS = ("y4", *_SIZED_GENERATORS, "graphon", "paintbox")

_SEQUENCE_ALGOS = {SEQUENCE, PARTITION}
_SAMPLER_READS = {"algo", "infile", "n", "p", "rho"}
# the flags each task reads, besides its selector and the --seed, --out and
# --threads that every command accepts; generate is not listed, since what
# it reads depends on the generator name
_READS = {
    "sample": {*_SAMPLER_READS, "k"},
    "estimate --what vector": {*_SAMPLER_READS, "k", "reps"},
    "estimate --what density": {*_SAMPLER_READS, "pattern", "reps"},
    "estimate --what lln": {*_SAMPLER_READS, "schedule", "j", "label", "reps"},
    "estimate --what degrees": {"infile", "schedule"},
    "estimate --what multiplicity": {"infile", "schedule"},
    "estimate --what misspec": {"misspec_k", "misspec_j"},
    "test --test exchangeability": {*_SAMPLER_READS, "k", "reps"},
    "test --test idempotence": {*_SAMPLER_READS, "m", "k", "reps"},
    "test --test equivalence": {*_SAMPLER_READS, "in2", "k_max", "reps"},
    "test --test involution": {"infile", "n", "radius", "root", "reps"},
    "diagnose": {*_SAMPLER_READS, "k", "schedule", "tol", "reps"},
}
_THREADS_HELP = ("accepted, has no effect; long tallies split across the CPUs the "
                 "process may run on, bit-identical to one process")


def _parse_schedule(text: str):
    return tuple(int(x) for x in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="graphsample",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)

    def sampled(p, algo_required, in_required, reps=True):
        """The common flags plus a sampler's: --algo, --in, --p and --rho,
        and with reps, the Monte Carlo flags --reps and --threads."""
        p.add_argument("--algo", choices=ALGORITHMS, required=algo_required)
        p.add_argument("--in", dest="infile", required=in_required)
        common(p)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--rho", type=float, default=None)
        if reps:
            p.add_argument("--reps", type=int, default=10_000)
            p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    gen = sub.add_parser("generate", help="write a synthetic input structure")
    gen.add_argument("name", choices=GENERATORS)
    common(gen)
    gen.add_argument("--file", default=None, help="step-graphon file (graphon)")
    gen.add_argument("--atoms", default=None,
                     help="comma-separated paintbox atom masses")
    gen.add_argument("--dust", type=float, default=0.0)

    smp = sub.add_parser("sample", help="run one sampler, write the output")
    sampled(smp, algo_required=True, in_required=True, reps=False)

    est = sub.add_parser("estimate", help="prefix densities, profiles, LLN traces")
    est.add_argument("--what", choices=("vector", "density", "degrees",
                                        "multiplicity", "lln", "misspec"),
                     required=True)
    sampled(est, algo_required=False, in_required=False)
    est.add_argument("--pattern", default=None, help="pattern file (density)")
    est.add_argument("--schedule", default=None, help="comma-separated sizes")
    est.add_argument("--j", type=int, default=1, help="restriction size for lln")
    est.add_argument("--label", type=int, default=1,
                     help="label whose first-entry indicator lln traces")
    est.add_argument("--misspec-k", type=int, default=None)
    est.add_argument("--misspec-j", type=int, default=None)

    tst = sub.add_parser("test", help="invariance / idempotence / equivalence tests")
    tst.add_argument("--test", choices=("exchangeability", "idempotence",
                                        "equivalence", "involution"),
                     required=True)
    sampled(tst, algo_required=False, in_required=True)
    tst.add_argument("--in2", default=None, help="second input (equivalence)")
    tst.add_argument("--m", type=int, default=None, help="middle size (idempotence)")
    tst.add_argument("--k-max", type=int, default=3)
    tst.add_argument("--radius", type=int, default=1)
    tst.add_argument("--root", default="uniform",
                     help='"uniform" or a fixed root vertex (involution)')

    dia = sub.add_parser("diagnose", help="limit-in-input-size stabilization trace")
    sampled(dia, algo_required=True, in_required=True)
    dia.add_argument("--schedule", required=True)
    dia.add_argument("--tol", type=float, default=0.02)

    for p in sub.choices.values():  # the parser of args.command, for _refuse_unread
        p.set_defaults(command_parser=p)
    return top


def _spec_from_args(args) -> SamplerSpec:
    """The named sampler; SamplerSpec refuses a --p or --rho it does not take."""
    return SamplerSpec(args.algo, p=args.p, rho=args.rho)


def _load(algo: str, path):
    """Read the structure kind that ``algo`` samples from (also used for
    patterns and second inputs)."""
    if algo in _SEQUENCE_ALGOS:
        seq = gio.read_label_seq(path)
        return Partition(seq) if algo == PARTITION else seq
    if algo == EDGE:
        return gio.read_edge_seq(path)
    return gio.read_vertex_graph(path)


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
        w = gio.read_step_graphon(_require(args.file, "--file"))
        x = models.graphon_draw(w, _require(args.k, "--k"), rng)
    elif name == "paintbox":
        masses = [float(v) for v in _require(args.atoms, "--atoms").split(",")]
        pb = models.Paintbox(tuple((i + 1, m) for i, m in enumerate(masses)),
                             dust=args.dust)
        x = models.paintbox_draw(pb, _require(args.n, "--n"), rng).labels
    else:
        x = getattr(models, _SIZED_GENERATORS[name])(_require(args.n, "--n"))
    _emit(args, gio.render_structure(x))
    return 0


def _require(value, flag):
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _k(args):
    """--k for a sampled task; p_sample reads none (its output size is
    random), so its samplers get None."""
    return None if args.algo == P_SAMPLE else _require(args.k, "--k")


class UsageError(Exception):
    pass


def _refuse_unread(args):
    """Every task but generate refuses the first flag it does not read.  A
    flag counts as given when its value differs from its default."""
    selector = {"estimate": "what", "test": "test"}.get(args.command)
    task = (args.command if selector is None
            else f"{args.command} --{selector} {getattr(args, selector)}")
    reads = _READS.get(task)
    if reads is None:
        return
    reads = reads | {selector, "seed", "out", "threads"}
    if args.algo == P_SAMPLE:  # its output size is random
        reads = reads - {"k"}
    for action in args.command_parser._actions:
        if (action.dest not in reads
                and getattr(args, action.dest, action.default) != action.default):
            raise UsageError(f"{task} does not read {action.option_strings[0]}")


def _cmd_sample(args) -> int:
    spec = _spec_from_args(args)
    y = _load(args.algo, args.infile)
    sampler = make_sampler(spec)
    n = _require(args.n, "--n")
    rng = RandomStream(args.seed)
    out = sampler(y, n, _k(args), rng)
    _emit(args, gio.render_structure(out))
    return 0


def _cmd_estimate(args) -> int:
    if args.what == "misspec":
        from .models import misspec_table

        k = _require(args.misspec_k, "--misspec-k")
        j = _require(args.misspec_j, "--misspec-j")
        _emit(args, gio.render_fraction(misspec_table(k, j)) + "\n", seeded=False)
        return 0
    rng = RandomStream(args.seed)
    if args.what in ("vector", "density", "lln"):
        _require(args.algo, "--algo")
        _require(args.infile, "--in")
        if args.what == "density" and args.algo in (SHORTEST_PATH, EGO, BS_ROOT):
            raise UsageError("--what density reads its pattern as the sampler's "
                             "output, and shortest_path, ego and bs_root outputs "
                             "have no pattern file format; use --what vector")
        spec = _spec_from_args(args)
        y = _load(args.algo, args.infile)
        n = _require(args.n, "--n")
        if args.what == "vector":
            tally = prefix_density_vector(spec, y, n, _k(args), args.reps, rng)
            _emit(args, gio.render_tally_csv(tally))
            return 0
        if args.what == "density":
            pattern = _load(args.algo, _require(args.pattern, "--pattern"))
            k = size_of(pattern)
            if k > n:
                raise ValueError(f"pattern size {k} exceeds n = {n}")
            tally = prefix_density_vector(spec, y, n, k, args.reps, rng)
            key = key_for(pattern)  # its row reads 0 if never drawn
            row = PatternTally({key: tally.counts.get(key, 0)}, tally.reps)
            _emit(args, gio.render_tally_csv(row))
            return 0
        if args.algo not in _SEQUENCE_ALGOS:
            raise UsageError("--what lln supports sequence/partition inputs; "
                             "use --what density for graph functionals")
        schedule = _parse_schedule(_require(args.schedule, "--schedule"))
        label = args.label

        def f(x):  # indicator that the restriction starts with the label
            entries = x.labels if isinstance(x, Partition) else x
            return 1.0 if entries[0] == label else 0.0

        trace = lln_trace(spec, y, n, f, args.j, schedule, args.reps, rng)
        _emit(args, gio.render_lln_csv(trace))
        return 0
    profile, header = {"degrees": (degree_profile, "n,vertex,dbar"),
                       "multiplicity": (multiplicity_profile, "n,pair,mbar")}[args.what]
    g = gio.read_edge_seq(_require(args.infile, "--in"))
    schedule = _parse_schedule(_require(args.schedule, "--schedule"))
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
    n = _require(args.n, "--n")
    if args.test == "involution":
        y = gio.read_vertex_graph(args.infile)
        root_law = "uniform" if args.root == "uniform" else {int(args.root): 1.0}
        report = test_involution_invariance(root_law, y, n, args.radius,
                                            args.reps, rng)
    else:
        _require(args.algo, "--algo")
        spec = _spec_from_args(args)
        y = _load(args.algo, args.infile)
        if args.test == "exchangeability":
            report = test_exchangeability(spec, y, n, _k(args), args.reps, rng)
        elif args.test == "idempotence":
            report = test_idempotence(spec, y, n, _require(args.m, "--m"),
                                      _k(args), args.reps, rng)
        else:
            y2 = _load(args.algo, _require(args.in2, "--in2"))
            report = test_equivalence(spec, y, y2, n, args.k_max, args.reps, rng)
    text = report.summary() + "\n"
    if args.out:
        for operand, tally in (("a", report.tally_a), ("b", report.tally_b)):
            text += _provenance(args.seed, operand=operand) + gio.render_tally_csv(tally)
    _emit(args, text, seeded=False)
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    spec = _spec_from_args(args)
    y = _load(args.algo, args.infile)
    if args.n is not None:  # diagnose y|n, so a schedule past n is refused
        y = restrict(y, args.n)
    k = _k(args)
    schedule = _parse_schedule(args.schedule)
    rng = RandomStream(args.seed)
    result = diagnose_limit(spec, y, k, schedule, args.reps, rng, tolerance=args.tol)
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
        _refuse_unread(args)
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
