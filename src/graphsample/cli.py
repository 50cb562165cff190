"""Command-line surface: generate inputs, run samplers, estimate densities
and profiles, run invariance tests, and diagnose input-size stabilization.

Exit codes: 0 success / test pass, 1 test failure, 2 usage error or
invalid input, 3 I/O error, 4 internal error.  generate, sample, estimate
(but for ``--what misspec``, one exact fraction) and diagnose start their
output with a ``# seed=<u64>`` comment so any run can be replayed exactly;
test writes its one-line summary first, and with ``--out`` the two tallies
after it, each under its own ``# seed=`` comment.
``--threads`` is accepted by estimate, test and diagnose and has no
effect: long tallies split across the CPUs the process may run on, and
results are bit-identical to one process.
"""

from __future__ import annotations

import argparse
import sys

from . import io as gio
from . import models
from .estimate import (
    degree_profile,
    estimate_prefix_density,
    lln_trace,
    multiplicity_profile,
    prefix_density_vector,
)
from .invariance import (
    test_equivalence,
    test_exchangeability,
    test_idempotence,
    test_involution_invariance,
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
from .structures import Partition, key_for

# the generators that take --n, in the order --help lists them
_SIZED_GENERATORS = {
    "star": models.star_vertex, "star_edges": models.star_edgeseq,
    "matching": models.matching_edgeseq,
    "half_multiplicity": models.half_multiplicity,
    "alternating": models.alternating_seq,
    "singletons": models.all_singletons_seq, "cycle": models.cycle_vertex,
    "complete": models.complete_vertex,
}
GENERATORS = ("y4", *_SIZED_GENERATORS, "graphon", "paintbox")

_SEQUENCE_ALGOS = {SEQUENCE, PARTITION}
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

    return top


def _spec_from_args(args) -> SamplerSpec:
    kwargs = {}
    if args.algo == P_SAMPLE:
        kwargs["p"] = args.p
    elif args.algo == "sparsified":
        kwargs["rho"] = args.rho
    return SamplerSpec(args.algo, **kwargs)


def _load(algo: str, path):
    """Read the structure kind that ``algo`` samples from (also used for
    patterns and second inputs)."""
    if algo in _SEQUENCE_ALGOS:
        seq = gio.read_label_seq(path)
        return Partition(seq) if algo == PARTITION else seq
    if algo == EDGE:
        return gio.read_edge_seq(path)
    return gio.read_vertex_graph(path)


def _emit(args, text: str, seeded: bool = False):
    if seeded:  # under the metadata lines every CSV renderer writes
        text = "".join(line + "\n" for line in gio._meta_lines(args.seed)) + text
    if args.out:
        gio.write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
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
        x = _SIZED_GENERATORS[name](_require(args.n, "--n"))
    _emit(args, gio.render_structure(x), seeded=True)
    return 0


def _require(value, flag):
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


class UsageError(Exception):
    pass


def _cmd_sample(args) -> int:
    spec = _spec_from_args(args)
    y = _load(args.algo, args.infile)
    sampler = make_sampler(spec)
    n = _require(args.n, "--n")
    k = args.k if args.k is not None else 1
    if spec.algorithm != P_SAMPLE and args.k is None:
        raise UsageError("missing required flag --k")
    rng = RandomStream(args.seed)
    out = sampler(y, n, k, rng)
    _emit(args, gio.render_structure(out), seeded=True)
    return 0


def _cmd_estimate(args) -> int:
    if args.what == "misspec":
        k = _require(args.misspec_k, "--misspec-k")
        j = _require(args.misspec_j, "--misspec-j")
        _emit(args, gio.render_fraction(models.misspec_table(k, j)) + "\n")
        return 0
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
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
            k = _require(args.k, "--k")
            tally = prefix_density_vector(spec, y, n, k, args.reps, rng)
            _emit(args, gio.render_tally_csv(tally, seed=args.seed))
            return 0
        if args.what == "density":
            pattern = _load(args.algo, _require(args.pattern, "--pattern"))
            est, err = estimate_prefix_density(spec, y, n, pattern, args.reps, rng)
            _emit(args, "pattern_key,count,density,stderr\n"
                        f"{key_for(pattern).hex()},"
                        f"{round(est * args.reps)},{est:.10g},{err:.10g}\n", seeded=True)
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
        _emit(args, gio.render_lln_csv(trace, seed=args.seed))
        return 0
    profile, header = {"degrees": (degree_profile, "n,vertex,dbar"),
                       "multiplicity": (multiplicity_profile, "n,pair,mbar")}[args.what]
    g = gio.read_edge_seq(_require(args.infile, "--in"))
    schedule = _parse_schedule(_require(args.schedule, "--schedule"))
    _emit(args, gio.render_profile_csv(profile(g, schedule), header, seed=args.seed))
    return 0


def _cmd_test(args) -> int:
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
            report = test_exchangeability(spec, y, n, _require(args.k, "--k"),
                                          args.reps, rng)
        elif args.test == "idempotence":
            report = test_idempotence(spec, y, n, _require(args.m, "--m"),
                                      _require(args.k, "--k"), args.reps, rng)
        else:
            y2 = _load(args.algo, _require(args.in2, "--in2"))
            report = test_equivalence(spec, y, y2, n, args.k_max, args.reps, rng)
    text = report.summary() + "\n"
    if args.out:
        text += gio.render_tally_csv(report.tally_a, seed=args.seed,
                                     extra={"operand": "a"})
        text += gio.render_tally_csv(report.tally_b, seed=args.seed,
                                     extra={"operand": "b"})
    _emit(args, text)
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    spec = _spec_from_args(args)
    y = _load(args.algo, args.infile)
    k = _require(args.k, "--k")
    schedule = _parse_schedule(args.schedule)
    rng = RandomStream(args.seed)
    result = diagnose_limit(spec, y, k, schedule, args.reps, rng, tolerance=args.tol)
    _emit(args, gio.render_diagnose_csv(result, seed=args.seed))
    sys.stderr.write(f"verdict: {result.verdict}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": _cmd_generate, "sample": _cmd_sample,
                "estimate": _cmd_estimate, "test": _cmd_test,
                "diagnose": _cmd_diagnose}
    try:
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
