"""The benchmark's trace contract, checked against the package.

``perfbench/trace_layers.py`` wraps package functions by name (``SPANS``),
the benchmark's set-up script loads each input through ``io.read_<kind>``
(``workloads.LOADS``) and every workload command is a CLI command line.  A
rename or a deleted flag that breaks any of them, or a refactor that routes
around a wrapped function (the tracer's coverage guard, ``REQUIRED``), would
otherwise show only in a benchmark run.  The benchmark modules are imported
read-only.
"""

import importlib
import sys
from pathlib import Path

import pytest

from graphsample import cli
from graphsample import io as gio
from graphsample.cli import _build_parser

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _bench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


inputs = _bench_module("inputs")
trace_layers = _bench_module("trace_layers")
workloads = _bench_module("workloads")


def _resolve(owner, attr):
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module(f"graphsample.{mod_name}")
    if cls_name:
        return getattr(mod, cls_name).__dict__.get(attr)
    return getattr(mod, attr, None)


@pytest.mark.parametrize("span", sorted(trace_layers.SPANS))
def test_span_targets_are_package_callables(span):
    for owner, attr in trace_layers.SPANS[span]:
        assert callable(_resolve(owner, attr)), f"{span}: {owner}.{attr}"


@pytest.mark.parametrize("workload", sorted(workloads.LOADS))
def test_loaded_kinds_have_readers(workload):
    for kind, _ in workloads.LOADS[workload]:
        assert callable(getattr(gio, f"read_{kind}", None)), f"io.read_{kind}"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_commands_parse(workload):
    parser = _build_parser()
    for cmd in workloads.WORKLOADS[workload]:
        names = {tok[1:-1] for tok in cmd.argv if tok.startswith("{")}
        argv = workloads.argv_for(cmd, {name: f"{name}.txt" for name in names},
                                  seed=1, threads=2, out="x")
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{cmd.name}: {' '.join(argv)} does not parse")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_calls_every_required_span(workload, tmp_path):
    """The coverage guard of a traced benchmark run, at 3 replicates per
    command: every span REQUIRED for the workload records a call."""
    paths = inputs.write_inputs(str(tmp_path), 1)
    # Tracer.install wraps names only in the modules already loaded, as
    # after run.py's untraced pass; some load on first use
    for targets in trace_layers.SPANS.values():
        for owner, _ in targets:
            importlib.import_module(f"graphsample.{owner.partition(':')[0]}")
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        for cmd in workloads.WORKLOADS[workload]:
            argv = workloads.argv_for(cmd, paths, seed=1, threads=1,
                                      out=str(tmp_path / f"{cmd.name}.out"))
            if "--reps" in argv:
                argv[argv.index("--reps") + 1] = "3"
            # cli.main is looked up at call time, so the call enters its
            # wrapper; a test verdict of FAIL (exit 1) at 3 replicates still
            # ran every layer
            assert cli.main(argv) in (0, 1), cmd.name
    finally:
        tracer.uninstall()
    missing = [span for span in trace_layers.REQUIRED[workload]
               if tracer.stats[span][0] == 0]
    assert not missing, f"{workload}: no calls recorded for {', '.join(missing)}"
