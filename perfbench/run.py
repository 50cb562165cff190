"""graphsample benchmark: end-to-end CLI workloads and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload small-mc --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's command list through fresh
``python -m graphsample.cli`` processes at ``--threads nproc``, repeating
passes until ``--seconds`` have been measured, and reports the end-to-end
metrics (medians over passes, normalised to nominal machine speed by the
probe in ``speed.py``).  ``--trace 1`` runs the list in-process
through ``graphsample.cli.main`` with every layer wrapped from outside and
reports per-layer metrics instead.  Every output is checked; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
details: environment, per-command timings and output digests.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from inputs import write_inputs
from speed import SpeedProbe
from workloads import LOADS, WORKLOADS, argv_for, check_output, digest

MIN_PASSES = 3       # timed passes per run, even when --seconds is short
SETUP_PER_PASS = 2   # set-up time samples taken after each timed pass
DIGESTS_FILE = HERE / "digests.json"

# Child script for set-up time: import the CLI and load the inputs through
# the readers the CLI uses, timed from inside the fresh process.
_SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import graphsample.cli
from graphsample import io
for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):
    getattr(io, "read_" + kind)(path)
print(repr(time.perf_counter() - t0))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, env: dict, stderr_path: str):
    """Run ``python argv`` to completion; (exit code, seconds, peak RSS in
    KiB).  os.wait4 returns the child's own resource usage, which covers
    its threads; stdout is discarded (outputs go to --out files)."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "graphsample").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cores = nproc()
    return {"python": platform.python_version(), "nproc": cores, "cpu": cpu,
            "git_rev": rev, "src_sha256": src_hash.hexdigest(),
            "note": f"{cores} cores cap any parallel gain at {cores}x"}


def setup_sampler(workload: str, paths: dict, env: dict):
    """Function taking one set-up time sample: a fresh process that imports
    the CLI and loads the workload's inputs."""
    argv = [sys.executable, "-c", _SETUP_SCRIPT]
    for kind, name in LOADS[workload]:
        argv += [kind, paths[name]]

    def sample() -> float:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        return float(proc.stdout)
    return sample


def run_pass(cmds, paths, seed, threads, env, workdir, probe) -> list:
    """One pass over cmds in fresh CLI processes; one record per command.
    The speed probe runs before the first command and after each one; a
    command's speed factor is the mean of the probes on either side."""
    records = []
    before = probe()
    for cmd in cmds:
        out = os.path.join(workdir, cmd.name + ".out")
        err = os.path.join(workdir, cmd.name + ".err")
        argv = ["-m", "graphsample.cli"] + argv_for(cmd, paths, seed, threads, out)
        code, seconds, rss_kib = spawn(argv, env, err)
        problem = None
        text = ""
        if code != 0:
            with open(err) as fh:
                problem = f"exit code {code}: {fh.read().strip()[-300:]}"
        else:
            with open(out) as fh:
                text = fh.read()
            problem = check_output(cmd, text)
        after = probe()
        records.append({"cmd": cmd, "seconds": seconds, "speed": (before + after) / 2,
                        "rss_mb": rss_kib / 1024.0, "digest": digest(text),
                        "problem": problem})
        before = after
    return records


def untraced_run(workload, seed, seconds, paths, workdir):
    cmds = WORKLOADS[workload]
    env = child_env()
    threads = nproc()
    setup_sample = setup_sampler(workload, paths, env)
    setup_sample()  # fills the bytecode cache; not timed
    probe = SpeedProbe()

    # Reference pass at one thread: every timed pass must reproduce its
    # outputs byte for byte (results may not depend on the thread count).
    reference = {r["cmd"].name: r
                 for r in run_pass(cmds, paths, seed, 1, env, workdir, probe)}
    records = list(reference.values())
    timed = {cmd.name: [] for cmd in cmds}
    setup = []
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        # alternate the command order so drift within a run spreads evenly
        order = cmds if passes % 2 == 0 else cmds[::-1]
        for r in run_pass(order, paths, seed, threads, env, workdir, probe):
            ref = reference[r["cmd"].name]
            if r["problem"] is None and ref["problem"] is None \
                    and r["digest"] != ref["digest"]:
                r["problem"] = f"output at --threads {threads} differs from --threads 1"
            timed[r["cmd"].name].append(r)
            records.append(r)
        # set-up samples are spread over the run like the passes, so both
        # see the same mix of machine load
        before = probe()
        samples = [setup_sample() for _ in range(SETUP_PER_PASS)]
        speed = (before + probe()) / 2
        setup.extend((s, s / speed) for s in samples)
        passes += 1

    # Times are normalised to nominal machine speed (see speed.py).  Each
    # command's time is its median over the passes; a pass's time is the
    # sum of those medians.
    def pass_times(normalised):
        return {name: statistics.median(r["seconds"] / r["speed"] if normalised
                                        else r["seconds"] for r in recs)
                for name, recs in timed.items()}

    def end_to_end(median_s, setup_s):
        rep_cmds = [cmd for cmd in cmds if cmd.replicates]
        return {"reps_per_s": sum(cmd.replicates for cmd in rep_cmds)
                / sum(median_s[cmd.name] for cmd in rep_cmds),
                "wall_s": sum(median_s.values()),
                "setup_s": statistics.median(setup_s)}

    nominal = end_to_end(pass_times(True), [n for _, n in setup])
    failed = sum(r["problem"] is not None for r in records)
    metrics = {
        "reps_per_s": (nominal["reps_per_s"], "1/s"),
        "wall_s": (nominal["wall_s"], "s"),
        "setup_s": (nominal["setup_s"], "s"),
        "peak_rss_mb": (max(statistics.median(r["rss_mb"] for r in recs)
                            for recs in timed.values()), "MB"),
        "pass_frac": ((len(records) - failed) / len(records), "fraction"),
    }
    speeds = [r["speed"] for recs in timed.values() for r in recs]
    detail = {
        "passes": passes,
        "threads": threads,
        "speed_factor": {"median": statistics.median(speeds), "min": min(speeds),
                         "max": max(speeds)},
        "raw": end_to_end(pass_times(False), [s for s, _ in setup]),
        "setup_samples_s": [s for s, _ in setup],
        "commands": {
            cmd.name: {"replicates": cmd.replicates,
                       "digest": reference[cmd.name]["digest"],
                       "seconds": [r["seconds"] for r in timed[cmd.name]],
                       "speed": [r["speed"] for r in timed[cmd.name]]}
            for cmd in cmds},
        "problems": [f"{r['cmd'].name}: {r['problem']}" for r in records if r["problem"]],
    }
    digests = {name: c["digest"] for name, c in detail["commands"].items()}
    return metrics, len(records), failed, detail, digests


def compare_digests(workload, seed, digests) -> list:
    """Commands whose output digest differs from the one recorded for this
    workload and seed in digests.json.  A mismatch is reported, never
    counted as a failure: a change may legitimately alter outputs."""
    try:
        with open(DIGESTS_FILE) as fh:
            known = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return []
    if not known:
        return []
    return sorted(name for name, d in digests.items() if known.get(name) != d)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "graphsample" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no graphsample sources under {SRC}\n")
        return 2
    env_info = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        paths = write_inputs(workdir, args.seed)
        if args.trace:
            from trace_layers import traced_run

            metrics, attempted, failed, detail, digests = traced_run(
                args.workload, args.seed, args.seconds, paths, workdir, nproc())
        else:
            metrics, attempted, failed, detail, digests = untraced_run(
                args.workload, args.seed, args.seconds, paths, workdir)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env_info, **detail,
              "digest_mismatches": compare_digests(args.workload, args.seed, digests)}
    for problem in detail["problems"]:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
