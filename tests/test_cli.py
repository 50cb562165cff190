import argparse
import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from graphsample import estimate, sampling
from graphsample import io as gio
from graphsample.cli import GENERATORS, _build_parser, main
from graphsample.models import y4
from graphsample.sampling import ALGORITHMS
from graphsample.structures import Partition


ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _child_env():
    # The child needs src/ on its path even when pytest found the package
    # only through its own ``pythonpath`` setting.
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "graphsample.cli"] + args,
                          capture_output=True, text=True, env=_child_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_generate_y4(tmp_path):
    out = tmp_path / "y4.txt"
    code = main(["generate", "y4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "# seed=0"
    assert gio.parse_vertex_graph(text) == y4()
    assert text.count("\n") == 4  # seed comment + 3 edges


def test_generate_star_edge_list_lines(tmp_path):
    out = tmp_path / "star.txt"
    assert main(["generate", "star", "--n", "100", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 99


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        main(["generate", "graphon", "--file", str(_graphon_file(tmp_path)),
              "--k", "30", "--seed", "7", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def _graphon_file(tmp_path):
    path = tmp_path / "w.txt"
    gio.write_text(path, "2\n0.0 0.5 1.0\n0.8 0.1\n0.1 0.6\n")
    return path


def test_generate_paintbox_roundtrip(tmp_path):
    out = tmp_path / "pb.txt"
    assert main(["generate", "paintbox", "--atoms", "0.5,0.5", "--n", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    seq = gio.read_label_seq(out)
    assert len(seq) == 50
    Partition(seq)  # ordered by construction


def test_sample_roundtrip_and_replay(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    args = ["sample", "--algo", "uniform_vertex", "--in", str(y4_file),
            "--n", "4", "--k", "3", "--seed", "11"]
    assert main(args + ["--out", str(s1)]) == 0
    assert main(args + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    g = gio.read_vertex_graph(s1)
    assert g.n == 3


def test_sample_p_zero_empty_body(tmp_path):
    k10 = tmp_path / "k10.txt"
    main(["generate", "complete", "--n", "10", "--out", str(k10)])
    out = tmp_path / "out.txt"
    assert main(["sample", "--algo", "p_sample", "--in", str(k10),
                 "--n", "10", "--p", "0.0", "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body == []


def test_estimate_misspec_stdout(capsys):
    assert main(["estimate", "--what", "misspec", "--misspec-k", "20",
                 "--misspec-j", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1/1140"
    assert main(["estimate", "--what", "misspec", "--misspec-k", "20",
                 "--misspec-j", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1/38760"


def test_estimate_vector_csv_schema(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    out = tmp_path / "vec.csv"
    assert main(["estimate", "--what", "vector", "--algo", "uniform_vertex",
                 "--in", str(y4_file), "--n", "4", "--k", "3",
                 "--reps", "2000", "--seed", "5", "--threads", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == "pattern_key,count,density,stderr"
    counts = [int(l.split(",")[1]) for l in lines[2:]]
    assert sum(counts) == 2000


def test_estimate_vector_thread_count_invariant(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    outs = []
    for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
        out = tmp_path / name
        main(["estimate", "--what", "vector", "--algo", "uniform_vertex",
              "--in", str(y4_file), "--n", "4", "--k", "3", "--reps", "3000",
              "--seed", "9", "--threads", str(threads), "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_estimate_degrees_csv(tmp_path):
    star = tmp_path / "star.txt"
    main(["generate", "star_edges", "--n", "100", "--out", str(star)])
    out = tmp_path / "deg.csv"
    assert main(["estimate", "--what", "degrees", "--in", str(star),
                 "--schedule", "25,50,100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,vertex,dbar"
    assert "25,1,0.5" in lines


def test_estimate_multiplicity_csv(tmp_path):
    hm = tmp_path / "hm.txt"
    main(["generate", "half_multiplicity", "--n", "40", "--out", str(hm)])
    out = tmp_path / "mult.csv"
    assert main(["estimate", "--what", "multiplicity", "--in", str(hm),
                 "--schedule", "10,20,40", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,pair,mbar"
    assert "40,1-2,0.5" in lines


def test_estimate_lln_csv(tmp_path):
    seq = tmp_path / "seq.txt"
    main(["generate", "alternating", "--n", "200", "--out", str(seq)])
    out = tmp_path / "lln.csv"
    assert main(["estimate", "--what", "lln", "--algo", "sequence",
                 "--in", str(seq), "--n", "200", "--schedule", "4,16",
                 "--label", "1", "--j", "1", "--reps", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,estimate"
    assert len(lines) == 4


def test_estimate_lln_exact_above_seven(tmp_path, capsys):
    # (9)_2 = 72 arrangements fit the default budget, so k = 9 is averaged
    # exactly: every replicate holds all nine labels, two of them 1
    seq = tmp_path / "seq.txt"
    seq.write_text("3\n1\n4\n1\n5\n9\n2\n6\n5\n")
    assert main(["estimate", "--what", "lln", "--algo", "sequence", "--in", str(seq),
                 "--n", "9", "--schedule", "3,9", "--label", "1", "--j", "2",
                 "--reps", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "9,0.2222222222"


def test_estimate_density_single_pattern(tmp_path, capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    pat = tmp_path / "pat.txt"
    pat.write_text("#n 2\n1 2\n")
    assert main(["estimate", "--what", "density", "--algo", "uniform_vertex",
                 "--in", str(y4_file), "--pattern", str(pat), "--n", "4",
                 "--reps", "4000", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    est = float(out.splitlines()[-1].split(",")[2])
    assert abs(est - 0.5) < 0.05  # P(edge) = 3/6 on y4 at k = 2


def test_estimate_density_pattern_larger_than_n_usage_error(tmp_path, capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    code = main(["estimate", "--what", "density", "--algo", "uniform_vertex",
                 "--in", str(y4_file), "--pattern", str(y4_file), "--n", "2",
                 "--reps", "10"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pattern size 4 exceeds n = 2\n"


@pytest.mark.parametrize("algo", ["shortest_path", "ego", "bs_root"])
def test_estimate_density_without_pattern_format_usage_error(algo, tmp_path, capsys):
    """The pattern file is a vertex graph, whose key never equals a marked
    complete graph's or a ball's: a density of these outputs would read 0."""
    c12 = tmp_path / "c12.txt"
    main(["generate", "cycle", "--n", "12", "--out", str(c12)])
    pat = tmp_path / "pat.txt"
    pat.write_text("1 2\n2 3\n")
    code = main(["estimate", "--what", "density", "--algo", algo, "--in", str(c12),
                 "--pattern", str(pat), "--n", "12", "--reps", "200"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shortest_path, ego and bs_root outputs have no pattern file format" in captured.err


def test_cmd_test_idempotence_exit_codes(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    code = main(["test", "--test", "idempotence", "--algo", "uniform_vertex",
                 "--in", str(y4_file), "--n", "4", "--m", "3", "--k", "2",
                 "--reps", "5000", "--seed", "1"])
    assert code == 0
    k6 = tmp_path / "k6.txt"
    main(["generate", "complete", "--n", "6", "--out", str(k6)])
    code = main(["test", "--test", "idempotence", "--algo", "sparsified",
                 "--rho", "0.5", "--in", str(k6), "--n", "6", "--m", "4",
                 "--k", "2", "--reps", "5000", "--seed", "1"])
    assert code == 1  # double thinning: composition detectably differs


def test_cmd_test_idempotence_of_p_sample_usage_error(tmp_path, capsys):
    c12 = tmp_path / "c12.txt"
    main(["generate", "cycle", "--n", "12", "--out", str(c12)])
    code = main(["test", "--test", "idempotence", "--algo", "p_sample", "--p", "0.5",
                 "--in", str(c12), "--n", "12", "--m", "6", "--reps", "10"])
    assert code == 2
    assert "p_sample has a random output size" in capsys.readouterr().err


def test_cmd_test_equivalence_exit_codes(tmp_path, capsys):
    y4_file, copy, k4 = tmp_path / "y4.txt", tmp_path / "copy.txt", tmp_path / "k4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    copy.write_bytes(y4_file.read_bytes())
    main(["generate", "complete", "--n", "4", "--out", str(k4)])
    argv = ["test", "--test", "equivalence", "--algo", "uniform_vertex",
            "--in", str(y4_file), "--n", "4", "--k-max", "2", "--reps", "2000",
            "--seed", "1", "--in2"]
    assert main(argv + [str(copy)]) == 0
    assert capsys.readouterr().out.startswith("equivalence(k<=[2]): PASS")
    # every pair of K4 is an edge, half of y4's are: TV 1/2 at k = 2
    assert main(argv + [str(k4)]) == 1
    summary = capsys.readouterr().out
    assert summary.startswith("equivalence(k<=[2]): FAIL")
    tv = float(summary.split("TV = ")[1].split()[0])
    assert abs(tv - 0.5) < 0.05


@pytest.mark.parametrize("k_max, message", [
    ("0", "k_max must be >= 1"),
    ("-1", "k_max must be >= 1"),
    ("9", "k_max = 9 exceeds n = 4"),
], ids=["0", "-1", "above_n"])
def test_cmd_test_equivalence_k_max_below_one_usage_error(k_max, message, tmp_path,
                                                          capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    code = main(["test", "--test", "equivalence", "--algo", "uniform_vertex",
                 "--in", str(y4_file), "--in2", str(y4_file), "--n", "4",
                 "--k-max", k_max, "--reps", "10"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cmd_test_exchangeability_exit_zero(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    main(["generate", "singletons", "--n", "30", "--out", str(seq)])
    code = main(["test", "--test", "exchangeability", "--algo", "partition",
                 "--in", str(seq), "--n", "30", "--k", "3", "--reps", "2000"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("algo,seed", [("ego", 1), ("ego", 2),
                                       ("shortest_path", 1), ("shortest_path", 2)])
def test_cmd_test_exchangeability_of_rooted_outputs(algo, seed, tmp_path, capsys):
    # roots and chosen vertices are distinct uniform draws, so an ego list
    # and a marked complete graph are exchangeable; the star has few patterns
    star = tmp_path / "star.txt"
    main(["generate", "star", "--n", "6", "--out", str(star)])
    code = main(["test", "--test", "exchangeability", "--algo", algo, "--in", str(star),
                 "--n", "6", "--k", "3", "--reps", "4000", "--seed", str(seed)])
    assert code == 0
    assert capsys.readouterr().out.startswith("exchangeability: PASS")


def _count_calls(monkeypatch, name):
    """Wrap sampling.<name> so each call is recorded; return the record."""
    calls = []
    run = getattr(sampling, name)

    def counted(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(sampling, name, counted)
    return calls


def test_cmd_test_exchangeability_of_a_ball_usage_error(tmp_path, capsys, monkeypatch):
    """A ball has no positions to permute; refused before any replicate."""
    star = tmp_path / "star.txt"
    main(["generate", "star", "--n", "6", "--out", str(star)])
    calls = _count_calls(monkeypatch, "sample_bs")
    code = main(["test", "--test", "exchangeability", "--algo", "bs_root", "--in",
                 str(star), "--n", "6", "--k", "2", "--reps", "10"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bs_root reports one ball, whose size is a radius, so it has no "
        "positions to permute for exchangeability\n")
    assert calls == []


@pytest.mark.parametrize("algo, function, reported", [
    ("shortest_path", "sample_shortest_path", "MarkedCompleteGraph"),
    ("ego", "sample_ego", "list"),
    ("bs_root", "sample_bs", "RootedGraph"),
])
def test_cmd_test_idempotence_of_another_output_kind_usage_error(
        algo, function, reported, tmp_path, capsys, monkeypatch):
    """The second stage cannot sample an output of another kind; refused
    before any replicate, by the algorithm's name."""
    c12 = tmp_path / "c12.txt"
    main(["generate", "cycle", "--n", "12", "--out", str(c12)])
    capsys.readouterr()
    calls = _count_calls(monkeypatch, function)
    code = main(["test", "--test", "idempotence", "--algo", algo, "--in", str(c12),
                 "--n", "12", "--m", "6", "--k", "2", "--reps", "10"])
    assert code == 2
    assert capsys.readouterr() == ("", (
        f"error: {algo} reports a {reported}, not the VertexGraph it samples, "
        "so idempotence cannot sample its output again\n"))
    assert calls == []


def test_cmd_test_equivalence_of_p_sample_reads_no_k_max(tmp_path, capsys, monkeypatch):
    """p_sample ignores k, so equivalence makes one comparison, named by no
    depth, and a --k-max given is refused."""
    c10, k10 = tmp_path / "c10.txt", tmp_path / "k10.txt"
    main(["generate", "cycle", "--n", "10", "--out", str(c10)])
    main(["generate", "complete", "--n", "10", "--out", str(k10)])
    capsys.readouterr()
    argv = ["test", "--test", "equivalence", "--algo", "p_sample", "--p", "0.5",
            "--in", str(c10), "--in2", str(k10), "--n", "10", "--reps", "200"]
    assert main([*argv, "--k-max", "2"]) == 2
    assert capsys.readouterr() == (
        "", "usage error: test --test equivalence does not read --k-max\n")
    calls = _count_calls(monkeypatch, "sample_p")
    assert main(argv) == 1  # a cycle and a complete graph differ at once
    out = capsys.readouterr().out
    assert out.startswith("equivalence: FAIL") and "note:" not in out
    assert len(calls) == 2 * 200


def test_cmd_test_writes_summary_and_both_tallies(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    out = tmp_path / "report.txt"
    main(["test", "--test", "exchangeability", "--algo", "uniform_vertex",
          "--in", str(y4_file), "--n", "4", "--k", "2", "--reps", "1000",
          "--out", str(out)])
    text = out.read_text()
    assert "exchangeability" in text
    assert text.count("pattern_key,count,density,stderr") == 2
    assert "# operand=a" in text and "# operand=b" in text


def test_cmd_test_involution(tmp_path):
    c50 = tmp_path / "c50.txt"
    main(["generate", "cycle", "--n", "50", "--out", str(c50)])
    code = main(["test", "--test", "involution", "--in", str(c50), "--n", "50",
                 "--radius", "2", "--reps", "500"])
    assert code == 0
    star = tmp_path / "star.txt"
    main(["generate", "star", "--n", "10", "--out", str(star)])
    code = main(["test", "--test", "involution", "--in", str(star), "--n", "10",
                 "--radius", "1", "--root", "1", "--reps", "500"])
    assert code == 1


def test_cmd_test_notes_a_vacuous_threshold(tmp_path, capsys):
    """At 10 replicates a side the threshold exceeds 1, so two laws a TV of 1
    apart still pass (exit 0), and the summary says why; at 40 they fail."""
    star = tmp_path / "star50.txt"
    main(["generate", "star", "--n", "50", "--out", str(star)])
    capsys.readouterr()
    argv = ["test", "--test", "involution", "--in", str(star), "--n", "50",
            "--radius", "1", "--root", "1", "--reps"]
    assert main([*argv, "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("involution_invariance: PASS  TV = 1.000000  "
                      "threshold = 1.788854  reps = 10")
    assert out[-1] == ("  note: vacuous threshold: a TV is at most 1, so none can exceed "
                       "1.788854 at this replicate count and the test passes whatever the laws")
    assert main([*argv, "40"]) == 1
    assert "vacuous" not in capsys.readouterr().out


def test_involution_root_outside_graph_usage_error(tmp_path, capsys):
    c50 = tmp_path / "c50.txt"
    main(["generate", "cycle", "--n", "50", "--out", str(c50)])
    for root in ("99", "0"):
        code = main(["test", "--test", "involution", "--in", str(c50), "--n", "50",
                     "--root", root, "--reps", "10"])
        assert code == 2
        assert f"error: root {root} outside 1..50" in capsys.readouterr().err.splitlines()


def test_involution_zero_reps_usage_error(tmp_path, capsys):
    c50 = tmp_path / "c50.txt"
    main(["generate", "cycle", "--n", "50", "--out", str(c50)])
    code = main(["test", "--test", "involution", "--in", str(c50), "--n", "50",
                 "--reps", "0"])
    assert code == 2
    assert "error: reps must be >= 1" in capsys.readouterr().err.splitlines()


def test_cmd_diagnose(tmp_path, capsys):
    star = tmp_path / "star.txt"
    main(["generate", "star", "--n", "400", "--out", str(star)])
    out = tmp_path / "diag.csv"
    code = main(["diagnose", "--algo", "uniform_vertex", "--in", str(star),
                 "--n", "400", "--k", "2", "--schedule", "50,100,200,400",
                 "--reps", "2000", "--seed", "2", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# verdict=STABILIZING" in text
    assert "n,pattern_key,density" in text


def test_diagnose_one_size_schedule_usage_error(tmp_path, capsys):
    star = tmp_path / "star.txt"
    main(["generate", "star", "--n", "50", "--out", str(star)])
    capsys.readouterr()
    code = main(["diagnose", "--algo", "uniform_vertex", "--in", str(star), "--n", "50",
                 "--k", "2", "--schedule", "50", "--reps", "100"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: diagnose needs a schedule of at least two sizes\n")


def test_diagnose_schedule_too_large_usage_error(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    code = main(["diagnose", "--algo", "uniform_vertex", "--in", str(y4_file),
                 "--n", "4", "--k", "2", "--schedule", "2,8", "--reps", "10"])
    assert code == 2


# Every subcommand's options: dest -> (option strings, default, required,
# choices, type).  The parser declares shared options once; this table pins
# each subcommand's flags, so that sharing cannot change any of them.
_TASKS = ("vector", "density", "degrees", "multiplicity", "lln", "misspec")
_TESTS = ("exchangeability", "idempotence", "equivalence", "involution")
_COMMON = {"seed": (("--seed",), 0, False, None, int),
           "out": (("--out",), None, False, None, None),
           "n": (("--n",), None, False, None, int),
           "k": (("--k",), None, False, None, int)}
_SAMPLER = {"p": (("--p",), None, False, None, float),
            "rho": (("--rho",), None, False, None, float)}
_REPS = {"reps": (("--reps",), 10_000, False, None, int),
         "threads": (("--threads",), None, False, None, int)}


# Argparse requires only the selectors; cli._check_flags names a missing
# --algo, --in or --schedule, like every other flag a task needs.
_SAMPLED = {"algo": (("--algo",), None, False, tuple(ALGORITHMS), None),
            "infile": (("--in",), None, False, None, None),
            **_COMMON, **_SAMPLER}


CLI_OPTIONS = {
    "generate": {"name": ((), None, True, tuple(GENERATORS), None), **_COMMON,
                 "file": (("--file",), None, False, None, None),
                 "atoms": (("--atoms",), None, False, None, None),
                 "dust": (("--dust",), 0.0, False, None, float)},
    "sample": _SAMPLED,
    "estimate": {**_SAMPLED, **_REPS,
                 "what": (("--what",), None, True, _TASKS, None),
                 "pattern": (("--pattern",), None, False, None, None),
                 "schedule": (("--schedule",), None, False, None, None),
                 "j": (("--j",), 1, False, None, int),
                 "label": (("--label",), 1, False, None, int),
                 "misspec_k": (("--misspec-k",), None, False, None, int),
                 "misspec_j": (("--misspec-j",), None, False, None, int)},
    "test": {**_SAMPLED, **_REPS,
             "test": (("--test",), None, True, _TESTS, None),
             "in2": (("--in2",), None, False, None, None),
             "m": (("--m",), None, False, None, int),
             "k_max": (("--k-max",), 3, False, None, int),
             "radius": (("--radius",), 1, False, None, int),
             "root": (("--root",), "uniform", False, None, None)},
    "diagnose": {**_SAMPLED, **_REPS,
                 "schedule": (("--schedule",), None, False, None, None),
                 "tol": (("--tol",), 0.02, False, None, float)},
}


def test_every_subcommand_keeps_its_options():
    top = _build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_OPTIONS)
    for name, parser in sub.choices.items():
        got = {a.dest: (tuple(a.option_strings), a.default, a.required,
                        tuple(a.choices) if a.choices is not None else None, a.type)
               for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert got == CLI_OPTIONS[name], name


def test_unknown_flag_exits_2():
    code, _, err = run_cli(["generate", "y4", "--bogus"])
    assert code == 2


def test_missing_required_flag_exits_2(tmp_path, capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    code = main(["sample", "--algo", "uniform_vertex", "--in", str(y4_file),
                 "--n", "4"])  # --k missing
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_generator_exits_2():
    code, _, err = run_cli(["generate", "noSuchThing"])
    assert code == 2


def test_missing_input_file_io_error(tmp_path):
    code = main(["sample", "--algo", "uniform_vertex", "--in",
                 str(tmp_path / "absent.txt"), "--n", "4", "--k", "2"])
    assert code == 3


def test_non_positive_label_usage_error(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0\n1\n")
    code = main(["estimate", "--what", "vector", "--algo", "sequence", "--in", str(seq),
                 "--n", "2", "--k", "1", "--reps", "10"])
    assert code == 2
    assert "label 0 is not a positive integer" in capsys.readouterr().err


def test_malformed_edge_line_names_its_line(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3\n")
    code = main(["estimate", "--what", "vector", "--algo", "uniform_vertex",
                 "--in", str(graph), "--n", "2", "--k", "1", "--reps", "10"])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: expected 2 field(s), found 1: '3'\n"


@pytest.mark.parametrize("algo, text, message", [
    ("uniform_vertex", "1 2\n0 3\n", "line 2: edge (0,3) has a vertex below 1: '0 3'"),
    ("uniform_vertex", "1 2\n-1 3\n",
     "line 2: edge (-1,3) has a vertex below 1: '-1 3'"),
    ("uniform_vertex", "1 2\n2 2\n", "line 2: self-loop at vertex 2: '2 2'"),
    ("uniform_vertex", "#n 3\n3 3\n", "line 2: self-loop at vertex 3: '3 3'"),
    # the header's bound is checked first, as before
    ("uniform_vertex", "#n 3\n0 5\n",
     "line 2: edge (0,5) outside 1..3 declared on line 1: '0 5'"),
    ("edge", "1 2\n2 2\n", "line 2: self-loop pair (2,2): '2 2'"),
    ("edge", "1 2\n3 2\n", "line 2: pair (3,2) must satisfy 1 <= i < j: '3 2'"),
    ("edge", "0 3\n", "line 1: pair (0,3) must satisfy 1 <= i < j: '0 3'"),
], ids=["vertex_zero", "vertex_negative", "vertex_self_loop", "vertex_self_loop_header",
        "vertex_header_first", "edge_self_loop", "edge_reversed", "edge_zero"])
def test_refused_edge_line_names_its_line(algo, text, message, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    code = main(["estimate", "--what", "vector", "--algo", algo,
                 "--in", str(graph), "--n", "1", "--k", "1", "--reps", "10"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("2\n0 0.5 1\n0.3 x\n0.1 0.2\n", "line 3: not a number: '0.3 x'"),
    ("two\n0 0.5 1\n0.3 0.1\n0.1 0.2\n", "line 1: not an integer: 'two'"),
    ("1\n0 1\n0.5\n0.5\n", "line 4: extra line after the 1 value rows: '0.5'"),
])
def test_malformed_graphon_names_its_line(tmp_path, capsys, text, message):
    w = tmp_path / "w.txt"
    w.write_text(text)
    assert main(["generate", "graphon", "--file", str(w), "--k", "5"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["paintbox", "--atoms", "nan", "--n", "5"], "masses must be >= 0"),
    (["paintbox", "--atoms", "0.5,0.5", "--dust", "nan", "--n", "5"],
     "masses must be >= 0"),
    (["graphon", "--file", "{w}", "--k", "5"],
     "boundaries must run 0 = b0 < ... < bB = 1"),
    (["graphon", "--file", "{inner}", "--k", "5"],
     "boundaries must be strictly increasing"),
], ids=["atoms", "dust", "last_boundary", "inner_boundary"])
def test_nan_mass_or_boundary_usage_error(argv, message, tmp_path, capsys):
    w, inner = tmp_path / "w.txt", tmp_path / "inner.txt"
    w.write_text("1\n0.0 nan\n0.5\n")
    inner.write_text("2\n0.0 nan 1.0\n0.5 0.5\n0.5 0.5\n")
    argv = [a.format(w=w, inner=inner) for a in argv]
    assert main(["generate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("#n 3\n2 5\n", "line 2: edge (2,5) outside 1..3 declared on line 1: '2 5'"),
    ("#n -2\n", "line 1: vertex count must be >= 0: '#n -2'"),
    ("#n 4\n#n 9\n1 2\n", "line 2: second #n header (first on line 1): '#n 9'"),
    ("#n 10000001\n1 2\n",
     "line 1: vertex count 10000001 exceeds the limit 10000000: '#n 10000001'"),
    ("1 10000001\n",
     "line 1: vertex count 10000001 exceeds the limit 10000000: '1 10000001'"),
    ("#n\n1 2\n", "line 1: expected 1 field(s), found 0: '#n'"),
    # a #n line below the edges: each edge is checked against it all the same
    ("1 5\n2 3\n#n 4\n", "line 1: edge (1,5) outside 1..4 declared on line 3: '1 5'"),
    ("2 3\nx 1\n1 5\n#n 4\n", "line 2: not an integer: 'x 1'"),
    ("2 3\n1 5\nx 1\n#n 4\n",
     "line 2: edge (1,5) outside 1..4 declared on line 4: '1 5'"),
    ("x 1\n#n 4\n#n 5\n", "line 3: second #n header (first on line 2): '#n 5'"),
])
def test_vertex_count_header_errors_name_their_line(tmp_path, capsys, text, message):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    code = main(["estimate", "--what", "vector", "--algo", "uniform_vertex",
                 "--in", str(graph), "--n", "2", "--k", "1", "--reps", "10"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("algo, text", [("edge", "#n 2\n1 5\n"),
                                        ("sequence", "#n 2\n1\n2\n")])
def test_vertex_count_header_outside_vertex_graph_usage_error(algo, text, tmp_path,
                                                              capsys):
    path = tmp_path / "y.txt"
    path.write_text(text)
    code = main(["estimate", "--what", "vector", "--algo", algo, "--in", str(path),
                 "--n", "1", "--k", "1", "--reps", "10"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 1: #n header outside a vertex-graph file: '#n 2'\n")


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # a fault inside the package, injected where every tally keys its outputs
    def broken_key(x):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(estimate, "key_for", broken_key)
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2\n")
    code = main(["estimate", "--what", "vector", "--algo", "sequence", "--in", str(seq),
                 "--n", "2", "--k", "2", "--reps", "10"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: injected fault\n"


def test_labels_beyond_32_bits_are_estimated(tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("2147483648\n9223372036854775808\n")
    out = tmp_path / "tally.csv"
    code = main(["estimate", "--what", "vector", "--algo", "sequence", "--in", str(seq),
                 "--n", "2", "--k", "1", "--reps", "50", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line.startswith("seq:")]
    assert len(rows) == 2 and rows[0][0] != rows[1][0]
    assert sum(int(count) for _, count, _, _ in rows) == 50


def test_console_entry_point_runs():
    code, out, _ = run_cli(["generate", "y4"])
    assert code == 0
    assert "1 2" in out


_STRAY = {  # flags -> the SamplerSpec message that refuses them
    ("--algo", "uniform_vertex", "--p", "0.3"): "uniform_vertex takes no p parameter",
    ("--algo", "uniform_vertex", "--rho", "0.2"): "uniform_vertex takes no rho parameter",
    ("--algo", "p_sample", "--p", "0.3", "--rho", "0.2"): "p_sample takes no rho parameter",
    ("--algo", "sparsified", "--rho", "0.2", "--p", "0.3"): "sparsified takes no p parameter",
}
_SAMPLER_COMMANDS = {
    "sample": ["sample"],
    "estimate": ["estimate", "--what", "vector", "--reps", "10"],
    "test": ["test", "--test", "exchangeability", "--reps", "10"],
    "diagnose": ["diagnose", "--schedule", "2,4", "--reps", "10"],
}


@pytest.mark.parametrize("flags", list(_STRAY),
                         ids=["p", "rho", "rho_on_p_sample", "p_on_sparsified"])
@pytest.mark.parametrize("command", list(_SAMPLER_COMMANDS))
def test_stray_sampler_parameter_usage_error(command, flags, tmp_path, capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    capsys.readouterr()
    k = [] if "p_sample" in flags else ["--k", "2"]  # p_sample reads no --k
    code = main([*_SAMPLER_COMMANDS[command], *flags, "--in", str(y4_file),
                 "--n", "4", *k])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {_STRAY[flags]}\n")


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_diagnose_tolerance_not_above_zero_usage_error(tol, tmp_path, capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    capsys.readouterr()
    code = main(["diagnose", "--algo", "uniform_vertex", "--in", str(y4_file), "--n", "4",
                 "--k", "2", "--schedule", "2,4", "--reps", "10", "--tol", tol])
    assert code == 2
    assert capsys.readouterr() == ("", "error: tolerance must be > 0\n")


@pytest.mark.parametrize("what", ["vector", "lln"])
def test_estimate_zero_reps_usage_error(what, tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2\n1\n")
    size = {"vector": ["--k", "2"], "lln": ["--schedule", "2,3"]}[what]
    code = main(["estimate", "--what", what, "--algo", "sequence", "--in", str(seq),
                 "--n", "3", *size, "--reps", "0"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: reps must be >= 1\n")


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--what", "degrees", "--in", "{edges}", "--schedule", "5,10",
      "--algo", "ego", "--p", "0.3", "--k", "9", "--reps", "0"],
     "estimate --what degrees does not read --algo"),
    (["estimate", "--what", "multiplicity", "--in", "{edges}", "--schedule", "5,10",
      "--n", "10"], "estimate --what multiplicity does not read --n"),
    (["estimate", "--what", "misspec", "--misspec-k", "20", "--misspec-j", "3",
      "--reps", "5"], "estimate --what misspec does not read --reps"),
    (["test", "--test", "involution", "--in", "{graph}", "--n", "10", "--k", "3"],
     "test --test involution does not read --k"),
], ids=["degrees", "multiplicity", "misspec", "involution"])
def test_unsampled_task_refuses_a_flag_it_does_not_read(argv, message, tmp_path, capsys):
    files = {"edges": tmp_path / "star_edges.txt", "graph": tmp_path / "c10.txt"}
    main(["generate", "star_edges", "--n", "10", "--out", str(files["edges"])])
    main(["generate", "cycle", "--n", "10", "--out", str(files["graph"])])
    capsys.readouterr()
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    # --seed, --out and --threads are accepted everywhere, and a flag at its
    # default value counts as not given
    out = tmp_path / "out.txt"
    kept = argv[:argv.index(message.split()[-1])]
    assert main([*kept, "--seed", "3", "--out", str(out), "--threads", "2",
                 "--reps", "10000"]) in (0, 1)
    assert out.read_text()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--what", "vector", "--algo", "uniform_vertex", "--in", "{graph}",
      "--n", "10", "--k", "2", "--reps", "50", "--schedule", "2,3"],
     "estimate --what vector does not read --schedule"),
    (["estimate", "--what", "density", "--algo", "uniform_vertex", "--in", "{graph}",
      "--pattern", "{pattern}", "--n", "10", "--reps", "50", "--k", "2"],
     "estimate --what density does not read --k"),
    (["estimate", "--what", "lln", "--algo", "sequence", "--in", "{seq}", "--n", "20",
      "--schedule", "2,4", "--reps", "50", "--k", "99"],
     "estimate --what lln does not read --k"),
    (["test", "--test", "exchangeability", "--algo", "uniform_vertex", "--in", "{graph}",
      "--n", "10", "--k", "2", "--reps", "50", "--m", "3"],
     "test --test exchangeability does not read --m"),
    (["test", "--test", "idempotence", "--algo", "uniform_vertex", "--in", "{graph}",
      "--n", "10", "--m", "4", "--k", "2", "--reps", "50", "--k-max", "4"],
     "test --test idempotence does not read --k-max"),
    (["test", "--test", "equivalence", "--algo", "uniform_vertex", "--in", "{graph}",
      "--in2", "{graph}", "--n", "10", "--reps", "50", "--k", "3"],
     "test --test equivalence does not read --k"),
], ids=["vector", "density", "lln", "exchangeability", "idempotence", "equivalence"])
def test_sampled_task_refuses_a_flag_it_does_not_read(argv, message, tmp_path, capsys):
    """sample and diagnose read every flag their parsers declare but for
    --k with p_sample, which the next test covers."""
    files = {"graph": tmp_path / "c10.txt", "seq": tmp_path / "alt.txt",
             "pattern": tmp_path / "edge.txt"}
    main(["generate", "cycle", "--n", "10", "--out", str(files["graph"])])
    main(["generate", "alternating", "--n", "20", "--out", str(files["seq"])])
    files["pattern"].write_text("#n 2\n1 2\n")
    capsys.readouterr()
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    out = tmp_path / "out.txt"
    kept = argv[:argv.index(message.split()[-1])]
    assert main([*kept, "--seed", "3", "--out", str(out), "--threads", "2"]) in (0, 1)
    assert out.read_text()


@pytest.mark.parametrize("argv, message", [
    ("generate star --n 10 --k 3", "generate star does not read --k"),
    ("generate paintbox --atoms 0.5,0.5 --n 5 --k 9 --file nope.txt",
     "generate paintbox does not read --k"),
    ("generate graphon --file nope.txt --k 4 --atoms 0.5", "generate graphon does not read --atoms"),
    ("generate y4 --n 4", "generate y4 does not read --n"),
    ("generate cycle --n 5 --dust 0.1", "generate cycle does not read --dust"),
])
def test_generate_refuses_a_flag_its_generator_does_not_read(argv, message, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    ("sample --in x.txt --n 4 --k 2", "--algo"),
    ("sample --algo uniform_vertex --n 4 --k 2", "--in"),
    ("test --test involution --n 4", "--in"),
    ("diagnose --algo uniform_vertex --in x.txt --k 2", "--schedule"),
    ("estimate --what vector --algo uniform_vertex --in x.txt --n 4", "--k"),
    ("generate graphon --k 4", "--file"),
    ("generate paintbox --atoms 0.5,0.5", "--n"),
])
def test_missing_needed_flag_is_named(argv, flag, capsys):
    """Argparse requires only the selectors; every other flag a task needs
    is named by the one check, before any file is read."""
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"usage error: missing required flag {flag}\n")


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--what", "degrees", "--in", "{edges}", "--schedule", "5,"],
     "--schedule takes comma-separated sizes, not '5,'"),
    (["generate", "paintbox", "--atoms", "0.5,x", "--n", "5"],
     "--atoms takes comma-separated masses, not '0.5,x'"),
    (["test", "--test", "involution", "--in", "{graph}", "--n", "10", "--root", "x",
      "--reps", "10"],
     "--root takes \"uniform\" or a vertex, not 'x'"),
], ids=["schedule", "atoms", "root"])
def test_malformed_flag_value_names_the_flag(argv, message, tmp_path, capsys):
    files = {"edges": tmp_path / "star_edges.txt", "graph": tmp_path / "c10.txt"}
    main(["generate", "star_edges", "--n", "10", "--out", str(files["edges"])])
    main(["generate", "cycle", "--n", "10", "--out", str(files["graph"])])
    capsys.readouterr()
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [
    "diagnose --algo uniform_vertex --k 2",
    "estimate --what degrees",
    "estimate --what multiplicity",
    "estimate --what lln --algo sequence --n 4",
], ids=["diagnose", "degrees", "multiplicity", "lln"])
def test_malformed_schedule_is_refused_before_the_input_is_read(argv, tmp_path, capsys):
    """A bad --schedule is a usage error (exit 2) even when --in names no
    file: the schedule is parsed before the input is read."""
    missing = tmp_path / "nope.txt"
    assert main([*argv.split(), "--in", str(missing), "--schedule", "5,"]) == 2
    assert capsys.readouterr() == (
        "", "usage error: --schedule takes comma-separated sizes, not '5,'\n")


def test_lln_with_a_graph_algorithm_is_refused_before_the_input_is_read(tmp_path, capsys):
    """A graph --algo is a usage error (exit 2), not an I/O error (exit 3),
    even when --in names no file."""
    missing = tmp_path / "nope.txt"
    assert main(["estimate", "--what", "lln", "--algo", "uniform_vertex", "--in", str(missing),
                 "--n", "4", "--schedule", "2,3"]) == 2
    assert capsys.readouterr() == (
        "", "usage error: --what lln supports sequence/partition inputs; "
            "use --what density for graph functionals\n")


def test_schedule_size_below_one_usage_error(tmp_path, capsys):
    edges = tmp_path / "star_edges.txt"
    main(["generate", "star_edges", "--n", "10", "--out", str(edges)])
    capsys.readouterr()
    assert main(["estimate", "--what", "degrees", "--in", str(edges),
                 "--schedule=0,5"]) == 2
    assert capsys.readouterr() == ("", "error: schedule sizes must be >= 1\n")


@pytest.mark.parametrize("algo, generator", [("uniform_vertex", "cycle"),
                                             ("sequence", "alternating")])
def test_estimate_density_empty_pattern_usage_error(algo, generator, tmp_path, capsys):
    """A pattern of size 0 is refused by name; the task reads no --k."""
    y, empty = tmp_path / "y.txt", tmp_path / "empty.txt"
    main(["generate", generator, "--n", "4", "--out", str(y)])
    empty.write_text("")
    capsys.readouterr()
    assert main(["estimate", "--what", "density", "--algo", algo, "--in", str(y),
                 "--pattern", str(empty), "--n", "4", "--reps", "10"]) == 2
    assert capsys.readouterr() == ("", f"error: pattern {empty} is empty\n")


@pytest.mark.parametrize("task", ["sample", "estimate --what vector",
                                  "test --test exchangeability", "diagnose"])
def test_p_sample_task_refuses_k(task, tmp_path, capsys):
    """p_sample's output size is random, so no task reads --k with it."""
    c10 = tmp_path / "c10.txt"
    main(["generate", "cycle", "--n", "10", "--out", str(c10)])
    capsys.readouterr()
    argv = [*task.split(), "--algo", "p_sample", "--p", "0.5", "--in", str(c10),
            "--n", "10"]
    argv += {"sample": [], "diagnose": ["--schedule", "5,10", "--reps", "50"]}.get(
        task, ["--reps", "50"])
    assert main([*argv, "--k", "7"]) == 2
    assert capsys.readouterr() == ("", f"usage error: {task} does not read --k\n")
    assert main(argv) in (0, 1)


def test_estimate_vector_of_p_sample_keeps_its_bytes_without_k(tmp_path, capsys):
    """The tally the command wrote with --k 1 before it stopped reading
    --k for p_sample (SHA-256 of its stdout)."""
    c10 = tmp_path / "c10.txt"
    main(["generate", "cycle", "--n", "10", "--out", str(c10)])
    capsys.readouterr()
    assert main(["estimate", "--what", "vector", "--algo", "p_sample", "--p", "0.5",
                 "--in", str(c10), "--n", "10", "--reps", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "465789e2f64eb0c323b7fdba374a129353fbbba7dc40535c0f945dae83da9ced")


@pytest.mark.parametrize("schedule, message", [
    ("6,4,2", "schedule must be strictly increasing"),
    ("4,4", "schedule must be strictly increasing"),
    ("2,21", "schedule size 21 exceeds n = 20"),
], ids=["6,4,2", "4,4", "above_n"])
def test_estimate_lln_schedule_not_increasing_usage_error(schedule, message, tmp_path,
                                                          capsys):
    seq = tmp_path / "alt.txt"
    main(["generate", "alternating", "--n", "20", "--out", str(seq)])
    capsys.readouterr()
    code = main(["estimate", "--what", "lln", "--algo", "partition", "--in", str(seq),
                 "--n", "20", "--schedule", schedule, "--reps", "10"])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_diagnose_reads_n(tmp_path, capsys):
    """diagnose cuts its input to --n first: a schedule point past n is
    refused, and --n at the input size changes nothing."""
    star = tmp_path / "star.txt"
    main(["generate", "star", "--n", "50", "--out", str(star)])
    capsys.readouterr()
    argv = ["diagnose", "--algo", "uniform_vertex", "--in", str(star), "--k", "2",
            "--schedule", "25,50", "--reps", "20"]
    assert main([*argv, "--n", "10"]) == 2
    assert capsys.readouterr() == ("", "error: schedule maximum 50 exceeds input size 10\n")
    assert main(argv) == 0
    whole = capsys.readouterr()
    assert main([*argv, "--n", "50"]) == 0
    assert capsys.readouterr() == whole


def _readme_commands():
    """Every ``graphsample ...`` line of README's fenced blocks, with
    backslash continuations joined and `` # ...`` comments dropped."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split(" # ")[0].split()[1:] for line in lines
            if line.startswith("graphsample ")]


def test_readme_commands_parse():
    parser = _build_parser()
    commands = _readme_commands()
    assert commands
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: graphsample {' '.join(argv)}")


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    """In a fresh process, ``estimate --what vector`` and ``diagnose`` never
    load invariance, models or fractions, and ``test`` does load
    invariance, so the check cannot pass because nothing loads at all.
    Reading a step graphon and ``generate`` load models but not fractions,
    which only ``estimate --what misspec`` loads.  No command loads
    dataclasses or inspect, whose import costs every process start-up
    several milliseconds."""
    graph, graphon = tmp_path / "c6.txt", tmp_path / "w.txt"
    gio.write_text(graph, "1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    gio.write_text(graphon, "1\n0 1\n0.5\n")
    script = textwrap.dedent("""
        import sys
        import graphsample.cli as cli
        from graphsample import io
        graph, graphon, out = sys.argv[1:]
        lazy = ("graphsample.invariance", "graphsample.models", "fractions",
                "dataclasses", "inspect")
        def loaded():
            return sorted(m for m in lazy if m in sys.modules)
        assert cli.main(["estimate", "--what", "vector", "--algo", "ego", "--in", graph,
                         "--n", "6", "--k", "2", "--reps", "50", "--out", out]) == 0
        print(loaded())
        assert cli.main(["diagnose", "--algo", "uniform_vertex", "--in", graph, "--n", "6",
                         "--k", "2", "--schedule", "3,6", "--reps", "50", "--out", out]) == 0
        print(loaded())
        assert cli.main(["test", "--test", "idempotence", "--algo", "uniform_vertex",
                         "--in", graph, "--n", "6", "--m", "4", "--k", "2",
                         "--reps", "50", "--out", out]) in (0, 1)
        print(loaded())
        io.read_step_graphon(graphon)
        print(loaded())
        assert cli.main(["generate", "paintbox", "--atoms", "0.5,0.5", "--n", "5",
                         "--out", out]) == 0
        print(loaded())
        assert cli.main(["estimate", "--what", "misspec", "--misspec-k", "3",
                         "--misspec-j", "1", "--out", out]) == 0
        print(loaded())
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(graph), str(graphon),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "[]", "['graphsample.invariance']",
        "['graphsample.invariance', 'graphsample.models']",
        "['graphsample.invariance', 'graphsample.models']",
        "['fractions', 'graphsample.invariance', 'graphsample.models']"]
