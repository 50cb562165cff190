import subprocess
import sys

from graphsample import io as gio
from graphsample.cli import main
from graphsample.models import y4
from graphsample.structures import Partition


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "graphsample.cli"] + args,
                          capture_output=True, text=True)
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
    from graphsample.models import StepGraphon

    path = tmp_path / "w.txt"
    gio.write_step_graphon(path, StepGraphon((0.0, 0.5, 1.0),
                                             ((0.8, 0.1), (0.1, 0.6))))
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


def test_estimate_density_single_pattern(tmp_path, capsys):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    pat = tmp_path / "pat.txt"
    pat.write_text("#n 2\n1 2\n")
    assert main(["estimate", "--what", "density", "--algo", "uniform_vertex",
                 "--in", str(y4_file), "--pattern", str(pat), "--n", "4",
                 "--k", "2", "--reps", "4000", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    est = float(out.splitlines()[-1].split(",")[2])
    assert abs(est - 0.5) < 0.05  # P(edge) = 3/6 on y4 at k = 2


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


def test_cmd_test_exchangeability_exit_zero(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    main(["generate", "singletons", "--n", "30", "--out", str(seq)])
    code = main(["test", "--test", "exchangeability", "--algo", "partition",
                 "--in", str(seq), "--n", "30", "--k", "3", "--reps", "2000"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


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


def test_diagnose_schedule_too_large_usage_error(tmp_path):
    y4_file = tmp_path / "y4.txt"
    main(["generate", "y4", "--out", str(y4_file)])
    code = main(["diagnose", "--algo", "uniform_vertex", "--in", str(y4_file),
                 "--n", "4", "--k", "2", "--schedule", "2,8", "--reps", "10"])
    assert code == 2


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


def test_internal_error_exits_4(tmp_path, capsys):
    # a label of 2^31 does not fit the 32-bit pattern-key packing
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2147483648\n")
    code = main(["estimate", "--what", "vector", "--algo", "sequence", "--in", str(seq),
                 "--n", "2", "--k", "2", "--reps", "10"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert err.count("\n") == 1


def test_console_entry_point_runs():
    code, out, _ = run_cli(["generate", "y4"])
    assert code == 0
    assert "1 2" in out
