import json
import math
import subprocess
import sys

import pytest

from psombor.cli import run


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text("# path on four vertices\n0 1\n1 2\n2 3\n")
    return str(path)


def test_spectrum_json_eigenvalues(p4_file, capsys):
    code = run(["spectrum", "--input", p4_file, "--p", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    eigs = payload["results"][0]["decomposition"]["eigenvalues"]
    expect = [math.sqrt(9 + math.sqrt(56)), math.sqrt(9 - math.sqrt(56))]
    assert eigs[0] == pytest.approx(expect[0], abs=1e-9)
    assert eigs[1] == pytest.approx(expect[1], abs=1e-9)
    assert eigs[2] == pytest.approx(-expect[1], abs=1e-9)


def test_spectrum_table_six_decimals(p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "4.059965" in out and "1.231538" in out


def test_spectrum_json_graph_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert run(["spectrum", "--input", str(path), "--p", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["n"] == 3


def test_spectrum_multiple_p(p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, "--p", "1,2,-1"]) == 0
    out = capsys.readouterr().out
    assert out.count("p = ") == 3


def test_p_list_starting_with_negative(p4_file, capsys):
    # space-separated form: the value token itself starts with a minus sign
    assert run(["spectrum", "--input", p4_file, "--p", "-1,2"]) == 0
    out = capsys.readouterr().out
    assert out.count("p = ") == 2


def test_spectrum_rejects_p_zero(p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, "--p", "0"]) == 1


def test_missing_input_is_io_error(capsys):
    assert run(["spectrum", "--input", "/nonexistent.edges"]) == 1


def test_unknown_flag_usage_error(capsys):
    assert run(["spectrum", "--nope"]) == 1


def test_verify_trees_exit_zero(capsys):
    code = run(["verify", "--corpus", "trees", "--n", "4..6",
                "--p", "1,2,3", "--seed", "42"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fail 0" in out


def test_verify_directory_corpus(tmp_path, capsys):
    (tmp_path / "a.edges").write_text("0 1\n1 2\n")
    (tmp_path / "b.json").write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
    (tmp_path / "broken.edges").write_text("0 0\n")  # self-loop: unreadable entry
    code = run(["verify", "--corpus", str(tmp_path), "--p", "2",
                "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # the broken entry is recorded, the suite continues
    assert payload["graphs_checked"] == 2
    assert payload["corpus_errors"][0]["file"] == "broken.edges"


def test_verify_rejects_a_directory_without_readable_graphs(tmp_path, capsys):
    assert run(["verify", "--corpus", str(tmp_path), "--p", "2"]) == 1
    (tmp_path / "broken.edges").write_text("0 0\n")
    assert run(["verify", "--corpus", str(tmp_path), "--p", "2"]) == 1
    message = f"error: corpus {tmp_path} has no readable graphs"
    assert capsys.readouterr().err.splitlines() == [message, message]


@pytest.mark.parametrize("text", [
    '{"edges": [[0, 1]]}',
    '{"n": 3, "edges": [[0, "a"]]}',
    '{"n": 3, "edges": [[0, 1.5]]}',
    '{"n": 2.7, "edges": [[0, 1]]}',
    '{"n": 3, "edges": 5}',
], ids=["no_n", "string_vertex", "float_vertex", "float_n", "edges_not_a_list"])
def test_malformed_json_graph_is_a_clean_error(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["spectrum", "--input", str(path), "--p", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    # In a directory corpus the file is recorded and the suite runs on.
    (tmp_path / "a.edges").write_text("0 1\n1 2\n")
    assert run(["verify", "--corpus", str(tmp_path), "--p", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs_checked"] == 1
    assert [e["file"] for e in payload["corpus_errors"]] == ["bad.json"]


@pytest.fixture
def no_large_graphs(monkeypatch):
    """Make building a graph above the input limit fail the test at once, so
    that an unguarded input path never allocates it."""
    from psombor import config, graphs

    init = graphs.Graph.__init__

    def guarded_init(self, n, edges=()):
        assert n <= config.MAX_INPUT_VERTICES, f"Graph({n}) built past the input guard"
        init(self, n, edges)

    monkeypatch.setattr(graphs.Graph, "__init__", guarded_init)


@pytest.mark.parametrize("name, text", [
    ("header.edges", "n=10000000000\n0 1\n"),
    ("vertex_id.edges", "0 1\n1 10000000000\n"),
    ("one_past.edges", "n=501\n"),
    ("field.json", '{"n": 10000000000, "edges": [[0, 1]]}'),
], ids=["header", "vertex_id", "one_past", "json_field"])
def test_oversized_graph_input_is_rejected(name, text, tmp_path, capsys, no_large_graphs):
    from psombor import config

    assert config.MAX_INPUT_VERTICES == 500
    path = tmp_path / name
    path.write_text(text)
    assert run(["spectrum", "--input", str(path), "--p", "2"]) == 1
    # A directory corpus rejects the whole run, not just the oversized entry.
    (tmp_path / "a.edges").write_text("0 1\n1 2\n")
    assert run(["verify", "--corpus", str(tmp_path), "--p", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("error: graph has ") and "more than the input limit of 500" in err[0]
    assert err[1] == f"error: {name}: " + err[0][len("error: "):]


def test_graph_input_at_the_size_limit_is_accepted(tmp_path, capsys, no_large_graphs):
    path = tmp_path / "at_limit.edges"
    path.write_text("n=500\n0 499\n")
    assert run(["spectrum", "--input", str(path), "--p", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["graph"]["n"] == 500


def test_verify_unknown_corpus_is_usage_error(capsys):
    assert run(["verify", "--corpus", "bogus"]) == 1


def test_verify_exit_two_on_forced_violation(capsys):
    # a negative tolerance makes every inequality fail, driving exit code 2
    code = run(["verify", "--corpus", "special", "--p", "2", "--tol", "-1"])
    assert code == 2


def test_verify_json_deterministic(tmp_path):
    args = ["verify", "--corpus", "families", "--p", "2", "--format", "json"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(f1)]) == 0
    assert run(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_jobs_matches_serial(tmp_path):
    base = ["verify", "--corpus", "trees", "--n", "4..5", "--p", "2",
            "--format", "json"]
    f1, f2 = tmp_path / "s.json", tmp_path / "p.json"
    assert run(base + ["--out", str(f1)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_trees_listing(capsys):
    assert run(["trees", "--n", "8", "--max-degree", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 18
    assert all(len(t["edges"]) == 7 for t in payload["trees"])
    assert len({t["key"] for t in payload["trees"]}) == 18


def test_trees_edge_archive_text(capsys):
    assert run(["trees", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("key ") == 2


def test_trees_verify_extremes(capsys):
    assert run(["trees", "--n", "6", "--p", "1,2,3", "--verify-extremes"]) == 0
    out = capsys.readouterr().out
    assert "star=True" in out and "path=True" in out


def test_trees_rank(capsys):
    assert run(["trees", "--n", "7", "--rank", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["ranked"]) == 4


def test_regress_from_csv(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("No.,BP,SE\n1,10,1\n2,20,2\n3,30,3\n")
    scatter = tmp_path / "sc.csv"
    code = run(["regress", "--input", str(csv_path), "--x", "SE", "--y", "BP",
                "--scatter", str(scatter), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fit"]["slope"] == pytest.approx(10.0)
    assert scatter.read_text().startswith("SE,BP")


def test_reproduce_reports_known_row_mismatch(capsys):
    # fits all reproduce; the octane crosscheck flags the one bad table row,
    # so the verification exit code is 2
    code = run(["reproduce", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_fits_within_tolerance"] is True
    assert payload["octane_crosscheck"]["is_bijection"] is False
    assert code == 2


def test_spectrum_vectors_emitted(p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, "--p", "2", "--vectors",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    vecs = payload["results"][0]["eigenvectors"]
    assert len(vecs) == 4 and len(vecs[0]) == 4


def test_spectrum_json_byte_identical(p4_file, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["spectrum", "--input", p4_file, "--p", "2,3", "--format", "json"]
    assert run(args + ["--out", str(f1)]) == 0
    assert run(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_default_tolerance_is_the_config_constant(monkeypatch):
    from psombor import config
    from psombor.bounds import CheckContext
    from psombor.graphs import path_graph

    monkeypatch.setenv("PSOMBOR_TOL", "1e-5")  # the environment is not read
    assert CheckContext(path_graph(3), 2.0).holds_tol == config.HOLDS_REL_TOL
    assert not hasattr(config, "default_holds_tol")


@pytest.mark.parametrize("extra, message", [
    (["--tol", "nan"], "tolerance must be finite"),
    (["--tol", "inf"], "tolerance must be finite"),
    (["--jobs", "0"], "jobs must be at least 1"),
    (["--jobs=-3"], "jobs must be at least 1"),
    (["--corpus", "trees", "--n", "9..4"], "empty tree size range"),
    (["--n", "4..5"], "--n applies only to --corpus trees"),
])
def test_verify_rejects_arguments_that_would_give_a_wrong_verdict(extra, message, capsys):
    args = ["verify", "--corpus", "special", "--p", "2"] + extra
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_import_does_not_load_the_process_pool():
    code = ("import sys, psombor; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_spectrum_csv_format(p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, "--p", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,eigenvalue_index,eigenvalue")
    assert len(lines) == 5  # header + one row per eigenvalue
    assert float(lines[1].split(",")[2]) == pytest.approx(
        math.sqrt(9 + math.sqrt(56)), abs=1e-12)


def test_verify_csv_format(capsys):
    assert run(["verify", "--corpus", "special", "--p", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "check_id,pass,fail,na,observe_pass,observe_fail"
    assert len(lines) > 10


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "psombor", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "psombor" in out.stdout


def test_subprocess_exit_codes(tmp_path):
    # 0: clean verify; 1: usage error; 2: forced violation
    ok = subprocess.run([sys.executable, "-m", "psombor", "verify",
                         "--corpus", "special", "--p", "2"],
                        capture_output=True)
    assert ok.returncode == 0
    usage = subprocess.run([sys.executable, "-m", "psombor", "spectrum",
                            "--bogus-flag"], capture_output=True)
    assert usage.returncode == 1
    forced = subprocess.run([sys.executable, "-m", "psombor", "verify",
                             "--corpus", "special", "--p", "2", "--tol", "-1"],
                            capture_output=True)
    assert forced.returncode == 2


@pytest.mark.parametrize("p", ("1000", "-1000"))
def test_verify_huge_abs_p_runs_clean(p, capsys):
    assert run(["verify", "--corpus", "special", f"--p={p}"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("p", ("0.002", "1e-4", "-1e-4"))
def test_verify_tiny_abs_p_is_clean_range_error(p, capsys):
    # 2^(1/p) or the moments leave the float range: a clean message, not a traceback
    assert run(["verify", "--corpus", "families", f"--p={p}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: result out of floating-point range")
    assert "Traceback" not in err


@pytest.mark.parametrize("p", ("inf", "-inf", "nan", "2,inf"))
def test_non_finite_p_rejected(p, p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, f"--p={p}"]) == 1
    assert "error: p must be finite" in capsys.readouterr().err


def test_convergence_failure_is_clean_error(monkeypatch, p4_file, capsys):
    from psombor import config

    monkeypatch.setattr(config, "MAX_SWEEPS", 0)
    assert run(["spectrum", "--input", p4_file]) == 1
    assert capsys.readouterr().err.startswith("error: no convergence after 0 sweeps")


def test_trees_verify_extremes_enumerates_once(monkeypatch, capsys):
    from psombor import cli, extremal

    calls = []
    enumerate_trees = extremal.enumerate_trees

    def counting(n, max_degree=None):
        calls.append(n)
        return enumerate_trees(n, max_degree)

    monkeypatch.setattr(cli, "enumerate_trees", counting)
    monkeypatch.setattr(extremal, "enumerate_trees", counting)
    assert run(["trees", "--n", "7", "--verify-extremes", "--p", "1,2,3"]) == 0
    assert calls == [7]


@pytest.mark.parametrize("extra, message", [
    (["--rank", "-1"], "--rank must be at least 1"),
    (["--rank", "-2"], "--rank must be at least 1"),
    (["--rank", "0"], "--rank must be at least 1"),
    (["--max-degree", "-3"], "max degree must be at least 1"),
    (["--max-degree", "3", "--verify-extremes"], "--max-degree applies only to"),
    (["--max-degree", "3", "--rank", "2"], "--max-degree applies only to"),
    (["--rank", "2", "--verify-extremes"], "cannot be combined"),
    (["--p", "3"], "--p applies only to"),
    (["--p", "2", "--max-degree", "3"], "--p applies only to"),
])
def test_trees_rejects_arguments_that_would_give_wrong_output(extra, message, capsys):
    assert run(["trees", "--n", "6"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_warnings_are_one_line_without_a_path():
    out = subprocess.run([sys.executable, "-m", "psombor", "verify",
                          "--corpus", "families", "--p", "0.3"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.startswith("warning: spectral radius")
    assert ".py:" not in out.stderr
    assert all(line.startswith("warning: ") for line in out.stderr.splitlines())


def test_estrada_overflow_warns_once_per_run():
    out = subprocess.run([sys.executable, "-m", "psombor", "verify",
                          "--corpus", "all", "--p", "0.009"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    warned = [line for line in out.stderr.splitlines() if line.startswith("warning:")]
    assert warned == ["warning: spectral radius too large for exp(); "
                      "Estrada index reported as inf"]
