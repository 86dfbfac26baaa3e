import hashlib
import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from psombor.bounds import OUTCOMES
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


def test_directory_corpus_tells_the_format_from_the_content(tmp_path, capsys):
    # The same rule as --input: JSON when the first non-blank character is
    # "{", else an edge list, whatever the extension; other names are skipped.
    (tmp_path / "edges.json").write_text("0 1\n1 2\n")
    (tmp_path / "graph.txt").write_text('\n  {"n": 4, "edges": [[0, 1], [2, 3]]}')
    (tmp_path / "graph.edges").write_text('{"n": 2, "edges": [[0, 1]]}')
    (tmp_path / "notes.md").write_text("0 1\n")
    code = run(["verify", "--corpus", str(tmp_path), "--p", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["graphs_checked"] == 3 and payload["corpus_errors"] == []


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


@pytest.mark.parametrize("name, text, message", [
    ("empty.json", "", "graph has no vertices"),
    ("empty.edges", "", "graph has no vertices"),
    ("header_zero.edges", "n=0\n", "graph has no vertices"),
    ("header_negative.edges", "# three\nn=-3\n", "line 2: negative vertex count 'n=-3'"),
    ("no_vertices.json", '{"n": 0, "edges": []}', "graph has no vertices"),
], ids=["empty_json", "empty_edges", "n0", "n_negative", "json_n0"])
def test_graph_file_without_vertices_is_a_clean_error(name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert run(["spectrum", "--input", str(path), "--p", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    # Alone in a directory corpus it leaves no readable graph ...
    assert run(["verify", "--corpus", str(tmp_path), "--p", "2"]) == 1
    assert capsys.readouterr().err == f"error: corpus {tmp_path} has no readable graphs\n"
    # ... and next to a graph it is recorded as unreadable.
    (tmp_path / "a.edges").write_text("0 1\n1 2\n")
    assert run(["verify", "--corpus", str(tmp_path), "--p", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs_checked"] == 1
    assert payload["corpus_errors"] == [{"file": name, "error": message}]


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
    from psombor import config
    from psombor.bounds import _chunks, corpus_trees

    # One frame serially, two with two workers: a run of one frame never
    # starts the worker pool.
    assert [len(_chunks(corpus_trees(4, 9), 5, config.SUITE_FRAME_ENTRIES, jobs))
            for jobs in (1, 2)] == [1, 2]
    base = ["verify", "--corpus", "trees", "--n", "4..9", "--p", "-1,0.5,1,2,3",
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
    from psombor.bounds import contexts
    from psombor.graphs import path_graph

    monkeypatch.setenv("PSOMBOR_TOL", "1e-5")  # the environment is not read
    assert contexts([("P3", path_graph(3))], (2.0,)).holds_tol == config.HOLDS_REL_TOL
    assert not hasattr(config, "default_holds_tol")


@pytest.mark.parametrize("extra, message", [
    (["--tol", "nan"], "tolerance must be finite"),
    (["--tol", "inf"], "tolerance must be finite"),
    (["--jobs", "0"], "jobs must be at least 1"),
    (["--jobs=-3"], "jobs must be at least 1"),
    (["--corpus", "trees", "--n", "9..4"], "empty tree size range"),
    (["--n", "4..5"], "--n applies only to --corpus trees"),
    (["--corpus", "trees", "--n", "4-9"], "--n must be a tree size range lo..hi"),
    (["--corpus", "trees", "--n", "4..9..10"], "--n must be a tree size range lo..hi"),
    (["--corpus", "trees", "--n", "4"], "--n must be a tree size range lo..hi"),
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


def test_import_loads_no_check_table_trees_or_regressions():
    # bounds (and its frame), extremal and chem load on first use of a name,
    # or of the command that needs them: importing the CLI loads none of them.
    code = ("import sys, psombor.cli; "
            "lazy = ('psombor.bounds', 'psombor.frame', 'psombor.chem', 'psombor.extremal'); "
            "print(sorted(m for m in lazy if m in sys.modules)); "
            "print(all(getattr(psombor, name) is not None for name in psombor.__all__)); "
            "from psombor import TreeCatalog, linear_fit, run_suite; "
            "print(sorted(m for m in lazy if m in sys.modules)); "
            "print(hasattr(psombor, 'no_such_name'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[]", "True",
        "['psombor.bounds', 'psombor.chem', 'psombor.extremal', 'psombor.frame']", "False"]


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


def _spectrum_rows(payload):
    inv = ("radius", "spread", "energy", "estrada")
    idx = ("so_p", "m1", "isi", "randic")
    rows = [["p", "eigenvalue_index", "eigenvalue", *inv, *idx]]
    for r in payload["results"]:
        rows += [[r["p"], i, eig, *(r["invariants"][c] for c in inv),
                  *(r["indices"][c] for c in idx)]
                 for i, eig in enumerate(r["decomposition"]["eigenvalues"])]
    return rows


def _table(records, columns):
    return [list(columns)] + [[record[c] for c in columns] for record in records]


# Each command's CSV rows, rendered from its parsed JSON output.
CSV_FROM_JSON = {
    "spectrum": _spectrum_rows,
    "verify": lambda d: [["check_id", *OUTCOMES]]
    + [[cid, *(per[c] for c in OUTCOMES)] for cid, per in d["counts"].items()],
    "listing": lambda d: [["key", "u", "v"]]
    + [[t["key"], u, v] for t in d["trees"] for u, v in t["edges"]],
    "extremes": lambda d: _table(d["extremes"], (
        "n", "p", "min_radius", "max_radius", "min_is_path", "max_is_star",
        "min_unique", "max_unique")),
    "rank": lambda d: _table(d["ranked"], ("key", "radius")),
    "regress": lambda d: _table([d["fit"]], (
        "x", "y", "slope", "intercept", "pearson_r", "sample_count")),
    "reproduce": lambda d: _table(d["fits"], (
        "dataset", "x", "y", "slope", "intercept", "pearson_r", "expected_slope",
        "expected_intercept", "within_tolerance")),
}

BENZENOID_BP = str(resources.files("psombor.data").joinpath("benzenoid_bp.csv"))
COMMANDS = {
    "spectrum": ["spectrum", "--p", "2,-1,0.01"],
    "verify": ["verify", "--corpus", "families", "--p", "2"],
    "listing": ["trees", "--n", "7"],
    "extremes": ["trees", "--n", "8", "--verify-extremes", "--p", "1,2"],
    "rank": ["trees", "--n", "8", "--rank", "2", "--p", "2"],
    "regress": ["regress", "--input", BENZENOID_BP, "--x", "SE", "--y", "BP"],
    "reproduce": ["reproduce"],
}


@pytest.mark.filterwarnings("ignore:spectral radius too large for exp")
@pytest.mark.parametrize("name", list(COMMANDS))
def test_csv_rows_are_the_json_records(name, p4_file, capsys):
    # every CSV cell is a field of the same run's JSON record, printed by str
    # (at p = 0.01 the Estrada index is inf)
    argv = COMMANDS[name] + (["--input", p4_file] if name == "spectrum" else [])
    code = run(argv + ["--format", "json"])
    rows = CSV_FROM_JSON[name](json.loads(capsys.readouterr().out))
    assert len(rows) > 1
    assert run(argv + ["--format", "csv"]) == code
    assert capsys.readouterr().out == "".join(",".join(map(str, row)) + "\n" for row in rows)


# sha256 of the table and CSV outputs, recorded before both were rendered
# from the JSON records. None of them sums floats in Python, whose rounding
# changed in Python 3.12, so the pins hold on every supported Python.
PINNED_OUTPUTS = {
    ("verify", "table"): "b38bd0592314b2a7aa74de919e6cd8346c3b364be498b354bec058add1f94b15",
    ("verify", "csv"): "9776b062319209bacff6fd5267d784bdd0d46c15abb7bfee58a1065c7a50e07a",
    ("listing", "table"): "6eb0debb274e77a8cd59da11e57641b88ec76cca41141fb76b3d6d4375512bd7",
    ("listing", "csv"): "29eb3e620e61f15108ec17b114f4d6cf20054bd7177f21ee36aff69f97cd60c9",
    ("extremes", "table"): "0da20afd527ec6dab02393ea8b9aa71d10a83c6aa8734ed1806079bc0f52358c",
    ("extremes", "csv"): "8bf99d21e72acae87d888f870a666e80d0bd9e163183db764cec29b27845c993",
    ("rank", "table"): "1ff64f499fb77b498d61172097881231e3bb5aa0d8d24b020af62bf3e8537fcc",
    ("rank", "csv"): "91587fe03e07c061a8d43b5260e31e538fbc5d7d86d2ce1406fe780b0e6cfa03",
}


@pytest.mark.parametrize("name, fmt", list(PINNED_OUTPUTS))
def test_table_and_csv_outputs_are_pinned(name, fmt, capsys):
    assert run(COMMANDS[name] + ["--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_OUTPUTS[name, fmt]


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


_RANGE = "error: result out of floating-point range"
_MOMENTS = f"{_RANGE} (spectral moments of S_p exceed the float range)\n"
_ERANGE = f"{_RANGE} ((34, 'Numerical result out of range'))\n"
_ESTRADA = "warning: spectral radius too large for exp(); Estrada index reported as inf\n"


@pytest.mark.parametrize("p, code, err", [
    ("0.002", 1, _MOMENTS),
    ("1e-4", 1, _ERANGE),
    # thm2.5's denominator 2^(1+3/p) deg^4 underflows to 0
    ("-0.0025", 1, f"{_RANGE} (float division by zero)\n"),
    ("0.003", 1, _MOMENTS),
    ("0.009", 0, _ESTRADA),
    # the warning comes from a row before the first failing one, and only then
    ("0.1,0.003", 1, _ESTRADA + _MOMENTS),
    ("0.003,0.1", 1, _MOMENTS),
    ("0.008", 1, _ESTRADA + _ERANGE),
    ("-0.002,0.0009", 1, _ERANGE),
])
def test_verify_range_errors_and_warnings_are_pinned(p, code, err):
    # Exact stderr and exit code: the first (graph, p, check) that fails in
    # table order raises, after the warnings of the rows judged before it.
    out = subprocess.run([sys.executable, "-m", "psombor", "verify", "--corpus", "families",
                          f"--p={p}"], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (code, err)


def _k2_k5_corpus(path, k2_files, k5=True):
    """A directory of k2_files copies of K2, then K5 if k5, in sorted order."""
    path.mkdir()
    for i in range(k2_files):
        (path / f"k2_{i:02d}.edges").write_text("0 1\n")
    if k5:
        (path / "z_k5.edges").write_text("".join(f"{a} {b}\n" for a in range(5)
                                                 for b in range(a + 1, 5)))
    return str(path)


@pytest.mark.parametrize("k2_files, k5, budget, chunk_sizes", [
    (1, False, None, [1]),
    (17, True, None, [18]),
    # The entries of 17 K2 at one p (4 n^2 each): K5 goes to a second run.
    (17, True, 17 * 4 * 2 ** 2, [17, 1]),
])
def test_verify_error_is_the_first_graphs_wherever_the_chunks_are_cut(
        k2_files, k5, budget, chunk_sizes, tmp_path, monkeypatch, capsys):
    # At p = 0.00196 the moments of K2 leave the float range, and so does
    # the Frobenius norm of K5 when its stack is built: K2's error is
    # reported whether the runs cut at the stack budget put K5 with the K2
    # or not. The corpus is one frame, judged again by halves when it raises.
    from psombor import config
    from psombor.bounds import _chunks, corpus_from_directory

    corpus = _k2_k5_corpus(tmp_path / "corpus", k2_files, k5)
    if budget is not None:
        monkeypatch.setattr(config, "SUITE_CHUNK_ENTRIES", budget)
    graphs, _ = corpus_from_directory(corpus)
    assert len(_chunks(graphs, 1, config.SUITE_FRAME_ENTRIES)) == 1
    assert [len(chunk) for chunk in _chunks(graphs, 1, config.SUITE_CHUNK_ENTRIES)] == chunk_sizes
    assert run(["verify", "--corpus", corpus, "--p=0.00196"]) == 1
    assert capsys.readouterr().err == _MOMENTS


# verify with config.SUITE_FRAME_ENTRIES and config.SUITE_CHUNK_ENTRIES set
# to the first two arguments.
_WITH_BUDGET = ("import sys; from psombor import cli, config; "
                "config.SUITE_FRAME_ENTRIES = float(sys.argv.pop(1)); "
                "config.SUITE_CHUNK_ENTRIES = float(sys.argv.pop(1)); cli.main()")


def test_verify_stderr_depends_on_neither_the_chunking_nor_jobs():
    # The Estrada warning of a row at p = 0.1, then the moments error of a
    # later row at p = 0.003, with frame and stack budgets of: one graph
    # each; 2^12 entries; one frame of one stack per vertex count; one frame
    # of a stack per graph; 2^12 entries over two worker processes; and one
    # frame each for two workers. At p = 0.1 alone the run passes, with the
    # one warning line whether or not workers judge it.
    runs = []
    for frame, chunk, p, jobs in (("1", "1", "0.1,0.003", "1"),
                                  ("4096", "4096", "0.1,0.003", "1"),
                                  ("inf", "inf", "0.1,0.003", "1"),
                                  ("inf", "1", "0.1,0.003", "1"),
                                  ("4096", "4096", "0.1,0.003", "2"),
                                  ("inf", "4096", "0.1,0.003", "2"),
                                  ("4096", "4096", "0.1", "1"), ("inf", "4096", "0.1", "2")):
        out = subprocess.run([sys.executable, "-c", _WITH_BUDGET, frame, chunk, "verify",
                              "--corpus", "families", f"--p={p}", "--jobs", jobs],
                             capture_output=True, text=True)
        runs.append((out.returncode, out.stderr))
    assert runs == [(1, _ESTRADA + _MOMENTS)] * 6 + [(0, _ESTRADA)] * 2


@pytest.mark.parametrize("p", ("inf", "-inf", "nan", "2,inf"))
def test_non_finite_p_rejected(p, p4_file, capsys):
    assert run(["spectrum", "--input", p4_file, f"--p={p}"]) == 1
    assert "error: p must be finite" in capsys.readouterr().err


def test_convergence_failure_is_clean_error(monkeypatch, p4_file, capsys):
    from psombor import config

    monkeypatch.setattr(config, "MAX_SWEEPS", 0)
    assert run(["spectrum", "--input", p4_file]) == 1
    assert capsys.readouterr().err.startswith("error: no convergence after 0 sweeps")


def test_eigenvector_residual_failure_is_clean_error(monkeypatch, p4_file, capsys):
    from psombor import config

    monkeypatch.setattr(config, "VECTOR_RESIDUAL_FACTOR", 1e-300)
    assert run(["spectrum", "--input", p4_file, "--p", "2", "--vectors"]) == 1
    assert capsys.readouterr().err.startswith("error: eigenvector residual ")
    # the check runs only when eigenvectors are built
    assert run(["spectrum", "--input", p4_file, "--p", "2"]) == 0


@pytest.mark.parametrize("p", ("-0.0018", "-0.0015", "-0.0012", "-0.001", "-0.00098"))
def test_spectrum_solves_where_the_squared_weights_underflow(p, p4_file, capsys):
    # The weights (~1e-160 to 1e-300) are normal floats but their squares are
    # not: unscaled, the norm and the off-diagonal sums read 0 and no sweep
    # runs. Each member is solved scaled by a power of two.
    from psombor.graphs import path_graph
    from psombor.spectral import build_sombor_matrix

    assert run(["spectrum", "--input", p4_file, f"--p={p}", "--format", "json"]) == 0
    dec = json.loads(capsys.readouterr().out)["results"][0]["decomposition"]
    s = build_sombor_matrix(path_graph(4), float(p))
    e = math.frexp(s.max())[1]
    oracle = np.ldexp(np.linalg.eigvalsh(np.ldexp(s, -e))[::-1], e)
    got = np.array(dec["eigenvalues"])
    assert dec["sweeps"] > 0 and np.all(oracle != 0.0)
    assert np.all(np.abs(got - oracle) <= 1e-12 * np.abs(oracle))


def test_spectrum_classifies_a_tiny_spectrum_relative_to_its_norm(p4_file, capsys):
    # ||S_p||_F ~ 1e-200: a zero tolerance and cluster gap floored at 1 read
    # inertia [0, 4, 0] and one distinct value.
    assert run(["spectrum", "--input", p4_file, "--p=-0.0015", "--format", "json"]) == 0
    dec = json.loads(capsys.readouterr().out)["results"][0]["decomposition"]
    assert dec["inertia"] == [2, 0, 2]
    assert len(dec["distinct"]) == 4


def test_spectrum_abs_det_of_a_tiny_spectrum_is_not_snapped_to_zero(p4_file, capsys):
    # ||S_p||_F ~ 4e-15 at p = -0.02: |det| ~ 2.48e-60 is far above the
    # floor (1e-8 ||S_p||_F)^4, and far below the (1e-8)^4 of a floor at 1.
    from psombor.graphs import path_graph
    from psombor.spectral import build_sombor_matrix

    assert run(["spectrum", "--input", p4_file, "--p=-0.02", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert result["decomposition"]["inertia"] == [2, 0, 2]
    s = build_sombor_matrix(path_graph(4), -0.02)
    e = math.frexp(s.max())[1]
    oracle = abs(np.linalg.det(np.ldexp(s, -e))) * 2.0 ** (4 * e)
    assert result["invariants"]["abs_det"] == pytest.approx(oracle, rel=1e-10)
    assert result["invariants"]["abs_det"] == pytest.approx(2.4772754245e-60, rel=1e-10)


def test_verify_tiny_negative_p_has_no_false_violation(capsys):
    # At p = -0.006 every S_p and L_p is ~1e-49 or smaller: the Laplacian
    # zero count (lem3.8.mult) and the distinct eigenvalue count (lem-diam)
    # are read relative to each matrix's norm.
    assert run(["verify", "--corpus", "families", "--p=-0.006", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert not payload["violations"] and not payload["equality_mismatches"]
    assert payload["counts"]["lem3.8.mult"]["fail"] == payload["counts"]["lem-diam"]["fail"] == 0


@pytest.mark.parametrize("p", ("-0.002", "-0.02"))
def test_spectrum_at_tiny_negative_p_is_solved(p, p4_file, capsys):
    # Every entry of S_p is far below 1 (~1e-150 at p = -0.002), so an
    # absolute stopping threshold would stop before the first sweep and print
    # an all-zero spectrum; the relative one solves it.
    from psombor.graphs import path_graph
    from psombor.spectral import build_sombor_matrix

    assert run(["spectrum", "--input", p4_file, f"--p={p}", "--format", "json"]) == 0
    dec = json.loads(capsys.readouterr().out)["results"][0]["decomposition"]
    oracle = np.linalg.eigvalsh(build_sombor_matrix(path_graph(4), float(p)))[::-1]
    assert dec["sweeps"] > 0 and oracle[0] > 0.0
    assert np.abs(np.array(dec["eigenvalues"]) - oracle).max() <= 1e-13 * oracle[0]


def test_trees_verify_extremes_enumerates_once(monkeypatch, capsys):
    # the level sequences are generated once for every p, and no catalog of
    # built trees is enumerated at all
    from psombor import extremal

    sequences, catalogs = [], []
    level_sequences = extremal._free_tree_level_sequences
    enumerate_trees = extremal.enumerate_trees

    def counting_sequences(n):
        sequences.append(n)
        return level_sequences(n)

    def counting_catalog(n, max_degree=None):
        catalogs.append(n)
        return enumerate_trees(n, max_degree)

    monkeypatch.setattr(extremal, "_free_tree_level_sequences", counting_sequences)
    monkeypatch.setattr(extremal, "enumerate_trees", counting_catalog)
    assert run(["trees", "--n", "7", "--verify-extremes", "--p", "1,2,3"]) == 0
    assert sequences == [7]
    assert catalogs == []


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
    (["--rank", "2", "--p", "1,2"], "--rank takes a single --p value"),
])
def test_trees_rejects_arguments_that_would_give_wrong_output(extra, message, capsys):
    assert run(["trees", "--n", "6"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_spectrum_norm_overflow_is_one_clean_error(p4_file):
    # ||S_p||_F of P4 overflows at p = 0.0015 although every entry is finite:
    # an error line, not all-zero eigenvalues after a numpy warning
    out = subprocess.run([sys.executable, "-m", "psombor", "spectrum",
                          "--input", p4_file, "--p", "0.0015"],
                         capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.splitlines() == [
        "error: result out of floating-point range "
        "(Frobenius norm of the matrix exceeds the float range)"]
    assert "Warning" not in out.stderr and ".py:" not in out.stderr


@pytest.mark.parametrize("args", (["spectrum", "--input", "P4"],
                                  ["verify", "--corpus", "special"]),
                         ids=["spectrum", "verify"])
def test_underflowing_edge_weight_is_one_clean_error(args, p4_file, capsys):
    # At p = -0.0005 every weight is ~2^-2000, below the normal float range:
    # an error line, not an all-zero spectrum or checks on zero matrices.
    args = [p4_file if a == "P4" else a for a in args]
    assert run(args + ["--p=-0.0005", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: result out of floating-point range "
        "(an edge weight of S_p underflows the float range)"]



@pytest.mark.parametrize("p", ("1e-320", "5e-324"))
@pytest.mark.parametrize("args", (["trees", "--n", "8", "--verify-extremes"],
                                  ["spectrum", "--input", "P4"],
                                  ["verify", "--corpus", "special"]),
                         ids=["trees", "spectrum", "verify"])
def test_subnormal_p_is_one_clean_range_error(args, p, p4_file, capsys):
    # 1/p overflows to inf, so every weight 2^(1/p) (d_i d_j)^(1/2) is inf:
    # an error line, not inf radii or a complaint about the matrix entries
    args = [p4_file if a == "P4" else a for a in args]
    assert run(args + [f"--p={p}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: result out of floating-point range "
        "(an edge weight of S_p overflows the float range)"]


@pytest.mark.parametrize("p", ("2,-0.0005", "-0.0005,2"))
def test_trees_underflowing_p_among_others_is_one_clean_error(p, capsys):
    # every p of --verify-extremes is solved in one stack per size; a p whose
    # weights underflow still ends the run with its own error line
    assert run(["trees", "--n", "8", "--verify-extremes", f"--p={p}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: result out of floating-point range "
        "(an edge weight of S_p underflows the float range)"]

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
