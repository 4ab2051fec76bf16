"""End-to-end tests of the command-line interface.

Most tests call ``main(argv)`` in-process for speed; one subprocess test
confirms the installed console script works at all.
"""

import csv
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gausscov
import gausscov.cli
from gausscov.cli import main

TINY = str(Path(__file__).parent / "data" / "tiny.csv")

GOLDEN_SELECT = """\
method: f1st
n: 40
q: 5
response: y
approximations: 1

approximation 1: rss 3.02022698, k 1 [f1st]
  index  name              pg            coefficient
  1      x1                1.373378e-35  1.9250893
  intercept: coefficient 0.03208865, pf 4.792520e-01
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strip_time(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("time:"))


class TestSelect:
    def test_golden_text_output(self, capsys):
        code, out, _ = run(capsys, "select", TINY, "--no-timing")
        assert code == 0
        assert out == GOLDEN_SELECT

    def test_time_line_is_the_only_difference(self, capsys):
        code, out, _ = run(capsys, "select", TINY)
        assert code == 0
        assert strip_time(out) == GOLDEN_SELECT.rstrip("\n")
        assert any(ln.startswith("time:") for ln in out.splitlines())

    def test_json_seconds_is_the_only_difference(self, capsys):
        _, timed, _ = run(capsys, "select", TINY, "--output", "json")
        _, plain, _ = run(capsys, "select", TINY, "--no-timing", "--output", "json")
        payload = json.loads(timed)
        seconds = payload.pop("seconds")
        assert isinstance(seconds, float) and seconds >= 0.0
        assert payload == json.loads(plain)

    def test_byte_identical_across_runs(self, capsys):
        _, a, _ = run(capsys, "select", TINY, "--no-timing", "--output", "json")
        _, b, _ = run(capsys, "select", TINY, "--no-timing", "--output", "json")
        assert a == b

    def test_json_coefficients_reproduce_rss(self, capsys):
        code, out, _ = run(capsys, "select", TINY, "--output", "json", "--no-timing")
        assert code == 0
        payload = json.loads(out)
        approx = payload["approximations"][0]
        data = np.genfromtxt(TINY, delimiter=",", names=True)
        y = data["y"]
        fitted = np.full(len(y), approx["intercept"]["coefficient"])
        for idx, coef in zip(approx["selected"], approx["coefficients"]):
            fitted += coef * data[f"x{idx}"]
        rss = float(((y - fitted) ** 2).sum())
        assert rss == pytest.approx(approx["rss"], rel=1e-8)

    def test_csv_output_parses(self, capsys):
        code, out, _ = run(capsys, "select", TINY, "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "approximation,rss,index,name,pg,coefficient"
        body = [ln.split(",") for ln in lines[1:]]
        assert any(row[2] == "1" and row[3] == "x1" for row in body)
        assert any(row[2] == "0" and row[3] == "(intercept)" for row in body)

    def test_csv_quotes_names_with_commas(self, capsys, tmp_path):
        src = tmp_path / "comma.csv"
        lines = Path(TINY).read_text().splitlines()
        src.write_text('y,"a,1",x2,x3,x4,x5\n' + "\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "select", str(src), "--output", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 6 for row in rows)
        assert any(row[2] == "1" and row[3] == "a,1" for row in rows)

    def test_response_by_index(self, capsys):
        # the response defaults to the column named y; force column 2 instead
        code, out, _ = run(capsys, "select", TINY, "--response", "2",
                           "--no-timing")
        assert code == 0
        assert "response: x1" in out

    def test_default_response_without_y_column(self, capsys, tmp_path):
        # y is an exact multiple of one column: the intercept's refit without
        # it leaves only rounding noise, whatever the seed
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 3))
            y = 3.0 * X[:, 1]
            path = tmp_path / f"noname{seed}.csv"
            with open(path, "w") as fh:
                for i in range(30):
                    fh.write(",".join(repr(float(v)) for v in [y[i], *X[i]]) + "\n")
            code, out, _ = run(capsys, "select", str(path), "--no-timing")
            assert code == 0, seed
            assert "response: x1" in out, seed  # first column, headerless naming

    def test_methods_run(self, capsys):
        for method in ("f2st", "f3st", "allsubset"):
            code, out, _ = run(capsys, "select", TINY, "--method", method,
                               "--no-timing")
            assert code == 0, method
            assert "approximations:" in out

    def test_empty_selection_is_success(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "noise.csv"
        with open(path, "w") as fh:
            fh.write("y,a,b,c\n")
            for row in rng.standard_normal((50, 4)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        code, out, _ = run(capsys, "select", str(path), "--no-timing")
        assert code == 0
        assert "selected: (none)" in out

    def test_standardize_flag(self, capsys):
        code, out, _ = run(capsys, "select", TINY, "--standardize", "--no-timing")
        assert code == 0
        # standardization must not change what gets selected here
        assert "x1" in out


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "select", "/no/such/file.csv")
        assert code == 2
        assert "error:" in err

    def test_unparsable_file_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,frog\n")
        code, _, err = run(capsys, "select", str(bad))
        assert code == 2
        assert "row 2" in err

    def test_missing_value_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "na.csv"
        bad.write_text("a,b\n1,NA\n2,3\n")
        code, _, err = run(capsys, "select", str(bad))
        assert code == 2

    def test_unknown_flag_is_config_error(self, capsys):
        # selection draws no random numbers, so select takes no --seed
        for flag in (["--frobnicate"], ["--seed", "3"]):
            code, _, _ = run(capsys, "select", TINY, *flag)
            assert code == 3, flag

    def test_bad_method_is_config_error(self, capsys):
        code, _, _ = run(capsys, "select", TINY, "--method", "lasso")
        assert code == 3

    def test_bad_p0_is_config_error(self, capsys):
        code, _, err = run(capsys, "select", TINY, "--p0", "2.0")
        assert code == 3
        assert "p0" in err

    def test_bad_delimiter_is_config_error(self, capsys):
        for delimiter in (";;", ""):
            code, _, err = run(capsys, "select", TINY, "--delimiter", delimiter)
            assert code == 3, delimiter
            assert "delimiter" in err

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 3
        assert "select" in out and "graph" in out

    # configuration errors exit with 3; parse failures and the rest with 2
    EXIT_CODES = {
        "DomainError": 3, "AllColumnsConstant": 3, "TooManyColumns": 3,
        "ColumnBudgetExceeded": 3, "InsufficientLength": 3, "GenerationFailure": 3,
        "ParseError": 2, "MissingValue": 2, "CollinearColumn": 2, "NoCandidates": 2,
        "GausscovError": 2,
    }

    def test_every_exported_error_has_a_pinned_code(self):
        exported = {name for name in gausscov.__all__
                    if isinstance(getattr(gausscov, name), type)
                    and issubclass(getattr(gausscov, name), gausscov.GausscovError)}
        assert exported == set(self.EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_class_fixes_its_exit_code(self, capsys, monkeypatch, name):
        cls = getattr(gausscov, name)
        assert cls.exit_code == self.EXIT_CODES[name]

        def fail(*args, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(gausscov.cli, "load_csv", fail)
        code, _, err = run(capsys, "select", TINY)
        assert code == self.EXIT_CODES[name]
        assert err == "error: boom\n"


class TestGraph:
    def test_writes_edge_files(self, capsys, tmp_path):
        out_dir = tmp_path / "g"
        code, out, _ = run(capsys, "graph", TINY, "--outdir", str(out_dir),
                           "--no-timing")
        assert code == 0
        directed = (out_dir / "edges_directed.csv").read_text().splitlines()
        undirected = (out_dir / "edges_undirected.csv").read_text().splitlines()
        dot = (out_dir / "graph.dot").read_text()
        assert directed[0] == "from,to,pg"
        assert undirected[0] == "from,to"
        assert dot.startswith("graph gausscov {")
        assert f"directed edges: {len(directed) - 1}" in out

    def test_file_mode_text_prints_time(self, capsys, tmp_path):
        code, out, _ = run(capsys, "graph", TINY, "--outdir", str(tmp_path))
        assert code == 0
        last = out.splitlines()[-1].split()
        assert last[0] == "time:" and float(last[1]) >= 0.0

    def test_standardize_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, "graph", TINY, "--standardize", "--outdir", str(tmp_path),
                           "--output", "json", "--no-timing")
        assert code == 0
        m, _ = gausscov.standardize(gausscov.load_csv(TINY))
        want = gausscov.fgr1st(m, gausscov.SelectionConfig()).to_dict()
        payload = json.loads(out)
        assert payload["directed"] == want["directed"]
        assert payload["undirected"] == want["undirected"]

    def test_file_mode_json(self, capsys, tmp_path):
        out_dir = tmp_path / "g"
        code, out, _ = run(capsys, "graph", TINY, "--outdir", str(out_dir),
                           "--output", "json", "--no-timing")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "graph"
        assert payload["rule"] == "or"
        assert payload["p"] == len(payload["names"])
        for edge in payload["directed"]:
            assert 1 <= edge["from"] <= payload["p"]
            assert 0.0 <= edge["pg"] < 1.0
        assert "seconds" not in payload
        assert (out_dir / "graph.dot").exists()

    def test_random_mode_prints_table(self, capsys):
        code, out, _ = run(capsys, "graph", "--random", "25", "120",
                           "--seed", "4", "--no-timing")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["p", "n", "seed", "edges", "fp", "fn"]
        vals = lines[1].split()
        assert vals[0] == "25" and vals[1] == "120" and vals[2] == "4"

    def test_random_mode_table_has_a_time_column(self, capsys):
        code, out, _ = run(capsys, "graph", "--random", "25", "120", "--seed", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["p", "n", "seed", "edges", "fp", "fn", "time"]
        assert float(lines[1].split()[6]) >= 0.0

    def test_random_mode_json(self, capsys):
        code, out, _ = run(capsys, "graph", "--random", "20", "100",
                           "--seed", "1", "--output", "json", "--no-timing")
        assert code == 0
        payload = json.loads(out)
        assert payload["runs"][0]["p"] == 20
        assert "seconds" not in payload["runs"][0]

    def test_json_records_the_selection_config(self, capsys, tmp_path):
        want = {"p0": 0.01, "kmn": 2, "m": 1, "max_subset_refine": 3, "intercept": False}
        for argv in ([TINY, "--outdir", str(tmp_path)], ["--random", "20", "100"]):
            code, out, _ = run(capsys, "graph", *argv, "--kmn", "2", "--max-subset", "3",
                               "--no-intercept", "--output", "json", "--no-timing")
            assert code == 0
            assert json.loads(out)["config"] == want

    def test_no_data_no_random_is_config_error(self, capsys):
        code, _, err = run(capsys, "graph")
        assert code == 3

    def test_branch_depth_is_not_an_option(self, capsys):
        # fgr1st runs f1st, which has no branches
        code, _, err = run(capsys, "graph", TINY, "--m", "2", "--no-timing")
        assert code == 3 and "--m" in err


class TestFeaturize:
    def test_lags_written_with_namemap(self, capsys, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("s\n" + "\n".join(str(float(v)) for v in range(1, 8)) + "\n")
        out_csv = tmp_path / "lagged.csv"
        nm = tmp_path / "names.tsv"
        code, out, _ = run(capsys, "featurize", str(src), "--lags", "1:2",
                           "--response-var", "s", "--out", str(out_csv),
                           "--namemap", str(nm))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "s,s_lag1,s_lag2"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [3.0, 2.0, 1.0]
        assert nm.read_text().splitlines()[0] == "1\ts_lag1"

    def test_quoted_names_round_trip(self, capsys, tmp_path):
        src = tmp_path / "comma.csv"
        lines = Path(TINY).read_text().splitlines()
        src.write_text('y,"a,1",x2,x3,x4,x5\n' + "\n".join(lines[1:]) + "\n")
        out_csv = tmp_path / "lagged.csv"
        code, _, _ = run(capsys, "featurize", str(src), "--lags", "1",
                         "--response-var", "y", "--out", str(out_csv))
        assert code == 0
        back = gausscov.load_csv(str(out_csv))
        assert back.names == ["y", "y_lag1", "a,1_lag1", "x2_lag1", "x3_lag1", "x4_lag1",
                              "x5_lag1"]
        raw = gausscov.load_csv(str(src))
        assert np.array_equal(back.values[:, 0], raw.values[1:, 0])
        assert np.array_equal(back.values[:, 1:], raw.values[:-1])
        code, _, _ = run(capsys, "select", str(out_csv), "--no-timing")
        assert code == 0

    def test_interactions_over_budget_leave_the_output_file_alone(self, capsys, tmp_path):
        # y and ten covariates to degree 12: C(22, 12) - 1 = 646645 monomials
        src = tmp_path / "wide.csv"
        rng = np.random.default_rng(5)
        body = "\n".join(",".join(map(repr, row)) for row in rng.standard_normal((8, 11)).tolist())
        src.write_text(",".join(["y"] + [f"x{j}" for j in range(1, 11)]) + "\n" + body + "\n")
        out_csv = tmp_path / "inter.csv"
        out_csv.write_bytes(b"an earlier design\n")
        code, _, err = run(capsys, "featurize", str(src), "--interactions", "12",
                           "--out", str(out_csv))
        assert code == 3 and "budget" in err
        assert out_csv.read_bytes() == b"an earlier design\n"

    def test_lag_list_syntax(self, capsys, tmp_path):
        src = tmp_path / "series.csv"
        src.write_text("s\n" + "\n".join(str(float(v)) for v in range(20)) + "\n")
        out_csv = tmp_path / "l.csv"
        code, _, _ = run(capsys, "featurize", str(src), "--lags", "1,3:4",
                         "--response-var", "s", "--out", str(out_csv))
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == "s,s_lag1,s_lag3,s_lag4"

    def test_interactions_streamed_to_file(self, capsys, tmp_path):
        out_csv = tmp_path / "inter.csv"
        code, out, _ = run(capsys, "featurize", TINY, "--interactions", "2",
                           "--out", str(out_csv))
        assert code == 0
        header = out_csv.read_text().splitlines()[0].split(",")
        assert header[0] == "y"
        assert "x1*x2" in header and "x5^2" in header
        assert "wrote 20 feature columns" in out

    def test_trig_design(self, capsys, tmp_path):
        out_csv = tmp_path / "trig.csv"
        code, _, _ = run(capsys, "featurize", TINY, "--trig", "2",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "y,cos1,sin1,cos2,sin2"
        assert len(lines) == 41

    def test_trig_design_reads_only_the_response(self, capsys, tmp_path, monkeypatch):
        # the loaded matrix is handed over ready-made, so the traced peak is
        # the command's own: the response and a two-column design, with no
        # copy of the other columns
        rng = np.random.default_rng(8)
        m = gausscov.DataMatrix(rng.standard_normal((200, 8000)),
                                names=[f"v{j}" for j in range(8000)])
        monkeypatch.setattr(gausscov.cli, "load_csv", lambda *args, **kwargs: m)
        out_csv = tmp_path / "trig.csv"
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "featurize", "in.csv", "--trig", "1",
                             "--response-var", "v7", "--out", str(out_csv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.1 * m.values.nbytes, peak
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["v7", "cos1", "sin1"]
        assert [float(r[0]) for r in rows[1:]] == m.values[:, 7].tolist()

    def test_corr_pairs_to_stdout(self, capsys):
        code, out, _ = run(capsys, "featurize", TINY, "--corr-pairs", "4",
                           "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,j,correlation"
        assert len(lines) == 5

    def test_exactly_one_mode_required(self, capsys):
        code, _, err = run(capsys, "featurize", TINY)
        assert code == 3
        code, _, _ = run(capsys, "featurize", TINY, "--lags", "1", "--trig", "2",
                         "--out", "/tmp/x.csv")
        assert code == 3

    def test_bad_lag_string(self, capsys):
        code, _, _ = run(capsys, "featurize", TINY, "--lags", "5:1",
                         "--out", "/tmp/x.csv")
        assert code == 3
        code, _, _ = run(capsys, "featurize", TINY, "--lags", "a:b",
                         "--out", "/tmp/x.csv")
        assert code == 3


class TestSimulate:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "50", "--q", "60",
                           "--reps", "3", "--seed", "5", "--no-timing")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["method", "fp", "fn", "%correct"]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "50", "--q", "40",
                           "--reps", "2", "--seed", "5", "--output", "json",
                           "--no-timing", "--no-records")
        assert code == 0
        payload = json.loads(out)
        assert payload["reps"] == 2
        assert "records" not in payload

    def test_json_records_intercept_and_max_subset(self, capsys):
        argv = ["simulate", "--n", "30", "--q", "20", "--reps", "1", "--output", "json",
                "--no-timing", "--no-records"]
        _, out, _ = run(capsys, *argv)
        default = json.loads(out)
        assert default["intercept"] is True and default["max_subset_refine"] == 20
        _, out, _ = run(capsys, *argv, "--no-intercept", "--max-subset", "3")
        changed = json.loads(out)
        assert changed["intercept"] is False and changed["max_subset_refine"] == 3

    def test_design_file(self, capsys, tmp_path):
        x = np.random.default_rng(6).standard_normal((40, 30))
        path = tmp_path / "design.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in x.tolist()))
        code, out, _ = run(capsys, "simulate", "--design", str(path), "--reps", "2",
                           "--seed", "5", "--output", "json", "--no-timing")
        assert code == 0
        spec = gausscov.SimSpec(n=40, q=30, reps=2, seed=5)
        want = gausscov.run_sim(spec, design=gausscov.DataMatrix(x))
        payload = json.loads(out)
        assert payload["n"] == 40 and payload["q"] == 30
        assert payload == json.loads(want.to_json(include_timing=False))

    def test_unsupported_method(self, capsys):
        code, _, _ = run(capsys, "simulate", "--method", "f2st")
        assert code == 3

    def test_only_f1st_and_f3st_offered(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "--method {f1st,f3st}" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gausscov.cli", "select", TINY, "--no-timing"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_SELECT
