"""Command-line front end: outputs, manifests, reruns, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import slope_lab
from slope_lab import cli


def run(argv):
    return cli.main(argv)


def read_csv(path):
    # read_bytes: universal-newline translation would hide the CRLFs
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0].startswith("#schema=")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    return lines[0], header, rows


class TestTable1:
    def test_writes_table_and_manifest(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run(["table1", "--n-max", "7", "--out", str(out)]) == cli.EXIT_OK
        schema, header, rows = read_csv(out)
        assert schema == "#schema=slope_lab.table1.v1"
        assert header[0] == "n"
        assert [r[0] for r in rows] == ["1", "3", "5", "7"]
        man = json.loads((tmp_path / "t1.csv.manifest.json").read_text())
        assert man["command"] == "table1"
        assert str(out) in man["outputs"]

    def test_known_row(self, tmp_path):
        out = tmp_path / "t1.csv"
        run(["table1", "--n-max", "15", "--out", str(out)])
        _, header, rows = read_csv(out)
        row15 = dict(zip(header, rows[-1]))
        assert float(row15["lambda_median"]) == pytest.approx(4.88286, abs=1e-3)
        assert float(row15["lambda_full_score"]) == pytest.approx(7.5, abs=1e-9)
        assert row15["variance_diverges"] == "0"
        assert dict(zip(header, rows[0]))["variance_diverges"] == "1"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["table1", "--n-max", "5", "--out", str(a)])
        run(["table1", "--n-max", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBernoulliEff:
    def test_output_shape(self, tmp_path):
        out = tmp_path / "eff.csv"
        assert run(["bernoulli-eff", "--n", "10", "--grid", "25", "--out", str(out)]) == cli.EXIT_OK
        schema, header, rows = read_csv(out)
        assert schema == "#schema=slope_lab.bernoulli_eff.v1"
        assert header == ["p", "eff_y", "eff_y_times_ym1", "eff_y_squared"]
        assert len(rows) == 25
        effs = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.allclose(effs[:, 0], 1.0, atol=1e-9)
        assert np.all(effs <= 1.0 + 1e-9)


class TestCurves:
    def test_columns_per_outcome(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["curves", "--n", "5", "--grid", "11", "--out", str(out)]) == cli.EXIT_OK
        _, header, rows = read_csv(out)
        assert header == ["p"] + [f"shat_y{y}" for y in range(6)]
        assert len(rows) == 11

    def test_standardized_rows_have_unit_norm(self, tmp_path):
        # at each theta the standardized score has mean 0, variance 1
        out = tmp_path / "curves.csv"
        run(["curves", "--n", "5", "--grid", "7", "--out", str(out)])
        _, _, rows = read_csv(out)
        from scipy.stats import binom

        for r in rows:
            p = float(r[0])
            vals = np.array([float(v) for v in r[1:]])
            w = binom.pmf(np.arange(6), 5, p)
            assert np.dot(w, vals) == pytest.approx(0.0, abs=1e-9)
            assert np.dot(w, vals**2) == pytest.approx(1.0, abs=1e-9)

    def test_variance_taken_once_per_theta(self, tmp_path, monkeypatch):
        # one pass over the support gives the score's variance, which serves
        # every outcome at that theta
        thetas = []

        def counted(f, theta, phi, **kw):
            thetas.append(theta)
            return values(f, theta, phi, **kw)

        values = slope_lab.Bernoulli.values
        monkeypatch.setattr(slope_lab.Bernoulli, "values", counted)
        assert run(["curves", "--n", "10", "--grid", "7", "--out", str(tmp_path / "c.csv")]) == cli.EXIT_OK
        assert len(thetas) == 7 and len(set(thetas)) == 7

    def test_unsupported_family(self, tmp_path):
        code = run(["curves", "--family", "cauchy", "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["curves", "check"])
    def test_no_family_flag(self, tmp_path, command):
        out = tmp_path / "x.csv"
        assert run([command, "--family", "bernoulli", "--out", str(out)]) == cli.EXIT_USAGE
        assert run([command, "--grid", "5", "--out", str(out)]) == cli.EXIT_OK
        assert "family" not in json.loads(out.with_name("x.csv.manifest.json").read_text())["flags"]


class TestCauchySim:
    def test_outputs_and_manifest(self, tmp_path):
        prefix = tmp_path / "sim"
        code = run(
            ["cauchy-sim", "--reps", "600", "--seed", "5", "--bins", "4",
             "--out-prefix", str(prefix)]
        )
        assert code == cli.EXIT_OK
        for sfx in ("_summary.csv", "_bins.csv", "_qq.csv", "_replicates.csv"):
            assert (tmp_path / f"sim{sfx}").exists()
        man = json.loads((tmp_path / "sim_manifest.json").read_text())
        assert man["seed"] == 5
        assert len(man["outputs"]) == 4

    def test_summary_rows(self, tmp_path):
        prefix = tmp_path / "sim"
        run(["cauchy-sim", "--reps", "600", "--raw", "--out-prefix", str(prefix)])
        schema, header, rows = read_csv(tmp_path / "sim_summary.csv")
        assert schema == "#schema=slope_lab.sim_summary.v1"
        assert [r[0] for r in rows] == ["wald_expected", "wald_observed", "lrt"]
        for r in rows:
            assert 0.0 < float(r[1]) < 0.2

    def test_rerun_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run(["cauchy-sim", "--reps", "500", "--seed", "2", "--out-prefix",
                 str(tmp_path / name)])
        for sfx in ("_summary.csv", "_bins.csv", "_qq.csv", "_replicates.csv"):
            assert (tmp_path / f"a{sfx}").read_bytes() == (tmp_path / f"b{sfx}").read_bytes()

    def test_adjusted_flag_changes_output(self, tmp_path):
        run(["cauchy-sim", "--reps", "500", "--adjusted", "--out-prefix", str(tmp_path / "adj")])
        run(["cauchy-sim", "--reps", "500", "--raw", "--out-prefix", str(tmp_path / "raw")])
        a = (tmp_path / "adj_summary.csv").read_bytes()
        r = (tmp_path / "raw_summary.csv").read_bytes()
        assert a != r


    def test_manifest_reports_stages_and_counters(self, tmp_path):
        run(["cauchy-sim", "--reps", "300", "--raw", "--bins", "3", "--out-prefix",
             str(tmp_path / "sim")])
        tel = json.loads((tmp_path / "sim_manifest.json").read_text())["telemetry"]
        assert set(tel["stage_seconds"]) == {"draw", "mle", "obs_info", "lrt_roots", "widths_kl"}
        assert all(v >= 0.0 for v in tel["stage_seconds"].values())
        assert tel["counters"]["brackets"] >= 300
        assert tel["counters"]["windows_skipped"] > 0
        points, c = slope_lab.cauchy._WINDOW_POINTS, tel["counters"]
        assert points * 300 <= c["lattice_points"] <= points * (15 * 300 - c["windows_skipped"])
        failed = sum(v for k, v in tel["counters"].items() if k.startswith("failed_"))
        assert failed == tel["failed_replicates"] == 0
        assert tel["threads"] == slope_lab.mc.threads_from_env()
        assert tel["batch"] == slope_lab.mc.BATCH
        assert (tel["numpy"], tel["scipy"]) == (np.__version__, scipy.__version__)


def assert_usage_error(code, capsys):
    # exit 3 with one line on stderr and no traceback
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


class TestBadInput:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLOPE_LAB_THREADS", value)
        code = run(["cauchy-sim", "--reps", "20", "--bins", "2", "--out-prefix", str(tmp_path / "s")])
        assert "SLOPE_LAB_THREADS" in assert_usage_error(code, capsys)

    def test_config_without_path(self, capsys):
        assert_usage_error(run(["table1", "--config"]), capsys)

    def test_more_bins_than_replicates(self, tmp_path, capsys):
        code = run(["cauchy-sim", "--reps", "50", "--bins", "100", "--out-prefix", str(tmp_path / "s")])
        assert_usage_error(code, capsys)
        assert not (tmp_path / "s_replicates.csv").exists()

    @pytest.mark.parametrize("flag", [["--reps", "0"], ["--bins", "0"], ["--n", "0"]])
    def test_nonpositive_sizes(self, flag, tmp_path, capsys):
        code = run(["cauchy-sim", "--reps", "20", "--bins", "2", *flag, "--out-prefix", str(tmp_path / "s")])
        assert_usage_error(code, capsys)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551615", "18446744073709551616"])
    def test_seed_outside_philox_key_range(self, seed, tmp_path, capsys):
        code = run(["cauchy-sim", "--reps", "20", "--bins", "2", f"--seed={seed}",
                    "--out-prefix", str(tmp_path / "s")])
        assert "seed" in assert_usage_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16])
    def test_sample_too_small_for_median_qq(self, n, tmp_path, capsys):
        # the median Q-Q column needs a finite median variance, n >= 5, of
        # one middle observation, an odd n
        out = tmp_path / "out"
        out.mkdir()
        code = run(["cauchy-sim", "--n", str(n), "--reps", "20", "--bins", "2", "--out-prefix", str(out / "s")])
        assert f"n={n}" in assert_usage_error(code, capsys)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--n-max", "33"],
            ["table1", "--n-max", "0"],
            ["check", "--grid", "0"],
            ["bernoulli-eff", "--n", "0"],
            ["bernoulli-eff", "--grid", "0"],
            ["curves", "--n", "0"],
            ["curves", "--grid", "0"],
            ["curves", "--grid", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_sizes_outside_range_write_nothing(self, argv, tmp_path, capsys):
        code = run([*argv, "--out", str(tmp_path / "out.csv")])
        assert argv[-2] in assert_usage_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_n_max_past_the_last_row_keeps_the_rows_up_to_it(self, tmp_path):
        # --n-max lies in [1, 33): 32 asks for the odd n up to 31, every row
        out = tmp_path / "t.csv"
        assert run(["table1", "--n-max", "32", "--out", str(out)]) == cli.EXIT_OK
        assert [r[0] for r in read_csv(out)[2]] == [str(n) for n in range(1, 32, 2)]

    def test_bins_lie_in_1_to_reps(self, tmp_path, capsys):
        code = run(["cauchy-sim", "--reps", "50", "--bins", "51", "--out-prefix", str(tmp_path / "a")])
        assert "--bins" in assert_usage_error(code, capsys)
        assert list(tmp_path.iterdir()) == []
        assert run(["cauchy-sim", "--reps", "50", "--bins", "50", "--out-prefix", str(tmp_path / "b")]) == cli.EXIT_OK


class TestExitCodes:
    """1 for a property that ``check`` finds false, 2 for a numerical
    failure of the library, each with one line on stderr or stdout."""

    def test_failed_property_exits_1_and_is_recorded(self, tmp_path, monkeypatch, capsys):
        # the log-odds side of the chart invariance, moved off the p chart's
        monkeypatch.setattr(cli, "lambda_efficiency", lambda g, theta: 2.0)
        out = tmp_path / "k.csv"
        assert run(["check", "--grid", "5", "--out", str(out)]) == cli.EXIT_PROPERTY
        text = capsys.readouterr().out
        assert "FAIL chart_invariance_eff" in text and text.count("FAIL") == 1
        rows = {r[0]: r[-1] for r in read_csv(out)[2]}
        assert rows.pop("chart_invariance_eff") == "0"
        assert set(rows.values()) == {"1"}

    def test_too_many_failed_replicates_exit_2(self, tmp_path, monkeypatch, capsys):
        run_batch = slope_lab.mc._run_batch

        def failing(cfg, start, count):
            out, seconds, counters = run_batch(cfg, start, count)
            out["failed"] = True
            return out, seconds, counters

        monkeypatch.setattr(slope_lab.mc, "_run_batch", failing)
        code = run(["cauchy-sim", "--reps", "20", "--bins", "2", "--out-prefix", str(tmp_path / "s")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "20 replicate failures" in err
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [e for e in vars(slope_lab.errors).values()
                                       if isinstance(e, type) and issubclass(e, slope_lab.SlopeLabError)
                                       and issubclass(e, (RuntimeError, ArithmeticError))],
                             ids=lambda e: e.__name__)
    def test_every_numerical_failure_exits_2(self, error, tmp_path, monkeypatch, capsys):
        def fail(n):
            raise error("no result")

        monkeypatch.setattr(cli, "cauchy_table_row", fail)
        assert run(["table1", "--out", str(tmp_path / "t.csv")]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: no result\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv, computation",
        [
            (["table1", "--out", "F/t.csv"], "cauchy_table_row"),
            (["bernoulli-eff", "--out", "F/e.csv"], "bernoulli_efficiency_curves"),
            (["curves", "--out", "F/sub/c.csv"], "score_estimator"),
            (["check", "--out", "F/k.csv"], "score_estimator"),
            (["cauchy-sim", "--reps", "50", "--bins", "2", "--out-prefix", "F/x"], "run_coverage"),
            (["cauchy-sim", "--reps", "50", "--bins", "2", "--out-prefix", ""], "run_coverage"),
            # a trailing separator names a directory: Path would drop it
            (["cauchy-sim", "--reps", "50", "--bins", "2", "--out-prefix", "sub/"], "run_coverage"),
            (["table1", "--out", "t/"], "cauchy_table_row"),
        ],
        ids=["table1", "bernoulli-eff", "curves", "check", "cauchy-sim", "cauchy-sim-no-name",
             "cauchy-sim-trailing-slash", "table1-trailing-slash"],
    )
    def test_unusable_output_is_a_usage_error_before_computing(
        self, argv, computation, tmp_path, monkeypatch, capsys
    ):
        # an output under a regular file, or a path that names no file
        blocker = tmp_path / "F"
        blocker.write_text("a regular file\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, computation, lambda *a, **k: pytest.fail(f"{computation} ran"))
        assert "usage error:" in assert_usage_error(run(argv), capsys)
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "a regular file\n"

    @pytest.mark.parametrize(
        "argv, computation, directory",
        [
            pytest.param(["table1", "--out", "t.csv"], "cauchy_table_row", d, id=f"table1-{d}")
            for d in ["t.csv", "t.csv.manifest.json"]
        ]
        + [
            pytest.param(["bernoulli-eff", "--out", "e.csv"], "bernoulli_efficiency_curves", "e.csv", id="bernoulli-eff"),
            pytest.param(["curves", "--out", "c.csv"], "score_estimator", "c.csv", id="curves"),
            pytest.param(["check", "--out", "k.csv"], "score_estimator", "k.csv", id="check"),
        ]
        + [
            pytest.param(["cauchy-sim", "--reps", "50", "--bins", "2", "--out-prefix", "x"], "run_coverage", d,
                         id=f"cauchy-sim-{d}")
            for d in ["x_summary.csv", "x_bins.csv", "x_qq.csv", "x_replicates.csv", "x_manifest.json"]
        ],
    )
    def test_output_that_is_a_directory_is_refused_before_computing(
        self, argv, computation, directory, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / directory).mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, computation, lambda *a, **k: pytest.fail(f"{computation} ran"))
        assert "is a directory" in assert_usage_error(run(argv), capsys)
        assert list(tmp_path.iterdir()) == [tmp_path / directory]
        assert list((tmp_path / directory).iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["table1", "--n-max", "3"], ["bernoulli-eff", "--grid", "3"], ["curves", "--grid", "3"],
         ["check", "--grid", "3"]],
        ids=lambda argv: argv[0],
    )
    def test_creates_the_output_directory(self, argv, tmp_path):
        out = tmp_path / "a" / "b" / "out.csv"
        assert run([*argv, "--out", str(out)]) == cli.EXIT_OK
        man = json.loads(out.with_name("out.csv.manifest.json").read_text())
        assert man["outputs"] == [str(out)]


def _csv_by_rows(schema, header, rows):
    """The row loop that formatted the command line's CSVs before
    mc.csv_table, kept as the reference its bytes must equal."""
    lines = [f"#schema={schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    return ("\r\n".join(lines) + "\r\n").encode()


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]


def _column(kind, m, rng):
    """One column of m values of a kind the commands write; float columns
    start with the special values."""
    x = np.concatenate([_SPECIAL, rng.normal(size=m - len(_SPECIAL)) * 10.0 ** rng.integers(-30, 30, m - len(_SPECIAL))])
    return {
        "float_array": x,
        "float_list": x.tolist(),
        "np_float_list": list(x),
        "int_range": range(m),
        "int_list": [int(v) for v in rng.integers(-1000, 1000, m)],
        "int64_array": rng.integers(0, 10**6, m),
        "bool_list": [bool(v) for v in rng.integers(0, 2, m)],
        "np_bool_list": list(rng.integers(0, 2, m) == 1),
        "bool_array": rng.integers(0, 2, m) == 1,
        "str": [f"name_{i}" for i in range(m)],
    }[kind]


# each table's column kinds, as the commands pass them to csv_table
_TABLES = {
    "table1": ["int_list"] + ["float_list"] * 7 + ["bool_list"],
    "bernoulli_eff": ["float_array"] * 4,
    "curves": ["float_array"] + ["float_list"] * 6,
    "sim_summary": ["str"] + ["float_list"] * 4,
    "sim_bins": ["int_range", "float_array", "float_array", "int64_array"] + ["float_array"] * 6,
    "sim_qq": ["float_array"] * 4,
    "replicates": ["int64_array", "float_array", "float_array"] + ["bool_array"] * 3 + ["float_array"] * 3,
    "check": ["str", "np_float_list", "float_list", "np_bool_list"],
    "all_kinds": ["float_array", "float_list", "np_float_list", "int_range", "int_list", "int64_array",
                  "bool_list", "np_bool_list", "bool_array", "str"],
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_csv_table_matches_row_loop(table):
    rng = np.random.default_rng(len(table))
    m = 40
    columns = [_column(kind, m, rng) for kind in _TABLES[table]]
    header = [f"c{j}" for j in range(len(columns))]
    # the row loop was given ints where a table holds flags (int(ok)),
    # since it wrote a numpy bool as True or False
    rows = [[int(v) if isinstance(v, (bool, np.bool_)) else v for v in row] for row in zip(*columns)]
    got = slope_lab.mc.csv_table(f"slope_lab.{table}.v1", header, columns)
    assert got == _csv_by_rows(f"slope_lab.{table}.v1", header, rows)


def test_csv_table_special_values():
    data = slope_lab.mc.csv_table(
        "s", ["f", "i", "i64", "b", "nb", "s"],
        [[np.nan, np.inf, -np.inf, -0.0, 1e-300], [1, 2, 3, 4, 5], np.arange(5, dtype=np.int64),
         [True, False, True, False, True], np.array([0, 1, 0, 1, 0]) == 1, list("abcde")],
    ).decode()
    assert data.split("\r\n")[2:-1] == [
        "nan,1,0,1,0,a", "inf,2,1,0,1,b", "-inf,3,2,1,0,c", "-0,4,3,0,1,d", "1e-300,5,4,1,0,e",
    ]
    assert data.endswith("\r\n")


class TestCheck:
    def test_passes_and_prints(self, tmp_path, capsys):
        out = tmp_path / "check.csv"
        assert run(["check", "--grid", "11", "--out", str(out)]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "PASS identity_score" in text
        assert "FAIL" not in text
        _, header, rows = read_csv(out)
        assert header == ["property", "worst", "tol", "ok"]
        assert all(r[-1] == "1" for r in rows)

    def test_works_without_out(self):
        assert run(["check", "--grid", "5"]) == cli.EXIT_OK

    def test_unsupported_family(self):
        assert run(["check", "--family", "normal"]) == cli.EXIT_USAGE

    def test_one_moment_pass_per_estimator_and_theta(self, monkeypatch):
        # a slope report per estimator takes every quantity at theta from one
        # set of moments: 11 passes per theta, 15 when taken quantity by quantity
        passes = []
        init = slope_lab.families._Pass.__init__
        monkeypatch.setattr(slope_lab.families._Pass, "__init__",
                            lambda self, *a, **kw: passes.append(1) or init(self, *a, **kw))
        assert run(["check", "--grid", "5"]) == cli.EXIT_OK
        assert len(passes) == 55


class TestConfigAndUsage:
    def test_config_file_merging(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\nn_max=5\nout=" + str(tmp_path / "from_cfg.csv") + "\n")
        assert run(["table1", "--config", str(cfgfile)]) == cli.EXIT_OK
        assert (tmp_path / "from_cfg.csv").exists()

    def test_explicit_flag_wins(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n_max=9\n")
        out = tmp_path / "t.csv"
        run(["table1", "--config", str(cfgfile), "--n-max", "3", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["1", "3"]

    def test_missing_config(self):
        assert run(["table1", "--config", "/nonexistent.cfg", "--out", "x.csv"]) == cli.EXIT_USAGE

    def test_config_not_utf8(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"\xff\xfe n_max=3\n")
        code = run(["table1", "--config", str(cfgfile), "--out", str(tmp_path / "t.csv")])
        assert "UTF-8" in assert_usage_error(code, capsys)
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_unknown_command(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["table1"]) == cli.EXIT_USAGE


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a third of the package's import time, which
    # every command pays; the exact Bernoulli interval needs none of it either
    src = str(Path(slope_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, slope_lab; slope_lab.exact_bernoulli_interval(10, 3, 0.05); "
        "print('scipy.stats' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
