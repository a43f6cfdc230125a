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
        # the score's two variance passes serve every outcome at that theta
        thetas = []

        def counted(f, theta, phi, **kw):
            thetas.append(theta)
            return expect(f, theta, phi, **kw)

        expect = slope_lab.gcore.expect
        monkeypatch.setattr(slope_lab.gcore, "expect", counted)
        assert run(["curves", "--n", "10", "--grid", "7", "--out", str(tmp_path / "c.csv")]) == cli.EXIT_OK
        assert len(thetas) == 2 * 7 and len(set(thetas)) == 7

    def test_unsupported_family(self, tmp_path):
        code = run(["curves", "--family", "cauchy", "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_USAGE


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sample_too_small_for_median_qq(self, n, tmp_path, capsys):
        # the median Q-Q column needs a finite median variance: n >= 5
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

    def test_unknown_command(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["table1"]) == cli.EXIT_USAGE


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a third of the package's import time, which
    # every command pays
    src = str(Path(slope_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, slope_lab; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
