"""One round of one benchmark workload, in a fresh interpreter.

run.py starts this script once per round with PYTHONPATH set to the
checkout's ``src``.  The round times the workload's operations, checks
every output against checks.py, and prints one JSON line with the
timings, the operation counts, the problems found and, for a traced
round, the per-layer figures.

    python3 bench/worker.py --workload coverage --seed 0 --round 0 \
        --trace 0 --out bench/runs/coverage-0 --spawned <CLOCK_MONOTONIC>
"""

import json
import os
import sys
import time

# Set-up time is counted from the moment run.py started this interpreter
# until slope_lab is imported; CLOCK_MONOTONIC is one clock for all processes.
import slope_lab as sl  # noqa: E402

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, root_id, self_times, total_times  # noqa: E402
from slope_lab import cli, families, gcore, intervals, klgeom, mc  # noqa: E402

# Sizes of one round.  Each is fixed, so every round does the same work.
COVERAGE_REPS = 8192  # two 4096-replicate batches, so two threads both work
COVERAGE_CHECKED = 48  # replicates whose MLE and LRT hull are checked on a dense grid
EXACT_THETAS = 8  # theta points of the quadrature slope_report, fixed: its cost depends on theta
SAMPLES = 40  # n = 15 Cauchy samples per cauchy_sample round
MC_DRAWS = 5000  # mc_draws of the Monte Carlo slope_report and check_identity
MC_THETAS = 2  # theta points of the Monte Carlo slope_report
N = 15
Z = checks.Z95


def derived_seed(*parts):
    """A 32-bit seed made only from the run's --seed, the workload and the round."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(32)


class Counted:
    """A statistic supplied by the benchmark that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, y):
        self.calls += 1
        return self.fn(y)


class Round:
    def __init__(self, args):
        self.args = args
        self.out = Path(args.out)
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.timings = {}
        self.layers = {}
        self.extra = {}
        self.rss_mb = None  # peak resident memory right after the timed parts
        self.work = {}  # units of work behind timings["main"] and ["second"]
        self.refs = []  # reference_parts() before, between and after the two timed parts

    def reference(self):
        self.refs.append(reference_parts())

    def op(self, name, fn, *args, **kwargs):
        """Run one operation; a raised exception or a nonzero exit code fails it."""
        self.attempted += 1
        call = self.tracer.wrap(fn, name) if self.tracer else fn
        try:
            result = call(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        if fn is cli.main and result != 0:
            self.failed += 1
            self.errors.append(f"{name}: exit code {result}")
            return None
        return result

    def instrument(self, fn, name, on_result=None):
        if self.tracer:
            self.tracer.instrument(fn, name, on_result)


# ---------------------------------------------------------------------------
# coverage: slope-lab cauchy-sim --raw at 1 and 2 threads
# ---------------------------------------------------------------------------


def coverage(rd):
    seed = derived_seed("coverage", rd.args.seed, rd.args.round)
    failures = {}
    rd.instrument(mc.run_coverage, "mc.run_coverage", lambda s: failures.setdefault("n", s.n_failures))
    rd.instrument(mc.bin_by_obs_info, "mc.bin_by_obs_info")
    rd.instrument(mc.qq_data, "mc.qq_data")
    if rd.tracer:
        rd.tracer.instrument_method(mc.SimSummary, "csv_bytes", "mc.csv_bytes")
    names = ("summary", "bins", "qq", "replicates")
    files = {}
    rd.reference()
    for threads in (1, 2):
        os.environ["SLOPE_LAB_THREADS"] = str(threads)
        prefix = rd.out / f"t{threads}" / "sim"
        argv = ["cauchy-sim", "--raw", "--n", str(N), "--reps", str(COVERAGE_REPS),
                "--seed", str(seed), "--out-prefix", str(prefix)]
        t0 = time.perf_counter()
        rc = rd.op(f"cli.cauchy_sim[threads={threads}]", cli.main, argv)
        rd.timings[f"t{threads}"] = time.perf_counter() - t0
        rd.reference()
        if rc is not None:
            files[threads] = {k: prefix.with_name(f"sim_{k}.csv").read_bytes() for k in names}
            files[threads]["manifest"] = prefix.with_name("sim_manifest.json").read_text()
    rd.rss_mb = peak_rss_mb()
    rd.timings["main"] = rd.timings["t1"]
    rd.timings["second"] = rd.timings["t2"]
    rd.work = {"main": COVERAGE_REPS, "second": COVERAGE_REPS}

    if rd.tracer:
        spans = rd.tracer.spans
        one = self_times(spans, root_id(spans, "cli.cauchy_sim[threads=1]"))
        two = self_times(spans, root_id(spans, "cli.cauchy_sim[threads=2]"))
        rd.layers.update({
            "mc.run_coverage_s": one.get("mc.run_coverage", 0.0),
            "mc.run_coverage_2t_s": two.get("mc.run_coverage", 0.0),
            "mc.csv_bytes_s": one.get("mc.csv_bytes", 0.0),
            "mc.bin_by_obs_info_s": one.get("mc.bin_by_obs_info", 0.0),
            "mc.qq_data_s": one.get("mc.qq_data", 0.0),
            "cli.cauchy_sim_self_s": one.get("cli.cauchy_sim[threads=1]", 0.0),
            "mc.replicates": COVERAGE_REPS,
            "mc.failed_replicates": failures.get("n", 0),
        })

    # -- checks ----------------------------------------------------------
    if 1 not in files:
        return
    out = files[1]
    if 2 in files:
        for k in names:
            if files[1][k] != files[2][k]:
                rd.problems.append(f"{k} CSV differs between 1 and 2 threads")
    for threads, f in files.items():
        manifest = json.loads(f["manifest"])
        listed = [Path(p).name for p in manifest.get("outputs", [])]
        if manifest.get("command") != "cauchy-sim" or sorted(listed) != sorted(f"sim_{k}.csv" for k in names):
            rd.problems.append(f"manifest at {threads} threads lists {listed}")
    table = checks.read_replicates(out["replicates"].decode())
    x_all = checks.cauchy_samples(seed, COVERAGE_REPS, N)
    if not np.array_equal(table["rep"], np.arange(COVERAGE_REPS)):
        rd.problems.append("replicate indices are not 0..reps-1 in order")
        return
    ok = ~checks.failed_rows(table)
    t_ok, x = checks.rows(table, ok), x_all[ok]
    problems, mismatches = checks.check_replicate_columns(x, t_ok, Z)
    rd.problems += problems
    problems, disconnected = checks.adjudicate_lrt_mismatches(x, t_ok, mismatches, Z)
    rd.problems += problems
    rng = np.random.default_rng(derived_seed("coverage-check", rd.args.seed, rd.args.round))
    for i in rng.choice(x.shape[0], size=min(COVERAGE_CHECKED, x.shape[0]), replace=False):
        label = f"rep {int(t_ok['rep'][i])}"
        rd.problems += checks.check_mle(x[i], t_ok["theta_hat"][i], label)
        lo, hi, disc = checks.lrt_hull(x[i], t_ok["theta_hat"][i], Z)
        if not disc:
            rd.problems += checks.check_kl(lo, hi, t_ok["kl_lrt"][i], label + " kl_lrt")
    rd.problems += checks.check_summary_csv(out["summary"].decode(), t_ok, Z)
    rd.problems += checks.check_bins_csv(out["bins"].decode(), t_ok, 20)
    rd.problems += checks.check_qq_csv(out["qq"].decode(), x, t_ok)
    rd.extra["hits"] = {m: int(np.sum(t_ok["hit_" + checks.SUFFIX[m]])) for m in checks.METHODS}
    rd.extra["ok"] = int(ok.sum())
    if rd.tracer:
        rd.layers["mc.lrt_hit_mismatches"] = disconnected


# ---------------------------------------------------------------------------
# exact: the paper's deterministic tables through the CLI, then quadrature
# slope reports on the median law
# ---------------------------------------------------------------------------


def exact(rd):
    grid = np.linspace(-3.5, 3.5, EXACT_THETAS)
    rd.instrument(gcore.cauchy_table_row, "gcore.cauchy_table_row")
    rd.instrument(families.median_fisher_info, "families.median_fisher_info")
    rd.instrument(families.median_variance, "families.median_variance")
    rd.instrument(gcore.bernoulli_efficiency_curves, "gcore.bernoulli_efficiency_curves")
    rd.instrument(gcore.slope_report, "gcore.slope_report")
    rd.out.mkdir(parents=True, exist_ok=True)
    paths = {k: rd.out / f"{k}.csv" for k in ("table1", "bernoulli_eff", "curves", "check")}
    commands = [
        ("cli.table1", ["table1", "--out", str(paths["table1"])]),
        ("cli.bernoulli_eff", ["bernoulli-eff", "--n", "10", "--out", str(paths["bernoulli_eff"])]),
        ("cli.curves", ["curves", "--n", "10", "--out", str(paths["curves"])]),
        ("cli.check", ["check", "--out", str(paths["check"])]),
    ]
    ran = {}
    rd.reference()
    t0 = time.perf_counter()
    for name, argv in commands:
        ran[name] = rd.op(name, cli.main, argv) is not None
    rd.timings["main"] = time.perf_counter() - t0
    rd.reference()

    fm = sl.CauchyMedian(7)
    median = Counted(lambda z: z)
    g = sl.lift_point_estimator(fm, median, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0)
    t0 = time.perf_counter()
    rep_median = rd.op("slope_report(median)", sl.slope_report, g, grid)
    rep_score = rd.op("slope_report(score)", sl.slope_report, sl.score_estimator(fm), grid)
    rd.timings["second"] = time.perf_counter() - t0
    rd.reference()
    rd.rss_mb = peak_rss_mb()
    rd.work = {"main": 1, "second": 1}

    if rd.tracer:
        spans = rd.tracer.spans
        own, whole = self_times(spans), total_times(spans)
        rd.layers.update({
            "families.median_fisher_info_s": own.get("families.median_fisher_info", 0.0),
            "families.median_variance_s": own.get("families.median_variance", 0.0),
            "gcore.cauchy_table_row_s": own.get("gcore.cauchy_table_row", 0.0),
            "gcore.bernoulli_efficiency_curves_s": own.get("gcore.bernoulli_efficiency_curves", 0.0),
            "gcore.slope_report_quad_s": own.get("gcore.slope_report", 0.0),
            "cli.table1_s": whole.get("cli.table1", 0.0),
            "cli.bernoulli_eff_s": whole.get("cli.bernoulli_eff", 0.0),
            "cli.curves_s": whole.get("cli.curves", 0.0),
            "cli.check_s": whole.get("cli.check", 0.0),
            "quadrature.integrand_calls": median.calls,
            "gcore.binomial_statistic_calls": binomial_statistic_calls(rd),
        })

    # -- checks ----------------------------------------------------------
    if ran["cli.table1"]:
        rd.problems += checks.check_table1(paths["table1"].read_text())
    if ran["cli.bernoulli_eff"]:
        rd.problems += checks.check_bernoulli_eff(paths["bernoulli_eff"].read_text(), 10)
    if ran["cli.curves"]:
        rd.problems += checks.check_curves(paths["curves"].read_text(), 10)
    if rep_median is not None and rep_score is not None:
        rd.problems += checks.check_median_quadrature(report_dict(rep_median), report_dict(rep_score))


def binomial_statistic_calls(rd):
    """Calls into y, y(y-1) and y^2 while lambda_efficiency runs over the
    bernoulli-eff grid; made after the timed pass, and checked too."""
    f = sl.Bernoulli(10)
    total = 0
    for name, u in checks.BERNOULLI_STATISTICS:
        stat = Counted(u)
        est = sl.lift_point_estimator(f, stat)
        for p in np.linspace(0.02, 0.98, 97):
            eff = sl.lambda_efficiency(est, p)
            want = checks.binomial_rho2(10, p, u)
            if not abs(eff - want) <= 1e-9:
                rd.problems.append(f"lambda_efficiency of {name} at p={p}: {eff!r}, binomial sums give {want!r}")
        total += stat.calls
    return total


# ---------------------------------------------------------------------------
# cauchy_sample: the scalar interval path and the Monte Carlo engine
# ---------------------------------------------------------------------------


def cauchy_sample(rd):
    seed = derived_seed("cauchy_sample", rd.args.seed, rd.args.round)
    rng = np.random.default_rng(seed)
    samples = np.sort(rng.standard_cauchy((SAMPLES, N)), axis=1)
    thetas = np.sort(rng.uniform(-3.0, 3.0, MC_THETAS))
    mc_seed = int(rng.integers(2**32))
    f = sl.CauchyLocation(N)
    rd.instrument(intervals.cauchy_mle, "intervals.cauchy_mle")
    rd.instrument(intervals.observed_info, "intervals.observed_info")
    rd.instrument(intervals.lrt_estimate, "intervals.lrt_estimate")
    rd.instrument(intervals.lrt_interval, "intervals.lrt_interval")
    rd.instrument(klgeom.kl_length, "klgeom.kl_length")
    rd.instrument(gcore.slope_report, "gcore.slope_report")
    rd.instrument(gcore.check_identity, "gcore.check_identity")

    results = []
    rd.reference()
    t0 = time.perf_counter()
    for x in samples:
        rd.attempted += 1
        try:
            th = sl.cauchy_mle(x)
            info = sl.observed_info(f, th, x)
            ivs = [
                sl.wald_interval(th, f.fisher_info(0.0), Z),
                sl.wald_interval(th, info, Z, method="wald_observed"),
                sl.lrt_interval(sl.lrt_estimate(f, x), Z),
            ]
            kls = [sl.kl_length(f, iv) for iv in ivs]
        except Exception:
            rd.failed += 1
            rd.errors.append(traceback.format_exc(limit=3))
            continue
        results.append((x, th, info, ivs, kls))
    rd.timings["main"] = (time.perf_counter() - t0) / SAMPLES
    rd.reference()
    rd.work = {"main": 1, "second": MC_DRAWS * MC_THETAS}

    median = Counted(lambda y: float(y[N // 2]))
    g = sl.lift_point_estimator(f, median, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0)
    t0 = time.perf_counter()
    report = rd.op("slope_report(median)", sl.slope_report, g, thetas, mc_draws=MC_DRAWS, mc_seed=mc_seed)
    statistic_calls = median.calls
    score = sl.score_estimator(f)
    residuals = [
        rd.op("check_identity(score)", sl.check_identity, score, th, mc_draws=MC_DRAWS, mc_seed=mc_seed)
        for th in thetas
    ]
    rd.timings["second"] = time.perf_counter() - t0
    rd.reference()
    rd.rss_mb = peak_rss_mb()

    if rd.tracer:
        own = self_times(rd.tracer.spans)
        rd.layers.update({
            "intervals.cauchy_mle_s": own.get("intervals.cauchy_mle", 0.0),
            "intervals.observed_info_s": own.get("intervals.observed_info", 0.0),
            "intervals.lrt_interval_s": own.get("intervals.lrt_estimate", 0.0)
            + own.get("intervals.lrt_interval", 0.0),
            "klgeom.kl_length_s": own.get("klgeom.kl_length", 0.0),
            "intervals.lrt_disconnected": sum(r[3][2].disconnected for r in results),
            "gcore.slope_report_mc_s": own.get("gcore.slope_report", 0.0),
            "gcore.check_identity_mc_s": own.get("gcore.check_identity", 0.0),
            "gcore.mc_statistic_calls": statistic_calls,
        })

    # -- checks ----------------------------------------------------------
    for k, (x, th, info, ivs, kls) in enumerate(results):
        label = f"sample {k}"
        rd.problems += checks.check_mle(x, th, label)
        rd.problems += checks.check_obs_info(x, th, info, label)
        for iv, i_w in zip(ivs[:2], (checks.INFO_15, info)):
            half = Z / np.sqrt(i_w)
            if not (abs(iv.lo - (th - half)) <= 1e-12 * (1 + abs(th)) and abs(iv.hi - (th + half)) <= 1e-12 * (1 + abs(th))):
                rd.problems.append(f"{label}: {iv.method} interval ({iv.lo}, {iv.hi}) is not theta_hat -+ z/sqrt({i_w})")
        rd.problems += checks.check_lrt_interval(x, th, ivs[2].lo, ivs[2].hi, Z, label)
        for iv, kl in zip(ivs, kls):
            rd.problems += checks.check_kl(iv.lo, iv.hi, kl, f"{label} {iv.method}")
    if report is not None and all(r is not None for r in residuals):
        moments = checks.median_mc_moments()
        rd.problems += checks.check_median_mc(report_dict(report), residuals, MC_DRAWS, moments)


# ---------------------------------------------------------------------------


_REF_IN = np.linspace(0.0, 1.0, 1 << 19)  # 4 MiB, beyond the caches
_REF_OUT = np.empty_like(_REF_IN)
_REF_SMALL = np.linspace(-3.0, 3.0, N)


def reference_parts():
    """Seconds for three fixed pieces of work that do not touch slope_lab,
    each like one workload's hot path: adaptive quadrature of an interpreted
    integrand, NumPy over large arrays, NumPy over a 15-element array in an
    interpreted loop.  The large arrays are made once, so the speed does not
    depend on how the allocator stands after the workload, and add 8 MiB to
    the round's peak memory."""
    t0 = time.perf_counter()
    for c in range(1, 49):
        integrate.quad(lambda u: math.cos(c * u) / (1.0 + u * u), -30.0, 30.0, epsabs=1e-11, epsrel=1e-11, limit=400)
    t1 = time.perf_counter()
    for _ in range(32):
        np.multiply(_REF_IN, _REF_IN, out=_REF_OUT)
        np.log1p(_REF_OUT, out=_REF_OUT)
    t2 = time.perf_counter()
    acc = 0.0
    for i in range(7000):
        u = _REF_SMALL - 0.001 * i
        acc += float(np.sum(np.log1p(u * u)))
    t3 = time.perf_counter()
    return {"quadrature": t1 - t0, "large_arrays": t2 - t1, "small_arrays": t3 - t2}


def report_dict(rep):
    return {k: [float(v) for v in getattr(rep, k)] for k in ("lam", "rho2", "eff_lambda", "eff_n", "identity_residual")}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {"coverage": coverage, "exact": exact, "cauchy_sample": cauchy_sample}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = Path(os.environ["BENCH_SRC"]).resolve()
    if src not in Path(sl.__file__).resolve().parents:
        print(f"slope_lab was imported from {sl.__file__}, not from {src}", file=sys.stderr)
        return 2
    rd = Round(args)
    try:
        WORKLOADS[args.workload](rd)
    finally:
        shutil.rmtree(rd.out, ignore_errors=True)
    if rd.tracer and args.spans:
        rd.tracer.write(args.spans, args.round)
    for e in rd.errors:
        print(e, file=sys.stderr)
    print(json.dumps({
        "setup_s": _IMPORTED - args.spawned,
        "rss_mb": rd.rss_mb or peak_rss_mb(),
        "timings": rd.timings,
        "attempted": rd.attempted,
        "failed": rd.failed,
        "problems": rd.problems[:50],
        "n_problems": len(rd.problems),
        "layers": rd.layers,
        "extra": rd.extra,
        "work": rd.work,
        "refs": rd.refs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
