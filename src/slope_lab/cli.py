"""slope-lab command line front end.

Emits plot-ready CSVs: the Cauchy median comparison table, the
Bernoulli efficiency curves, the standardized-score curve families,
the coverage simulation outputs, and a consistency-check battery.

Every command runs one pipeline in ``main``: parse the flags (merged
with a ``--config`` file), refuse an output path that is an existing
directory, create the outputs' parent directory, run
the command, which formats each table with ``mc.csv_table`` and writes
it at once, and write the JSON run manifest last.  The manifest lists
the outputs in the order written, so a rerun with identical flags and
seed can be verified byte-for-byte.

Exit codes: 0 ok, 1 property failure, 2 numerical failure, 3 usage: a
flag argparse rejects, reported by argparse, or, each on one ``usage
error:`` line, a flag value no run can use, a config file that cannot be
read, or an output path that cannot be created or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import DomainError, QuadratureError, SlopeLabError
from .families import Bernoulli, reparam
from .gcore import (
    bernoulli_efficiency_curves,
    cauchy_table_row,
    default_grid,
    lambda_efficiency,
    lift_point_estimator,
    score_estimator,
    slope_report,
)
from .mc import (
    BATCH,
    METHODS,
    PAPER_ADJUSTMENTS,
    QQ_STATISTICS,
    SimConfig,
    bin_by_obs_info,
    csv_table,
    median_sd,
    qq_data,
    readjust,
    run_coverage,
    threads_from_env,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


class _UsageError(DomainError):
    """A flag value no run can use: exit 3 before anything is written."""


# The cauchy-sim outputs, P_<part>.csv for --out-prefix P.
SIM_PARTS = ("summary", "bins", "qq", "replicates")


class _Run:
    """One command's outputs, written in order, and its run manifest.

    ``--out`` names a command's one file and ``--out-prefix`` P names
    P_<part>.csv for each of SIM_PARTS; the manifest goes beside them, at
    ``--out`` + ``.manifest.json`` or at P_manifest.json.  Without either
    (``check`` without ``--out``) nothing is written.  Every path is
    known, and refused if it is an existing directory, before the
    command runs.
    """

    def __init__(self, args: argparse.Namespace):
        self.flags = {k: v for k, v in vars(args).items() if k != "func"}
        self.outputs: list = []
        self.telemetry: dict = {}
        sim = args.command == "cauchy-sim"
        out = args.out_prefix if sim else args.out
        self.base = None if out is None else Path(out)
        self.paths: dict = {}
        self.manifest = None
        if self.base is not None:
            # Path("sub/") is Path("sub"): the slash would be lost, not obeyed
            if not self.base.name or out.endswith(("/", os.sep)):
                raise _UsageError(f"output path {out!r} names no file")
            self.paths = {part: self._beside(f"_{part}.csv") for part in SIM_PARTS} if sim else {None: self.base}
            self.manifest = self._beside("_manifest.json" if sim else ".manifest.json")
            for path in [*self.paths.values(), self.manifest]:
                if path.is_dir():
                    raise _UsageError(f"output path {str(path)!r} is a directory")
            self.base.parent.mkdir(parents=True, exist_ok=True)
        self.t0 = time.time()

    def _beside(self, tail: str) -> Path:
        return self.base.with_name(self.base.name + tail)

    def write(self, data: bytes, part: str | None = None) -> None:
        """Write one output: at ``--out``, or at the prefix's _<part>.csv."""
        path = self.paths[part]  # a part outside SIM_PARTS is a KeyError
        path.write_bytes(data)
        self.outputs.append(str(path))

    def finish(self) -> None:
        if self.manifest is None:
            return
        doc = {
            "command": self.flags["command"],
            "flags": self.flags,
            "seed": self.flags.get("seed"),
            "version": __version__,
            "outputs": self.outputs,
            "wall_seconds": round(time.time() - self.t0, 3),
        }
        if self.telemetry:
            doc["telemetry"] = self.telemetry
        self.manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _require_positive(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise _UsageError(f"--{flag} must be positive, got {getattr(args, flag)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_table1(args: argparse.Namespace, run: _Run) -> int:
    ns = range(1, args.n_max + 1, 2)
    if not ns or ns[-1] > 31:
        raise _UsageError(f"--n-max must lie in [1, 31] (the rows are the odd n up to it), got {args.n_max}")
    rows = [astuple(cauchy_table_row(n)) for n in ns]
    header = [
        "n",
        "lambda_median",
        "lambda_median_score",
        "lambda_full_score",
        "eff_median_pct",
        "eff_median_score_pct",
        "n_eff_median",
        "n_eff_median_score",
        "variance_diverges",
    ]
    run.write(csv_table("slope_lab.table1.v1", header, zip(*rows)))
    return EXIT_OK


def cmd_bernoulli_eff(args: argparse.Namespace, run: _Run) -> int:
    _require_positive(args, "n", "grid")
    grid = np.linspace(0.02, 0.98, args.grid)
    columns = bernoulli_efficiency_curves(args.n, grid)
    run.write(csv_table("slope_lab.bernoulli_eff.v1", ["p", "eff_y", "eff_y_times_ym1", "eff_y_squared"], columns))
    return EXIT_OK


def cmd_curves(args: argparse.Namespace, run: _Run) -> int:
    _require_positive(args, "n", "grid")
    f = Bernoulli(args.n, chart=args.param_chart)
    grid = default_grid(f, args.grid)
    s = score_estimator(f)
    rows = []
    for th in grid:
        sd = math.sqrt(s.var(th))  # standardize at theta: the variance is taken once for every y
        rows.append([s(y, th) / sd for y in range(f.n + 1)])
    header = [args.param_chart] + [f"shat_y{y}" for y in range(f.n + 1)]
    run.write(csv_table("slope_lab.curves.v1", header, [grid, *zip(*rows)]))
    return EXIT_OK


def cmd_cauchy_sim(args: argparse.Namespace, run: _Run) -> int:
    try:
        workers = threads_from_env()
        cfg = SimConfig(n=args.n, reps=args.reps, seed=args.seed)
        median_sd(args.n)  # the Q-Q file's median column needs it finite
    except DomainError as exc:
        raise _UsageError(str(exc)) from None
    if not 1 <= args.bins <= args.reps:
        raise _UsageError(f"--bins must lie in [1, --reps={args.reps}], got {args.bins}")
    summary = run_coverage(cfg, workers=workers)
    summary = readjust(summary, PAPER_ADJUSTMENTS) if args.adjusted else summary
    run.telemetry = {
        "stage_seconds": {k: round(v, 6) for k, v in summary.stage_seconds.items()},
        "counters": summary.counters,
        "failed_replicates": summary.n_failures,
        "threads": workers,
        "batch": BATCH,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }

    columns = [METHODS] + [[getattr(summary, d)[m] for m in METHODS]
                           for d in ("coverage_error", "coverage_se", "mean_kl_length", "mean_width")]
    header = ["method", "coverage_error", "coverage_se", "mean_kl_length", "mean_width"]
    run.write(csv_table("slope_lab.sim_summary.v1", header, columns), "summary")

    binned = bin_by_obs_info(summary, args.bins)
    columns = [range(args.bins), binned.edges_lo, binned.edges_hi, binned.counts]
    header = ["bin", "i_obs_lo", "i_obs_hi", "count"]
    for m in METHODS:
        columns += [binned.coverage_error[m], binned.coverage_se[m]]
        header += [f"err_{m}", f"se_{m}"]
    run.write(csv_table("slope_lab.sim_bins.v1", header, columns), "bins")

    pairs = [qq_data(summary, stat) for stat in QQ_STATISTICS]
    columns = [pairs[0][:, 0]] + [p[:, 1] for p in pairs]
    run.write(csv_table("slope_lab.sim_qq.v1", ["normal_quantile", *QQ_STATISTICS], columns), "qq")

    run.write(summary.csv_bytes(), "replicates")
    return EXIT_OK


def cmd_check(args: argparse.Namespace, run: _Run) -> int:
    _require_positive(args, "grid")
    f = Bernoulli(10)
    grid = default_grid(f, args.grid)
    failures = []
    results = []

    def record(name: str, worst: float, tol: float) -> None:
        ok = worst < tol
        results.append((name, worst, tol, int(ok)))
        print(f"{'PASS' if ok else 'FAIL'} {name}: worst {worst:.3e} (tol {tol:.1e})")
        if not ok:
            failures.append(name)

    estimators = {
        "score": score_estimator(f),
        "lift_y": lift_point_estimator(f, lambda y: float(y)),
        "lift_y_times_ym1": lift_point_estimator(f, lambda y: float(y * (y - 1))),
        "lift_y_squared": lift_point_estimator(f, lambda y: float(y * y)),
    }
    reports = {name: slope_report(g, grid) for name, g in estimators.items()}
    for name, report in reports.items():
        record(f"identity_{name}", report.identity_residual.max(), 1e-8)
    bound = np.array([f.fisher_info(th) for th in grid]) * (1.0 + 1e-8)
    record("fisher_bound", max((report.lam - bound).max() for report in reports.values()), 1e-8)
    g_lo = lift_point_estimator(Bernoulli(10, chart="log_odds"), lambda y: float(y * y))
    eff_lo = np.array([lambda_efficiency(g_lo, reparam(f, "p", "log_odds", p)) for p in grid])
    record("chart_invariance_eff", np.abs(reports["lift_y_squared"].eff_lambda - eff_lo).max(), 1e-8)
    if args.out:
        run.write(csv_table("slope_lab.check.v1", ["property", "worst", "tol", "ok"], zip(*results)))
    return EXIT_OK if not failures else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _apply_config_file(argv: list) -> list:
    """Merge key=value pairs from a --config file; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise _UsageError("--config needs a file path")
    path = Path(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise _UsageError(f"config file {path} is not UTF-8 text: {exc}") from None
    extra = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag not in rest:
            extra += [flag, value.strip()]
    return rest[:1] + extra + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slope-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Cauchy median comparison table")
    p.add_argument("--n-max", type=int, default=31)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bernoulli-eff", help="Bernoulli efficiency curves")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--grid", type=int, default=97)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_bernoulli_eff)

    p = sub.add_parser("curves", help="standardized score curves over a grid")
    p.add_argument("--param-chart", default="p", choices=["p", "log_odds"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--grid", type=int, default=97)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("cauchy-sim", help="seeded Cauchy coverage simulation")
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    adj = p.add_mutually_exclusive_group()
    adj.add_argument("--adjusted", dest="adjusted", action="store_true", default=True)
    adj.add_argument("--raw", dest="adjusted", action="store_false")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out-prefix", type=str, required=True)
    p.set_defaults(func=cmd_cauchy_sim)

    p = sub.add_parser("check", help="identity / bound / invariance battery")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config_file(argv))
        run = _Run(args)
        code = args.func(args, run)
        run.finish()
        return code
    except SystemExit as exc:  # argparse: --help, --version or a flag it rejects
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (_UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SlopeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
