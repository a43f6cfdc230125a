"""slope-lab command line front end.

Emits plot-ready CSVs: the Cauchy median comparison table, the
Bernoulli efficiency curves, the standardized-score curve families,
the coverage simulation outputs, and a consistency-check battery.

Exit codes: 0 ok, 1 property failure, 2 numerical failure, 3 usage.
Every command writes a JSON run manifest (written last) listing its
outputs, so a rerun with identical flags and seed can be verified
byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import DomainError, QuadratureError, SlopeLabError
from .families import Bernoulli, reparam
from .gcore import (
    bernoulli_efficiency_curves,
    cauchy_table_row,
    check_identity,
    default_grid,
    lambda_efficiency,
    lift_point_estimator,
    score_estimator,
    squared_slope,
    standardize,
)
from .mc import (
    BATCH,
    METHODS,
    PAPER_ADJUSTMENTS,
    SimConfig,
    bin_by_obs_info,
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


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, schema: str, header: list, rows) -> None:
    lines = [f"#schema={schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    path.write_text("\r\n".join(lines) + "\r\n")


class _Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.flags = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
        self.outputs: list = []
        self.telemetry: dict = {}
        self.t0 = time.time()

    def add(self, path: Path) -> Path:
        self.outputs.append(str(path))
        return path

    def write(self, path: Path) -> None:
        doc = {
            "command": self.command,
            "flags": {k: (str(v) if isinstance(v, Path) else v) for k, v in self.flags.items()},
            "seed": self.flags.get("seed"),
            "version": __version__,
            "outputs": self.outputs,
            "wall_seconds": round(time.time() - self.t0, 3),
        }
        if self.telemetry:
            doc["telemetry"] = self.telemetry
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _manifest_path(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".manifest.json")


class _UsageError(DomainError):
    """A flag value no run can use: exit 3 before anything is written."""


def _require_positive(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise _UsageError(f"--{flag} must be positive, got {getattr(args, flag)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_table1(args: argparse.Namespace) -> int:
    ns = range(1, args.n_max + 1, 2)
    if not ns or ns[-1] > 31:
        raise _UsageError(f"--n-max must lie in [1, 31] (the rows are the odd n up to it), got {args.n_max}")
    man = _Manifest("table1", args)
    out = Path(args.out)
    rows = []
    for n in ns:
        try:
            r = cauchy_table_row(n)
        except QuadratureError as exc:
            print(f"quadrature failure at row n={n}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        rows.append(
            (
                r.n,
                r.lam_median,
                r.lam_median_score,
                r.lam_full_score,
                r.eff_median,
                r.eff_median_score,
                r.n_median,
                r.n_median_score,
                int(r.variance_diverges),
            )
        )
    _write_csv(
        man.add(out),
        "slope_lab.table1.v1",
        [
            "n",
            "lambda_median",
            "lambda_median_score",
            "lambda_full_score",
            "eff_median_pct",
            "eff_median_score_pct",
            "n_eff_median",
            "n_eff_median_score",
            "variance_diverges",
        ],
        rows,
    )
    man.write(_manifest_path(out))
    return EXIT_OK


def cmd_bernoulli_eff(args: argparse.Namespace) -> int:
    _require_positive(args, "n", "grid")
    man = _Manifest("bernoulli-eff", args)
    out = Path(args.out)
    grid = np.linspace(0.02, 0.98, args.grid)
    p, e1, e2, e3 = bernoulli_efficiency_curves(args.n, grid)
    _write_csv(
        man.add(out),
        "slope_lab.bernoulli_eff.v1",
        ["p", "eff_y", "eff_y_times_ym1", "eff_y_squared"],
        zip(p, e1, e2, e3),
    )
    man.write(_manifest_path(out))
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    if args.family != "bernoulli":
        print(f"curves requires a finite sample space; family {args.family!r} unsupported", file=sys.stderr)
        return EXIT_USAGE
    _require_positive(args, "n", "grid")
    man = _Manifest("curves", args)
    out = Path(args.out)
    f = Bernoulli(args.n, chart=args.param_chart)
    grid = default_grid(f, args.grid)
    s = score_estimator(f)
    rows = []
    for th in grid:
        rows.append([th] + [standardize(s, th, y) for y in range(f.n + 1)])
    _write_csv(
        man.add(out),
        "slope_lab.curves.v1",
        [args.param_chart] + [f"shat_y{y}" for y in range(f.n + 1)],
        rows,
    )
    man.write(_manifest_path(out))
    return EXIT_OK


def cmd_cauchy_sim(args: argparse.Namespace) -> int:
    man = _Manifest("cauchy-sim", args)
    try:
        workers = threads_from_env()
        cfg = SimConfig(n=args.n, reps=args.reps, seed=args.seed)
        median_sd(args.n)  # the Q-Q file's median column needs it finite
        if not 1 <= args.bins <= args.reps:
            raise DomainError(f"--bins must lie in [1, --reps={args.reps}], got {args.bins}")
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    summary = run_coverage(cfg, workers=workers)
    summary = readjust(summary, PAPER_ADJUSTMENTS) if args.adjusted else summary
    man.telemetry = {
        "stage_seconds": {k: round(v, 6) for k, v in summary.stage_seconds.items()},
        "counters": summary.counters,
        "failed_replicates": summary.n_failures,
        "threads": workers,
        "batch": BATCH,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)

    summary_rows = [
        (m, summary.coverage_error[m], summary.coverage_se[m], summary.mean_kl_length[m], summary.mean_width[m])
        for m in METHODS
    ]
    _write_csv(
        man.add(prefix.with_name(prefix.name + "_summary.csv")),
        "slope_lab.sim_summary.v1",
        ["method", "coverage_error", "coverage_se", "mean_kl_length", "mean_width"],
        summary_rows,
    )

    binned = bin_by_obs_info(summary, args.bins)
    bin_rows = []
    for b in range(args.bins):
        row = [b, binned.edges_lo[b], binned.edges_hi[b], binned.counts[b]]
        for m in METHODS:
            row += [binned.coverage_error[m][b], binned.coverage_se[m][b]]
        bin_rows.append(row)
    _write_csv(
        man.add(prefix.with_name(prefix.name + "_bins.csv")),
        "slope_lab.sim_bins.v1",
        ["bin", "i_obs_lo", "i_obs_hi", "count"]
        + [x for m in METHODS for x in (f"err_{m}", f"se_{m}")],
        bin_rows,
    )

    qq_cols, qq_header = [], []
    for stat in ("signed_root_lrt", "standardized_score_at_true", "median_standardized"):
        pairs = qq_data(cfg, stat, summary=summary)
        if not qq_cols:
            qq_cols.append(pairs[:, 0])
            qq_header.append("normal_quantile")
        qq_cols.append(pairs[:, 1])
        qq_header.append(stat)
    _write_csv(
        man.add(prefix.with_name(prefix.name + "_qq.csv")),
        "slope_lab.sim_qq.v1",
        qq_header,
        zip(*qq_cols),
    )

    rep_path = man.add(prefix.with_name(prefix.name + "_replicates.csv"))
    rep_path.write_bytes(summary.csv_bytes())

    man.write(prefix.with_name(prefix.name + "_manifest.json"))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    man = _Manifest("check", args)
    if args.family == "bernoulli":
        f = Bernoulli(10)
    else:
        print(f"check battery supports the bernoulli family, got {args.family!r}", file=sys.stderr)
        return EXIT_USAGE
    _require_positive(args, "grid")
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
    for name, g in estimators.items():
        record(f"identity_{name}", max(check_identity(g, th) for th in grid), 1e-8)
    record(
        "fisher_bound",
        max(
            max(squared_slope(g, th) - f.fisher_info(th) * (1.0 + 1e-8) for th in grid)
            for g in estimators.values()
        ),
        1e-8,
    )
    f_lo = Bernoulli(10, chart="log_odds")
    g_p = lift_point_estimator(f, lambda y: float(y * y))
    g_lo = lift_point_estimator(f_lo, lambda y: float(y * y))
    record(
        "chart_invariance_eff",
        max(
            abs(lambda_efficiency(g_p, p) - lambda_efficiency(g_lo, reparam(f, "p", "log_odds", p)))
            for p in grid
        ),
        1e-8,
    )
    if args.out:
        out = Path(args.out)
        _write_csv(man.add(out), "slope_lab.check.v1", ["property", "worst", "tol", "ok"], results)
        man.write(_manifest_path(out))
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
        raise ValueError("--config needs a file path")
    path = Path(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    extra = []
    for line in path.read_text().splitlines():
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
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bernoulli-eff", help="Bernoulli efficiency curves")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--grid", type=int, default=97)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_bernoulli_eff)

    p = sub.add_parser("curves", help="standardized score curves over a grid")
    p.add_argument("--family", default="bernoulli")
    p.add_argument("--param-chart", default="p", choices=["p", "log_odds"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--grid", type=int, default=97)
    p.add_argument("--out", type=Path, required=True)
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
    p.add_argument("--family", default="bernoulli")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
    except OSError as exc:
        print(f"cannot read config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
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
