"""Seeded coverage experiment for Cauchy location intervals.

Desk-scale version of the full 100,000-replicate run (pass --reps to
change it).  For each replicate we draw 15 Cauchy observations, find
the global MLE, build the two Wald intervals and the LRT interval, and
record whether they cover the truth.  Binning the replicates by
observed information shows *where* the fixed-width interval fails:
almost all of its misses happen in the low-information bins.
"""

import argparse

import numpy as np
from scipy import stats

import slope_lab as sl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = sl.SimConfig(n=15, reps=args.reps, seed=args.seed)
    summary = sl.run_coverage(cfg)

    print(f"{args.reps} replicates, n=15, nominal error 5%")
    print(f"{'method':<14} {'error %':>8} {'se %':>6} {'mean width':>11} "
          f"{'mean kl len':>12}")
    for m in sl.mc.METHODS:
        print(f"{m:<14} {100 * summary.coverage_error[m]:8.2f} "
              f"{100 * summary.coverage_se[m]:6.2f} "
              f"{summary.mean_width[m]:11.4f} {summary.mean_kl_length[m]:12.5f}")

    print()
    bins = sl.bin_by_obs_info(summary, 10)
    print("coverage error (%) by observed-information decile, low to high:")
    for m in ("wald_expected", "lrt"):
        vals = " ".join(f"{100 * e:5.1f}" for e in bins.coverage_error[m])
        print(f"  {m:<14} {vals}")
    print("The fixed-width interval misses where the data are least")
    print("informative; the LRT interval adapts and stays flat.")

    print()
    z995 = float(stats.norm.ppf(0.995))
    for stat in ("signed_root_lrt", "median_standardized"):
        pairs = sl.qq_data(summary, stat)
        central = np.abs(pairs[:, 0]) <= z995
        gap = float(np.max(np.abs(pairs[central, 1] - pairs[central, 0])))
        print(f"max central-99% Q-Q gap to the normal, {stat}: {gap:.4f}")


if __name__ == "__main__":
    main()
