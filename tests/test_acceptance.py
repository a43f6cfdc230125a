"""End-to-end acceptance battery.

One test per published claim or structural guarantee, at full scale:
the Cauchy median comparison table, the 100,000-replicate coverage
experiment (raw and adjusted), the binned-coverage property, Bernoulli
exactness, the differentiation-identity and invariance batteries, the
interval coincidences, the MLE oracle, and the Q-Q ordering.  The tests
on the 100,000-replicate experiment and the oracle are marked ``slow``.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import slope_lab as sl
from slope_lab.mc import _draw_batch

# -- published Cauchy median table -------------------------------------------
# columns: lambda_median, lambda_median_score, lambda_full_score,
#          eff_median (%), eff_median_score (%), n_median, n_median_score
TABLE1 = {
    1: (0.0, 0.50000, 0.5, 0.0, 100.0, 0.0, 1.0),
    3: (0.0, 1.09064, 1.5, 0.0, 72.71, 0.0, 2.2),
    5: (0.81883, 1.74552, 2.5, 32.75, 69.82, 1.6, 3.5),
    7: (1.63377, 2.44042, 3.5, 46.68, 69.73, 3.3, 4.9),
    9: (2.44703, 3.16164, 4.5, 54.38, 70.26, 4.9, 6.3),
    11: (3.25942, 3.90109, 5.5, 59.26, 70.93, 6.5, 7.8),
    13: (4.07130, 4.65369, 6.5, 62.64, 71.60, 8.1, 9.3),
    15: (4.88286, 5.41608, 7.5, 65.10, 72.21, 9.8, 10.8),
    17: (5.69418, 6.18596, 8.5, 66.99, 72.78, 11.4, 12.4),
    19: (6.50538, 6.96171, 9.5, 68.48, 73.28, 13.0, 13.9),
    21: (7.31647, 7.74214, 10.5, 69.68, 73.73, 14.6, 15.5),
    23: (8.12744, 8.52636, 11.5, 70.67, 74.14, 16.3, 17.1),
    25: (8.93839, 9.31370, 12.5, 71.51, 74.51, 17.9, 18.6),
    27: (9.74925, 10.10363, 13.5, 72.22, 74.84, 19.5, 20.2),
    29: (10.56011, 10.89574, 14.5, 72.83, 75.14, 21.1, 21.8),
    31: (11.37087, 11.68970, 15.5, 73.36, 75.42, 22.7, 23.4),
}

REPS = 100_000
RAW_TARGETS = {"wald_expected": 0.075, "wald_observed": 0.069, "lrt": 0.056}
KL_TARGETS = {"wald_expected": 0.141, "wald_observed": 0.140, "lrt": 0.135}


@pytest.fixture(scope="module")
def raw_summary():
    return sl.run_coverage(sl.SimConfig(n=15, reps=REPS, seed=0))


@pytest.fixture(scope="module")
def adjusted_summary(raw_summary):
    return sl.readjust(raw_summary, sl.PAPER_ADJUSTMENTS)


def test_cauchy_median_table():
    t0 = time.monotonic()
    for n, row in TABLE1.items():
        r = sl.cauchy_table_row(n)
        lam_m, lam_ms, lam_f, eff_m, eff_ms, n_m, n_ms = row
        assert r.lam_median == pytest.approx(lam_m, abs=1e-3), f"n={n}"
        assert r.lam_median_score == pytest.approx(lam_ms, abs=1e-3), f"n={n}"
        assert r.lam_full_score == lam_f, f"n={n}"
        assert r.eff_median == pytest.approx(eff_m, abs=0.05), f"n={n}"
        assert r.eff_median_score == pytest.approx(eff_ms, abs=0.05), f"n={n}"
        assert r.n_median == pytest.approx(n_m, abs=0.05), f"n={n}"
        assert r.n_median_score == pytest.approx(n_ms, abs=0.05), f"n={n}"
        assert r.variance_diverges == (n in (1, 3)), f"n={n}"
    assert time.monotonic() - t0 < 60.0


@pytest.mark.slow
def test_raw_coverage_errors(raw_summary):
    for method, target in RAW_TARGETS.items():
        err = raw_summary.coverage_error[method]
        assert err == pytest.approx(target, abs=0.003), method


@pytest.mark.slow
def test_adjusted_coverage_equalizes_at_nominal(adjusted_summary, raw_summary):
    # The published width adjustments widen the two Wald intervals until
    # their coverage error matches the LRT's own raw error at n = 15, not
    # the 5% nominal level; the LRT multiplier is 1.  So every adjusted
    # method should sit at the published raw LRT error (0.056 in
    # RAW_TARGETS), within the tolerance test_raw_coverage_errors uses,
    # and the adjusted LRT run is the raw one unchanged.
    for method in ("wald_expected", "wald_observed", "lrt"):
        err = adjusted_summary.coverage_error[method]
        assert err == pytest.approx(RAW_TARGETS["lrt"], abs=0.003), method
    assert adjusted_summary.coverage_error["lrt"] == raw_summary.coverage_error["lrt"]


@pytest.mark.slow
def test_adjusted_mean_kl_lengths(adjusted_summary):
    for method, target in KL_TARGETS.items():
        assert adjusted_summary.mean_kl_length[method] == pytest.approx(
            target, abs=0.005
        ), method


@pytest.mark.slow
def test_coverage_binned_by_observed_info(raw_summary):
    bins = sl.bin_by_obs_info(raw_summary, 20)
    e = bins.coverage_error["wald_expected"]
    se = bins.coverage_se["wald_expected"]
    # the fixed-width interval misses systematically where the observed
    # information is low and over-covers where it is high
    assert e[0] > 0.05 + 3.0 * se[0]
    assert e[-1] < 0.05 - 3.0 * se[-1]
    assert np.all(np.abs(bins.coverage_error["lrt"] - 0.05) < 0.02)


def test_bernoulli_exactness():
    f = sl.Bernoulli(10)
    grid = np.linspace(0.02, 0.98, 97)
    p, e1, e2, _ = sl.bernoulli_efficiency_curves(10, grid)
    assert np.max(np.abs(e1 - 1.0)) < 1e-12
    assert np.all(e2[p <= 0.15] <= 0.8)
    # label swap y -> n - y maps u = y(y-1) to a different statistic
    # whose efficiency profile is the mirror image, not the same
    swapped = sl.lift_point_estimator(f, lambda y: float((10 - y) * (9 - y)))
    direct = sl.lift_point_estimator(f, lambda y: float(y * (y - 1)))
    assert abs(
        sl.lambda_efficiency(direct, 0.1) - sl.lambda_efficiency(swapped, 0.1)
    ) > 0.01
    # V(y/n) attains the Cramer-Rao bound exactly
    for pp in (0.1, 0.3, 0.5, 0.7):
        v = sl.variance(f, pp, lambda y: y / 10.0)
        assert v == pytest.approx(1.0 / f.fisher_info(pp), rel=1e-12)


def test_identity_battery():
    fb = sl.Bernoulli(10)
    fm = sl.CauchyMedian(7)
    cases = [sl.score_estimator(fb), sl.score_estimator(fm)]
    for u in (lambda y: float(y), lambda y: float(y * (y - 1)), lambda y: float(y * y)):
        cases.append(sl.lift_point_estimator(fb, u))
    cases.append(
        sl.lift_point_estimator(
            fm, lambda z: z, mean_fn=lambda th: th, mean_deriv=lambda th: 1.0
        )
    )
    for g in cases:
        for th in sl.default_grid(g.family):
            assert sl.check_identity(g, th) < 1e-6


def test_invariance_battery():
    # chart invariance of the efficiency and of the standardized score
    fp = sl.Bernoulli(10, chart="p")
    fo = sl.Bernoulli(10, chart="log_odds")
    gp = sl.lift_point_estimator(fp, lambda y: float(y * y))
    go = sl.lift_point_estimator(fo, lambda y: float(y * y))
    sp, so = sl.score_estimator(fp), sl.score_estimator(fo)
    for p in np.linspace(0.05, 0.95, 19):
        th = sl.reparam(fp, "p", "log_odds", p)
        assert abs(sl.lambda_efficiency(gp, p) - sl.lambda_efficiency(go, th)) < 1e-8
        for y in range(11):
            assert abs(sl.standardize(sp, p, y) - sl.standardize(so, th, y)) < 1e-8

    # slope invariance under g -> k(theta) g with k > 0
    base = sl.lift_point_estimator(fp, lambda y: float(y))
    k = lambda th: 2.0 + math.sin(th)
    dk = lambda th: math.cos(th)
    scaled = sl.GenEstimator(
        family=fp,
        evaluate=lambda y, th: k(th) * base.evaluate(y, th),
        deriv=lambda y, th: dk(th) * base.evaluate(y, th) + k(th) * base.deriv(y, th),
    )
    for p in np.linspace(0.05, 0.95, 19):
        assert abs(sl.squared_slope(scaled, p) - sl.squared_slope(base, p)) < 1e-8

    # lift invariance under the affine relabeling u -> 3u - 7
    affine = sl.lift_point_estimator(fp, lambda y: 3.0 * float(y) - 7.0)
    for p in np.linspace(0.05, 0.95, 19):
        assert abs(sl.squared_slope(affine, p) - sl.squared_slope(base, p)) < 1e-8

    # two-submanifold demonstration: on the bivariate slice the first
    # coordinate mean carries all the slope, the second carries none
    # even though both have variance 1/n
    fbv = sl.BivariateNormalSlice(6)
    g1 = sl.lift_point_estimator(
        fbv, lambda y: y[0], mean_fn=lambda th: th, mean_deriv=lambda th: 1.0
    )
    g2 = sl.lift_point_estimator(
        fbv, lambda y: y[1], mean_fn=lambda th: 0.0, mean_deriv=lambda th: 0.0
    )
    for th in (-1.0, 0.0, 2.0):
        assert sl.squared_slope(g1, th) == pytest.approx(6.0, rel=1e-10)
        assert sl.squared_slope(g2, th) == 0.0


def test_interval_equalities():
    # quadratic log-likelihood: score inversion and LRT inversion agree
    f = sl.NormalLocation(1.5, 7)
    z = float(stats.norm.ppf(0.975))
    for xbar in (-2.0, 0.0, 0.9):
        iv_s = sl.score_interval(f, xbar, z)
        iv_l = sl.lrt_interval(sl.lrt_estimate(f, xbar), z)
        assert iv_s.lo == pytest.approx(iv_l.lo, abs=1e-10)
        assert iv_s.hi == pytest.approx(iv_l.hi, abs=1e-10)
    # exact binomial tail inversion equals the Clopper-Pearson interval
    n, alpha = 10, 0.05
    for y in range(n + 1):
        iv = sl.exact_bernoulli_interval(n, y, alpha)
        lo = 0.0 if y == 0 else stats.beta.ppf(alpha / 2, y, n - y + 1)
        hi = 1.0 if y == n else stats.beta.ppf(1 - alpha / 2, y + 1, n - y)
        assert iv.lo == pytest.approx(lo, abs=1e-8)
        assert iv.hi == pytest.approx(hi, abs=1e-8)


@pytest.mark.slow
def test_cauchy_mle_oracle():
    samples = _draw_batch(123, 0, 1000, 15, 0.0)
    offsets = np.arange(1_000_000, dtype=float)
    for r in range(1000):
        x = samples[r]
        th = sl.cauchy_mle(x)
        ll_solver = -np.sum(np.log1p((x - th) ** 2))
        grid = x[0] + offsets * ((x[-1] - x[0]) / 999_999.0)
        ll = np.zeros_like(grid)
        for xi in x:
            ll -= np.log1p((xi - grid) ** 2)
        assert ll_solver >= float(ll.max()) - 1e-8, f"replicate {r}"


@pytest.mark.slow
def test_qq_ordering(raw_summary):
    gaps = {}
    for stat in ("signed_root_lrt", "median_standardized"):
        pairs = sl.qq_data(raw_summary, stat)
        central = np.abs(pairs[:, 0]) <= float(stats.norm.ppf(0.995))
        gaps[stat] = float(np.max(np.abs(pairs[central, 1] - pairs[central, 0])))
    assert gaps["signed_root_lrt"] < gaps["median_standardized"]
