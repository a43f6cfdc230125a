"""Each correctness check of the benchmark passes a right output and
rejects a corrupted one.  The outputs are built here from the paper's
numbers and the likelihoods, without slope_lab.

    python3 -m pytest bench
"""

import math

import numpy as np
import pytest

import checks

Z = checks.Z95


def own_mle(x):
    """Global Cauchy MLE: scan the unit windows, then bisect the score."""
    grid = np.concatenate([(x[:, None] + np.linspace(-1.0, 1.0, 2001)[None, :]).ravel(), x])
    g = grid[int(np.argmax(checks.loglik(x, grid)))]
    lo, hi = g - 2e-3, g + 2e-3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if checks.score(x, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def replicate_table(x):
    """A right replicate table for samples x at theta0 = 0, raw widths."""
    th = np.array([own_mle(row) for row in x])
    info = np.array([checks.neg_second_derivative(row, t) for row, t in zip(x, th)])
    half_we, half_wo = Z / math.sqrt(7.5), Z / np.sqrt(info)
    lrt = [checks.lrt_hull(row, t, Z) for row, t in zip(x, th)]
    lr = 2.0 * (checks.loglik_rows(x, th) - checks.loglik_rows(x, np.zeros(len(x))))
    return {
        "rep": np.arange(len(x), dtype=float),
        "theta_hat": th,
        "i_obs": info,
        "hit_we": ((th - half_we < 0) & (0 < th + half_we)).astype(float),
        "hit_wo": ((th - half_wo < 0) & (0 < th + half_wo)).astype(float),
        "hit_lrt": (lr < Z * Z).astype(float),
        "kl_we": checks.kl_from_width(np.full(len(x), 2.0 * half_we)),
        "kl_wo": checks.kl_from_width(2.0 * half_wo),
        "kl_lrt": checks.kl_from_width(np.array([hi - lo for lo, hi, _ in lrt])),
    }


@pytest.fixture(scope="module")
def samples():
    return checks.cauchy_samples(seed=7, reps=60, n=15)


def test_mle_check_rejects_theta_off_the_global_mode():
    # eight observations near 0 and seven near 10: two modes, the global one near 0
    x = np.sort(np.r_[np.linspace(-0.7, 0.7, 8), np.linspace(9.4, 10.6, 7)])
    th = own_mle(x)
    assert abs(th) < 1.0
    assert checks.check_mle(x, th) == []
    assert checks.check_mle(x, th + 0.05)
    local = 10.0
    for _ in range(80):  # damped Newton steps to the other local mode
        local += checks.score(x, local) / max(checks.neg_second_derivative(x, local), 1.0)
    assert checks.score(x, local) == pytest.approx(0.0, abs=1e-9)
    problems = checks.check_mle(x, local)
    assert problems and "grid max" in problems[0]


def test_obs_info_check_rejects_wrong_curvature():
    x = np.sort(np.random.default_rng(1).standard_cauchy(15))
    th = own_mle(x)
    info = checks.neg_second_derivative(x, th)
    assert checks.check_obs_info(x, th, info) == []
    assert checks.check_obs_info(x, th, info * (1 + 1e-6))


def test_table1_check_rejects_a_swapped_row():
    header = "n,lambda_median,lambda_median_score,lambda_full_score,eff_median_pct,eff_median_score_pct," \
             "n_eff_median,n_eff_median_score,variance_diverges"
    rows = [",".join([str(n)] + [repr(v) for v in vals] + [str(int(n in (1, 3)))])
            for n, vals in checks.TABLE1.items()]
    text = "\r\n".join(["#schema=slope_lab.table1.v1", header] + rows) + "\r\n"
    assert checks.check_table1(text) == []
    rows[2], rows[3] = rows[3], rows[2]
    swapped = "\r\n".join(["#schema=slope_lab.table1.v1", header] + rows) + "\r\n"
    assert checks.check_table1(swapped)
    # a row with the right n but another row's values
    rows[2], rows[3] = rows[3], rows[2]
    rows[2] = ",".join(["5"] + rows[3].split(",")[1:])
    assert checks.check_table1("\r\n".join(["#schema=slope_lab.table1.v1", header] + rows) + "\r\n")


def test_hit_lrt_check_rejects_a_flipped_hit(samples):
    table = replicate_table(samples)
    problems, mismatches = checks.check_replicate_columns(samples, table, Z)
    assert problems == [] and mismatches.size == 0
    table["hit_lrt"][5] = 1.0 - table["hit_lrt"][5]
    problems, mismatches = checks.check_replicate_columns(samples, table, Z)
    assert list(mismatches) == [5]
    problems, disconnected = checks.adjudicate_lrt_mismatches(samples, table, mismatches, Z)
    assert disconnected == 0 and len(problems) == 1


def test_wald_hit_check_rejects_a_flipped_hit(samples):
    table = replicate_table(samples)
    table["hit_wo"][3] = 1.0 - table["hit_wo"][3]
    problems, _ = checks.check_replicate_columns(samples, table, Z)
    assert any("hit_wo" in p for p in problems)


def test_kl_checks_reject_a_length_from_the_wrong_width(samples):
    x = samples[0]
    th = own_mle(x)
    lo, hi, disconnected = checks.lrt_hull(x, th, Z)
    assert not disconnected
    right = float(checks.kl_from_width(hi - lo))
    assert checks.check_kl(lo, hi, right) == []
    assert checks.check_kl(lo, hi, float(checks.kl_from_width(1.01 * (hi - lo))))
    table = replicate_table(samples)
    table["kl_wo"] = checks.kl_from_width(2.0 * Z / np.sqrt(table["i_obs"]) * 1.01)
    problems, _ = checks.check_replicate_columns(samples, table, Z)
    assert any("kl_wo" in p for p in problems)


def test_lrt_interval_check_rejects_an_inner_endpoint(samples):
    x = samples[1]
    th = own_mle(x)
    lo, hi, _ = checks.lrt_hull(x, th, Z)
    assert checks.check_lrt_interval(x, th, lo, hi, Z) == []
    assert checks.check_lrt_interval(x, th, lo, hi - 0.01, Z)


def bernoulli_eff_csv(n, grid, corrupt=None):
    lines = ["#schema=slope_lab.bernoulli_eff.v1", "p,eff_y,eff_y_times_ym1,eff_y_squared"]
    for p in grid:
        vals = [checks.binomial_rho2(n, p, u) for _, u in checks.BERNOULLI_STATISTICS]
        if corrupt is not None and p == grid[corrupt[0]]:
            vals[corrupt[1]] = corrupt[2]
        lines.append(",".join(f"{v:.17g}" for v in [p] + vals))
    return "\r\n".join(lines) + "\r\n"


def test_bernoulli_eff_check_rejects_lambda_above_info():
    grid = np.linspace(0.02, 0.98, 13)
    assert checks.check_bernoulli_eff(bernoulli_eff_csv(10, grid), 10) == []
    problems = checks.check_bernoulli_eff(bernoulli_eff_csv(10, grid, corrupt=(4, 1, 1.02)), 10)
    assert any("Lambda > I" in p for p in problems)


def test_median_quadrature_check_rejects_lambda_above_info():
    lam, info = checks.LAMBDA_MEDIAN_15, checks.LAMBDA_MEDIAN_SCORE_15
    median = {"lam": [lam] * 3, "rho2": [lam / info] * 3, "eff_lambda": [lam / 7.5] * 3,
              "eff_n": [lam / 7.5 * 15] * 3, "identity_residual": [1e-12] * 3}
    score = {"lam": [info] * 3, "rho2": [1.0] * 3, "eff_lambda": [info / 7.5] * 3,
             "eff_n": [info / 7.5 * 15] * 3, "identity_residual": [0.0] * 3}
    assert checks.check_median_quadrature(median, score) == []
    above = dict(median, lam=[info * 1.01] * 3, rho2=[1.01] * 3)
    assert any("exceeds I" in p for p in checks.check_median_quadrature(above, score))


def test_median_mc_check_rejects_lambda_above_info():
    moments = checks.median_mc_moments(draws=50_000)
    draws = 5000
    lam = checks.LAMBDA_MEDIAN_15
    report = {"lam": [lam, lam], "rho2": [lam / 7.5] * 2, "eff_lambda": [lam / 7.5] * 2,
              "eff_n": [lam / 7.5 * 15] * 2, "identity_residual": [0.001] * 2}
    assert checks.check_median_mc(report, [0.01, 0.01], draws, moments) == []
    above = dict(report, lam=[7.6, 7.6], rho2=[7.6 / 7.5] * 2, eff_lambda=[7.6 / 7.5] * 2)
    assert any("not below I" in p for p in checks.check_median_mc(above, [0.01, 0.01], draws, moments))


def test_coverage_error_check_rejects_nominal_errors():
    n = 30_000
    right = {m: round(n * (1.0 - p)) for m, p in checks.RAW_TARGETS.items()}
    assert checks.coverage_error_problems(right, n) == []
    nominal = {m: round(n * 0.95) for m in checks.METHODS}
    assert len(checks.coverage_error_problems(nominal, n)) == 2  # both Wald errors are off
