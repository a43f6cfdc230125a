"""Correctness checks on slope_lab's outputs, computed apart from the program.

Nothing here imports slope_lab.  Each check recomputes what the output
must be from the paper's published numbers or from the Cauchy and binomial
likelihoods written out again, and returns a list of problems (empty when
the output is right).  Tolerances are set from the arithmetic involved or,
for Monte Carlo figures, from the Monte Carlo error.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

import numpy as np

# The published Cauchy median table.  Columns: lambda_median,
# lambda_median_score, lambda_full_score, eff_median (%),
# eff_median_score (%), n_median, n_median_score.
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
# Published raw coverage errors at n = 15 (100,000 replicates, rounded to 0.1%).
RAW_TARGETS = {"wald_expected": 0.075, "wald_observed": 0.069, "lrt": 0.056}
PUBLISHED_REPS = 100_000
METHODS = ("wald_expected", "wald_observed", "lrt")
SUFFIX = {"wald_expected": "we", "wald_observed": "wo", "lrt": "lrt"}

N15 = 15
LAMBDA_MEDIAN_15 = TABLE1[15][0]
LAMBDA_MEDIAN_SCORE_15 = TABLE1[15][1]
INFO_15 = N15 / 2.0
Z95 = NormalDist().inv_cdf(0.975)
# Monte Carlo agreement is asked for within this many standard errors.
MC_SIGMAS = 5.0


# ---------------------------------------------------------------------------
# the Cauchy location likelihood, written out again
# ---------------------------------------------------------------------------


def loglik(x, thetas):
    """Cauchy log-likelihood (constants dropped) of sample x at each theta."""
    t = np.asarray(x, dtype=float)[None, :] - np.atleast_1d(np.asarray(thetas, dtype=float))[:, None]
    return -np.log1p(t * t).sum(axis=1)


def score(x, theta):
    t = np.asarray(x, dtype=float) - theta
    return float(np.sum(2.0 * t / (t * t + 1.0)))


def neg_second_derivative(x, theta):
    t = np.asarray(x, dtype=float) - theta
    return float(np.sum(2.0 * (1.0 - t * t) / (t * t + 1.0) ** 2))


def kl_from_width(width):
    """KL length of a Cauchy location interval of the given width."""
    half = np.asarray(width, dtype=float) / 2.0
    return np.log(half * half + 4.0) - math.log(4.0)


def cauchy_samples(seed, reps, n, theta=0.0):
    """The coverage experiment's samples: one Philox stream per (seed, replicate)."""
    x = np.empty((reps, n))
    for r in range(reps):
        u = np.random.Generator(np.random.Philox(key=[seed, r])).random(n)
        x[r] = theta + np.tan(math.pi * (u - 0.5))
    x.sort(axis=1)
    return x


def loglik_rows(x, thetas):
    """Log-likelihood of each row of x at its own theta."""
    t = x - np.asarray(thetas, dtype=float)[:, None]
    return -np.log1p(t * t).sum(axis=1)


# ---------------------------------------------------------------------------
# maximum likelihood and the LRT level set
# ---------------------------------------------------------------------------


def check_mle(x, theta_hat, label="sample"):
    """theta_hat is the global maximiser of the log-likelihood.

    A local maximum needs l'' < 0, so some |x_i - theta| < 1: the global
    mode lies in the union of the unit windows around the observations.
    The windows are scanned at step 1e-3 (plus the observations); the
    reported theta_hat must do at least as well as every grid point and
    be a stationary point.
    """
    x = np.asarray(x, dtype=float)
    if not math.isfinite(theta_hat):
        return [f"{label}: theta_hat {theta_hat} is not finite"]
    grid = np.concatenate([(x[:, None] + np.linspace(-1.0, 1.0, 2001)[None, :]).ravel(), x])
    best = float(np.max(loglik(x, grid)))
    at_hat = float(loglik(x, [theta_hat])[0])
    problems = []
    if at_hat < best - 1e-9 * (1.0 + abs(best)):
        problems.append(f"{label}: l(theta_hat={theta_hat:.12g}) = {at_hat:.12g} < grid max {best:.12g}")
    s = score(x, theta_hat)
    if abs(s) > 1e-6:
        problems.append(f"{label}: score {s:.3e} at theta_hat={theta_hat:.12g} is not 0")
    return problems


def check_obs_info(x, theta_hat, i_obs, label="sample"):
    want = neg_second_derivative(x, theta_hat)
    if not abs(i_obs - want) <= 1e-9 * max(1.0, abs(want)):
        return [f"{label}: observed info {i_obs!r} != -l''(theta_hat) = {want!r}"]
    return []


def lrt_hull(x, theta_hat, z):
    """Outermost roots of S(theta) = -z^2 around theta_hat, and whether the
    level set {S > -z^2} is disconnected at a 4001-point scan.

    Beyond the extreme observations the log-likelihood is monotone, so the
    scan runs from the data range (widened until S < -z^2) inward.
    """
    x = np.asarray(x, dtype=float)
    lmax = float(loglik(x, [theta_hat])[0])
    target = lmax - z * z / 2.0

    def inside(th):
        return loglik(x, np.atleast_1d(th)) > target

    ends = []
    disconnected = False
    for sgn in (-1.0, 1.0):
        far = (x[-1] if sgn > 0 else x[0]) + sgn * 1.0
        far = theta_hat + sgn * max(sgn * (far - theta_hat), 1.0)
        while inside(far)[0]:
            far = theta_hat + 2.0 * (far - theta_hat)
        scan = np.linspace(theta_hat, far, 4001)
        ins = inside(scan)
        last = int(np.nonzero(ins)[0][-1])
        if not ins[: last + 1].all():
            disconnected = True
        lo_b, hi_b = float(scan[last]), float(scan[last + 1])
        for _ in range(200):
            mid = 0.5 * (lo_b + hi_b)
            if mid in (lo_b, hi_b):
                break
            if inside(mid)[0]:
                lo_b = mid
            else:
                hi_b = mid
        ends.append(0.5 * (lo_b + hi_b))
    return ends[0], ends[1], disconnected


def check_lrt_interval(x, theta_hat, lo, hi, z, label="sample"):
    """S = -z^2 at both endpoints, S < -z^2 just outside and beyond them."""
    x = np.asarray(x, dtype=float)
    lmax = float(loglik(x, [theta_hat])[0])

    def S(th):
        return 2.0 * (loglik(x, np.atleast_1d(th)) - lmax)

    problems = []
    z2 = z * z
    for name, end, sgn in (("lo", lo, -1.0), ("hi", hi, 1.0)):
        s_end = float(S(end)[0])
        if abs(s_end + z2) > 1e-6:
            problems.append(f"{label}: S({name}={end:.12g}) = {s_end:.9g}, not -z^2 = {-z2:.9g}")
        eps = 1e-6 * (1.0 + abs(end))
        reach = max(abs(x[-1] - end), abs(end - x[0])) + 2.0
        beyond = end + sgn * (eps + np.linspace(0.0, reach, 4001))
        if np.any(S(beyond) >= -z2):
            problems.append(f"{label}: S >= -z^2 outside the reported {name} endpoint {end:.12g}")
    return problems


def check_kl(lo, hi, kl, label="interval"):
    want = float(kl_from_width(hi - lo))
    if not abs(kl - want) <= 1e-8 * max(1.0, abs(want)):
        return [f"{label}: KL length {kl!r} != log((w/2)^2 + 4) - log 4 = {want!r}"]
    return []


# ---------------------------------------------------------------------------
# the coverage experiment's outputs
# ---------------------------------------------------------------------------


def read_csv(text):
    """(schema, header, rows as lists of strings) of a slope-lab CSV."""
    lines = text.replace("\r\n", "\n").rstrip("\n").split("\n")
    if not lines or not lines[0].startswith("#schema="):
        raise ValueError("missing #schema line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0][len("#schema="):], rows[0], rows[1:]


def read_replicates(text):
    schema, header, rows = read_csv(text)
    want = ["rep", "theta_hat", "i_obs", "hit_we", "hit_wo", "hit_lrt", "kl_we", "kl_wo", "kl_lrt"]
    if schema != "slope_lab.replicates.v1" or header != want:
        raise ValueError(f"unexpected replicate table layout: {schema} {header}")
    a = np.array(rows, dtype=float).reshape(-1, len(want))
    return {name: a[:, j] for j, name in enumerate(want)}


def failed_rows(table):
    """Replicates the program counts as failed: no finite MLE or i_obs <= 0."""
    return ~np.isfinite(table["theta_hat"]) | ~(table["i_obs"] > 0.0)


def rows(table, mask):
    return {name: col[mask] for name, col in table.items()}


def check_replicate_columns(x, table, z, theta0=0.0, n=N15):
    """Per-replicate checks over the replicates that did not fail, vectorised.

    Returns (problems, lrt mismatches): rows where hit_lrt disagrees with
    2(l(theta_hat) - l(theta0)) < z^2.  A mismatch is allowed only where the
    level set is disconnected, which the caller decides with lrt_hull.
    """
    problems = []
    reps = x.shape[0]
    th = table["theta_hat"]
    t = x - th[:, None]
    info = np.sum(2.0 * (1.0 - t * t) / (t * t + 1.0) ** 2, axis=1)
    sc = np.sum(2.0 * t / (t * t + 1.0), axis=1)
    bad = np.nonzero(np.abs(table["i_obs"] - info) > 1e-9 * np.maximum(1.0, np.abs(info)))[0]
    if bad.size:
        problems.append(f"i_obs != -l''(theta_hat) for {bad.size} replicates (first rep {bad[0]})")
    bad = np.nonzero(~(np.abs(sc) <= 1e-6))[0]
    if bad.size:
        problems.append(f"score(theta_hat) != 0 for {bad.size} replicates (first rep {bad[0]})")
    half_we = z / math.sqrt(n / 2.0)
    half_wo = z / np.sqrt(table["i_obs"])
    hit_we = (th - half_we < theta0) & (theta0 < th + half_we)
    hit_wo = (th - half_wo < theta0) & (theta0 < th + half_wo)
    for name, got, want in (("hit_we", table["hit_we"], hit_we), ("hit_wo", table["hit_wo"], hit_wo)):
        bad = np.nonzero((got != 0) != want)[0]
        if bad.size:
            problems.append(f"{name} wrong for {bad.size} replicates (first rep {bad[0]})")
    for name, got, width in (("kl_we", table["kl_we"], 2.0 * half_we), ("kl_wo", table["kl_wo"], 2.0 * half_wo)):
        want = kl_from_width(width)
        bad = np.nonzero(~(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want)))[0]
        if bad.size:
            problems.append(f"{name} wrong for {bad.size} replicates (first rep {bad[0]})")
    lr = 2.0 * (loglik_rows(x, th) - loglik_rows(x, np.full(reps, theta0)))
    mismatches = np.nonzero((table["hit_lrt"] != 0) != (lr < z * z))[0]
    return problems, mismatches


def adjudicate_lrt_mismatches(x, table, mismatches, z):
    """Split hit_lrt mismatches into allowed ones (the LRT level set is
    disconnected, so the program reports its hull) and problems."""
    problems, disconnected = [], 0
    for i in mismatches:
        if lrt_hull(x[i], table["theta_hat"][i], z)[2]:
            disconnected += 1
        else:
            problems.append(f"hit_lrt of rep {int(table['rep'][i])} disagrees with 2(l(theta_hat) - l(theta0)) < z^2")
    return problems, disconnected


def check_summary_csv(text, table, z, n=N15):
    schema, header, rows = read_csv(text)
    if schema != "slope_lab.sim_summary.v1":
        return [f"summary schema {schema}"]
    if [r[0] for r in rows] != list(METHODS):
        return [f"summary methods {[r[0] for r in rows]}"]
    problems = []
    widths = {
        "we": np.full(table["rep"].size, 2.0 * z / math.sqrt(n / 2.0)),
        "wo": 2.0 * z / np.sqrt(table["i_obs"]),
        "lrt": 4.0 * np.sqrt(np.expm1(table["kl_lrt"])),
    }
    for row in rows:
        sfx = SUFFIX[row[0]]
        err = 1.0 - float(np.mean(table["hit_" + sfx]))
        want = (err, math.sqrt(err * (1.0 - err) / table["rep"].size), float(np.mean(table["kl_" + sfx])),
                float(np.mean(widths[sfx])))
        got = [float(v) for v in row[1:5]]
        for col, g, w in zip(header[1:5], got, want):
            if not abs(g - w) <= 1e-9 * max(1.0, abs(w)):
                problems.append(f"summary {row[0]} {col} = {g!r}, recomputed {w!r}")
    return problems


def check_bins_csv(text, table, bins):
    schema, header, rows = read_csv(text)
    if schema != "slope_lab.sim_bins.v1" or len(rows) != bins:
        return [f"bins table: schema {schema}, {len(rows)} rows for {bins} bins"]
    order = np.argsort(table["i_obs"], kind="stable")
    m = order.size
    sizes = [m // bins + (1 if b < m % bins else 0) for b in range(bins)]
    problems, start = [], 0
    for b, row in enumerate(rows):
        idx = order[start : start + sizes[b]]
        start += sizes[b]
        want = [b, table["i_obs"][idx[0]], table["i_obs"][idx[-1]], idx.size]
        for method in METHODS:
            e = 1.0 - float(np.mean(table["hit_" + SUFFIX[method]][idx]))
            want += [e, math.sqrt(max(e * (1.0 - e), 0.0) / idx.size)]
        got = [float(v) for v in row]
        if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
            problems.append(f"bin {b}: {got} != recomputed {want}")
    return problems


def check_qq_csv(text, x, table, theta0=0.0):
    schema, header, rows = read_csv(text)
    want_header = ["normal_quantile", "signed_root_lrt", "standardized_score_at_true", "median_standardized"]
    if schema != "slope_lab.sim_qq.v1" or header != want_header:
        return [f"qq table layout {schema} {header}"]
    got = np.array(rows, dtype=float)
    m = x.shape[0]
    if got.shape != (m, 4):
        return [f"qq table has shape {got.shape}, expected ({m}, 4)"]
    nd = NormalDist()
    q = np.array([nd.inv_cdf((i + 0.5) / m) for i in range(m)])
    th = table["theta_hat"]
    lr = 2.0 * (loglik_rows(x, th) - loglik_rows(x, np.full(m, theta0)))
    signed = np.sort(np.sign(th - theta0) * np.sqrt(np.maximum(lr, 0.0)))
    t0 = x - theta0
    sc = np.sort(np.sum(2.0 * t0 / (t0 * t0 + 1.0), axis=1) / math.sqrt(x.shape[1] / 2.0))
    med = np.sort((x[:, x.shape[1] // 2] - theta0) * math.sqrt(LAMBDA_MEDIAN_15))
    problems = []
    for name, col, want, rtol, atol in (
        ("normal_quantile", got[:, 0], q, 1e-12, 1e-12),
        ("signed_root_lrt", got[:, 1], signed, 1e-9, 1e-6),
        ("standardized_score_at_true", got[:, 2], sc, 1e-9, 1e-12),
        ("median_standardized", got[:, 3], med, 1e-5, 1e-9),
    ):
        if not np.allclose(col, want, rtol=rtol, atol=atol):
            worst = float(np.max(np.abs(col - want)))
            problems.append(f"qq column {name} differs from the recomputed one by up to {worst:.3e}")
    return problems


def coverage_error_problems(hits, totals):
    """Pooled coverage errors within Monte Carlo error of the published ones.

    The allowance is MC_SIGMAS combined standard errors of this run and of
    the published 100,000-replicate run, plus the published rounding.
    """
    problems = []
    for method in METHODS:
        n = totals
        err = 1.0 - hits[method] / n
        p = RAW_TARGETS[method]
        se = math.sqrt(p * (1.0 - p) / n + p * (1.0 - p) / PUBLISHED_REPS)
        if abs(err - p) > MC_SIGMAS * se + 0.0005:
            problems.append(
                f"{method} coverage error {err:.5f} over {n} replicates is not within "
                f"{MC_SIGMAS:g} SE ({se:.5f}) of the published {p}"
            )
    return problems


# ---------------------------------------------------------------------------
# the exact tables
# ---------------------------------------------------------------------------


def check_table1(text):
    schema, header, rows = read_csv(text)
    if schema != "slope_lab.table1.v1" or len(header) != 9:
        return [f"table1 layout {schema} {header}"]
    ns = [int(float(r[0])) for r in rows]
    if ns != sorted(TABLE1):
        return [f"table1 rows are n = {ns}, expected {sorted(TABLE1)}"]
    problems = []
    tols = (1e-3, 1e-3, 0.0, 0.05, 0.05, 0.05, 0.05)
    for row in rows:
        n = int(float(row[0]))
        got = [float(v) for v in row[1:8]]
        for col, g, w, tol in zip(header[1:8], got, TABLE1[n], tols):
            if not abs(g - w) <= tol:
                problems.append(f"table1 n={n} {col} = {g!r}, published {w}")
        if int(float(row[8])) != int(n in (1, 3)):
            problems.append(f"table1 n={n} variance_diverges = {row[8]}")
    return problems


def binomial_rho2(n, p, u):
    """Squared correlation of u(Y) with the Bernoulli(n) score, Y ~ Bin(n, p).

    This is the Lambda-efficiency of u's lift: the score is linear in y.
    """
    y = np.arange(n + 1)
    w = np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
    uy = np.array([u(k) for k in range(n + 1)], dtype=float)
    mu, my = w @ uy, w @ y
    cov = w @ ((uy - mu) * (y - my))
    return cov * cov / ((w @ (uy - mu) ** 2) * (w @ (y - my) ** 2))


BERNOULLI_STATISTICS = (
    ("eff_y", lambda y: float(y)),
    ("eff_y_times_ym1", lambda y: float(y * (y - 1))),
    ("eff_y_squared", lambda y: float(y * y)),
)


def check_bernoulli_eff(text, n):
    schema, header, rows = read_csv(text)
    if schema != "slope_lab.bernoulli_eff.v1" or header != ["p"] + [s for s, _ in BERNOULLI_STATISTICS]:
        return [f"bernoulli-eff layout {schema} {header}"]
    problems = []
    for row in rows:
        p, *effs = (float(v) for v in row)
        for (name, u), got in zip(BERNOULLI_STATISTICS, effs):
            want = binomial_rho2(n, p, u)
            if not 0.0 <= got <= 1.0 + 1e-12:
                problems.append(f"bernoulli-eff {name} at p={p} is {got!r}, outside [0, 1]: Lambda > I")
            if not abs(got - want) <= 1e-9:
                problems.append(f"bernoulli-eff {name} at p={p} is {got!r}, binomial sums give {want!r}")
        if not abs(effs[0] - 1.0) <= 1e-12:
            problems.append(f"bernoulli-eff eff_y at p={p} is {effs[0]!r}, not 1")
    if not rows:
        problems.append("bernoulli-eff table is empty")
    return problems


def check_curves(text, n):
    """The standardized Bernoulli score (y - np) / sqrt(np(1-p)) on the p grid."""
    schema, header, rows = read_csv(text)
    if schema != "slope_lab.curves.v1" or header != ["p"] + [f"shat_y{y}" for y in range(n + 1)]:
        return [f"curves layout {schema} {header}"]
    problems = []
    for row in rows:
        p, *vals = (float(v) for v in row)
        want = [(y - n * p) / math.sqrt(n * p * (1.0 - p)) for y in range(n + 1)]
        if not np.allclose(vals, want, rtol=1e-9, atol=1e-12):
            problems.append(f"curves row p={p} differs from (y - np)/sqrt(np(1-p))")
    return problems


def check_median_quadrature(median, score):
    """slope_report of the sample median and of the score on CauchyMedian(7).

    ``median`` and ``score`` map lam, rho2, eff_lambda, eff_n and
    identity_residual to per-theta lists.
    """
    problems = []
    lam, rho2 = np.asarray(median["lam"]), np.asarray(median["rho2"])
    info = np.asarray(score["lam"])
    if not np.allclose(lam, LAMBDA_MEDIAN_15, atol=1e-3):
        problems.append(f"quadrature Lambda(median) {lam} is not the published {LAMBDA_MEDIAN_15}")
    if not np.allclose(info, LAMBDA_MEDIAN_SCORE_15, atol=1e-3):
        problems.append(f"quadrature Lambda(score) {info} is not the published {LAMBDA_MEDIAN_SCORE_15}")
    if not np.allclose(lam, rho2 * info, rtol=1e-7):
        problems.append(f"Lambda(median) {lam} != rho^2 * I = {rho2 * info}")
    if np.any(lam > info * (1.0 + 1e-9)):
        problems.append(f"Lambda(median) {lam} exceeds I = {info}")
    if not np.allclose(np.asarray(score["rho2"]), 1.0, atol=1e-12):
        problems.append(f"rho^2(score) {score['rho2']} is not 1")
    if not np.allclose(median["eff_lambda"], lam / INFO_15, rtol=1e-12):
        problems.append("eff_lambda(median) is not Lambda / (n/2)")
    if not np.allclose(median["eff_n"], lam / INFO_15 * N15, rtol=1e-12):
        problems.append("eff_n(median) is not n * Lambda / (n/2)")
    for name, rep in (("median", median), ("score", score)):
        if np.max(np.abs(rep["identity_residual"])) > 1e-8:
            problems.append(f"identity residual of the {name}: {rep['identity_residual']}")
        if np.ptp(rep["lam"]) > 1e-7 * abs(np.mean(rep["lam"])):
            problems.append(f"Lambda({name}) differs across the location grid: {rep['lam']}")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo on the full Cauchy sample
# ---------------------------------------------------------------------------


def median_mc_moments(draws=200_000, seed=20220807):
    """Moments of the n = 15 Cauchy median and score, from draws made here.

    Returns the variance V of the median, the variance of the sample
    variance's summand, the standard deviation of median * score and of
    score^2, all at theta = 0: the inputs to Monte Carlo standard errors.
    """
    rng = np.random.default_rng(seed)
    x = np.sort(rng.standard_cauchy((draws, N15)), axis=1)
    med = x[:, N15 // 2]
    s = np.sum(2.0 * x / (x * x + 1.0), axis=1)
    v = float(np.var(med))
    return {
        "var_median": v,
        "var_sq_dev": float(np.var((med - med.mean()) ** 2)),
        "sd_median_score": float(np.std(med * s)),
        "sd_score_sq": float(np.std(s * s)),
    }


def check_median_mc(report, score_residuals, mc_draws, moments):
    """Monte Carlo slope_report of the median on CauchyLocation(15).

    Lambda = 1 / V(median) must match the published lambda_median within
    its Monte Carlo error, stay below I = n/2, equal rho^2 * I within the
    error of the covariance E[g * score], and be the same at every theta
    (the location family shares its draws across theta).
    """
    problems = []
    lam, rho2 = np.asarray(report["lam"]), np.asarray(report["rho2"])
    v = moments["var_median"]
    se_lam = math.sqrt(moments["var_sq_dev"] / mc_draws) / (v * v)
    se_cov = moments["sd_median_score"] / math.sqrt(mc_draws)
    se_score = moments["sd_score_sq"] / math.sqrt(mc_draws)
    if np.any(np.abs(lam - LAMBDA_MEDIAN_15) > MC_SIGMAS * se_lam):
        problems.append(
            f"MC Lambda(median) {lam} not within {MC_SIGMAS:g} SE ({se_lam:.4f}) of {LAMBDA_MEDIAN_15}"
        )
    if np.any(lam >= INFO_15):
        problems.append(f"MC Lambda(median) {lam} is not below I = {INFO_15}")
    if np.any(np.abs(rho2 * INFO_15 - lam) > MC_SIGMAS * 2.0 * se_cov / v):
        problems.append(f"MC Lambda(median) {lam} != rho^2 * I = {rho2 * INFO_15} within MC error")
    if np.ptp(lam) > 1e-8 * abs(float(np.mean(lam))):
        problems.append(f"MC Lambda(median) differs across the location grid: {lam}")
    if not np.allclose(report["eff_lambda"], lam / INFO_15, rtol=1e-12):
        problems.append("MC eff_lambda(median) is not Lambda / (n/2)")
    if np.any(np.asarray(report["identity_residual"]) > MC_SIGMAS * se_cov):
        problems.append(f"median identity residual {report['identity_residual']} exceeds MC error {se_cov:.4f}")
    if np.any(np.asarray(score_residuals) > MC_SIGMAS * se_score):
        problems.append(f"score identity residual {score_residuals} exceeds MC error {se_score:.4f}")
    return problems
