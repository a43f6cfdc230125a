"""Confidence intervals from generalized estimates.

Four constructions:

* score inversion: {theta : -k < sbar(theta) < k} for the standardized
  score, solved by bisection (may not exist for the Cauchy score, whose
  standardized value tends to 0 in both tails);
* likelihood-ratio inversion: the level set {theta : S(theta) > -z^2}
  of S(theta) = 2(l(theta) - l(theta_hat));
* Wald linearizations theta_hat +/- z / sqrt(info) with either the
  expected or the observed information as the slope;
* the exact Bernoulli interval obtained by inverting binomial tail
  areas, which coincides with the Clopper-Pearson interval.

The Cauchy likelihood can be multimodal.  Its local maxima all lie in
the unit windows [x_i - 1, x_i + 1] around the observations, because
l'' < 0 needs some |x_i - theta| < 1.  ``cauchy_mle_batch`` scans those
windows on a 0.1 lattice, bisects every + to - sign change of the score,
and certifies cell by cell, from l'' in [-2n, n/4] and
|l'''| <= (3/2 + sqrt 2) n, that no cell holds a better maximum: a
finite result is the global maximizer (ties to the smaller theta), and
a sample it cannot certify is reported as failed, never returned
unchecked.  The scalar ``cauchy_mle`` is that kernel on a batch of one.
The LRT level set is reported as its connected hull, with a flag when
it is actually a union of intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BracketError,
    CertificateError,
    CurvatureError,
    DomainError,
    NonexistenceError,
    NonMonotoneError,
)
from .families import (
    Bernoulli,
    CauchyLocation,
    CauchyMedian,
    Family,
    NormalLocation,
    cauchy_loglik,
    cauchy_obs_info,
    cauchy_offsets,
    cauchy_score,
)

METHOD_SCORE = "score_inversion"
METHOD_LRT = "lrt"
METHOD_WALD_EXPECTED = "wald_expected"
METHOD_WALD_OBSERVED = "wald_observed"
METHOD_EXACT_BERNOULLI = "exact_bernoulli"

_THETA_TOL = 1e-10
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    method: str
    level_k: float
    slope_b: Optional[float] = None
    adjustment: float = 1.0
    disconnected: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"degenerate interval ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, theta: float) -> bool:
        return self.lo < theta < self.hi


# ---------------------------------------------------------------------------
# Cauchy maximum likelihood
# ---------------------------------------------------------------------------


# Lattice step of the scan: 21 lattice points per unit window.
_CELL = 0.1
# Lattice points laid per window, from below x_i - 1 - _CELL to past
# x_i + 1 + _CELL, so rounding in floor() cannot leave a window edge bare.
_WINDOW_POINTS = 24
_BISECTIONS = 64
_MAX_HALVINGS = 40
_TIE_RTOL = 1e-12
_GRID_CHUNK = 1 << 16  # lattice points evaluated at once: 8 MiB per temporary at n = 15
# Beyond this the lattice index of an observation could overflow int64
# and the lattice would no longer cover its window.
_X_MAX = 1e15
# sup over t of |d/dt 2(t^2 - 1)/(t^2 + 1)^2|, reached at t = tan(pi/8),
# so |l'''(theta)| <= _L3 * n.
_L3 = 1.5 + math.sqrt(2.0)


@dataclass
class MleCounters:
    """Work and outcomes of ``cauchy_mle_batch``, summed over calls."""

    brackets: int = 0  # score sign changes bisected
    halved: int = 0  # cells split because no test closed them
    capped: int = 0  # samples with a cell still open after _MAX_HALVINGS rounds


def cauchy_mle_batch(x, counters: Optional[MleCounters] = None) -> np.ndarray:
    """Global Cauchy location MLE of every row of ``x`` (m samples by n).

    Guarantee: a finite result is a global maximizer of
    l(theta) = -sum log(1 + (x_i - theta)^2), up to rounding in l and a
    tie tolerance of 1e-12 (1 + |l|); among roots that tie, the smallest
    theta is returned.  A row that cannot be certified comes back NaN,
    never as an unchecked value.  The argument:

    * Every local maximum lies in the union of the unit windows
      [x_i - 1, x_i + 1], because l'' = sum 2(t_i^2 - 1)/(t_i^2 + 1)^2,
      t_i = x_i - theta, is negative only if some |t_i| < 1.
    * The windows are covered by the cells of a lattice of step h = 0.1
      (21 points per window, shared where windows overlap).  Every cell
      whose end scores go from + to - is bisected, all cells at once,
      down to adjacent floats; these roots are the candidates.
    * Every cell is then closed by one of three tests, which use
      l'' in [-2n, n/4] and |l'''| <= (3/2 + sqrt 2) n:
      score slope -- a score below -nh/4 at the left end or above nh/4
      at the right end keeps the score one sign across the cell, so it
      holds no maximum;
      upper bound -- l <= l(a) + max(0, s(a) h + n h^2/8) over [a, b]
      (or the mirror bound from b) lies below the best root;
      concavity -- the cell lies within |l''(r)| / ((3/2 + sqrt 2) n) of
      a root r, where l is strictly concave, so r is its only maximum.
    * A cell no test closes is halved and tested again, and halves whose
      end scores go from + to - are bisected too, at most 40 times.  A row
      with a cell still open after that is NaN and is counted in
      ``counters.capped``.  A row with an observation that is not finite
      or beyond +-1e15 is NaN as well; a constant row returns its value.
    """
    x = np.asarray(x, dtype=float)
    B, n = x.shape
    outside = ~(np.abs(x) <= _X_MAX).all(axis=1)
    if outside.any():
        x = np.where(outside[:, None], 0.0, x)
    first = np.floor((x - 1.0) / _CELL).astype(np.int64) - 1
    j = np.sort((first[:, :, None] + np.arange(_WINDOW_POINTS)).reshape(B, -1), axis=1)
    fresh = np.ones(j.shape, dtype=bool)
    fresh[:, 1:] = j[:, 1:] != j[:, :-1]
    row = np.nonzero(fresh)[0]
    j = j[fresh]
    theta = j * _CELL
    l, s = _loglik_score_at(x, row, theta)
    # a cell joins consecutive lattice points of the same sample
    k = np.nonzero((row[1:] == row[:-1]) & (j[1:] == j[:-1] + 1))[0]
    cells = {
        "row": row[k], "a": theta[k], "b": theta[k + 1], "la": l[k], "lb": l[k + 1],
        "sa": s[k], "sb": s[k + 1], "root": np.full(k.size, np.nan), "radius": np.zeros(k.size),
    }
    del row, j, theta, l, s, k
    found = []  # (row, root, l(root)) of every bisection round
    best = np.full(B, -np.inf)  # largest l over the roots found
    top = np.full(B, np.nan)  # a root attaining it, and its concave radius
    top_radius = np.zeros(B)
    capped = np.zeros(B, dtype=bool)
    if counters is None:
        counters = MleCounters()
    for depth in range(_MAX_HALVINGS + 1):
        new = (cells["sa"] > 0.0) & (cells["sb"] <= 0.0) & np.isnan(cells["root"])
        if new.any():
            k = np.nonzero(new)[0]
            rows = cells["row"][k]
            xr = x[rows]
            r = _bisect_score(xr, cells["a"][k], cells["b"][k])
            t = cauchy_offsets(xr, r)
            lr = cauchy_loglik(t)
            radius = np.maximum(cauchy_obs_info(t), 0.0) / (_L3 * n)
            cells["root"][k], cells["radius"][k] = r, radius
            np.maximum.at(best, rows, lr)
            lead = lr == best[rows]
            top[rows[lead]], top_radius[rows[lead]] = r[lead], radius[lead]
            found.append((rows, r, lr))
            counters.brackets += k.size
        still = ~_closed(cells, n, best, top, top_radius)
        if not still.any():
            break
        if depth == _MAX_HALVINGS:
            capped[cells["row"][still]] = True
            break
        counters.halved += int(still.sum())
        cells = _halve(x, {key: v[still] for key, v in cells.items()})
    counters.capped += int(capped.sum())
    theta_hat = np.full(B, np.inf)
    if found:
        rows, r, lr = (np.concatenate(v) for v in zip(*found))
        tied = lr >= best[rows] - _TIE_RTOL * (1.0 + np.abs(best[rows]))
        np.minimum.at(theta_hat, rows[tied], r[tied])
    theta_hat[capped | outside | ~np.isfinite(theta_hat)] = np.nan
    # a constant sample's mode is its value; bisection could end an ulp off
    constant = (x == x[:, :1]).all(axis=1) & ~outside
    theta_hat[constant] = x[constant, 0]
    return theta_hat


def _loglik_score_at(x: np.ndarray, row: np.ndarray, theta: np.ndarray):
    """l and l' of sample ``x[row[k]]`` at ``theta[k]``, in bounded chunks."""
    l = np.empty_like(theta)
    s = np.empty_like(theta)
    for c in range(0, theta.size, _GRID_CHUNK):
        part = slice(c, c + _GRID_CHUNK)
        t = cauchy_offsets(x[row[part]], theta[part])
        l[part] = cauchy_loglik(t)
        s[part] = cauchy_score(t)
    return l, s


def _bisect_score(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Shrink brackets s(lo) > 0 >= s(hi), one per row of ``x``, to
    adjacent floats; returns their midpoints."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
        # at adjacent floats mid is lo or hi, whose score keeps its side
        pos = cauchy_score(cauchy_offsets(x, mid)) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def _closed(c: dict, n: int, best: np.ndarray, top: np.ndarray, top_radius: np.ndarray) -> np.ndarray:
    """Cells shown to hold no local maximum above the best root."""
    h = c["b"] - c["a"]
    slope = (c["sa"] < -0.25 * n * h) | (c["sb"] > 0.25 * n * h)
    q = 0.125 * n * h * h
    bound = np.minimum(
        c["la"] + np.maximum(0.0, c["sa"] * h + q), c["lb"] + np.maximum(0.0, q - c["sb"] * h)
    ) < best[c["row"]]
    t, tr = top[c["row"]], top_radius[c["row"]]
    concave = ((c["a"] > t - tr) & (c["b"] < t + tr)) | (
        (c["a"] > c["root"] - c["radius"]) & (c["b"] < c["root"] + c["radius"])
    )
    return slope | bound | concave


def _halve(x: np.ndarray, c: dict) -> dict:
    """Split each cell at its midpoint; a root found in a cell stays with
    the halves that contain it."""
    m = 0.5 * (c["a"] + c["b"])
    lm, sm = _loglik_score_at(x, c["row"], m)
    left = c["root"] <= m
    right = c["root"] >= m
    return {
        "row": np.concatenate([c["row"], c["row"]]),
        "a": np.concatenate([c["a"], m]),
        "b": np.concatenate([m, c["b"]]),
        "la": np.concatenate([c["la"], lm]),
        "lb": np.concatenate([lm, c["lb"]]),
        "sa": np.concatenate([c["sa"], sm]),
        "sb": np.concatenate([sm, c["sb"]]),
        "root": np.concatenate([np.where(left, c["root"], np.nan), np.where(right, c["root"], np.nan)]),
        "radius": np.concatenate([np.where(left, c["radius"], 0.0), np.where(right, c["radius"], 0.0)]),
    }


def cauchy_mle(y) -> float:
    """Global maximizer of the Cauchy location log-likelihood.

    This is ``cauchy_mle_batch`` on a batch of one, with its guarantee:
    every local maximum lies in the unit windows [x_i - 1, x_i + 1]; the
    score's sign changes on a lattice over them are bisected, and every
    lattice cell is certified to hold no better maximum.  The result is a
    global maximizer up to rounding and a 1e-12 relative tie tolerance,
    ties going to the smaller theta.  Raises CertificateError when the
    certificate cannot close within its halving cap, or an observation
    lies beyond +-1e15, rather than return an unchecked value.
    """
    x = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0:
        raise DomainError("empty sample")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite observation")
    theta = float(cauchy_mle_batch(x[None, :])[0])
    if math.isnan(theta):
        raise CertificateError("no certified global maximum: halving cap reached or |x_i| > 1e15")
    return theta


def family_mle(f: Family, y) -> float:
    """Maximum-likelihood point estimate (may lie on the closure for
    Bernoulli boundary counts)."""
    if isinstance(f, Bernoulli):
        p_hat = y / f.n
        if f.chart == "p":
            return float(p_hat)
        if y in (0, f.n):
            return math.copysign(math.inf, y - f.n / 2)
        return math.log(p_hat / (1.0 - p_hat))
    if isinstance(f, NormalLocation):
        return float(y)
    if isinstance(f, CauchyLocation):
        return cauchy_mle(y)
    if isinstance(f, CauchyMedian):
        return float(y)
    raise TypeError(f"no MLE rule for {type(f).__name__}")


def observed_info(f: Family, theta_hat: float, y) -> float:
    """Observed information -l''(theta_hat; y)."""
    if isinstance(f, CauchyLocation):
        val = float(cauchy_obs_info(cauchy_offsets(y, theta_hat)))
    elif isinstance(f, NormalLocation):
        val = f.n / f.sigma**2
    else:
        h = 1e-5 * (1.0 + abs(theta_hat))
        val = -(f.score(theta_hat + h, y) - f.score(theta_hat - h, y)) / (2.0 * h)
    if val <= 0.0:
        raise CurvatureError(f"observed information {val} is not positive")
    return val


# ---------------------------------------------------------------------------
# Score inversion
# ---------------------------------------------------------------------------


def _score_bracket(f: Family, width_doublings: int):
    """Successive search brackets: theta_hat +/- 50/sqrt(I), doubled, or
    the shrinking interior of a bounded chart domain."""
    lo_dom, hi_dom = f.param_domain()
    if math.isfinite(lo_dom) and math.isfinite(hi_dom):
        margin = 0.01 * (hi_dom - lo_dom) / 2.0**width_doublings
        return lo_dom + margin, hi_dom - margin
    center = 0.0
    half = 50.0 / math.sqrt(f.fisher_info(0.0)) * 2.0**width_doublings
    return center - half, center + half


def score_interval(f: Family, y, k: float) -> Interval:
    """Invert the standardized score: {theta : -k < sbar(theta) < k}.

    Requires sbar to be monotone over the bracket (checked by sign
    sampling at 64 points); raises NonexistenceError when sbar never
    reaches +/-k, which happens for the Cauchy score whose value decays
    to zero in both tails.
    """
    if k <= 0:
        raise DomainError(f"level k must be positive, got {k}")

    def sbar(theta: float) -> float:
        return f.score(theta, y) / math.sqrt(f.fisher_info(theta))

    lo_dom, hi_dom = f.param_domain()
    bounded = math.isfinite(lo_dom) and math.isfinite(hi_dom)
    for doubling in range(_MAX_DOUBLINGS):
        lo_b, hi_b = _score_bracket(f, doubling)
        grid = np.linspace(lo_b, hi_b, 64)
        vals = np.array([sbar(t) for t in grid])
        if vals[0] >= k and vals[-1] <= -k:
            if np.any(np.diff(vals) > 1e-9 * (1.0 + np.abs(vals[:-1]))):
                raise NonMonotoneError(
                    "standardized score is not decreasing over the bracket"
                )
            lo = _bisect_decreasing(sbar, grid, vals, k)
            hi = _bisect_decreasing(sbar, grid, vals, -k)
            return Interval(lo=lo, hi=hi, method=METHOD_SCORE, level_k=k)
        # the levels are not reached at the bracket ends; decide between
        # expanding further (score still growing outward) and declaring
        # nonexistence (score decaying toward 0 in the tails)
        interior_max = float(np.max(np.abs(vals[1:-1]))) if vals.size > 2 else 0.0
        ends_max = max(abs(vals[0]), abs(vals[-1]))
        if interior_max < k and ends_max <= interior_max and doubling >= 2:
            raise NonexistenceError(
                f"standardized score never reaches +/-{k}; its peak over the "
                f"bracket is {interior_max:.4g}"
            )
        if bounded and doubling > 20:
            break
    raise NonexistenceError(
        f"standardized score never reaches +/-{k} over the search bracket"
    )


def _bisect_decreasing(fn: Callable, grid: np.ndarray, vals: np.ndarray, level: float) -> float:
    idx = int(np.searchsorted(-vals, -level))
    idx = min(max(idx, 1), grid.size - 1)
    lo, hi = float(grid[idx - 1]), float(grid[idx])
    while hi - lo > _THETA_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Likelihood-ratio inversion
# ---------------------------------------------------------------------------


@dataclass
class LrtEstimate:
    """S(theta) = 2(l(theta) - sup l): nonpositive, zero at the MLE."""

    family: Family
    sample: object
    mle: float
    sup_loglik: float

    def __call__(self, theta: float) -> float:
        return 2.0 * (self.family.loglik(theta, self.sample) - self.sup_loglik)


def lrt_estimate(f: Family, y) -> LrtEstimate:
    mle = family_mle(f, y)
    if isinstance(f, Bernoulli):
        # sup over the closed [0, 1]: 0 log 0 = 0 convention
        p_hat = y / f.n
        sup = 0.0
        if 0 < y:
            sup += y * math.log(p_hat)
        if y < f.n:
            sup += (f.n - y) * math.log1p(-p_hat)
    else:
        sup = f.loglik(mle, y)
    return LrtEstimate(family=f, sample=y, mle=mle, sup_loglik=sup)


def lrt_interval(L: LrtEstimate, z: float, adjustment: float = 1.0) -> Interval:
    """Connected hull of {theta : S(theta) > -(adjustment*z)^2}.

    Endpoints are the outermost roots of S = -z^2, located by geometric
    bracket expansion away from the MLE, an outward scan for the last
    point still inside the set, and bisection.  ``disconnected`` is set
    when the scan sees the set re-enter, i.e. the level set is a union
    of intervals and the hull is reported.
    """
    z_eff = adjustment * z
    if z_eff <= 0:
        raise DomainError(f"level z must be positive, got {z_eff}")
    target = -z_eff * z_eff
    center = L.mle
    lo_dom, hi_dom = L.family.param_domain()
    # every stationary point of the implemented log-likelihoods lies
    # inside the sample range, so pushing the bracket past the extreme
    # observations guarantees the outermost crossing is enclosed even
    # when the level set is a union of intervals
    s_arr = np.asarray(L.sample, dtype=float)
    data_lo = float(s_arr.min()) if s_arr.ndim == 1 and s_arr.size else None
    data_hi = float(s_arr.max()) if s_arr.ndim == 1 and s_arr.size else None
    disconnected = False
    endpoints = []
    for sgn in (-1.0, 1.0):
        dom = lo_dom if sgn < 0 else hi_dom
        step = 0.5 * (1.0 + abs(center))
        far = None
        for i in range(_MAX_DOUBLINGS):
            cand = center + sgn * step * 2.0**i
            if math.isfinite(dom):
                cand = center + (dom - center) * (1.0 - 2.0 ** -(i + 1))
            elif data_lo is not None:
                past = data_hi if sgn > 0 else data_lo
                if sgn * (cand - past) < 0.0:
                    continue
            if L(cand) < target:
                far = cand
                break
        if far is None:
            raise BracketError(
                f"no point with S < {target:.4g} found after {_MAX_DOUBLINGS} doublings"
            )
        # outward scan so bisection lands on the outermost crossing
        scan = np.linspace(center, far, 513)
        inside = np.array([L(t) > target for t in scan])
        last_in = int(np.nonzero(inside)[0][-1])
        if not inside[: last_in + 1].all():
            disconnected = True
        lo_b, hi_b = float(scan[last_in]), float(scan[last_in + 1])
        while abs(hi_b - lo_b) > _THETA_TOL:
            mid = 0.5 * (lo_b + hi_b)
            if L(mid) > target:
                lo_b = mid
            else:
                hi_b = mid
        endpoints.append(0.5 * (lo_b + hi_b))
    lo, hi = sorted(endpoints)
    return Interval(
        lo=lo,
        hi=hi,
        method=METHOD_LRT,
        level_k=z,
        adjustment=adjustment,
        disconnected=disconnected,
    )


# ---------------------------------------------------------------------------
# Wald linearizations and the exact Bernoulli interval
# ---------------------------------------------------------------------------


def wald_interval(
    theta_hat: float,
    info: float,
    z: float,
    adjustment: float = 1.0,
    method: str = METHOD_WALD_EXPECTED,
) -> Interval:
    """theta_hat +/- adjustment * z / sqrt(info)."""
    if info <= 0:
        raise DomainError(f"information must be positive, got {info}")
    half = adjustment * z / math.sqrt(info)
    return Interval(
        lo=theta_hat - half,
        hi=theta_hat + half,
        method=method,
        level_k=z,
        slope_b=-math.sqrt(info),
        adjustment=adjustment,
    )


def _binom_sf_at_least(n: int, y: int, p: float) -> float:
    """P_p(Y >= y), exact sum of binomial terms."""
    from scipy.stats import binom

    return float(binom.sf(y - 1, n, p))


def _binom_cdf_at_most(n: int, y: int, p: float) -> float:
    from scipy.stats import binom

    return float(binom.cdf(y, n, p))


def exact_bernoulli_interval(n: int, y: int, alpha: float) -> Interval:
    """Invert exact binomial tail areas at alpha/2 per side.

    lo = sup{p : P_p(Y >= y) <= alpha/2}, hi = inf{p : P_p(Y <= y) <= alpha/2},
    with lo = 0 at y = 0 and hi = 1 at y = n.  This is the score-ordering
    exact interval, i.e. the Clopper-Pearson interval.
    """
    if not 0 <= y <= n:
        raise DomainError(f"y={y} outside [0, {n}]")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    half = alpha / 2.0
    if y == 0:
        lo = 0.0
    else:
        a, b = 0.0, 1.0
        while b - a > _THETA_TOL:
            mid = 0.5 * (a + b)
            if _binom_sf_at_least(n, y, mid) <= half:
                a = mid
            else:
                b = mid
        lo = 0.5 * (a + b)
    if y == n:
        hi = 1.0
    else:
        a, b = 0.0, 1.0
        while b - a > _THETA_TOL:
            mid = 0.5 * (a + b)
            if _binom_cdf_at_most(n, y, mid) <= half:
                b = mid
            else:
                a = mid
        hi = 0.5 * (a + b)
    return Interval(lo=lo, hi=hi, method=METHOD_EXACT_BERNOULLI, level_k=alpha)
