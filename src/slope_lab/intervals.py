"""Confidence intervals from generalized estimates.

Four constructions:

* score inversion: {theta : -k < sbar(theta) < k} for the standardized
  score, solved by bisection (may not exist for the Cauchy score, whose
  standardized value tends to 0 in both tails);
* likelihood-ratio inversion: the level set {theta : S(theta) > -z^2}
  of S(theta) = 2(l(theta) - l(theta_hat));
* Wald linearizations theta_hat +/- z / sqrt(info) with either the
  expected or the observed information as the slope;
* the exact Bernoulli (Clopper-Pearson) interval, which inverts the
  binomial tail areas; its ends are beta quantiles, taken in closed form.

The Cauchy likelihood can be multimodal.  Its local maxima all lie in
the unit windows [x_i - 1, x_i + 1] around the observations, because
l'' < 0 needs some |x_i - theta| < 1.  ``cauchy_level_set_batch`` scans
those windows on a 0.2 lattice, bisects the sign changes of the score,
and certifies cell by cell, from l'' in [-2n, n/4] and
|l'''| <= (3/2 + sqrt 2) n, that no cell holds a better maximum, or a
stationary point above the LRT level not bisected: a finite MLE is the
global maximizer (ties to the smaller theta), a sample it cannot certify
is reported as failed, and the LRT level set is reported as its hull,
flagged when it is a union of intervals.  The scalar ``cauchy_mle`` and
the Cauchy ``lrt_interval`` are that kernel on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import betaincinv

from .errors import (
    CertificateError,
    CurvatureError,
    DomainError,
    NonexistenceError,
    NonMonotoneError,
)
from .families import Family, cauchy_loglik, cauchy_obs_info, cauchy_offsets, cauchy_score

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


# Lattice step of the scan: 11 lattice points per unit window.  Any step
# is certified, since a cell no test closes is halved.  Of 0.1, 0.2, 0.25
# and 0.5, 0.2 is the coarsest that still certifies the flat maximum of
# x = (-1, 1); coarser steps save lattice points but hit the halving caps.
_CELL = 0.2
# Lattice points laid per window, 2 / _CELL + 4, from below x_i - 1 - _CELL
# to past x_i + 1 + _CELL, so rounding in floor() cannot leave a window
# edge bare.
_WINDOW_POINTS = 14
_BISECTIONS = 64
_MAX_HALVINGS = 40
# Open cells a sample may have at once: rounding hides the score's sign on
# a flat stretch, which multiplies them (elsewhere at most 49, at n = 2).
_MAX_OPEN = 1 << 10
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
    """Work and outcomes of ``cauchy_level_set_batch``, summed over calls."""

    brackets: int = 0  # score sign changes bisected, to maxima and to minima
    halved: int = 0  # cells split because no test closed them
    capped: int = 0  # samples with a cell open after _MAX_HALVINGS rounds, or too many open


def cauchy_level_set_batch(x, drop: float, counters: Optional[MleCounters] = None):
    """Global MLE and likelihood level set of every row of ``x`` (m by n).

    Returns (theta_hat, target, outer, disconnected): t = l(theta_hat) -
    drop, the smallest and largest local maxima with l > t (theta_hat if
    none lies further out), and whether {theta : l > t} is not one interval.

    Guarantee: a finite theta_hat is a global maximizer of
    l(theta) = -sum log(1 + (x_i - theta)^2), up to rounding in l and a
    tie tolerance of 1e-12 (1 + |l|), ties going to the smallest theta,
    whatever the drop; every local maximum with l > t is found.  A row
    that cannot be certified comes back NaN, never unchecked.  The argument:

    * Every local maximum lies in the union of the unit windows
      [x_i - 1, x_i + 1], because l'' = sum 2(t_i^2 - 1)/(t_i^2 + 1)^2,
      t_i = x_i - theta, is negative only if some |t_i| < 1; so each gap
      between windows, where l is convex, holds at most one minimum.
    * The windows are covered by the cells of a lattice of step h = 0.2
      (11 points per window, shared where windows overlap); a cell that
      skips lattice points spans a gap.  Every cell whose end scores go
      from + to - is bisected, all at once, down to adjacent floats, to a
      maximum; then so is every cell whose end scores go from - to +, to
      a minimum, unless l at an end is not above the floor defined next.
    * A gap cell is then closed.  Every other cell is closed by one of
      three tests, which use l'' in [-2n, n/4] and |l'''| <= (3/2 + sqrt 2) n:
      score slope -- a score below -nh/4 at the left end or above nh/4
      at the right end, or end scores of one sign beyond (3/2 + sqrt 2)
      n h^2/8, keep the score one sign, so no stationary point;
      upper bound -- l <= l(a) + max(0, s(a) h + n h^2/8) over [a, b]
      (or the mirror bound from b) lies below the floor, the best maximum
      so far less the drop, and so below t;
      curvature -- the cell lies within |l''(r)| / ((3/2 + sqrt 2) n) of
      a bisected root r, so r is its only stationary point.
    * A cell no test closes is halved, bisected if its ends change sign,
      and tested again, at most 40 times; a row with a cell still open, or
      with more than 1024 open at once, is NaN and counted in
      ``counters.capped``.  A row with an observation not finite or beyond
      +-1e15 is NaN as well; a constant row returns its value.
    * So every stationary point with l > t is bisected.  Neighbouring
      maxima above t are joined by the set iff a minimum between them has
      l > t, and it is then their only stationary point between.
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
    # consecutive lattice points of a sample join in a cell; one that skips
    # lattice points spans a gap between windows
    k = np.nonzero(row[1:] == row[:-1])[0]
    cells = {
        "row": row[k], "a": theta[k], "b": theta[k + 1], "la": l[k], "lb": l[k + 1],
        "sa": s[k], "sb": s[k + 1], "root": np.full(k.size, np.nan),
    }
    del row, j, theta, l, s, k
    found = []  # (row, root, l(root), sign, radius) of each bisection round
    best = np.full(B, -np.inf)  # largest l over the maxima found
    capped = np.zeros(B, dtype=bool)
    if counters is None:
        counters = MleCounters()
    for depth in range(_MAX_HALVINGS + 1):
        # maxima first; a minimum matters only if it may lie above the floor
        for sign in (1.0, -1.0):
            new = (sign * cells["sa"] > 0.0) & (sign * cells["sb"] <= 0.0) & np.isnan(cells["root"])
            if sign < 0.0:
                new &= np.minimum(cells["la"], cells["lb"]) > best[cells["row"]] - drop
            k = np.nonzero(new)[0]
            rows = cells["row"][k]
            xr = x[rows]
            r = _bisect_score(xr, cells["a"][k], cells["b"][k], sign)
            t = cauchy_offsets(xr, r)
            lr = cauchy_loglik(t)
            # within this radius of a root l'' keeps its sign
            radius = np.maximum(sign * cauchy_obs_info(t), 0.0) / (_L3 * n)
            found.append((rows, r, lr, np.full(k.size, sign), radius))
            cells["root"][k] = r
            if sign > 0.0:
                np.maximum.at(best, rows, lr)
        still = ~_closed(cells, n, best - drop, found)
        count = np.bincount(cells["row"][still], minlength=B)
        capped |= (count > _MAX_OPEN) | ((count > 0) & (depth == _MAX_HALVINGS))
        still &= ~capped[cells["row"]]
        if not still.any():
            break
        counters.halved += int(still.sum())
        cells = _halve(x, {key: v[still] for key, v in cells.items()})
    counters.capped += int(capped.sum())
    rows, r, lr, sign, _ = (np.concatenate(v) for v in zip(*found))
    counters.brackets += rows.size
    maxima = sign > 0.0
    tied = maxima & (lr >= best[rows] - _TIE_RTOL * (1.0 + np.abs(best[rows])))
    theta_hat = np.full(B, np.inf)
    np.minimum.at(theta_hat, rows[tied], r[tied])
    theta_hat[capped | outside | ~np.isfinite(theta_hat)] = np.nan
    # a constant sample's mode is its value; bisection could end an ulp off
    constant = (x == x[:, :1]).all(axis=1) & ~outside
    theta_hat[constant] = x[constant, 0]
    target = cauchy_loglik(cauchy_offsets(x, theta_hat)) - drop
    above = lr > target[rows]
    outer = np.array([theta_hat, theta_hat])
    np.minimum.at(outer[0], rows[maxima & above], r[maxima & above])
    np.maximum.at(outer[1], rows[maxima & above], r[maxima & above])
    bridges = ~maxima & above & (outer[0][rows] < r) & (r < outer[1][rows])
    disconnected = np.bincount(rows[bridges], minlength=B) < np.bincount(rows[maxima & above], minlength=B) - 1
    return theta_hat, target, outer, disconnected


def cauchy_level_set_ends(x, outer: np.ndarray, target: np.ndarray):
    """Ends (lo, hi) of the hull of {theta : l(theta) > target} per row:
    past its outermost maxima ``outer``, l > target on one interval, so
    a step of 0.5, doubled while inside, brackets each for 55 bisections.
    Both ends go through one loop, on ``x`` stacked twice: lo from
    outer[0] downward in the first half, hi from outer[1] upward in the
    second.  Each row's steps are those of its own end alone."""
    m = x.shape[0]
    x = np.concatenate([x, x])
    start = np.concatenate(outer)
    target = np.concatenate([target, target])
    sgn = np.repeat([-1.0, 1.0], m)
    d = np.full(2 * m, 0.5)
    far = start + sgn * d
    for _ in range(200):
        inside = cauchy_loglik(cauchy_offsets(x, far)) > target
        if not inside.any():
            break
        d = np.where(inside, d * 2.0, d)
        far = start + sgn * d
    lo_b, hi_b = start, far
    for _ in range(55):
        mid = 0.5 * (lo_b + hi_b)
        keep = cauchy_loglik(cauchy_offsets(x, mid)) > target
        lo_b = np.where(keep, mid, lo_b)
        hi_b = np.where(keep, hi_b, mid)
    ends = 0.5 * (lo_b + hi_b)
    return ends[:m], ends[m:]


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


def _bisect_score(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Shrink brackets sign * s(lo) > 0 >= sign * s(hi), one per row of
    ``x``, to adjacent floats; returns their midpoints."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
        # at adjacent floats mid is lo or hi, whose score keeps its side
        pos = sign * cauchy_score(cauchy_offsets(x, mid)) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def _closed(c: dict, n: int, floor: np.ndarray, found: list) -> np.ndarray:
    """Cells shown to hold no point with l above ``floor`` and no
    stationary point but one already bisected."""
    h = c["b"] - c["a"]
    slope = (c["sa"] < -0.25 * n * h) | (c["sb"] > 0.25 * n * h)
    # |s''| = |l'''| <= _L3 n keeps s within _L3 n h^2 / 8 of its chord
    chord = 0.125 * _L3 * n * h * h
    slope |= (np.minimum(c["sa"], c["sb"]) > chord) | (np.maximum(c["sa"], c["sb"]) < -chord)
    q = 0.125 * n * h * h
    bound = np.minimum(
        c["la"] + np.maximum(0.0, c["sa"] * h + q), c["lb"] + np.maximum(0.0, q - c["sb"] * h)
    ) < floor[c["row"]]
    # l is convex in a gap between windows, which holds only a minimum
    closed = slope | bound | (h > 1.5 * _CELL)
    # the rest: within the radius of a root of the same sample?
    k = np.nonzero(~closed)[0]
    rows, r, _, _, radius = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(rows, kind="stable")
    rows, r, radius = rows[order], r[order], radius[order]
    row, a, b = c["row"][k], c["a"][k], c["b"][k]
    start = np.searchsorted(rows, row)
    count = np.searchsorted(rows, row, side="right") - start
    for i in range(int(count.max(initial=0))):
        p = np.minimum(start + i, rows.size - 1)
        closed[k] |= (i < count) & (a > r[p] - radius[p]) & (b < r[p] + radius[p])
    return closed


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
    }


def cauchy_mle(y) -> float:
    """Global maximizer of the Cauchy location log-likelihood.

    This is ``cauchy_level_set_batch`` on a batch of one, with its
    guarantee: a global maximizer up to rounding and a
    1e-12 relative tie tolerance, ties going to the smaller theta.  Raises
    CertificateError when the certificate cannot close within its halving
    cap, or an observation lies beyond +-1e15, rather than return an
    unchecked value.
    """
    x = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0:
        raise DomainError("empty sample")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite observation")
    theta = float(cauchy_level_set_batch(x[None, :], 0.0)[0][0])
    if math.isnan(theta):
        raise CertificateError("no certified global maximum: halving cap reached or |x_i| > 1e15")
    return theta


def family_mle(f: Family, y) -> float:
    """Maximum-likelihood point estimate (may lie on the closure for
    Bernoulli boundary counts)."""
    return f.mle(y)


def observed_info(f: Family, theta_hat: float, y) -> float:
    """Observed information -l''(theta_hat; y)."""
    val = f.observed_info(theta_hat, y)
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


def _bisect(keep: Callable, a: float, b: float) -> float:
    """Midpoint of [a, b] (in either order) shrunk below _THETA_TOL; the
    midpoint replaces a where ``keep`` holds there and b where it does not."""
    while abs(b - a) > _THETA_TOL:
        mid = 0.5 * (a + b)
        if keep(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _bisect_decreasing(fn: Callable, grid: np.ndarray, vals: np.ndarray, level: float) -> float:
    idx = int(np.searchsorted(-vals, -level))
    idx = min(max(idx, 1), grid.size - 1)
    return _bisect(lambda t: fn(t) > level, float(grid[idx - 1]), float(grid[idx]))


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
    mle = f.mle(y)
    return LrtEstimate(family=f, sample=y, mle=mle, sup_loglik=f.sup_loglik(y, mle))


def lrt_interval(L: LrtEstimate, z: float, adjustment: float = 1.0) -> Interval:
    """Connected hull of {theta : S(theta) > -(adjustment*z)^2}: the
    outermost roots of S = -z^2, from the family's ``lrt_hull``, with
    ``disconnected`` set when the level set is a union of intervals."""
    z_eff = adjustment * z
    if z_eff <= 0:
        raise DomainError(f"level z must be positive, got {z_eff}")
    lo, hi, disconnected = L.family.lrt_hull(L.sample, L.mle, L.sup_loglik, z_eff * z_eff / 2.0)
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
        adjustment=adjustment,
    )


def exact_bernoulli_interval(n: int, y: int, alpha: float) -> Interval:
    """The Clopper-Pearson interval, alpha/2 per side, in closed form.

    Its ends invert the exact binomial tails: lo = sup{p : P_p(Y >= y) <=
    alpha/2} and hi = inf{p : P_p(Y <= y) <= alpha/2}.  As P_p(Y >= y) is
    the regularized incomplete beta I_p(y, n - y + 1), they are the beta
    quantiles lo = B^-1(alpha/2; y, n - y + 1) and hi = B^-1(1 - alpha/2;
    y + 1, n - y), with lo = 0 at y = 0 and hi = 1 at y = n (Clopper and
    Pearson 1934).  ``scipy.special.betaincinv`` gives each end to within
    2e-15 relative: against a 40-digit inversion, for n <= 100, every y
    and alpha in {0.5, 0.05, 0.01}, the worst is 1.7e-15.
    """
    if not 0 <= y <= n:
        raise DomainError(f"y={y} outside [0, {n}]")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    lo = 0.0 if y == 0 else float(betaincinv(y, n - y + 1, alpha / 2.0))
    hi = 1.0 if y == n else float(betaincinv(y + 1, n - y, 1.0 - alpha / 2.0))
    return Interval(lo=lo, hi=hi, method=METHOD_EXACT_BERNOULLI, level_k=alpha)
