"""Confidence intervals from generalized estimates.

Four constructions:

* score inversion: {theta : -k < sbar(theta) < k} for the standardized
  score, solved by bisection (may not exist for the Cauchy score, whose
  standardized value tends to 0 in both tails);
* likelihood-ratio inversion: the level set {theta : S(theta) > -z^2}
  of S(theta) = 2(l(theta) - l(theta_hat)), from the family's
  ``lrt_hull(y, drop)`` (for the Cauchy location, one certified pass);
* Wald linearizations theta_hat +/- z / sqrt(info) with either the
  expected or the observed information as the slope;
* the exact Bernoulli (Clopper-Pearson) interval, which inverts the
  binomial tail areas; its ends are beta quantiles, taken in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from .cauchy import cauchy_mle  # noqa: F401  (re-exported: part of this module's API)
from .errors import CurvatureError, DomainError, NonexistenceError, NonMonotoneError
from .families import _MAX_DOUBLINGS, Bernoulli, Family, _bisect

METHOD_SCORE = "score_inversion"
METHOD_LRT = "lrt"
METHOD_WALD_EXPECTED = "wald_expected"
METHOD_WALD_OBSERVED = "wald_observed"
METHOD_EXACT_BERNOULLI = "exact_bernoulli"


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


def observed_info(f: Family, theta_hat: float, y) -> float:
    """Observed information -l''(theta_hat; y)."""
    val = f.observed_info(theta_hat, y)
    if not val > 0.0:
        raise CurvatureError(f"observed information {val} is not positive")
    return val


# ---------------------------------------------------------------------------
# Score inversion
# ---------------------------------------------------------------------------


def _score_bracket(f: Family, width_doublings: int):
    """Successive search brackets: 0 +/- 50/sqrt(I(0)), doubled, or the
    shrinking interior of a bounded chart domain."""
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
    if not 0.0 < k < math.inf:
        raise DomainError(f"level k must be positive and finite, got {k}")

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
    return _bisect(lambda t: fn(t) > level, float(grid[idx - 1]), float(grid[idx]))


# ---------------------------------------------------------------------------
# Likelihood-ratio inversion
# ---------------------------------------------------------------------------


@dataclass
class LrtEstimate:
    """S(theta) = 2(l(theta) - sup l), zero at the MLE; both computed when first read."""

    family: Family
    sample: object

    @functools.cached_property
    def mle(self) -> float:
        return self.family.mle(self.sample)

    @functools.cached_property
    def sup_loglik(self) -> float:
        return self.family.sup_loglik(self.sample, self.mle)

    def __call__(self, theta: float) -> float:
        return 2.0 * (self.family.loglik(theta, self.sample) - self.sup_loglik)


def lrt_estimate(f: Family, y) -> LrtEstimate:
    f.check_sample(y)
    return LrtEstimate(family=f, sample=y)


def lrt_interval(L: LrtEstimate, z: float, adjustment: float = 1.0) -> Interval:
    """Connected hull of {theta : S(theta) > -(adjustment*z)^2}: the
    outermost roots of S = -z^2, from the family's ``lrt_hull``, with
    ``disconnected`` set when the level set is a union of intervals."""
    drop = lrt_drop(_positive_level(z, adjustment))
    lo, hi, disconnected = L.family.lrt_hull(L.sample, drop)
    return Interval(
        lo=lo,
        hi=hi,
        method=METHOD_LRT,
        level_k=z,
        adjustment=adjustment,
        disconnected=disconnected,
    )


def lrt_drop(z: float) -> float:
    """The drop z^2 / 2 in l of the LRT level S = -z^2, z the adjusted
    quantile, a DomainError where it is infinite; the coverage batch reads
    it too."""
    drop = z * z / 2.0
    if drop == math.inf:
        raise DomainError(f"level adjustment * z = {z} gives an infinite drop z^2 / 2")
    return drop


def _positive_level(z: float, adjustment: float) -> float:
    """adjustment * z, a DomainError unless it is positive and finite."""
    z_eff = adjustment * z
    if not 0.0 < z_eff < math.inf:
        raise DomainError(f"level adjustment * z must be positive and finite, got {adjustment} * {z}")
    return z_eff


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
    if not math.isfinite(theta_hat):
        raise DomainError(f"theta_hat must be finite, got {theta_hat}")
    if not 0 < info < math.inf:
        raise DomainError(f"information must be positive and finite, got {info}")
    lo, hi = wald_ends(theta_hat, info, _positive_level(z, adjustment))
    return Interval(
        lo=float(lo),
        hi=float(hi),
        method=method,
        level_k=z,
        adjustment=adjustment,
    )


def wald_ends(theta_hat, info, z_eff):
    """theta_hat -/+ z_eff / sqrt(info), elementwise: the Wald ends of one
    sample or, in the coverage batch, of every replicate."""
    half = z_eff / np.sqrt(info)
    return theta_hat - half, theta_hat + half


def exact_bernoulli_interval(n: int, y: int, alpha: float) -> Interval:
    """The Clopper-Pearson interval, alpha/2 per side, in closed form.

    Its ends invert the exact binomial tails: lo = sup{p : P_p(Y >= y) <=
    alpha/2} and hi = inf{p : P_p(Y <= y) <= alpha/2}.  As P_p(Y >= y) is
    the regularized incomplete beta I_p(y, n - y + 1), they are the beta
    quantiles lo = B^-1(alpha/2; y, n - y + 1) and hi = B^-1(1 - alpha/2;
    y + 1, n - y), with lo = 0 at y = 0 and hi = 1 at y = n (Clopper and
    Pearson 1934).  ``scipy.special.betaincinv`` gives each end to within
    2e-15 relative: against a 40-digit inversion, for n <= 100, every y
    and alpha in {0.5, 0.05, 0.01}, the worst is 1.7e-15.  The count y is
    checked as ``Bernoulli(n)`` checks a sample: an integer in [0, n], n >= 1.
    """
    Bernoulli(n).check_sample(y)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    lo = 0.0 if y == 0 else float(scipy.special.betaincinv(y, n - y + 1, alpha / 2.0))
    hi = 1.0 if y == n else float(scipy.special.betaincinv(y + 1, n - y, 1.0 - alpha / 2.0))
    return Interval(lo=lo, hi=hi, method=METHOD_EXACT_BERNOULLI, level_k=alpha)
