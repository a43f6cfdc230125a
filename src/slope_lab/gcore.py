"""Generalized estimators, squared slope, and efficiencies.

A generalized estimator maps a sample to a smooth function of the
parameter, subject to three moment conditions at every theta: zero
mean, finite positive variance, and nonnegative covariance with the
score.  The squared slope

    Lambda(g) = (E g')^2 / V(g)

is the aggregate quantity used to rank estimators; it is bounded above
by the Fisher information, with the score attaining the bound.  The
slope of a point estimator is defined through its lift
h(y, theta) = u(y) - E_theta[u].

An estimator plays one of three roles, fixed by its type: the custom
``GenEstimator(family, evaluate, deriv)``, taken at its word; the score
(``score_estimator``), with Lambda = I and rho^2 = 1 in closed form; and a
lifted point statistic (``lift_point_estimator``), whose slope is
-dups = -E[u * score].  Each role's per-theta moment class (``_SlopeAt``,
``_ScoreAt``, ``_LiftAt``) gives its per-sample quantities, the formula of
g's values, its slope and covariance, and the left side of the identity
-E g' = E[g * score]; nothing else asks which estimator it holds.  A lift's
keywords fill in whatever a call leaves out, for every moment of that call.

Expectations are ``Family.expect``: a weighted mean of values at nodes,
which are the Bernoulli support under the exact binomial weights, a
Gauss-Hermite rule, or seeded Monte Carlo draws under equal weights (with
reported standard error) for the full Cauchy sample space; or adaptive
quadrature for the one-dimensional continuous families, which have no
nodes.  Every slope quantity at theta is a view of one set of moments
(V(g), E g', E[g * score]), each taken once, on first use, by
``families._Pass``, the one reduction of a moment: each the mean of an
elementwise formula in per-sample quantities, g (u for a lift), g' or g
at theta +- h, and the score.  The pass is made when a moment is first
read, so the score's closed forms take none.  Where the family has nodes,
one pass over them at theta keeps these quantities as columns: the family
hands its nodes to one block function, which runs a user statistic once per
node and takes the score from ``Family.scores`` (a Monte Carlo score once
per chunk); every moment is a reduction of the kept columns under the
weights, read once per theta.  Under quadrature each moment is one
quadrature pass.  A lift's h' = -dups(theta) is the same at every sample,
so no moment of it is taken: its slope is -dups, and its central
difference is the difference of ups at theta +- h.  A variance or a
standardized value keeps only g's own column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import BiasError, DivergentIntegralError, DomainError, OrientationError, ZeroVarianceError
from .families import (DEFAULT_MC_DRAWS, Bernoulli, CauchyMedian, Family, _FD_STEP, _Pass, _SCORE, check_int,
                       median_fisher_info, median_variance)


def expect(
    f: Family,
    theta: float,
    phi: Callable,
    *,
    mc_draws: int = DEFAULT_MC_DRAWS,
    mc_seed: int = 0,
    return_se: bool = False,
):
    """E_theta[phi(Y)] under family ``f``, by ``f.expect``: an exact sum or
    rule, quadrature or seeded Monte Carlo.  With ``return_se=True`` the
    Monte Carlo standard error is returned alongside (0.0 for the exact
    engines).
    """
    value, se = f.expect(theta, phi, mc_draws=mc_draws, mc_seed=mc_seed)
    return (value, se) if return_se else value


def variance(f: Family, theta: float, phi: Callable, **kw) -> float:
    """V_theta(phi(Y)); where the family has nodes, from one pass over them."""
    return _Pass(f, theta, {"phi": phi}, kw).moments("phi")[1]


class _SlopeAt:
    """The moments of a custom estimator g at theta behind every slope
    quantity, each taken once, on first use, and shared by the quantities
    that read it; the score's and a lift's roles subclass it.

    Each moment is the mean of an elementwise formula in g's per-sample
    quantities (a ``_Pass``, made on first read): g's own (``own``), g' or
    g at theta +- h, and the score.  Where the family has nodes, one pass
    keeps them all; with ``value_only``, only g's own, for the variance and
    ``standardize``.
    """

    own = "g"

    def __init__(self, g: GenEstimator, theta: float, kw: dict, value_only: bool = False):
        self.g, self.theta, self.kw, self.value_only = g, theta, kw, value_only
        self.h = _FD_STEP * (1.0 + abs(theta))

    def quantities(self) -> dict:
        """g's per-sample quantities: g, then g' or g at theta +- h, then the score."""
        g, th, h = self.g, self.theta, self.h
        quantities = {"g": lambda y: g.evaluate(y, th)}
        if g.deriv is not None:
            quantities["dg"] = lambda y: g.deriv(y, th)
        else:
            quantities["gp"] = lambda y: g.evaluate(y, th + h)
            quantities["gm"] = lambda y: g.evaluate(y, th - h)
        quantities["s"] = _SCORE
        return quantities

    def value(self, v):
        """g's values from its own quantity's: the quantity itself."""
        return v

    @functools.cached_property
    def _pass(self) -> _Pass:
        quantities = self.quantities()
        if self.value_only:
            quantities = {self.own: quantities[self.own]}
        return _Pass(self.g.family, self.theta, quantities, self.kw)

    @functools.cached_property
    def variance(self) -> float:
        return self._pass.moments(self.own, self.value)[1]

    @property
    def var(self) -> float:
        if not self.variance > 0:
            raise ZeroVarianceError(f"variance {self.variance} is not positive at theta={self.theta}")
        return self.variance

    @functools.cached_property
    def slope(self) -> float:
        """E[dg/dtheta] at theta: E[g'] by the analytic derivative when
        available, else the mean of g's central difference."""
        if self.g.deriv is not None:
            return self._pass.mean(None, "dg")
        h = self.h
        return self._pass.mean(lambda gp, gm: (gp - gm) / (2.0 * h), "gp", "gm")

    @functools.cached_property
    def cov(self) -> float:
        return self._pass.mean(lambda v, s: self.value(v) * s, self.own, "s")

    def standardize(self, y) -> float:
        return self.value(self._pass.quantities[self.own](y)) / math.sqrt(self.var)

    @property
    def lam(self) -> float:
        return self.slope * self.slope / self.var

    @property
    def rho2(self) -> float:
        return self.cov * self.cov / (self.var * self.g.family.fisher_info(self.theta))

    @property
    def eff(self) -> float:
        return self.lam / reference_info(self.g.family, self.theta)

    @property
    def lhs(self) -> float:
        """The left side of the identity: -E g', as the slope takes it."""
        return -self.slope

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.cov)


class _ScoreAt(_SlopeAt):
    """The score's moments: its one quantity is the score, Lambda = I and
    rho^2 = 1 are closed forms, and so is the identity's left side, I."""

    own = "s"

    def quantities(self) -> dict:
        return {"s": _SCORE}

    @functools.cached_property
    def cov(self) -> float:
        return self._pass.mean(lambda s: s * s, "s")  # g is the score: one score per point, squared

    @property
    def lam(self) -> float:
        return self.g.family.fisher_info(self.theta)

    @property
    def rho2(self) -> float:
        self.g.family.check_param(self.theta)
        return 1.0

    lhs = lam


class _LiftAt(_SlopeAt):
    """A lift's moments: h = u - ups, with u its quantity beside the score.

    ups = E[u] and dups = E[u * score] are the closed forms when given, else
    means of the pass: exact whenever the engine is exact, unlike a finite
    difference of the mean.  The slope is -dups; the identity's left side is
    the central difference of ups, which keeps the check non-circular.  The
    keywords are the lift's, with the call's over them.
    """

    own = "u"

    def __init__(self, g: GenEstimator, theta: float, kw: dict, value_only: bool = False):
        super().__init__(g, theta, {**g._kw, **kw}, value_only)

    def quantities(self) -> dict:
        return {"u": self.g._u, "s": _SCORE}

    def value(self, u):
        return u - self.ups

    @functools.cached_property
    def ups(self) -> float:
        """The lift's mean at theta: the closed form, or E[u] of the pass."""
        mean_fn = self.g._mean_fn
        return self._pass.mean(None, "u") if mean_fn is None else mean_fn(self.theta)

    @functools.cached_property
    def dups(self) -> float:
        """d ups / d theta: the closed form, or E[u * score] of the pass."""
        mean_deriv = self.g._mean_deriv
        return self._pass.mean(lambda u, s: u * s, "u", "s") if mean_deriv is None else mean_deriv(self.theta)

    @functools.cached_property
    def slope(self) -> float:
        return -self.dups  # h' = -dups at every y

    @property
    def lhs(self) -> float:
        """Minus the central difference of ups at theta +- h."""
        th, h, g = self.theta, self.h, self.g
        return -(g.ups(th - h, **self.kw) - g.ups(th + h, **self.kw)) / (2.0 * h)


@dataclass
class GenEstimator:
    """A generalized estimator: sample -> function on the parameter space.

    ``evaluate(y, theta)`` is the defining map.  ``deriv`` is the
    analytic theta-derivative when one is available; otherwise slope
    computations fall back to central differences.  Built directly, it is
    the custom estimator, taken at its word; ``score_estimator`` and
    ``lift_point_estimator`` return the other two roles, private
    subclasses whose type names their moments.
    """

    family: Family
    evaluate: Callable
    deriv: Optional[Callable] = None
    _at: ClassVar[type] = _SlopeAt  # the role's moments at one theta

    def __call__(self, y, theta: float) -> float:
        return self.evaluate(y, theta)

    def var(self, theta: float, **kw) -> float:
        return self._at(self, theta, kw, value_only=True).variance


class _Score(GenEstimator):
    """The score; its moments are ``_ScoreAt``."""

    _at = _ScoreAt


def score_estimator(f: Family) -> GenEstimator:
    """The score as a generalized estimator (the Lambda-optimal one)."""
    return _Score(f, lambda y, th: f.score(th, y))


class _Lift(GenEstimator):
    """A point statistic u lifted to h(y, theta) = u(y) - ups(theta).

    ``ups(theta, **kw)`` and ``dups(theta, **kw)`` are the ``_LiftAt``
    moments.  h and h' read them at every sample point, so each is cached
    for three calls and its expectation runs once.
    """

    _at = _LiftAt

    def __init__(self, f: Family, u: Callable, mean_fn, mean_deriv, kw: dict):
        super().__init__(f, lambda y, th: u(y) - self.ups(th), lambda y, th: -self.dups(th))
        self._u, self._mean_fn, self._mean_deriv, self._kw = u, mean_fn, mean_deriv, kw
        self.ups = functools.lru_cache(maxsize=3)(lambda theta, **kw: _LiftAt(self, theta, kw, value_only=True).ups)
        self.dups = functools.lru_cache(maxsize=3)(lambda theta, **kw: _LiftAt(self, theta, kw).dups)


def lift_point_estimator(
    f: Family,
    u: Callable,
    mean_fn: Optional[Callable] = None,
    mean_deriv: Optional[Callable] = None,
    check_grid: Optional[Sequence[float]] = None,
    **kw,
) -> GenEstimator:
    """Lift a point statistic u into the generalized-estimator space.

    Returns h(y, theta) = u(y) - ups(theta) with ups(theta) = E_theta[u],
    computed through the expectation engine unless a closed form is
    supplied, and d ups / d theta likewise; the result's ``ups(theta)`` and
    ``dups(theta)`` give them.  ``**kw`` are the lift's Monte Carlo
    keywords: they fill in whatever a call leaves out, for every moment of
    that call (the pass at theta, and ups at theta +- h), and are the
    keywords of ``evaluate`` and ``deriv``.  The orientation restriction
    E[h * score] >= 0 is checked on ``check_grid`` when given; a violation
    raises rather than silently negating the statistic.
    """
    est = _Lift(f, u, mean_fn, mean_deriv, kw)
    if check_grid is not None:
        for th in check_grid:
            cov = _LiftAt(est, th, {}).cov
            if cov < -1e-8:
                raise OrientationError(
                    f"E[h * score] = {cov:.3e} < 0 at theta={th}; negate the statistic"
                )
    return est


def standardize(g: GenEstimator, theta: float, y, **kw) -> float:
    """g(y, theta) / sqrt(V_theta(g)), for a sample y the family admits."""
    g.family.check_sample(y)
    return g._at(g, theta, kw, value_only=True).standardize(y)


def squared_slope(g: GenEstimator, theta: float, **kw) -> float:
    """Lambda(g)(theta) = (E g')^2 / V(g).

    The score attains Lambda = I, which is returned through the closed
    form; lifted estimators with a constant mean function have slope 0.
    """
    return g._at(g, theta, kw).lam


def score_correlation2(g: GenEstimator, theta: float, **kw) -> float:
    """rho^2(g, score) = (E[g * score])^2 / (V(g) * I)."""
    return g._at(g, theta, kw).rho2


def reference_info(f: Family, theta: float) -> float:
    """Information benchmark for efficiency, ``f.reference_info``: the
    full-sample information, n*I1 for a family on a reduced statistic (the
    Cauchy median law), so that efficiencies charge the reduction too."""
    return f.reference_info(theta)


def lambda_efficiency(g: GenEstimator, theta: float, **kw) -> float:
    """Eff^Lambda(g) = Lambda(g) / I, with I the full-sample information.

    On a full sample space this equals rho^2(g, score); on the median
    reduction it additionally charges the information lost by reducing
    the sample to its median.
    """
    return g._at(g, theta, kw).eff


def v_efficiency(f: Family, u: Callable, theta: float, tol: float = 1e-8, **kw) -> float:
    """Variance efficiency I^{-1} / V(u) of an unbiased statistic u."""
    m, v = _Pass(f, theta, {"u": u}, kw).moments("u")
    if abs(m - theta) > tol:
        raise BiasError(f"u is biased at theta={theta}: bias={m - theta:.3e}")
    return 1.0 / (f.fisher_info(theta) * v)


def effective_n(g: GenEstimator, theta: float, **kw) -> float:
    """The full-sample size at which the optimal estimator matches g's slope."""
    return g._at(g, theta, kw).eff * g.family.n


def check_identity(g: GenEstimator, theta: float, **kw) -> float:
    """Residual |-E g' - E(g * score)| of the differentiation identity.

    Both sides are computed through independent routes: the left side
    uses the closed-form information for the score estimator, E[dg] for
    a custom estimator with ``deriv``, and central differences otherwise;
    the right side is always the score-covariance expectation.  A lifted
    estimator's analytic ``deriv`` is deliberately not used here, since
    for lifts it is itself derived from a score covariance and would make
    the check circular.
    """
    return g._at(g, theta, kw).residual


@dataclass
class SlopeReport:
    """Slope diagnostics for one estimator over a parameter grid."""

    grid: np.ndarray
    lam: np.ndarray
    rho2: np.ndarray
    eff_lambda: np.ndarray
    eff_n: np.ndarray
    identity_residual: np.ndarray


def slope_report(g: GenEstimator, grid: Sequence[float], **kw) -> SlopeReport:
    """Every slope column of g over ``grid``, each equal to its standalone
    function.  Each moment behind them is taken once per theta: where the
    family has nodes (a sum, a rule, Monte Carlo draws) one pass over them,
    and a lift without a closed-form mean adds one pass each at theta +- h;
    under quadrature 3 quadrature passes for a lift with closed forms (7
    without), 4 for a custom estimator and 1 for the score."""
    rows = [(s.lam, s.rho2, s.eff, s.eff * g.family.n, s.residual) for s in (g._at(g, th, kw) for th in grid)]
    return SlopeReport(np.asarray(grid, dtype=float), *np.array(rows, dtype=float).reshape(-1, 5).T.copy())


def default_grid(f: Family, points: int = 41) -> np.ndarray:
    """Default evaluation grid: the inner 96% of a bounded domain (p in [0.02, 0.98]) or [-4, 4]."""
    points = check_int("points", points, 0)
    lo, hi = f.param_domain()
    if math.isfinite(lo) and math.isfinite(hi):
        return np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), points)
    return np.linspace(-4.0, 4.0, points)


# ---------------------------------------------------------------------------
# Deterministic reproduction of the Cauchy median table and the
# Bernoulli efficiency curves.
# ---------------------------------------------------------------------------


@dataclass
class CauchyTableRow:
    """One row of the Cauchy median comparison table.

    ``lam_median`` is the squared slope of the median as a point
    estimate (1 / Var(median)), reported as 0 with ``variance_diverges``
    set when the variance does not exist (n in {1, 3}).  ``lam_median_score``
    is the information in the median law; ``lam_full_score`` = n/2.
    Efficiencies are percentages; effective sample sizes are on the
    n-observation scale.
    """

    n: int
    lam_median: float
    lam_median_score: float
    lam_full_score: float
    eff_median: float
    eff_median_score: float
    n_median: float
    n_median_score: float
    variance_diverges: bool = field(default=False)


def cauchy_table_row(n: int) -> CauchyTableRow:
    if check_int("n", n, 1, 32) % 2 == 0:
        raise DomainError(f"n must be odd, got {n}")
    k = (n - 1) // 2
    lam_full = CauchyMedian(k).reference_info(0.0)
    lam_med_score = median_fisher_info(k)
    diverges = False
    try:
        lam_med = 1.0 / median_variance(k)
    except DivergentIntegralError:
        lam_med = 0.0
        diverges = True
    eff_med = lam_med / lam_full
    eff_med_score = lam_med_score / lam_full
    return CauchyTableRow(
        n=n,
        lam_median=lam_med,
        lam_median_score=lam_med_score,
        lam_full_score=lam_full,
        eff_median=100.0 * eff_med,
        eff_median_score=100.0 * eff_med_score,
        n_median=n * eff_med,
        n_median_score=n * eff_med_score,
        variance_diverges=diverges,
    )


# The paper's statistics of the binomial count y, by name, in the order of its curves and ``check``'s lifts.
BERNOULLI_STATISTICS = {"y": lambda y: float(y), "y_times_ym1": lambda y: float(y * (y - 1)),
                        "y_squared": lambda y: float(y * y)}


def bernoulli_efficiency_curves(n: int = 10, grid: Optional[Sequence[float]] = None):
    """Lambda-efficiency of each of BERNOULLI_STATISTICS over a p grid, by
    default ``default_grid`` of 97 points.  Everything is an exact binomial
    sum, so the output is fully deterministic.  Returns (p_grid, eff_y,
    eff_y_times_ym1, eff_y_squared)."""
    f = Bernoulli(n)
    grid = default_grid(f, 97) if grid is None else np.asarray(grid, dtype=float)
    effs = np.empty((len(BERNOULLI_STATISTICS), grid.size))
    for j, u in enumerate(BERNOULLI_STATISTICS.values()):
        est = lift_point_estimator(f, u)
        effs[j] = [lambda_efficiency(est, p) for p in grid]
    return grid, *effs
