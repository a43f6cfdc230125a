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

Expectations are ``Family.expect``: a weighted mean of values at nodes,
which are the Bernoulli support under the exact binomial weights, a
Gauss-Hermite rule, or seeded Monte Carlo draws under equal weights (with
reported standard error) for the full Cauchy sample space; or adaptive
quadrature for the one-dimensional continuous families, which have no
nodes.  Every slope quantity at theta is a view of one set of moments
(V(g), E g', E[g * score]), each taken once, on first use, by
``families._Pass``, the one reduction of a moment: each the mean of an
elementwise formula in per-sample quantities, g (u for a lift), g' or g
at theta +- h, and the score.  Where the family has nodes, one pass over
them at theta keeps these quantities as columns: the family hands its
nodes to one block function, which runs a user statistic once per node
and takes the score from ``Family.scores`` (a Monte Carlo score once per
chunk); every moment is a reduction of the kept columns under the
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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BiasError, DivergentIntegralError, DomainError, OrientationError, ZeroVarianceError
from .families import DEFAULT_MC_DRAWS, Bernoulli, Family, _Pass, _SCORE, median_fisher_info, median_variance

KIND_SCORE = "score"
KIND_LIFTED = "lifted_point"
KIND_CUSTOM = "custom"

_FD_STEP = 1e-5


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


@dataclass
class GenEstimator:
    """A generalized estimator: sample -> function on the parameter space.

    ``evaluate(y, theta)`` is the defining map.  ``deriv`` is the
    analytic theta-derivative when one is available; otherwise slope
    computations fall back to central differences.  ``score_estimator``
    and ``lift_point_estimator`` set ``kind``; a lift's ``mean_fn`` /
    ``mean_deriv`` are its mean function and that function's derivative.
    """

    family: Family
    evaluate: Callable
    deriv: Optional[Callable] = None
    kind: str = field(default=KIND_CUSTOM, init=False)
    mean_fn: Optional[Callable] = field(default=None, init=False, repr=False)
    mean_deriv: Optional[Callable] = field(default=None, init=False, repr=False)
    _lift: Optional["_Lift"] = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, y, theta: float) -> float:
        return self.evaluate(y, theta)

    def var(self, theta: float, **kw) -> float:
        return _SlopeAt(self, theta, kw, value_only=True).variance


def score_estimator(f: Family) -> GenEstimator:
    """The score as a generalized estimator (the Lambda-optimal one)."""
    g = GenEstimator(family=f, evaluate=lambda y, th: f.score(th, y))
    g.kind = KIND_SCORE
    return g


class _Lift:
    """A point statistic u lifted to h(y, theta) = u(y) - ups(theta).

    ups = E[u] and its derivative dups = E[u * score] are the closed forms
    when given.  Otherwise each is an expectation under the caller's Monte
    Carlo keywords, with the lift's own as defaults: exact whenever the
    engine is exact, unlike a finite difference of the mean.  h and h' read
    ups or dups at every sample point, and a lift's central difference reads
    ups at theta +- h, so each is cached for three theta and its
    expectation runs once.
    """

    def __init__(self, f: Family, u: Callable, mean_fn, mean_deriv, kw: dict):
        self.u, self.mean_fn, self.mean_deriv, self.kw = u, mean_fn, mean_deriv, kw
        self._defaults = tuple(sorted(kw.items()))
        once_per_theta = functools.lru_cache(maxsize=3)
        self._ups = once_per_theta(lambda th, k: expect(f, th, u, **dict(k)))
        self._dups = once_per_theta(
            lambda th, k: _Pass(f, th, {"u": u, "s": _SCORE}, dict(k)).mean(lambda u, s: u * s, "u", "s"))

    def _keywords(self, kw: dict) -> tuple:
        return tuple(sorted({**self.kw, **kw}.items())) if kw else self._defaults

    def ups(self, theta: float, **kw) -> float:
        return self.mean_fn(theta) if self.mean_fn is not None else self._ups(theta, self._keywords(kw))

    def dups(self, theta: float, **kw) -> float:
        return self.mean_deriv(theta) if self.mean_deriv is not None else self._dups(theta, self._keywords(kw))


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
    supplied.  The slope functions take ups and its derivative under their
    own Monte Carlo keywords; ``**kw`` are the defaults, for ``evaluate``,
    ``deriv``, ``mean_fn`` and ``mean_deriv`` called alone.  The orientation
    restriction E[h * score] >= 0 is checked on ``check_grid`` when given;
    a violation raises rather than silently negating the statistic.
    """
    lift = _Lift(f, u, mean_fn, mean_deriv, kw)
    est = GenEstimator(family=f, evaluate=lambda y, th: u(y) - lift.ups(th), deriv=lambda y, th: -lift.dups(th))
    est.kind, est.mean_fn, est.mean_deriv, est._lift = KIND_LIFTED, lift.ups, lift.dups, lift
    if check_grid is not None:
        for th in check_grid:
            cov = _SlopeAt(est, th, kw).cov
            if cov < -1e-8:
                raise OrientationError(
                    f"E[h * score] = {cov:.3e} < 0 at theta={th}; negate the statistic"
                )
    return est


class _SlopeAt:
    """The moments of g at theta behind every slope quantity, each taken
    once, on first use, and shared by the quantities that read it.

    Each moment is the mean of an elementwise formula in g's per-sample
    quantities (a ``_Pass``): g itself (u for a lift, whose g is u - ups),
    g' or g at theta +- h, and the score.  Where the family has nodes, one
    pass over them keeps them all; with ``value_only``, only g's own (u, g
    or the score), for the variance and ``standardize``.  A lift's h' is
    -dups at every sample, so its slope and central difference are read
    from dups and ups, not averaged.
    """

    def __init__(self, g: GenEstimator, theta: float, kw: dict, value_only: bool = False):
        self.g, self.theta, self.kw = g, theta, kw
        self.h = h = _FD_STEP * (1.0 + abs(theta))
        quantities = {}
        if g._lift is not None:
            quantities["u"] = g._lift.u
        elif g.kind != KIND_SCORE:
            quantities["g"] = lambda y: g.evaluate(y, theta)
            if g.deriv is not None:
                quantities["dg"] = lambda y: g.deriv(y, theta)
            else:
                quantities["gp"] = lambda y: g.evaluate(y, theta + h)
                quantities["gm"] = lambda y: g.evaluate(y, theta - h)
        quantities["s"] = _SCORE
        if value_only:
            name = self._g()[0]
            quantities = {name: quantities[name]}
        self._pass = _Pass(g.family, theta, quantities, kw)

    def _g(self) -> tuple:
        """(name, formula) of g's values: the quantity itself (formula None),
        or u - ups for a lift."""
        if self.g._lift is not None:
            return "u", lambda u: u - self.ups
        return ("s" if self.g.kind == KIND_SCORE else "g"), None

    @functools.cached_property
    def ups(self) -> float:
        """A lift's mean at theta: the closed form, or E[u] of the kept pass."""
        mean_fn = self.g._lift.mean_fn
        return self._pass.mean(None, "u") if mean_fn is None else mean_fn(self.theta)

    @functools.cached_property
    def dups(self) -> float:
        """d ups / d theta: the closed form, or E[u * score] of the kept pass."""
        mean_deriv = self.g._lift.mean_deriv
        return self._pass.mean(lambda u, s: u * s, "u", "s") if mean_deriv is None else mean_deriv(self.theta)

    @functools.cached_property
    def variance(self) -> float:
        return self._pass.moments(*self._g())[1]

    @property
    def var(self) -> float:
        if not self.variance > 0:
            raise ZeroVarianceError(f"variance {self.variance} is not positive at theta={self.theta}")
        return self.variance

    @functools.cached_property
    def fd_slope(self) -> float:
        th, h, lift = self.theta, self.h, self.g._lift
        if lift is None:
            return self._pass.mean(lambda gp, gm: (gp - gm) / (2.0 * h), "gp", "gm")
        return (lift.ups(th - h, **self.kw) - lift.ups(th + h, **self.kw)) / (2.0 * h)

    @functools.cached_property
    def slope(self) -> float:
        """E[dg/dtheta] at theta; analytic derivative when available."""
        if self.g._lift is not None:
            return -self.dups  # h' = -dups at every y
        return self.fd_slope if self.g.deriv is None else self._pass.mean(None, "dg")

    @functools.cached_property
    def cov(self) -> float:
        if self.g.kind == KIND_SCORE:
            return self._pass.mean(lambda s: s * s, "s")  # g is the score: one score per point, squared
        name, g = self._g()
        return self._pass.mean((lambda v, s: v * s) if g is None else (lambda v, s: g(v) * s), name, "s")

    def standardize(self, y) -> float:
        name, g = self._g()
        v = self._pass.quantities[name](y)
        return (v if g is None else g(v)) / math.sqrt(self.var)

    @property
    def lam(self) -> float:
        if self.g.kind == KIND_SCORE:
            return self.g.family.fisher_info(self.theta)
        return self.slope * self.slope / self.var

    @property
    def rho2(self) -> float:
        if self.g.kind == KIND_SCORE:
            return 1.0
        return self.cov * self.cov / (self.var * self.g.family.fisher_info(self.theta))

    @property
    def eff(self) -> float:
        return self.lam / reference_info(self.g.family, self.theta)

    @property
    def residual(self) -> float:
        if self.g.kind == KIND_SCORE:
            lhs = self.g.family.fisher_info(self.theta)
        else:
            lhs = -(self.fd_slope if self.g._lift is not None else self.slope)
        return abs(lhs - self.cov)


def standardize(g: GenEstimator, theta: float, y, **kw) -> float:
    """g(y, theta) / sqrt(V_theta(g))."""
    return _SlopeAt(g, theta, kw, value_only=True).standardize(y)


def squared_slope(g: GenEstimator, theta: float, **kw) -> float:
    """Lambda(g)(theta) = (E g')^2 / V(g).

    The score attains Lambda = I, which is returned through the closed
    form; lifted estimators with a constant mean function have slope 0.
    """
    return _SlopeAt(g, theta, kw).lam


def score_correlation2(g: GenEstimator, theta: float, **kw) -> float:
    """rho^2(g, score) = (E[g * score])^2 / (V(g) * I)."""
    return _SlopeAt(g, theta, kw).rho2


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
    return _SlopeAt(g, theta, kw).eff


def v_efficiency(f: Family, u: Callable, theta: float, tol: float = 1e-8, **kw) -> float:
    """Variance efficiency I^{-1} / V(u) of an unbiased statistic u."""
    m, v = _Pass(f, theta, {"u": u}, kw).moments("u")
    if abs(m - theta) > tol:
        raise BiasError(f"u is biased at theta={theta}: bias={m - theta:.3e}")
    return 1.0 / (f.fisher_info(theta) * v)


def effective_n(g: GenEstimator, theta: float, **kw) -> float:
    """The full-sample size at which the optimal estimator matches g's slope."""
    return _SlopeAt(g, theta, kw).eff * g.family.n


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
    return _SlopeAt(g, theta, kw).residual


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
    rows = [(s.lam, s.rho2, s.eff, s.eff * g.family.n, s.residual) for s in (_SlopeAt(g, th, kw) for th in grid)]
    return SlopeReport(np.asarray(grid, dtype=float), *np.array(rows, dtype=float).reshape(-1, 5).T.copy())


def default_grid(f: Family, points: int = 41) -> np.ndarray:
    """Default evaluation grid: the inner 96% of a bounded domain (p in [0.02, 0.98]) or [-4, 4]."""
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
    if n < 1 or n % 2 == 0 or n > 31:
        raise DomainError(f"n must be an odd integer in [1, 31], got {n}")
    k = (n - 1) // 2
    lam_full = n / 2.0
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


def bernoulli_efficiency_curves(n: int = 10, grid: Optional[Sequence[float]] = None):
    """Lambda-efficiency of u1=y, u2=y(y-1), u3=y^2 over a p grid.

    Everything is an exact binomial sum, so the output is fully
    deterministic.  Returns (p_grid, eff_y, eff_yy1, eff_y2).
    """
    f = Bernoulli(n)
    if grid is None:
        grid = np.linspace(0.02, 0.98, 97)
    grid = np.asarray(grid, dtype=float)
    stats = [lambda y: float(y), lambda y: float(y * (y - 1)), lambda y: float(y * y)]
    effs = np.empty((3, grid.size))
    for j, u in enumerate(stats):
        est = lift_point_estimator(f, u)
        effs[j] = [lambda_efficiency(est, p) for p in grid]
    return grid, effs[0], effs[1], effs[2]
