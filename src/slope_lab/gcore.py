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

Expectations dispatch on the family's sample space: exact sums for the
finite Bernoulli support, adaptive quadrature for the one-dimensional
continuous families, and seeded Monte Carlo (with reported standard
error) for the full Cauchy sample space, which is the only genuinely
n-dimensional one.  Every slope quantity at theta is a view of one set
of moments (V(g), E g', E[g * score]), each taken once, on first use.
On the Monte Carlo chunks the score runs as one array operation per
chunk: the integrands built here around it (the score's variance,
E[g * score], the lift's E[u * score]) carry block forms, and a user
statistic inside them still runs once per row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BiasError, DivergentIntegralError, DomainError, OrientationError, ZeroVarianceError
from .families import DEFAULT_MC_DRAWS, Bernoulli, Family, median_fisher_info, median_variance

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
    """E_theta[phi(Y)] under family ``f``, by ``f.expect``: an exact sum,
    quadrature or seeded Monte Carlo.  With ``return_se=True`` the Monte
    Carlo standard error is returned alongside (0.0 for the exact engines).
    """
    f.check_param(theta)
    value, se = f.expect(theta, phi, mc_draws=mc_draws, mc_seed=mc_seed)
    return (value, se) if return_se else value


def _with_block(phi: Callable, block: Callable) -> Callable:
    """``phi``, carrying ``block``: its values on a chunk (m, n) of samples
    at once (see ``CauchyLocation.expect``)."""
    phi.block = block
    return phi


def _per_row(fn: Callable) -> Callable:
    """The block form that calls ``fn`` on each row of the chunk."""
    return lambda xs: np.array([fn(x) for x in xs], dtype=float)


def variance(f: Family, theta: float, phi: Callable, **kw) -> float:
    m = expect(f, theta, phi, **kw)
    dev2 = lambda y: (phi(y) - m) ** 2
    block = getattr(phi, "block", None)
    if block is not None:
        # float_power calls the C library's pow, as Python's float ** does;
        # numpy's ** 2 squares, which rounds differently about once in 1,200
        _with_block(dev2, lambda xs: np.float_power(block(xs) - m, 2))
    return expect(f, theta, dev2, **kw)


@dataclass
class GenEstimator:
    """A generalized estimator: sample -> function on the parameter space.

    ``evaluate(y, theta)`` is the defining map.  ``deriv`` is the
    analytic theta-derivative when one is available; otherwise slope
    computations fall back to central differences.  ``mean_fn`` /
    ``mean_deriv`` are the lift's mean function and its derivative for
    ``kind == "lifted_point"``.
    """

    family: Family
    evaluate: Callable
    kind: str = KIND_CUSTOM
    deriv: Optional[Callable] = None
    mean_fn: Optional[Callable] = None
    mean_deriv: Optional[Callable] = None

    def __call__(self, y, theta: float) -> float:
        return self.evaluate(y, theta)

    def var(self, theta: float, **kw) -> float:
        return variance(self.family, theta, self._at(theta), **kw)

    def _at(self, theta: float) -> Callable:
        """y -> g(y, theta) as an integrand.  The score's evaluate takes a
        chunk of samples whole, so it is its own block form."""
        phi = lambda y: self.evaluate(y, theta)
        return _with_block(phi, phi) if self.kind == KIND_SCORE else phi


def score_estimator(f: Family) -> GenEstimator:
    """The score as a generalized estimator (the Lambda-optimal one); its
    evaluate takes a block of samples wherever ``f.score`` does."""
    return GenEstimator(family=f, evaluate=lambda y, th: f.score(th, y), kind=KIND_SCORE)


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
    supplied.  The orientation restriction E[h * score] >= 0 is checked
    on ``check_grid`` when given; a violation raises rather than
    silently negating the statistic.
    """
    # an expectation of h or h' at theta (or at theta +- h) evaluates ups or
    # dups at every sample point: cached, the expectation behind each runs once
    once_per_theta = functools.lru_cache(maxsize=3)
    ups = mean_fn if mean_fn is not None else once_per_theta(lambda th: expect(f, th, u, **kw))
    if mean_deriv is not None:
        dups = mean_deriv
    else:
        # d/dtheta E[u] = E[u * score]: exact whenever the expectation
        # engine is exact, unlike a finite difference of the mean
        @once_per_theta
        def dups(th: float) -> float:
            rows = _per_row(u)
            return expect(f, th, _with_block(lambda y: u(y) * f.score(th, y), lambda xs: rows(xs) * f.score(th, xs)), **kw)

    est = GenEstimator(family=f, evaluate=lambda y, th: u(y) - ups(th), kind=KIND_LIFTED,
                       deriv=lambda y, th: -dups(th), mean_fn=ups, mean_deriv=dups)
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
    once, on first use, and shared by the quantities that read it."""

    def __init__(self, g: GenEstimator, theta: float, kw: dict):
        self.g, self.theta, self.kw = g, theta, kw
        self._expect = functools.partial(expect, g.family, theta, **kw)

    @functools.cached_property
    def var(self) -> float:
        v = self.g.var(self.theta, **self.kw)
        if not v > 0:
            raise ZeroVarianceError(f"variance {v} is not positive at theta={self.theta}")
        return v

    @functools.cached_property
    def fd_slope(self) -> float:
        g, th, h = self.g, self.theta, _FD_STEP * (1.0 + abs(self.theta))
        return self._expect(lambda y: (g.evaluate(y, th + h) - g.evaluate(y, th - h)) / (2.0 * h))

    @functools.cached_property
    def slope(self) -> float:
        """E[dg/dtheta] at theta; analytic derivative when available."""
        return self.fd_slope if self.g.deriv is None else self._expect(lambda y: self.g.deriv(y, self.theta))

    @functools.cached_property
    def cov(self) -> float:
        th, score, phi = self.theta, self.g.family.score, self.g._at(self.theta)
        rows = getattr(phi, "block", None) or _per_row(phi)
        return self._expect(_with_block(lambda y: phi(y) * score(th, y), lambda xs: rows(xs) * score(th, xs)))

    def standardize(self, y) -> float:
        return self.g.evaluate(y, self.theta) / math.sqrt(self.var)

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
            lhs = -(self.fd_slope if self.g.kind == KIND_LIFTED else self.slope)
        return abs(lhs - self.cov)


def standardize(g: GenEstimator, theta: float, y, **kw) -> float:
    """g(y, theta) / sqrt(V_theta(g))."""
    return _SlopeAt(g, theta, kw).standardize(y)


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
    m = expect(f, theta, u, **kw)
    if abs(m - theta) > tol:
        raise BiasError(f"u is biased at theta={theta}: bias={m - theta:.3e}")
    v = expect(f, theta, lambda y: (u(y) - m) ** 2, **kw)  # the variance pass, on the bias pass's mean
    return 1.0 / (f.fisher_info(theta) * v)


def effective_n(g: GenEstimator, theta: float, **kw) -> float:
    """The full-sample size at which the optimal estimator matches g's slope."""
    return _SlopeAt(g, theta, kw).eff * g.family.n


def check_identity(g: GenEstimator, theta: float, **kw) -> float:
    """Residual |-E g' - E(g * score)| of the differentiation identity.

    Both sides are computed through independent routes: the left side
    uses the closed-form information for the score estimator and
    central differences otherwise; the right side is always the
    score-covariance expectation.  A lifted estimator's analytic
    ``deriv`` is deliberately not used here, since for lifts it is
    itself derived from a score covariance and would make the check
    circular.
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
    function.  Each moment behind them is taken once per theta: 5 expectation
    passes for an estimator with ``deriv``, 1 for the score."""
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
