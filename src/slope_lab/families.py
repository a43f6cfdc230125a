"""One-parameter families: densities, scores, information, samplers.

Four concrete families are provided:

* ``Bernoulli(n)`` -- n coin flips reduced to the success count
  ``y in {0..n}``; parameterized either by the success probability
  (chart ``"p"``) or by the log odds (chart ``"log_odds"``); its domain,
  MLE and KL divergence read the chart only through ``_p`` and ``_theta``.
* ``NormalLocation(sigma, n)`` -- normal mean with known sigma, sample
  reduced to the sufficient mean ``xbar``.
* ``CauchyLocation(n)`` -- standard Cauchy shifted by theta; no
  sufficient reduction exists, the sample is the full sorted vector.
  Its formulas, draws, MLE and LRT level set are those of ``cauchy``.
* ``CauchyMedian(k)`` -- the sampling law of the median of 2k+1
  standard Cauchy observations.

``BivariateNormalSlice`` is a small fifth family used to demonstrate
that the squared slope separates estimators that bias and variance
cannot: a one-parameter slice of the zero-correlation bivariate normal
where the parameter moves only the first coordinate.

The log-likelihoods of ``Bernoulli``, ``NormalLocation`` and
``BivariateNormalSlice`` drop additive constants that do not depend on
the parameter (k(n,y) = 0 convention: the log binomial coefficient, the
normal's log normalizer); ``CauchyLocation``'s keeps its -n log(pi), and
``CauchyMedian``'s is the full log density of the median.  Scores,
information, and slope quantities are invariant to this choice.

A new family is one new class here, with ``check_sample``, ``loglik``,
``score``, ``fisher_info``, ``sample``, and the nodes of its expectations:
``values(theta, block, ...)`` and ``weights`` for a finite-node or sampling
family, or ``density`` for a continuous one.  ``values`` calls ``block`` on
the family's nodes, a sequence of samples, and returns what it gives: one
value per node, or several such columns.  ``_Pass``, the one moment
engine and the only reader of ``weights``, reduces them: the weighted sum
(the binomial sum, the Gauss-Hermite rule), or under equal weights (Monte
Carlo) the plain mean and its standard error; where there are no nodes,
quadrature times ``density``; it checks theta, ``mc_draws`` and ``mc_seed``
before it calls ``values``, whether or not the family draws.  ``expect``
(never overridden) is a pass of one quantity, ``gcore``'s slopes of several.
``scores(theta, ys)`` gives the score at every sample of a block; the base
calls ``score`` per sample, and a family with a vectorised score
(``CauchyLocation``, per Monte Carlo chunk) overrides it.  ``mle`` and
``kl`` serve LRT intervals and KL lengths.  ``observed_info`` (a central
difference of the score), ``sup_loglik`` (l at the MLE) and
``reference_info`` (the Fisher information) have base defaults, and so
have ``lrt_hull(y, drop)`` and ``kl_ball(lo, hi)``, by ``_bisect``
(``CauchyLocation``'s from ``cauchy``); an override keeps its base signature
and checks its arguments.  Sizes, counts and seeds go through ``check_int``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np
import scipy

from .cauchy import (cauchy_kl_length, cauchy_level_set_ends, cauchy_loglik, cauchy_mle, cauchy_obs_info,
                     cauchy_offsets, cauchy_score, cauchy_sorted_draws, certified_level_set)
from .errors import BracketError, DivergentIntegralError, DomainError
from .quadrature import integrate_real_line

Sample = Union[int, float, np.ndarray, tuple]
DEFAULT_MC_DRAWS = 10**6
_MC_CHUNK = 1 << 14  # Monte Carlo samples drawn and held at once
_THETA_TOL = 1e-10
_FD_STEP = 1e-5  # a central difference at theta steps _FD_STEP * (1 + |theta|)
_MAX_DOUBLINGS = 60

CHART_P = "p"
CHART_LOG_ODDS = "log_odds"
CHART_THETA = "theta"


# numpy's Philox(key=[seed, r]) casts a key word of 2**63 or more through
# float64, so such seeds would silently share streams (2**64 - 1 those of 0).
SEED_END = 2**63


def check_int(name: str, value, least: int, below: Optional[int] = None) -> int:
    """``value`` as an int: the one rule for every size, count and seed.  A
    DomainError unless it is an int or numpy integer, not a bool, in
    [least, below)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least or (
            below is not None and value >= below):
        if below is not None:
            kind = f"an integer in [{least}, {below})"
        else:
            kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _bisect(keep: Callable, a: float, b: float) -> float:
    """Midpoint of [a, b] (in either order) shrunk below _THETA_TOL; the
    midpoint replaces a where ``keep`` holds there and b where it does not."""
    while abs(b - a) > _THETA_TOL:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:  # adjacent floats: beyond about 1e6 their spacing exceeds the tolerance
            break
        if keep(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def reparam(family: "Family", from_chart: str, to_chart: str, value: float) -> float:
    """Map a parameter value, checked in the open domain of ``from_chart``,
    between admissible charts of ``family``.

    For Bernoulli this is the log-odds bijection p -> log(p/(1-p)) and
    its inverse, through ``Bernoulli._p`` and ``_theta``; all other
    families admit only the identity chart.
    """
    charts = family.charts
    if from_chart not in charts or to_chart not in charts:
        raise DomainError(
            f"charts ({from_chart!r}, {to_chart!r}) not admissible for {family}"
        )
    at = lambda chart: family if chart == family.chart else replace(family, chart=chart)
    at(from_chart).check_param(value)
    if from_chart == to_chart:
        return value
    return at(to_chart)._theta(at(from_chart)._p(value))


def _logit(p: float) -> float:
    """The log odds log(p / (1 - p)) of p in [0, 1], -inf at 0 and +inf at 1: Bernoulli's chart map."""
    return math.copysign(math.inf, p - 0.5) if p in (0.0, 1.0) else math.log(p / (1.0 - p))


def _logistic(theta: float) -> float:
    """The p = 1 / (1 + e^-theta) of log odds theta, the inverse of ``_logit``."""
    return 1.0 / (1.0 + math.exp(-theta))


def median_density(k: int, z: float, theta: float) -> float:
    """Density of the median of 2k+1 iid standard Cauchy draws at z.

    The factorial ratio (2k+1)!/(k!)^2 is computed through log-gamma so
    large k does not overflow.
    """
    return _median_density(check_int("k", k, 0), z, theta)


def _median_density(k: int, z, theta: float):
    """``median_density`` of a checked k, as ``CauchyMedian`` reads it at every point."""
    t = np.asarray(z, dtype=float) - theta
    log_c = _median_log_constant(k)
    bracket = _median_angle(t)[1]
    with np.errstate(divide="ignore"):
        log_f = log_c + k * np.log(bracket) - np.log1p(t * t)
    out = np.exp(log_f)
    if np.ndim(z) == 0:
        return float(out)
    return out


@functools.cache
def _median_log_constant(k: int) -> float:
    """log((2k+1)! / (k!)^2 / pi), the constant of ``median_density``."""
    return scipy.special.gammaln(2 * k + 2) - 2.0 * scipy.special.gammaln(k + 1) - math.log(math.pi)


def _per_row(fn: Callable) -> Callable:
    """The block function that calls ``fn`` on each sample of a block."""
    return lambda ys: np.array([fn(y) for y in ys], dtype=float)


def _square(v):
    """v * v, the one square: a correctly rounded product, on a float and a column alike."""
    return v * v


_SCORE = object()  # marks the family's score among a _Pass's quantities


class _Pass:
    """Means of elementwise formulas in named per-sample quantities under
    ``f`` at theta: each a function of one sample, or ``_SCORE``.

    Where ``f`` has nodes, ``f.values`` hands them to one block function,
    which computes each quantity once per node (the score by ``f.scores``,
    once per Monte Carlo chunk) and keeps it as a column; the node weights
    are read once.  Every mean is then a reduction of the kept columns,
    ``np.dot(weights, column)``, or ``column.mean()`` with ``se`` under
    equal weights.  Without nodes, each mean is one quadrature of its
    formula times the density, reading only the quantities it names.
    """

    def __init__(self, f: Family, theta: float, quantities: dict, kw: dict):
        f.check_param(theta)
        kw = {**kw, "mc_seed": check_int("mc_seed", kw.get("mc_seed", 0), 0, SEED_END),
              "mc_draws": check_int("mc_draws", kw.get("mc_draws", DEFAULT_MC_DRAWS), 2)}
        self.f, self.theta = f, theta
        score = lambda y: f.score(theta, y)
        self.quantities = {k: score if fn is _SCORE else fn for k, fn in quantities.items()}
        blocks = [(lambda ys: f.scores(theta, ys)) if fn is _SCORE else _per_row(fn) for fn in quantities.values()]
        vals = f.values(theta, lambda ys: [b(ys) for b in blocks], **kw)
        self.columns = None if vals is None else dict(zip(quantities, vals))
        self.weights = None if vals is None else f.weights(theta)

    def mean(self, formula: Optional[Callable], *names: str) -> float:
        """E[formula(*the quantities named)]; with no formula, E[the one
        quantity named]."""
        if self.columns is not None:
            cols = [self.columns[k] for k in names]
            vals = cols[0] if formula is None else formula(*cols)
            return float(vals.mean() if self.weights is None else np.dot(self.weights, vals))
        q = [self.quantities[k] for k in names]
        at = q[0] if formula is None else lambda y: formula(*[a(y) for a in q])
        return integrate_real_line(lambda y: at(y) * self.f.density(self.theta, y))

    def se(self, name: str) -> float:
        """The Monte Carlo standard error of E[the quantity named], else 0.0."""
        if self.columns is None or self.weights is not None:
            return 0.0
        col = self.columns[name]
        return float(col.std(ddof=1) / math.sqrt(len(col)))

    def moments(self, name: str, g: Optional[Callable] = None) -> tuple:
        """(E g, V g) of the formula g of one quantity (the quantity itself
        when None): the mean, then the mean squared deviation from it.  The
        one variance routine."""
        m = self.mean(g, name)
        return m, self.mean((lambda v: _square(v - m)) if g is None else (lambda v: _square(g(v) - m)), name)


def _median_angle(t):
    """(arctan t, 1/4 - arctan(t)^2 / pi^2): the median law's angle, and F (1 - F) for the Cauchy cdf F."""
    a = np.arctan(t)
    return a, 0.25 - a * a / (math.pi * math.pi)


def _median_dlog_dtheta(k: int, t: np.ndarray) -> np.ndarray:
    """d/dtheta log f_med(z; theta) expressed in t = z - theta."""
    a, bracket = _median_angle(t)
    return (2.0 * k * a / (math.pi * math.pi * bracket) + 2.0 * t) / (1.0 + t * t)


class Family:
    """Base class; concrete families implement the likelihood triple.

    Subclasses provide the methods the module docstring lists; the base
    class owns domain checking, chart metadata and the shared defaults.
    """

    charts: tuple = (CHART_THETA,)
    chart: str = CHART_THETA

    def param_domain(self) -> tuple:
        return (-math.inf, math.inf)

    def check_param(self, theta: float) -> None:
        lo, hi = self.param_domain()
        if not lo < theta < hi:  # false for NaN, and for +-inf even on an unbounded domain
            raise DomainError(f"parameter {theta} outside open domain ({lo}, {hi})")

    def check_sample(self, y: Sample) -> None:
        raise NotImplementedError

    def loglik(self, theta: float, y: Sample) -> float:
        raise NotImplementedError

    def score(self, theta: float, y: Sample) -> float:
        raise NotImplementedError

    def fisher_info(self, theta: float) -> float:
        raise NotImplementedError

    def sample(self, theta: float, rng: np.random.Generator) -> Sample:
        raise NotImplementedError

    def density(self, theta: float, y) -> np.ndarray:
        raise NotImplementedError

    def expect(self, theta: float, phi, *, mc_draws: int = DEFAULT_MC_DRAWS, mc_seed: int = 0) -> tuple:
        """(E_theta[phi(Y)], standard error), the one expectation engine: a
        ``_Pass`` of phi.  The mean of ``values`` under ``weights``, SE 0;
        under equal weights (None, a sampling family) their plain mean and
        its standard error; where ``values`` is None, quadrature of
        phi * density, SE 0."""
        one = _Pass(self, theta, {"phi": phi}, dict(mc_draws=mc_draws, mc_seed=mc_seed))
        return one.mean(None, "phi"), one.se("phi")

    def values(self, theta: float, block: Callable, *, mc_draws: int = DEFAULT_MC_DRAWS, mc_seed: int = 0):
        """``block`` on the nodes of this family's expectations at theta, or
        None where there are none and ``expect`` integrates the density.

        ``block`` takes a sequence of samples and returns one value per
        sample, or several such columns; they come back as an array (nodes,)
        or (k, nodes).  A sampling family calls it once per chunk of draws.
        The caller checks theta, ``mc_draws`` and ``mc_seed``.
        """
        return None

    def scores(self, theta: float, ys) -> np.ndarray:
        """The score at each sample of the block ``ys``, by ``score``."""
        return _per_row(lambda y: self.score(theta, y))(ys)

    def weights(self, theta: float):
        """The weights of the nodes of ``values`` at theta, summing to 1, or
        None for equal weights."""
        return None

    def mle(self, y: Sample) -> float:
        raise NotImplementedError

    def observed_info(self, theta_hat: float, y: Sample) -> float:
        """-l''(theta_hat; y), by a central difference of the score."""
        h = _FD_STEP * (1.0 + abs(theta_hat))
        return -(self.score(theta_hat + h, y) - self.score(theta_hat - h, y)) / (2.0 * h)

    def sup_loglik(self, y: Sample, mle: float) -> float:
        return self.loglik(mle, y)

    def lrt_hull(self, y: Sample, drop: float) -> tuple:
        """(lo, hi, disconnected) of {theta : l(theta) > sup l - drop}:
        steps from the MLE that double (or halve the way to a finite end of
        the domain) until l falls below the level, then bisection.  Exact
        for a unimodal likelihood, whose level set is one interval."""
        mle = self.mle(y)
        target = self.sup_loglik(y, mle) - drop
        ends = []
        for sgn, dom in zip((-1.0, 1.0), self.param_domain()):
            if mle == dom and math.isfinite(dom):  # an MLE on an end of the domain is the hull's end
                ends.append(dom)
                continue
            for i in range(_MAX_DOUBLINGS):
                if math.isfinite(dom):
                    far = mle + (dom - mle) * (1.0 - 2.0 ** -(i + 1))
                else:
                    far = mle + sgn * 0.5 * (1.0 + abs(mle)) * 2.0**i
                if self.loglik(far, y) < target:
                    break
            else:
                raise BracketError(f"no point with l < {target:.4g} found after {_MAX_DOUBLINGS} doublings")
            ends.append(_bisect(lambda t: self.loglik(t, y) > target, mle, far))
        return ends[0], ends[1], False

    def kl(self, theta1: float, theta2: float) -> float:
        raise NotImplementedError

    def kl_ball(self, lo: float, hi: float) -> tuple:
        """(center, radius) of the smallest KL ball covering [lo, hi], lo < hi:
        for D increasing in the parameter gap, the crossing of D(lo||c), rising
        in c, and D(hi||c), falling, bisected to 1e-10."""
        center = _bisect(lambda c: self.kl(lo, c) < self.kl(hi, c), lo, hi)
        return center, max(self.kl(lo, center), self.kl(hi, center))

    def reference_info(self, theta: float) -> float:
        """Full-sample information, the benchmark for efficiencies."""
        return self.fisher_info(theta)


@dataclass(frozen=True)
class Bernoulli(Family):
    """n Bernoulli trials reduced to the success count y."""

    n: int
    chart: str = CHART_P

    charts = (CHART_P, CHART_LOG_ODDS)

    def __post_init__(self):
        check_int("n", self.n, 1)
        if self.chart not in self.charts:
            raise DomainError(f"unknown chart {self.chart!r}")
        object.__setattr__(self, "_domain", (self._theta(0.0), self._theta(1.0)))  # the images of p = 0, 1

    def param_domain(self) -> tuple:
        return self._domain

    def support(self) -> np.ndarray:
        return np.arange(self.n + 1)

    def _p(self, theta: float) -> float:
        """The success probability at theta; it and its inverse ``_theta`` alone read the chart."""
        return theta if self.chart == CHART_P else _logistic(theta)

    def _theta(self, p: float) -> float:
        return p if self.chart == CHART_P else _logit(p)

    def check_sample(self, y: Sample) -> None:
        if not 0 <= y <= self.n or y != int(y):  # the range first: int() of NaN or inf raises
            raise DomainError(f"y={y} not an integer in [0, {self.n}]")

    def pmf(self, theta: float) -> np.ndarray:
        """Exact binomial weights over the support."""
        self.check_param(theta)
        p = self._p(theta)
        ys = self.support()
        log_pmf = _log_binomials(self.n) + ys * math.log(p) + (self.n - ys) * math.log1p(-p)
        return np.exp(log_pmf)

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        p = self._p(theta)
        if self.chart == CHART_P:
            return y * math.log(p) + (self.n - y) * math.log1p(-p)
        # in the log-odds chart:  y*theta - n*log(1 + e^theta)
        return y * theta - self.n * (theta + math.log1p(math.exp(-theta)) if theta > 0
                                     else math.log1p(math.exp(theta)))

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        p = self._p(theta)
        if self.chart == CHART_P:
            return (y - self.n * p) / (p * (1.0 - p))
        return y - self.n * p

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        p = self._p(theta)
        if self.chart == CHART_P:
            return self.n / (p * (1.0 - p))
        return self.n * p * (1.0 - p)

    def sample(self, theta: float, rng: np.random.Generator) -> int:
        self.check_param(theta)
        p = self._p(theta)
        return int(np.count_nonzero(rng.random(self.n) < p))

    def values(self, theta, block, *, mc_draws=DEFAULT_MC_DRAWS, mc_seed=0) -> np.ndarray:
        """``block`` on the counts of the support: the exact binomial sum's nodes."""
        return np.asarray(block([int(y) for y in self.support()]), dtype=float)

    def weights(self, theta: float) -> np.ndarray:
        return self.pmf(theta)

    def mle(self, y: Sample) -> float:
        self.check_sample(y)
        return float(self._theta(y / self.n))

    def sup_loglik(self, y: Sample, mle: float) -> float:
        """sup over the closed [0, 1], with the 0 log 0 = 0 convention."""
        self.check_sample(y)
        p_hat = y / self.n
        sup = 0.0
        if 0 < y:
            sup += y * math.log(p_hat)
        if y < self.n:
            sup += (self.n - y) * math.log1p(-p_hat)
        return sup

    def lrt_hull(self, y: Sample, drop: float) -> tuple:
        """The base hull, except at a log-odds MLE of -inf (y = 0) or +inf
        (y = n), where l = -n log(1 + e^theta) or -n log(1 + e^-theta): the
        level set is then the p chart's one-sided hull mapped through the
        logit, (-inf, log(e^(drop/n) - 1)) at y = 0 and its mirror at y = n."""
        mle = self.mle(y)
        if not math.isinf(mle):
            return super().lrt_hull(y, drop)
        edge = math.log(math.expm1((drop - self.sup_loglik(y, mle)) / self.n))
        return (-math.inf, edge, False) if mle < 0 else (-edge, math.inf, False)

    def kl(self, theta1: float, theta2: float) -> float:
        p1, p2 = self._p(theta1), self._p(theta2)
        if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
            raise DomainError(f"parameters ({theta1}, {theta2}) give p = ({p1}, {p2}), not both in (0, 1)")
        return self.n * (p1 * math.log(p1 / p2) + (1.0 - p1) * math.log((1.0 - p1) / (1.0 - p2)))


@dataclass(frozen=True)
class NormalLocation(Family):
    """Normal mean family with known sigma; sample reduced to xbar."""

    sigma: float
    n: int

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        check_int("n", self.n, 1)

    def check_sample(self, y: Sample) -> None:
        if not np.isfinite(y):
            raise DomainError(f"xbar={y} is not finite")

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return -self.n * _square(y - theta) / (2.0 * _square(self.sigma))

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return self.n * (y - theta) / _square(self.sigma)

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return self.n / _square(self.sigma)

    def sample(self, theta: float, rng: np.random.Generator) -> float:
        self.check_param(theta)
        return float(rng.normal(theta, self.sigma / math.sqrt(self.n)))

    def density(self, theta: float, y) -> np.ndarray:
        sd = self.sigma / math.sqrt(self.n)
        z = (np.asarray(y, dtype=float) - theta) / sd
        return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    def mle(self, y: Sample) -> float:
        self.check_sample(y)
        return float(y)

    def observed_info(self, theta_hat: float, y: Sample) -> float:
        self.check_param(theta_hat)
        self.check_sample(y)
        return self.n / _square(self.sigma)

    def kl(self, theta1: float, theta2: float) -> float:
        d = theta1 - theta2
        return self.n * d * d / (2.0 * _square(self.sigma))


@dataclass(frozen=True)
class CauchyLocation(Family):
    """Standard Cauchy shifted by theta; the sample is the full vector."""

    n: int

    def __post_init__(self):
        check_int("n", self.n, 1)

    def check_sample(self, y: Sample) -> None:
        self._observations(y)

    def _observations(self, y, ndims: tuple = (1,)) -> np.ndarray:
        """``y`` as floats: one sorted sample (n,) or, where ``ndims`` allows,
        a block (m, n) of sorted rows, checked in one vectorised pass; a
        DomainError as for one bad sample otherwise."""
        x = np.asarray(y, dtype=float)
        if x.ndim not in ndims or x.shape[-1] != self.n:
            raise DomainError(f"expected {self.n} observations, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise DomainError("non-finite observation")
        if (x[..., 1:] < x[..., :-1]).any():
            raise DomainError("observations must be sorted ascending")
        return x

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return float(cauchy_loglik(cauchy_offsets(y, theta))) - self.n * math.log(math.pi)

    def score(self, theta: float, y: Sample):
        """l'(theta) of one sorted sample (n,), or the m scores of a block
        (m, n) of sorted rows, each equal to a per-row call bit for bit."""
        self.check_param(theta)
        x = self._observations(y, ndims=(1, 2))
        s = cauchy_score(cauchy_offsets(x, theta))
        return float(s) if x.ndim == 1 else s

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return self.n / 2.0

    def sample(self, theta: float, rng: np.random.Generator) -> np.ndarray:
        self.check_param(theta)
        return cauchy_sorted_draws(rng.random(self.n), theta)

    def scores(self, theta, ys) -> np.ndarray:
        """The scores of a block (m, n) of sorted rows, in one ``score`` call."""
        return self.score(theta, ys)

    def values(self, theta, block, *, mc_draws=DEFAULT_MC_DRAWS, mc_seed=0) -> np.ndarray:
        """``block`` on ``mc_draws`` samples from Philox key (mc_seed, 0), in
        the order drawn: once per chunk of up to 2**14 sorted rows (m, n).  The
        caller checks theta and both arguments (``mc_draws`` >= 2, for the SE)."""
        rng = np.random.Generator(np.random.Philox(key=[mc_seed, 0]))
        vals = None
        for c in range(0, mc_draws, _MC_CHUNK):
            # chunks read the stream in order, so they draw what one call would
            x = cauchy_sorted_draws(rng.random((min(_MC_CHUNK, mc_draws - c), self.n)), theta)
            chunk = np.asarray(block(x), dtype=float)
            if vals is None:
                vals = np.empty(chunk.shape[:-1] + (mc_draws,))
            vals[..., c : c + len(x)] = chunk
        return vals

    def mle(self, y: Sample) -> float:
        return cauchy_mle(self._observations(y))

    def lrt_hull(self, y: Sample, drop: float) -> tuple:
        """The certified kernel of ``cauchy`` on a batch of one, one pass for
        the MLE and the set: exact when it is a union of intervals, and flagged."""
        x = self._observations(y)[None, :]
        _, target, outer, disconnected = certified_level_set(x, drop)
        lo, hi = cauchy_level_set_ends(x, outer, target)
        return float(lo[0]), float(hi[0]), bool(disconnected[0])

    def observed_info(self, theta_hat: float, y: Sample) -> float:
        self.check_param(theta_hat)
        return float(cauchy_obs_info(cauchy_offsets(self._observations(y), theta_hat)))

    def kl(self, theta1: float, theta2: float) -> float:
        """Single-observation divergence log(d^2 + 4) - log 4, d the gap: ``cauchy_kl_length`` of width 2d."""
        return float(cauchy_kl_length(2.0 * (theta1 - theta2)))

    def kl_ball(self, lo: float, hi: float) -> tuple:
        return 0.5 * (lo + hi), float(cauchy_kl_length(hi - lo))


@dataclass(frozen=True)
class CauchyMedian(Family):
    """Sampling law of the median of a Cauchy sample of size 2k+1."""

    k: int

    def __post_init__(self):
        check_int("k", self.k, 0)

    @property
    def n(self) -> int:
        """Size of the underlying full sample."""
        return 2 * self.k + 1

    def check_sample(self, y: Sample) -> None:
        if not np.isfinite(y):
            raise DomainError(f"z={y} is not finite")

    def density(self, theta: float, y) -> np.ndarray:
        return _median_density(self.k, y, theta)

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return float(np.log(_median_density(self.k, y, theta)))

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return float(_median_dlog_dtheta(self.k, np.asarray(y, dtype=float) - theta))

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return median_fisher_info(self.k)

    def sample(self, theta: float, rng: np.random.Generator) -> float:
        self.check_param(theta)
        return float(cauchy_sorted_draws(rng.random(self.n), theta)[self.k])

    def mle(self, y: Sample) -> float:
        self.check_sample(y)
        return float(y)

    def kl(self, theta1: float, theta2: float) -> float:
        """By quadrature of the median law's log-density ratio."""
        return integrate_real_line(
            lambda z: self.density(theta1, z)
            * (np.log(self.density(theta1, z)) - np.log(self.density(theta2, z)))
        )

    def reference_info(self, theta: float) -> float:
        """The information of the full sample the median reduces: ``CauchyLocation``'s."""
        return CauchyLocation(self.n).fisher_info(theta)


@dataclass(frozen=True)
class BivariateNormalSlice(Family):
    """One-parameter slice of the unit bivariate normal, mean (theta, 0).

    The sample is the pair of coordinate means (z1, z2), each with
    variance 1/n.  The score depends only on z1; statistics of z2 have
    zero slope here even though their variance attains the usual lower
    bound, which is the point of the demonstration.
    """

    n: int

    def __post_init__(self):
        check_int("n", self.n, 1)

    def check_sample(self, y: Sample) -> None:
        if np.shape(y) != (2,) or not np.isfinite(y).all():
            raise DomainError(f"expected a finite pair (z1, z2), got {y!r}")

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        z1, z2 = y
        return -self.n * (_square(z1 - theta) + z2 * z2) / 2.0

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        z1, _ = y
        return self.n * (z1 - theta)

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return float(self.n)

    def sample(self, theta: float, rng: np.random.Generator) -> tuple:
        self.check_param(theta)
        sd = 1.0 / math.sqrt(self.n)
        return (float(rng.normal(theta, sd)), float(rng.normal(0.0, sd)))

    def values(self, theta, block, *, mc_draws=DEFAULT_MC_DRAWS, mc_seed=0) -> np.ndarray:
        """``block`` on the 64 x 64 Gauss-Hermite nodes (z1, z2), z1 the outer one."""
        nodes = _gauss_hermite()[0]
        sd = 1.0 / math.sqrt(self.n)
        return np.asarray(block([(theta + sd * a, sd * b) for a in nodes for b in nodes]), dtype=float)

    def weights(self, theta: float) -> np.ndarray:
        return _gauss_hermite()[1]


@functools.cache
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, y) for y = 0..n, the constant part of ``Bernoulli.pmf``."""
    ys = np.arange(n + 1)
    out = scipy.special.gammaln(n + 1) - scipy.special.gammaln(ys + 1) - scipy.special.gammaln(n - ys + 1)
    out.flags.writeable = False  # cached: every caller gets this array
    return out


@functools.cache
def _gauss_hermite() -> tuple:
    """The 64-point rule for the standard normal weight e^(-x^2/2): its nodes,
    and the product weights of the 64 x 64 rule over 2 pi, in the order of
    ``BivariateNormalSlice.values``.  Computed on first use (about 13 ms)."""
    nodes, w = np.polynomial.hermite_e.hermegauss(64)
    product = np.outer(w, w).ravel() / (2.0 * math.pi)
    for shared in (nodes, product):  # cached: every caller gets these arrays
        shared.flags.writeable = False
    return nodes, product


# The median information and variance are pure functions of k and each
# costs an adaptive quadrature, so each k is integrated once per process.
# Each checks k first, and is cached by k's type as well as its value, so a
# float or a bool equal to a good k is refused, never answered from the cache.


@functools.lru_cache(maxsize=None, typed=True)
def median_fisher_info(k: int) -> float:
    """Fisher information of the median law, by quadrature."""
    k = check_int("k", k, 0)

    def integrand(t: float) -> float:
        return _square(_median_dlog_dtheta(k, np.asarray(t))) * _median_density(k, t, 0.0)

    return integrate_real_line(integrand)


@functools.lru_cache(maxsize=None, typed=True)
def median_variance(k: int) -> float:
    """Variance of the median law, by quadrature; finite iff k >= 2.

    The median of 2k+1 standard Cauchy draws has density proportional to
    F^k (1 - F)^k f, with F and f the Cauchy cdf and density.  As
    1 - F ~ 1/(pi z) and f ~ 1/(pi z^2), its tails fall as |z|^-(k+2), so
    z^2 times it is integrable iff k >= 2, a sample of at least 5 (Rider
    1960).  For k = 0 and 1 this raises DivergentIntegralError by that
    rule, without integrating.  For k >= 2, z^2 f_med(z) (1 + z^2) is
    bounded, so the integrand after the tangent substitution is too.
    """
    k = check_int("k", k, 0)
    if k in (0, 1):
        raise DivergentIntegralError(
            f"the median of {2 * k + 1} Cauchy draws has no variance: its tails fall as |z|^-{k + 2}"
        )

    def integrand(t: float) -> float:
        return t * t * _median_density(k, t, 0.0)

    return integrate_real_line(integrand)
