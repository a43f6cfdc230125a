"""One-parameter families: densities, scores, information, samplers.

Four concrete families are provided:

* ``Bernoulli(n)`` -- n coin flips reduced to the success count
  ``y in {0..n}``; parameterized either by the success probability
  (chart ``"p"``) or by the log odds (chart ``"log_odds"``).
* ``NormalLocation(sigma, n)`` -- normal mean with known sigma, sample
  reduced to the sufficient mean ``xbar``.
* ``CauchyLocation(n)`` -- standard Cauchy shifted by theta; no
  sufficient reduction exists, the sample is the full sorted vector.
* ``CauchyMedian(k)`` -- the sampling law of the median of 2k+1
  standard Cauchy observations.

``BivariateNormalSlice`` is a small fifth family used to demonstrate
that the squared slope separates estimators that bias and variance
cannot: a one-parameter slice of the zero-correlation bivariate normal
where the parameter moves only the first coordinate.

Log-likelihoods drop additive constants that do not depend on the
parameter (k(n,y) = 0 convention); scores, information, and slope
quantities are invariant to this choice.

A new family is one new class here, with ``check_sample``, ``loglik``,
``score``, ``fisher_info``, ``sample``, and ``density`` (``Family.expect``
integrates it by quadrature) or its own ``expect``; ``mle`` and ``kl``
serve LRT intervals and KL lengths.  ``observed_info`` (a central
difference of the score), ``sup_loglik`` (l at the MLE) and
``reference_info`` (the Fisher information) have base defaults.

A Monte Carlo ``expect`` (``CauchyLocation``'s) draws its samples in
chunks.  An integrand may carry a block form, ``phi.block``, which takes
a chunk (m, n) of sorted samples and returns its m values, equal to
``phi`` row by row bit for bit; the engine then calls it once per chunk
instead of ``phi`` once per row.  ``CauchyLocation.score`` takes such a
block, so the slope quantities built on the score run as one array
operation per chunk; a user statistic inside them still runs per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaln

from .errors import BracketError, CertificateError, DivergentIntegralError, DomainError
from .quadrature import integrate_real_line, integrate_real_line_or_divergent

Sample = Union[int, float, np.ndarray, tuple]
DEFAULT_MC_DRAWS = 10**6
_MC_CHUNK = 1 << 14  # Monte Carlo samples drawn and held at once

CHART_P = "p"
CHART_LOG_ODDS = "log_odds"
CHART_THETA = "theta"


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as a Philox key word, a DomainError unless an integer in [0, 2**63).

    numpy's ``Philox(key=[seed, r])`` casts a larger word through float64,
    so such seeds would silently share streams (2**64 - 1 those of 0).
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**63:
        raise DomainError(f"{name} must be an integer in [0, 2**63), got {seed!r}")
    return int(seed)


def _check_mc_draws(mc_draws) -> int:
    """``mc_draws`` as an int, a DomainError unless an integer >= 2: the
    standard error needs two draws."""
    if isinstance(mc_draws, bool) or not isinstance(mc_draws, (int, np.integer)) or mc_draws < 2:
        raise DomainError(f"mc_draws must be an integer >= 2, got {mc_draws!r}")
    return int(mc_draws)


def reparam(family: "Family", from_chart: str, to_chart: str, value: float) -> float:
    """Map a parameter value between admissible charts of ``family``.

    For Bernoulli this is the log-odds bijection p -> log(p/(1-p)) and
    its inverse; all other families admit only the identity chart.
    """
    charts = family.charts
    if from_chart not in charts or to_chart not in charts:
        raise DomainError(
            f"charts ({from_chart!r}, {to_chart!r}) not admissible for {family}"
        )
    if from_chart == to_chart:
        return value
    if from_chart == CHART_P:
        if not 0.0 < value < 1.0:
            raise DomainError(f"p={value} outside (0, 1)")
        return math.log(value / (1.0 - value))
    # log_odds -> p
    return 1.0 / (1.0 + math.exp(-value))


def median_density(k: int, z: float, theta: float) -> float:
    """Density of the median of 2k+1 iid standard Cauchy draws at z.

    The factorial ratio (2k+1)!/(k!)^2 is computed through log-gamma so
    large k does not overflow.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"k must be a nonnegative integer, got {k}")
    t = np.asarray(z, dtype=float) - theta
    log_c = gammaln(2 * k + 2) - 2.0 * gammaln(k + 1) - math.log(math.pi)
    bracket = 0.25 - np.arctan(t) ** 2 / math.pi**2
    with np.errstate(divide="ignore"):
        log_f = log_c + k * np.log(bracket) - np.log1p(t * t)
    out = np.exp(log_f)
    if np.ndim(z) == 0:
        return float(out)
    return out


def _median_dlog_dtheta(k: int, t: np.ndarray) -> np.ndarray:
    """d/dtheta log f_med(z; theta) expressed in t = z - theta."""
    a = np.arctan(t)
    bracket = 0.25 - a * a / math.pi**2
    return (2.0 * k * a / (math.pi**2 * bracket) + 2.0 * t) / (1.0 + t * t)


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
        if not (lo < theta < hi) or not np.isfinite(theta):
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
        """(E_theta[phi(Y)], standard error): quadrature of phi * density, SE 0.

        An override that draws samples in chunks may hand each chunk to
        ``phi.block`` when ``phi`` has one: the block form returns the
        chunk's values, equal to ``phi`` row by row bit for bit.  The slope
        integrands' block forms call this family's ``score`` on the whole
        chunk, so the ``score`` of such a family takes a block (m, n) of
        samples too; a user statistic inside them still runs per row.  The
        exact engines call ``phi`` once per point.
        """
        return integrate_real_line(lambda y: phi(y) * self.density(theta, y)), 0.0

    def mle(self, y: Sample) -> float:
        raise NotImplementedError

    def observed_info(self, theta_hat: float, y: Sample) -> float:
        """-l''(theta_hat; y), by a central difference of the score."""
        h = 1e-5 * (1.0 + abs(theta_hat))
        return -(self.score(theta_hat + h, y) - self.score(theta_hat - h, y)) / (2.0 * h)

    def sup_loglik(self, y: Sample, mle: float) -> float:
        return self.loglik(mle, y)

    def lrt_hull(self, y: Sample, mle: float, sup_loglik: float, drop: float) -> tuple:
        """(lo, hi, disconnected) of {theta : l(theta) > sup_loglik - drop}:
        steps from the MLE that double (or halve the way to a finite end of
        the domain) until l falls below the level, then bisection.  Exact
        for a unimodal likelihood, whose level set is one interval."""
        from .intervals import _MAX_DOUBLINGS, _bisect  # intervals imports this module

        target = sup_loglik - drop
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
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        if self.chart not in self.charts:
            raise DomainError(f"unknown chart {self.chart!r}")

    def param_domain(self) -> tuple:
        if self.chart == CHART_P:
            return (0.0, 1.0)
        return (-math.inf, math.inf)

    def support(self) -> np.ndarray:
        return np.arange(self.n + 1)

    def _p(self, theta: float) -> float:
        if self.chart == CHART_P:
            return theta
        return 1.0 / (1.0 + math.exp(-theta))

    def check_sample(self, y: Sample) -> None:
        if y != int(y) or not 0 <= y <= self.n:
            raise DomainError(f"y={y} not an integer in [0, {self.n}]")

    def pmf(self, theta: float, y=None) -> np.ndarray:
        """Exact binomial weights over the support (or at a given y)."""
        self.check_param(theta)
        p = self._p(theta)
        ys = self.support() if y is None else np.asarray(y)
        log_pmf = (
            gammaln(self.n + 1)
            - gammaln(ys + 1)
            - gammaln(self.n - ys + 1)
            + ys * math.log(p)
            + (self.n - ys) * math.log1p(-p)
        )
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

    def expect(self, theta, phi, *, mc_draws=DEFAULT_MC_DRAWS, mc_seed=0) -> tuple:
        """The exact binomial sum over the support."""
        w = self.pmf(theta)
        vals = np.array([phi(int(y)) for y in self.support()], dtype=float)
        return float(np.dot(w, vals)), 0.0

    def mle(self, y: Sample) -> float:
        p_hat = y / self.n
        if self.chart == CHART_P:
            return float(p_hat)
        if y in (0, self.n):
            return math.copysign(math.inf, y - self.n / 2)
        return math.log(p_hat / (1.0 - p_hat))

    def sup_loglik(self, y: Sample, mle: float) -> float:
        """sup over the closed [0, 1], with the 0 log 0 = 0 convention."""
        p_hat = y / self.n
        sup = 0.0
        if 0 < y:
            sup += y * math.log(p_hat)
        if y < self.n:
            sup += (self.n - y) * math.log1p(-p_hat)
        return sup

    def lrt_hull(self, y: Sample, mle: float, sup_loglik: float, drop: float) -> tuple:
        """The base hull, except at a log-odds MLE of -inf (y = 0) or +inf
        (y = n), where l = -n log(1 + e^theta) or -n log(1 + e^-theta): the
        level set is then the p chart's one-sided hull mapped through the
        logit, (-inf, log(e^(drop/n) - 1)) at y = 0 and its mirror at y = n."""
        if not math.isinf(mle):
            return super().lrt_hull(y, mle, sup_loglik, drop)
        edge = math.log(math.expm1((drop - sup_loglik) / self.n))
        return (-math.inf, edge, False) if mle < 0 else (-edge, math.inf, False)

    def kl(self, theta1: float, theta2: float) -> float:
        if self.chart != CHART_P:
            raise DomainError("Bernoulli KL divergence is defined in the p chart")
        p1, p2 = theta1, theta2
        return self.n * (p1 * math.log(p1 / p2) + (1.0 - p1) * math.log((1.0 - p1) / (1.0 - p2)))


@dataclass(frozen=True)
class NormalLocation(Family):
    """Normal mean family with known sigma; sample reduced to xbar."""

    sigma: float
    n: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")

    def check_sample(self, y: Sample) -> None:
        if not np.isfinite(y):
            raise DomainError(f"xbar={y} is not finite")

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return -self.n * (y - theta) ** 2 / (2.0 * self.sigma**2)

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return self.n * (y - theta) / self.sigma**2

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return self.n / self.sigma**2

    def sample(self, theta: float, rng: np.random.Generator) -> float:
        self.check_param(theta)
        return float(rng.normal(theta, self.sigma / math.sqrt(self.n)))

    def density(self, theta: float, xbar) -> np.ndarray:
        sd = self.sigma / math.sqrt(self.n)
        z = (np.asarray(xbar, dtype=float) - theta) / sd
        return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    def mle(self, y: Sample) -> float:
        return float(y)

    def observed_info(self, theta_hat: float, y: Sample) -> float:
        return self.n / self.sigma**2

    def kl(self, theta1: float, theta2: float) -> float:
        d = theta1 - theta2
        return self.n * d * d / (2.0 * self.sigma**2)


# The Cauchy location log-likelihood and its derivatives, for one sample
# or many at once.  Each takes the offsets t = x_i - theta from
# cauchy_offsets, so one offset array serves several of them.


def cauchy_offsets(x, theta) -> np.ndarray:
    """x_i - theta, with the observations along axis 0.

    ``x`` is one sample of shape (n,), with ``theta`` of any shape, or
    samples in the rows of an (m, n) array, with ``theta`` of shape (m,)
    (one point per row) or (m, k) (k points per row).  The result is
    C-ordered, so the sums below add the observations in sample order at
    every point, however many points there are.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    xt = x.T[(Ellipsis,) + (None,) * (theta.ndim - x.ndim + 1)]
    return np.subtract(xt, theta, order="C")


def cauchy_loglik(t: np.ndarray) -> np.ndarray:
    """Log-likelihood -sum log(1 + t^2), without the constant -n log(pi)."""
    return -np.log1p(t * t).sum(axis=0)


def cauchy_score(t: np.ndarray) -> np.ndarray:
    """Score l'(theta) = sum 2 t / (1 + t^2)."""
    return (2.0 * t / (t * t + 1.0)).sum(axis=0)


def cauchy_obs_info(t: np.ndarray) -> np.ndarray:
    """Observed information -l''(theta) = sum 2 (1 - t^2) / (1 + t^2)^2.

    Each term lies in [-1/4, 2], so -l'' lies in [-n/4, 2n].
    """
    u = t * t
    return (2.0 * (1.0 - u) / (u + 1.0) ** 2).sum(axis=0)


@dataclass(frozen=True)
class CauchyLocation(Family):
    """Standard Cauchy shifted by theta; the sample is the full vector."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")

    def check_sample(self, y: Sample) -> None:
        self._observations(y, ndims=(1,))

    def _observations(self, y, ndims: tuple = (1, 2)) -> np.ndarray:
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
        (m, n) of sorted rows.

        Each row adds its terms 2t / (t^2 + 1) along the last axis of a
        C-ordered array, with the pairwise loop numpy runs on a 1-D sample,
        so a block's scores equal per-row calls bit for bit.
        (``cauchy_score`` of ``cauchy_offsets`` puts the observations on
        axis 0 and adds them in another order.)
        """
        self.check_param(theta)
        t = np.subtract(self._observations(y), theta, order="C")
        d = t * t
        d += 1.0
        t *= 2.0
        t /= d  # 2t / (t^2 + 1), in place: a chunk takes two temporaries
        s = t.sum(axis=-1)
        return float(s) if t.ndim == 1 else s

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return self.n / 2.0

    def sample(self, theta: float, rng: np.random.Generator) -> np.ndarray:
        self.check_param(theta)
        u = rng.random(self.n)
        x = theta + np.tan(math.pi * (u - 0.5))
        return np.sort(x)

    def expect(self, theta, phi, *, mc_draws=DEFAULT_MC_DRAWS, mc_seed=0) -> tuple:
        """Seeded Monte Carlo: ``mc_draws`` samples (an integer >= 2, for the
        standard error) from Philox key (mc_seed, 0).

        The samples come in chunks of up to 2**14 sorted rows (m, n).  An
        integrand with a block form gets each chunk whole from
        ``phi.block``, which returns the m values of ``phi`` bit for bit;
        any other integrand is called once per row.
        """
        rng = np.random.Generator(np.random.Philox(key=[check_seed(mc_seed, "mc_seed"), 0]))
        vals = np.empty(_check_mc_draws(mc_draws))
        block = getattr(phi, "block", None) or (lambda xs: [phi(x) for x in xs])
        for c in range(0, mc_draws, _MC_CHUNK):
            # chunks read the stream in order, so they draw what one call would
            x = rng.random((min(_MC_CHUNK, mc_draws - c), self.n))
            x = np.sort(theta + np.tan(math.pi * (x - 0.5)), axis=1)
            vals[c : c + len(x)] = block(x)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_draws))

    def mle(self, y: Sample) -> float:
        from .intervals import cauchy_mle  # intervals imports this module

        return cauchy_mle(y)

    def lrt_hull(self, y: Sample, mle: float, sup_loglik: float, drop: float) -> tuple:
        """The certified level-set kernel of ``intervals`` on a batch of
        one: exact when the set is a union of intervals, and flagged."""
        from .intervals import cauchy_level_set_batch, cauchy_level_set_ends

        x = np.asarray(y, dtype=float)[None, :]
        theta_hat, target, outer, disconnected = cauchy_level_set_batch(x, drop)
        if np.isnan(theta_hat[0]):
            raise CertificateError("no certified level set: halving or open-cell cap reached, or |x_i| > 1e15")
        lo, hi = cauchy_level_set_ends(x, outer, target)
        return float(lo[0]), float(hi[0]), bool(disconnected[0])

    def observed_info(self, theta_hat: float, y: Sample) -> float:
        return float(cauchy_obs_info(cauchy_offsets(y, theta_hat)))

    def kl(self, theta1: float, theta2: float) -> float:
        """Single-observation divergence log(d^2 + 4) - log 4, d the gap."""
        d = theta1 - theta2
        return math.log(d * d + 4.0) - math.log(4.0)


@dataclass(frozen=True)
class CauchyMedian(Family):
    """Sampling law of the median of a Cauchy sample of size 2k+1."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise DomainError(f"k must be nonnegative, got {self.k}")

    @property
    def n(self) -> int:
        """Size of the underlying full sample."""
        return 2 * self.k + 1

    def check_sample(self, y: Sample) -> None:
        if not np.isfinite(y):
            raise DomainError(f"z={y} is not finite")

    def density(self, theta: float, z) -> np.ndarray:
        return median_density(self.k, z, theta)

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return float(np.log(median_density(self.k, y, theta)))

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        self.check_sample(y)
        return float(_median_dlog_dtheta(self.k, np.asarray(y, dtype=float) - theta))

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return median_fisher_info(self.k)

    def sample(self, theta: float, rng: np.random.Generator) -> float:
        self.check_param(theta)
        u = rng.random(self.n)
        return float(np.median(theta + np.tan(math.pi * (u - 0.5))))

    def mle(self, y: Sample) -> float:
        return float(y)

    def kl(self, theta1: float, theta2: float) -> float:
        """By quadrature of the median law's log-density ratio."""
        return integrate_real_line(
            lambda z: self.density(theta1, z)
            * (np.log(self.density(theta1, z)) - np.log(self.density(theta2, z)))
        )

    def reference_info(self, theta: float) -> float:
        """n/2: the information of the full sample the median reduces."""
        return self.n / 2.0


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
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")

    def check_sample(self, y: Sample) -> None:
        z1, z2 = y
        if not (np.isfinite(z1) and np.isfinite(z2)):
            raise DomainError("non-finite sample")

    def loglik(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        z1, z2 = y
        return -self.n * ((z1 - theta) ** 2 + z2 * z2) / 2.0

    def score(self, theta: float, y: Sample) -> float:
        self.check_param(theta)
        z1, _ = y
        return self.n * (z1 - theta)

    def fisher_info(self, theta: float) -> float:
        self.check_param(theta)
        return float(self.n)

    def sample(self, theta: float, rng: np.random.Generator) -> tuple:
        self.check_param(theta)
        sd = 1.0 / math.sqrt(self.n)
        return (float(rng.normal(theta, sd)), float(rng.normal(0.0, sd)))

    def expect(self, theta, phi, *, mc_draws=DEFAULT_MC_DRAWS, mc_seed=0) -> tuple:
        """64 x 64 Gauss-Hermite rule over the two independent coordinates."""
        nodes, weights = np.polynomial.hermite_e.hermegauss(64)
        sd = 1.0 / math.sqrt(self.n)
        total = 0.0
        for a, wa in zip(nodes, weights):
            z1 = theta + sd * a
            total += wa * sum(wb * phi((z1, sd * b)) for b, wb in zip(nodes, weights))
        return total / (2.0 * math.pi), 0.0


# Module-level cache: the median information and variance are pure
# functions of k and each costs an adaptive quadrature.
_MEDIAN_INFO_CACHE: dict = {}
_MEDIAN_VAR_CACHE: dict = {}


def median_fisher_info(k: int) -> float:
    """Fisher information of the median law, by quadrature."""
    if k not in _MEDIAN_INFO_CACHE:
        def integrand(t: float) -> float:
            return _median_dlog_dtheta(k, np.asarray(t)) ** 2 * median_density(k, t, 0.0)

        _MEDIAN_INFO_CACHE[k] = integrate_real_line(integrand)
    return _MEDIAN_INFO_CACHE[k]


def median_variance(k: int) -> float:
    """Variance of the median law; raises DivergentIntegralError for k < 2.

    The divergence is cached like a value, so a repeated call for k < 2
    raises again without rerunning the truncation ladder.
    """
    if k not in _MEDIAN_VAR_CACHE:
        def integrand(t: float) -> float:
            return t * t * median_density(k, t, 0.0)

        try:
            _MEDIAN_VAR_CACHE[k] = integrate_real_line_or_divergent(integrand)
        except DivergentIntegralError as exc:
            _MEDIAN_VAR_CACHE[k] = exc
    value = _MEDIAN_VAR_CACHE[k]
    if isinstance(value, DivergentIntegralError):
        raise DivergentIntegralError(*value.args)
    return value
