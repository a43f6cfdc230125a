"""Kullback-Leibler geometry: divergences, balls, and interval length.

The KL length of a parameter interval is the radius of the smallest KL
ball covering it; being defined through divergences between models, it
does not change under reparameterization, unlike the Euclidean width.

Each family computes its own divergence (``Family.kl``).  Closed
forms: the Cauchy location divergence (single-observation geometry)
is log((d)^2 + 4) - log 4 for a parameter gap d; the normal location
divergence is n d^2 / (2 sigma^2); the Bernoulli divergence is the
usual n-weighted binary relative entropy.  For all three, the
divergence is increasing in |d|, so the farthest model from a candidate
center is always an interval endpoint; the cover check therefore needs
only the two endpoints.  This monotonicity is asserted by a grid test
in the suite, not assumed silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .families import Family, _bisect
from .intervals import Interval


def kl_divergence(f: Family, theta1: float, theta2: float) -> float:
    """D(m1 || m2) = E_{m1} log(m1/m2) for models at theta1, theta2."""
    f.check_param(theta1)
    f.check_param(theta2)
    return f.kl(theta1, theta2)


@dataclass(frozen=True)
class KlBall:
    """Open KL ball {m : D(m || center) < radius} in a family."""

    family: Family
    center: float
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError(f"radius must be nonnegative, got {self.radius}")

    def contains(self, theta: float) -> bool:
        return kl_divergence(self.family, theta, self.center) < self.radius

    def covers(self, iv: Interval) -> bool:
        # D is increasing in the parameter gap for the implemented
        # families, so checking the endpoints suffices
        return (
            kl_divergence(self.family, iv.lo, self.center) <= self.radius
            and kl_divergence(self.family, iv.hi, self.center) <= self.radius
        )


def cauchy_kl_length_from_width(width) -> np.ndarray:
    """KL length of a Cauchy interval as a function of its width.

    The divergence depends only on the parameter gap, so the optimal
    center is the midpoint and the radius is D at half the width.
    """
    half = np.asarray(width, dtype=float) / 2.0
    return np.log(half * half + 4.0) - math.log(4.0)


def _bounds(iv) -> tuple:
    if isinstance(iv, Interval):
        return iv.lo, iv.hi
    lo, hi = iv
    if lo > hi:
        raise DomainError(f"interval bounds out of order: ({lo}, {hi})")
    return float(lo), float(hi)


def _smallest_ball(f: Family, iv) -> tuple:
    """(center, radius) of the smallest KL ball covering the interval.

    By monotonicity of D in the parameter gap the worst model in [lo, hi]
    is an endpoint, and for c in [lo, hi] D(lo||c) rises while D(hi||c)
    falls; the least of their max is at the unique crossing, which
    bisection finds to 1e-10."""
    lo, hi = _bounds(iv)
    if lo == hi:
        return lo, 0.0
    center = _bisect(lambda c: kl_divergence(f, lo, c) < kl_divergence(f, hi, c), lo, hi)
    return center, max(kl_divergence(f, lo, center), kl_divergence(f, hi, center))


def kl_length(f: Family, iv) -> float:
    """Radius of the smallest KL ball covering the interval, given as an
    Interval or a plain (lo, hi) pair; a degenerate pair has length 0."""
    return _smallest_ball(f, iv)[1]


def kl_length_center(f: Family, iv) -> float:
    """Optimal ball center for the interval (same search as kl_length)."""
    return _smallest_ball(f, iv)[0]
