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
from .families import Family
from .intervals import Interval

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CENTER_TOL = 1e-10


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
    """(center, radius) of the smallest KL ball covering the interval:
    golden-section minimization, one evaluation per step, of max(D(lo||c),
    D(hi||c)) over c in [lo, hi]; the max over the whole interval reduces
    to the endpoints by monotonicity of D in the parameter gap."""
    lo, hi = _bounds(iv)
    if lo == hi:
        return lo, 0.0

    def worst(c: float) -> float:
        return max(kl_divergence(f, lo, c), kl_divergence(f, hi, c))

    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = worst(c1), worst(c2)
    while b - a > _CENTER_TOL:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = worst(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = worst(c2)
    center = 0.5 * (a + b)
    return center, worst(center)


def kl_length(f: Family, iv) -> float:
    """Radius of the smallest KL ball covering the interval, given as an
    Interval or a plain (lo, hi) pair; a degenerate pair has length 0."""
    return _smallest_ball(f, iv)[1]


def kl_length_center(f: Family, iv) -> float:
    """Optimal ball center for the interval (same search as kl_length)."""
    return _smallest_ball(f, iv)[0]
