"""Kullback-Leibler geometry: divergences, balls, and interval length.

The KL length of a parameter interval is the radius of the smallest KL
ball covering it; being defined through divergences between models, it
does not change under reparameterization, unlike the Euclidean width.

Each family computes its own divergence (``Family.kl``) and smallest
covering ball (``Family.kl_ball``; the Cauchy one in closed form, from
``cauchy``).  The normal location divergence is n d^2 / (2 sigma^2) for
a parameter gap d, the Bernoulli one the n-weighted binary relative
entropy in either chart, the Cauchy one log(d^2 + 4) - log 4.  For all
three, D(theta || c) grows as theta moves away from c either way, so the
farthest model from a candidate center is always an interval endpoint;
the cover check needs only the two endpoints, a monotonicity asserted by
a grid test in the suite, not assumed silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cauchy import cauchy_kl_length as cauchy_kl_length_from_width  # noqa: F401  (re-exported: public API)
from .errors import DomainError
from .families import Family
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
        if not self.radius >= 0:
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


def _ball(f: Family, iv) -> tuple:
    """``f.kl_ball`` of an Interval or a (lo, hi) pair, after checking its ends."""
    lo, hi = (iv.lo, iv.hi) if isinstance(iv, Interval) else map(float, iv)
    if lo > hi:
        raise DomainError(f"interval bounds out of order: ({lo}, {hi})")
    f.check_param(lo)
    f.check_param(hi)
    if lo == hi:
        return lo, 0.0
    return f.kl_ball(lo, hi)


def kl_length(f: Family, iv) -> float:
    """Radius of the smallest KL ball covering the interval, given as an
    Interval or a plain (lo, hi) pair; a degenerate pair has length 0."""
    return _ball(f, iv)[1]


def kl_length_center(f: Family, iv) -> float:
    """Optimal ball center for the interval (same ball as kl_length)."""
    return _ball(f, iv)[0]
