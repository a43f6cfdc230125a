"""Adaptive quadrature over the real line for heavy-tailed integrands.

Integrals over the whole real line are computed after the substitution
t = tan(u), which maps (-inf, inf) onto the bounded interval
(-pi/2, pi/2).  Fixed-order rules fail badly on Cauchy-type tails, so
the integral goes through scipy's adaptive Gauss-Kronrod machinery with
explicit failure signalling instead of silent inaccuracy.  Nothing here
decides whether an integral converges: a caller integrates only what it
knows to be finite, with an integrand that is bounded after the
substitution (``families.median_variance`` states its rule).

Only ``scipy`` is imported here; ``scipy.integrate`` loads at the first
integral, so a process that integrates nothing never pays for its import.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
import scipy

from .errors import QuadratureError

ABS_TOL = 1e-9
REL_TOL = 1e-9
LIMIT = 400
_HALF_PI = np.pi / 2.0


def integrate_real_line(f: Callable[[float], float]) -> float:
    """Integrate ``f`` over (-inf, inf) via the tangent substitution.

    Raises QuadratureError if the adaptive rule cannot reach ABS_TOL or
    REL_TOL within LIMIT subintervals.
    """

    def g(u: float) -> float:
        c = np.cos(u)
        return f(np.tan(u)) / (c * c)

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            value, err = scipy.integrate.quad(
                g, -_HALF_PI, _HALF_PI, epsabs=ABS_TOL, epsrel=REL_TOL, limit=LIMIT
            )
        except scipy.integrate.IntegrationWarning as exc:
            raise QuadratureError(f"adaptive quadrature did not converge: {exc}") from exc
    if not np.isfinite(value):
        raise QuadratureError("quadrature returned a non-finite value")
    if err > max(ABS_TOL, REL_TOL * abs(value)) * 100:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for value {value:.6e}"
        )
    return value
