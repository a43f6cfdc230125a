"""Exception hierarchy for slope_lab.

All library errors derive from :class:`SlopeLabError` so callers can
catch everything from this package with a single except clause.
"""


class SlopeLabError(Exception):
    """Base class for all slope_lab errors."""


class DomainError(SlopeLabError, ValueError):
    """Parameter or sample outside the valid domain of a family."""


class QuadratureError(SlopeLabError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class DivergentIntegralError(QuadratureError):
    """The integral does not converge (e.g. heavy-tail moments)."""


class ZeroVarianceError(SlopeLabError, ArithmeticError):
    """An estimator has zero (or numerically zero) variance."""


class OrientationError(SlopeLabError, ValueError):
    """A lifted estimator violates the nonnegative score-covariance rule."""


class BiasError(SlopeLabError, ValueError):
    """A statistic fails the unbiasedness check required by the caller."""


class NonexistenceError(SlopeLabError, RuntimeError):
    """A requested interval endpoint or root does not exist."""


class NonMonotoneError(SlopeLabError, RuntimeError):
    """The standardized estimate is not monotone over the search bracket."""


class BracketError(SlopeLabError, RuntimeError):
    """Bracket expansion exhausted its budget without a sign change."""


class CurvatureError(SlopeLabError, ArithmeticError):
    """Observed information is nonpositive at the supplied maximizer."""


class CertificateError(SlopeLabError, RuntimeError):
    """The global-maximum certificate could not close within its cap."""


class SimulationError(SlopeLabError, RuntimeError):
    """Too many per-replicate failures in a Monte Carlo run."""
