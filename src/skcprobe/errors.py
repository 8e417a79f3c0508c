"""Exception hierarchy shared across the package."""


class SkcError(Exception):
    """Base class for all skcprobe errors."""


class NotHermitian(SkcError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NotPositiveDefinite(SkcError):
    """Cholesky factorization failed even after a jitter retry."""


class DimensionMismatch(SkcError):
    """Matrix block or operand dimensions do not conform."""


class InvalidNoise(SkcError):
    """A noise variance is zero or negative where a finite SNR is required."""


class PilotTooShort(SkcError):
    """Pilot window shorter than the antenna count; rows cannot be orthogonal."""


class OrderingViolation(SkcError):
    """Antenna ordering n_a >= n_b required and auto-swap was not requested."""


class GridTooSmall(SkcError):
    """Power grid too short or too narrow for a slope fit."""


class IntegrandFailure(SkcError):
    """A Monte Carlo block raised, or gave a non-finite value; names the
    block's trial range, or the lowest failing trial."""


class DimensionGuard(SkcError):
    """Covariance factors exceed the exact-evaluation size guard."""


class QuadratureFailure(SkcError):
    """Adaptive quadrature did not reach the requested accuracy."""


class ParseError(SkcError):
    """Config file missing or not parseable."""


class ValidationError(SkcError):
    """Config parsed but violates a named invariant."""
