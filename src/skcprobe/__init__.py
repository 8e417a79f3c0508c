"""skcprobe: secret-key capacity bounds from Gaussian MIMO channel probing.

Closed-form quantities, reproducible Monte Carlo estimation of every
expectation, and an independent verification layer that certifies the
implemented formulas against exact covariance evaluations and determinant
identities.
"""

__version__ = "0.1.0"

from .capacity import (
    DofResult,
    bound_gap_sample,
    config_at_power,
    dof_formula,
    dof_slope,
    dof_window_split,
    evaluate,
    evaluate_many,
    lower_bound_alice,
    lower_bound_bob_sample,
    pilot_mi,
    reciprocity_gain,
    secrecy_floor_sample,
    wishart_logdet_mean,
    wishart_trace_mean,
)
from .channel import (
    ChannelRealization,
    GammaSet,
    ProbingConfig,
    derive_gammas,
    generate_pilot,
    sample_channels,
)
from .errors import SkcError
from .montecarlo import Estimate, McSettings, estimate
from .numerics import (
    RngStream,
    logdet_hermitian_pd,
    logdet_lu,
    sample_cgaussian,
)
# the verification suite loads on first use of one of its names, so that
# eval, sweep and dof never import it
_VERIFY_NAMES = (
    "VerificationOutcome",
    "VerificationSummary",
    "determinant_identity_suite",
    "pilot_estimation_check",
    "pilot_mi_from_covariance",
    "run_suite",
    "siso_ergodic_capacity",
)


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_VERIFY_NAMES)
