"""skcprobe: secret-key capacity bounds from Gaussian MIMO channel probing.

Closed-form quantities, reproducible Monte Carlo estimation of every
expectation, and an independent verification layer that certifies the
implemented formulas against exact covariance evaluations and determinant
identities.
"""

__version__ = "0.1.0"

from .capacity import (
    DofResult,
    SkcReport,
    bound_gap,
    bound_gap_sample,
    config_at_power,
    dof_formula,
    dof_slope,
    dof_window_split,
    entropy_given_channel,
    lower_bound_alice,
    lower_bound_bob,
    lower_bound_bob_sample,
    mi_given_channel,
    pilot_mi,
    reciprocity_gain,
    secrecy_floor,
    secrecy_floor_sample,
    skc_report,
    upper_bound,
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
from .montecarlo import Estimate, McSettings, convergence_report, estimate
from .numerics import (
    RngStream,
    logdet_hermitian_pd,
    logdet_lu,
    sample_cgaussian,
)
from .verify import (
    VerificationOutcome,
    VerificationSummary,
    determinant_identity_suite,
    pilot_estimation_check,
    pilot_mi_from_covariance,
    run_suite,
    siso_ergodic_capacity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
