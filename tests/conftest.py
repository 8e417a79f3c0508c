"""Shared helpers for the test suite."""

import numpy as np
import pytest

from skcprobe import ChannelRealization, ProbingConfig, logdet_hermitian_pd
from skcprobe.numerics import conj_t, hermitize


def make_config(**overrides) -> ProbingConfig:
    """Small general-position scenario; override anything per test."""
    params = dict(
        n_a=2, n_b=2, n_e=2, v_a=2, v_b=1, phi_a=16, phi_b=16,
        power_a=2.0, power_b=1.5, noise_a=1.0, noise_b=1.0,
        noise_ea=0.5, noise_eb=2.0, rho=0.8,
    )
    params.update(overrides)
    return ProbingConfig(**params)


def make_realization(h_ba, g_a, g_b, h_ab=None) -> ChannelRealization:
    """Build a realization from explicit matrices (h_ab defaults to the
    perfectly reciprocal transpose)."""
    h_ba = np.asarray(h_ba, dtype=complex)
    g_a = np.asarray(g_a, dtype=complex)
    g_b = np.asarray(g_b, dtype=complex)
    h_ab = h_ba.T.copy() if h_ab is None else np.asarray(h_ab, dtype=complex)
    for m in (h_ba, h_ab, g_a, g_b):
        m.flags.writeable = False
    return ChannelRealization.from_arrays(h_ba=h_ba, h_ab=h_ab, g_a=g_a, g_b=g_b)


def capacity_logdet(h, gamma):
    """log2 det(gamma h h^H + I), the MI of a Gaussian probe through a known
    channel h, for one matrix or a stack."""
    h = np.asarray(h, dtype=complex)
    return logdet_hermitian_pd(gamma * hermitize(h @ conj_t(h)) + np.eye(h.shape[-2]))


def engine_correction(floor, t2, t3, mean2, mean3):
    """The engine's control-variate correction of one point's floor."""
    from skcprobe.capacity import _control_corrections
    return _control_corrections(np.array([[t2, t3, floor]]), np.array([[mean2, mean3]]))[0]


def control_correction(floor, t2, t3, mean2, mean3):
    """Per-trial control-variate correction of the floor, beta . (t - mean),
    with beta the coefficients of t2 and t3 in the least-squares fit of the
    floor on (1, t2, t3) by np.linalg.lstsq: an arithmetic path independent
    of the engine's 2 x 2 solve."""
    design = np.column_stack([np.ones_like(floor), t2, t3])
    (_, beta2, beta3), *_ = np.linalg.lstsq(design, floor, rcond=None)
    return beta2 * (t2 - mean2) + beta3 * (t3 - mean3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
