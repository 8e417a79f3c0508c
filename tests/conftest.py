"""Shared helpers for the test suite."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skcprobe import ChannelRealization, ProbingConfig, logdet_hermitian_pd
from skcprobe.numerics import conj_t, hermitize


def child_env() -> dict:
    """The environment of a child interpreter: it imports skcprobe from this
    checkout's src/, as pytest's own pythonpath setting does in process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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


def control_means(config, count=None) -> dict:
    """Exact means of the floor's control variates at `config`, by name, in
    the engine's order: t2 (g_a at gamma_ea), t3 (h_ba at gamma_ba), t5
    ([g_a; h_ba] at gamma_ba), where n_e < n_a t4 (h_ba on the n_a - n_e
    dimensions of null(g_a)), t1 (g_a at gamma_ba), the interaction traces
    u3 = tr(P_H G) and u1 = tr(P_G H) (n_e and n_b times the trace mean of
    h_ba and g_a at gamma_ba), the second-order trace w3 (mean exactly 0)
    and the received powers p2 = tr G and p3 = tr H (n_e n_a and n_b n_a);
    the first `count` of them when given."""
    from skcprobe.capacity import wishart_logdet_mean, wishart_trace_mean
    from skcprobe.channel import derive_gammas
    gam = derive_gammas(config)
    means = {"t2": wishart_logdet_mean(config.n_e, config.n_a, gam.gamma_ea),
             "t3": wishart_logdet_mean(config.n_b, config.n_a, gam.gamma_ba),
             "t5": wishart_logdet_mean(config.n_e + config.n_b, config.n_a, gam.gamma_ba)}
    if config.n_e < config.n_a:
        means["t4"] = wishart_logdet_mean(config.n_b, config.n_a - config.n_e,
                                          gam.gamma_ba)
    means["t1"] = wishart_logdet_mean(config.n_e, config.n_a, gam.gamma_ba)
    means["u3"] = config.n_e * wishart_trace_mean(config.n_b, config.n_a, gam.gamma_ba)
    means["u1"] = config.n_b * wishart_trace_mean(config.n_e, config.n_a, gam.gamma_ba)
    means["w3"] = 0.0
    means["p2"] = float(config.n_e * config.n_a)
    means["p3"] = float(config.n_b * config.n_a)
    return dict(list(means.items())[:count])


def engine_correction(floor, controls, means):
    """The engine's control-variate fit of one point's floor, on the
    controls' per-trial values and their means (dicts keyed by name, in the
    order of `means`): (correction, stderr factor), or None where the
    regression is singular."""
    from skcprobe.capacity import _control_corrections
    return _control_corrections(np.array([controls[n] for n in means] + [floor]),
                                np.array(list(means.values())))


def scaled(est, factor):
    """`est` with its stderr times `factor`, as evaluate reports an estimate
    built from adjusted samples."""
    return replace(est, stderr=est.stderr * factor)


def control_correction(floor, controls, means):
    """(per-trial control-variate correction of the floor, beta . (t -
    mean), and the HC3 standard error of the regression estimate), from the
    least-squares fit of the floor on D = [1, t - mean] by np.linalg.lstsq:
    an arithmetic path independent of the engine's solve of the normal
    equations.  The estimate is the fit's intercept, sum_i w_i floor_i with
    w the first row of the pseudo-inverse D^+ = (D^T D)^-1 D^T (from its
    SVD), and its HC3 variance sum_i w_i^2 e_i^2 / (1 - h_i)^2 (MacKinnon
    and White, 1985), e the residuals and h the diagonal of the hat matrix
    D D^+."""
    design = np.column_stack([np.ones_like(floor)] + [controls[n] - means[n] for n in means])
    beta, *_ = np.linalg.lstsq(design, floor, rcond=None)
    residual = floor - design @ beta
    pinv = np.linalg.pinv(design)
    leverage = np.sum(design * pinv.T, axis=1)
    return design[:, 1:] @ beta[1:], float(np.sqrt(np.sum(
        (pinv[0] * residual / (1.0 - leverage)) ** 2)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
