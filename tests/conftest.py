"""Shared helpers for the test suite."""

import functools
import math
import os
from dataclasses import replace
from pathlib import Path

import mpmath
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


def j_recurrence_digits(steps: int, gamma: float) -> int:
    # each step of the J recurrence can cancel log10(1/gamma) digits
    return 30 + steps + int(steps * max(0.0, -math.log10(gamma)))


def andreief_logdet(clusters: list[tuple[float, int]], cols: int) -> mpmath.mpf:
    """E ln det(I + w^H w) in nats, w with `cols` columns whose rows are iid
    CN(0, gamma) with multiplicity `count` per (gamma, count) cluster, as
    the Andreief form tr(A^-1 N) that capacity._floor_form evaluates, in
    mpmath: the moments int u^p e^-u ln(1 + gamma u) du are the I_p of the
    E1 recurrence I_j = j I_{j-1} + J_j, J_j = (j-1)! - J_{j-1}/g, I_0 = J_0
    = e^(1/g) E1(1/g), A's entries are exact, and the solve runs at 80
    digits beyond what the recurrence needs.  The caller sets no precision;
    the value is returned at the working precision it was formed at."""
    m = sum(count for _, count in clusters)
    s, c = max(cols - m, 0), min(cols, m)
    top = max(count for _, count in clusters) + s + c
    digits = 80 + max(j_recurrence_digits(top, gamma) for gamma, _ in clusters)
    with mpmath.workdps(digits):
        a, n = mpmath.zeros(m, m), mpmath.zeros(m, m)
        row = 0
        for gamma, count in clusters:
            g = mpmath.mpf(gamma)
            j_prev = i_prev = mpmath.exp(1 / g) * mpmath.e1(1 / g)
            moments = [i_prev]
            for j in range(1, top + 1):
                j_prev = mpmath.factorial(j - 1) - j_prev / g
                i_prev = j * i_prev + j_prev
                moments.append(i_prev)
            for k in range(count):
                # the row times tau^(k+s+1)/(k+s)!, tau = 1/g
                scale = mpmath.factorial(k + s)
                for j in range(c):
                    a[row, j] = mpmath.factorial(k + s + j) / scale * g ** j
                    n[row, j] = moments[k + s + j] / scale * g ** j
                for l in range(c, m):
                    r = m - 1 - l
                    a[row, l] = (-1) ** k * mpmath.binomial(r, k) / g ** (r + 1)
                row += 1
        for l in range(m):
            big = max(abs(a[i, l]) for i in range(m))
            for i in range(m):
                a[i, l] /= big
                n[i, l] /= big
        inverse = mpmath.inverse(a)
        return +mpmath.fsum(inverse[j, i] * n[i, j] for j in range(c) for i in range(m))


@functools.lru_cache(maxsize=None)
def reference_floor(n_a: int, n_b: int, n_e: int, gamma_ea: float, gamma_ba: float) -> float:
    """The floor's mean J - E t2 in bits, both Andreief forms in mpmath
    (andreief_logdet: J over Eve's and Bob's clusters, E t2 over Eve's
    alone), their difference taken before it is rounded."""
    with mpmath.workdps(120):
        joint = andreief_logdet([(gamma_ea, n_e), (gamma_ba, n_b)], n_a)
        eve = andreief_logdet([(gamma_ea, n_e)], n_a)
        return float((joint - eve) / mpmath.log(2))


def control_means(config, count=None) -> dict:
    """Exact means of the floor's control variates at `config`, by name, in
    the engine's order: t2 (g_a at gamma_ea), t3 (h_ba at gamma_ba), t5
    ([g_a; h_ba] at gamma_ba), where n_e < n_a t4 (h_ba on the n_a - n_e
    dimensions of null(g_a)), t1 (g_a at gamma_ba), the interaction traces
    u3 = tr(P_H G) and u1 = tr(P_G H) (n_e and n_b times the trace mean of
    h_ba and g_a at gamma_ba), the edges fl and fh (the floor at gamma_ea =
    gamma_ba / FLOOR_FORM_RATIO and gamma_ba FLOOR_FORM_RATIO, where the
    engine declares them, their means reference_floor's in mpmath) and the
    received powers p2 = tr G and p3 = tr H (n_e n_a and n_b n_a); the first
    `count` of them when given."""
    from skcprobe.capacity import (_controls, wishart_logdet_mean,
                                   wishart_trace_mean)
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
    for name in ("fl", "fh"):
        if name in _controls(config):
            gamma_ea = _controls(config)[name].mean.args[3]
            means[name] = reference_floor(config.n_a, config.n_b, config.n_e, gamma_ea,
                                          gam.gamma_ba)
    means["p2"] = float(config.n_e * config.n_a)
    means["p3"] = float(config.n_b * config.n_a)
    return dict(list(means.items())[:count])


def planned_floor(config, trials=0):
    """evaluate_many's plan (capacity._plan) of the floor at `config` alone
    at `trials` trials (at 0 no fit is planned)."""
    from skcprobe.capacity import _plan
    return _plan([config], {"floor"}, trials)[0]


def exact_floor(config):
    """The floor's exact mean at `config` as evaluate plans it, or None
    where the floor is sampled."""
    return planned_floor(config).exact.get("floor")


def closed_floor(config):
    """The floor's exact mean at `config` where evaluate plans it from the
    closed form, otherwise None."""
    plan = planned_floor(config)
    return plan.exact["floor"] if plan.form == "closed form" else None


def edge_form(config, name):
    """The closed form of the edge control `name` at `config`, its mean."""
    from skcprobe.capacity import _edge_points, _floor_forms
    point = _edge_points(config)[name]
    return _floor_forms([point])[point]


def shifted_forms(config, value):
    """capacity._floor_forms with the closed form at `config`'s own point
    replaced by value(form), the forms at other points as they are."""
    from skcprobe.capacity import _floor_forms, _floor_plan
    _, own = _floor_plan(config)
    return lambda points: {point: value(form) if point == own else form
                           for point, form in _floor_forms(points).items()}


def engine_means(config, count=None) -> dict:
    """The engine's exact means of the controls that control_means names
    (those of the fit evaluate plans at `config`, capacity._plan), in its
    order, each within 1e-10 relative of control_means' (which for the
    edges is mpmath's): a fit on them is the engine's fit bit for bit."""
    from skcprobe.capacity import CV_MIN_TRIALS
    reference, engine = control_means(config, count), planned_floor(config, CV_MIN_TRIALS).means
    for name, mean in reference.items():
        assert abs(engine[name] - mean) <= 1e-10 * abs(mean), name
    return {name: engine[name] for name in reference}


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


# up to this many trials control_correction's HC3 stderr is evaluated in
# 60-digit mpmath: at CV_MIN_TRIALS and eleven controls the float64
# pseudo-inverse was 5.4e-13 off such a value, half of the 1e-12 that the
# engine's HC3 stderr is held to
HC3_MPMATH_TRIALS = 256


def control_correction(floor, controls, means):
    """(per-trial control-variate correction of the floor, beta . (t -
    mean), and the HC3 standard error of the regression estimate), from the
    least-squares fit of the floor on D = [1, t - mean] by np.linalg.lstsq:
    an arithmetic path independent of the engine's solve of the normal
    equations.  The estimate is the fit's intercept, sum_i w_i floor_i with
    w the first row of the pseudo-inverse D^+ = (D^T D)^-1 D^T, and its HC3
    variance sum_i w_i^2 e_i^2 / (1 - h_i)^2 (MacKinnon and White, 1985), e
    the residuals and h the diagonal of the hat matrix D D^+: in mpmath on
    the exact values of the samples and means up to HC3_MPMATH_TRIALS
    trials, otherwise from numpy's SVD pseudo-inverse."""
    design = np.column_stack([np.ones_like(floor)] + [controls[n] - means[n] for n in means])
    beta, *_ = np.linalg.lstsq(design, floor, rcond=None)
    correction = design[:, 1:] @ beta[1:]
    if len(floor) <= HC3_MPMATH_TRIALS:
        return correction, mpmath_hc3(floor, controls, means)
    residual = floor - design @ beta
    pinv = np.linalg.pinv(design)
    leverage = np.sum(design * pinv.T, axis=1)
    return correction, float(np.sqrt(np.sum((pinv[0] * residual / (1.0 - leverage)) ** 2)))


def mpmath_hc3(floor, controls, means) -> float:
    """control_correction's HC3 stderr in 60-digit mpmath."""
    with mpmath.workdps(60):
        design = mpmath.matrix([[1] + [mpmath.mpf(float(controls[n][i])) - mpmath.mpf(means[n])
                                       for n in means] for i in range(len(floor))])
        pinv = mpmath.inverse(design.T * design) * design.T
        samples = mpmath.matrix([mpmath.mpf(float(v)) for v in floor])
        residual = samples - design * (pinv * samples)
        return float(mpmath.sqrt(mpmath.fsum(
            (pinv[0, i] * residual[i] / (1 - mpmath.fsum(
                design[i, j] * pinv[j, i] for j in range(design.cols)))) ** 2
            for i in range(len(floor)))))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
