"""Independent cross-verification of the closed forms.

Four kinds of checks live here:

* an exact, sample-free recomputation of the pilot-window MI from the joint
  Gaussian covariance of the two vectorized pilot observations, compared
  against the closed form;
* Monte Carlo validation of the pilot-estimation error model and of the
  scalar ergodic capacity against adaptive quadrature;
* the exact mean of each control variate that capacity._controls
  declares for the floor against adaptive quadrature of the same integral,
  with the Laguerre polynomials from scipy.special, and the log-det mean
  against the scalar ergodic capacity; the floor's closed-form mean, at
  each edge control (the floor at Eve's gammas a third and three times
  Bob's) and at the config itself where it has one, against the raw mean of
  the same samples;
* per-trial determinant-identity checks on the engine's blocks of draws:
  the engine's floor, each of its declared controls (CONTROL_ORACLES), gap
  and Bob-side integrands against oracle forms that reach each value
  through a different factorization (or an eigenvalue decomposition) and
  are built from skcprobe.numerics and numpy alone, sharing no engine
  code, one floor oracle per regime; and the batched engine against its
  per-sample integrands on every trial.

A deliberate mutation hook is included so a silently broken oracle cannot
pass its own suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .capacity import (
    _alice_bound_diverges,
    _control_mean,
    _controls,
    _edge_points,
    _floor_forms,
    _floor_plan,
    bound_gap_sample,
    lower_bound_bob_sample,
    pilot_mi,
    secrecy_floor_sample,
    trial_values_many,
    wishart_logdet_mean,
    wishart_trace_mean,
)
from .channel import (DRAWN, ChannelRealization, ProbingConfig, derive_gammas,
                      generate_pilot, sample_channels)
from .errors import DimensionGuard, InvalidNoise, QuadratureFailure, ValidationError
from .montecarlo import (
    McSettings,
    block_streams,
    collect,
    estimate,
    summarize,
)
from .numerics import conj_t, hermitize, logdet_hermitian_pd, logdet_lu, sample_cgaussian

# largest covariance factor we will form densely; beyond this the exact
# evaluation would need structure-exploiting code that defeats its purpose
# as an independent oracle
MAX_COVARIANCE_DIM = 4096

PILOT_MI_RTOL = 1e-6
IDENTITY_ATOL = 1e-9
MMSE_RTOL = 0.05
# the quadrature oracles accept an error estimate up to 1e-10 relative, and
# siso_ergodic_capacity agrees with its E1 closed form to 1e-8
WISHART_RTOL = 1e-8


@dataclass(frozen=True)
class VerificationOutcome:
    check_name: str
    reference_value: float
    computed_value: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationSummary:
    outcomes: tuple[VerificationOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def failures(self) -> list[VerificationOutcome]:
        return [o for o in self.outcomes if not o.passed]


def pilot_mi_from_covariance(config: ProbingConfig) -> float:
    """Exact pilot-window MI from the joint covariance, no sampling.

    Builds the covariance blocks of vec(Y_a_pilot) and vec(Y_b_pilot^T):

        blk_a  = gamma_ab * (Pi_b^T Pi_b^* (x) I_{n_a}) + I      [n_a*phi_b]
        blk_b  = gamma_ba * (I_{n_b} (x) Pi_a^T Pi_a^*) + I      [n_b*phi_a]
        cross  = rho * sqrt(gamma_ab*gamma_ba) * (Pi_b^T (x) Pi_a^*)

    and returns log2|blk_b| - log2|blk_b - cross^H blk_a^-1 cross|: the
    joint covariance [[blk_a, cross], [cross^H, blk_b]] has the log-det of
    blk_a plus that of this Schur complement, so its log2|blk_a| cancels
    exactly and the joint matrix is never formed.  At rho = 0 the cross
    block vanishes and the value is exactly 0.  The vectorization
    conventions matter: mixing the plain and transposed stacking silently
    breaks the cross block.
    """
    dim_a = config.n_a * config.phi_b
    dim_b = config.n_b * config.phi_a
    if dim_a > MAX_COVARIANCE_DIM or dim_b > MAX_COVARIANCE_DIM:
        raise DimensionGuard(
            f"covariance factors {dim_a} and {dim_b} exceed {MAX_COVARIANCE_DIM}")
    gam = derive_gammas(config)
    pi_a = generate_pilot(config.n_a, config.phi_a)
    pi_b = generate_pilot(config.n_b, config.phi_b)
    blk_a = gam.gamma_ab * np.kron(hermitize(pi_b.T @ pi_b.conj()), np.eye(config.n_a)) + np.eye(dim_a)
    blk_b = gam.gamma_ba * np.kron(np.eye(config.n_b), hermitize(pi_a.T @ pi_a.conj())) + np.eye(dim_b)
    cross = complex(config.rho) * math.sqrt(gam.gamma_ba * gam.gamma_ab) * np.kron(pi_b.T, pi_a.conj())
    schur = hermitize(blk_b - conj_t(cross) @ np.linalg.solve(blk_a, cross))
    return logdet_hermitian_pd(blk_b) - logdet_hermitian_pd(schur)


def pilot_mi_check(config: ProbingConfig, corrupt: bool = False) -> VerificationOutcome:
    """Covariance evaluation vs closed form, 1e-6 relative.

    ``corrupt`` is the mutation hook: it inflates the closed form by 5% and
    must make the check fail (negative control).
    """
    reference = pilot_mi(config)
    if corrupt:
        reference = reference * 1.05 + 0.01
    computed = pilot_mi_from_covariance(config)
    scale = max(abs(reference), abs(computed), 1e-6)
    passed = abs(computed - reference) <= PILOT_MI_RTOL * scale
    return VerificationOutcome(
        check_name="pilot-mi-exact",
        reference_value=reference,
        computed_value=computed,
        tolerance=PILOT_MI_RTOL,
        passed=passed,
        detail=f"relative deviation {abs(computed - reference) / scale:.3e}"
               + (" [mutated reference]" if corrupt else ""),
    )


def pilot_estimation_check(config: ProbingConfig, mc: McSettings) -> VerificationOutcome:
    """Measured pilot-estimation error variance vs the analytic value.

    Bob estimates the Alice-to-Bob channel from his pilot window; under the
    unit-variance Gaussian prior the optimal linear estimate is
    (sqrt(gamma)/(gamma*psi+1)) * Y @ Pi^H with per-entry error variance
    1/(gamma*psi+1).  The detail string reports the induced perturbation on
    a probe-window entry relative to the unit receiver noise, which is what
    justifies treating the channel as known once psi is large.  Block b's
    channel is the engine's h_ba of that block, and its pilot-window noise
    comes from the next substream after the engine's channel matrices
    (see channel.DRAWN), both drawn for the block's kept trials only.
    """
    gamma = derive_gammas(config).gamma_ba
    psi = config.psi_a
    pi = generate_pilot(config.n_a, config.phi_a)
    scale = math.sqrt(gamma) / (gamma * psi + 1.0)
    per_trial = []
    for _, kept, stream in block_streams(mc):
        h = sample_channels(config, stream, kept).h_ba
        w = sample_cgaussian(config.n_b, config.phi_a, stream.split(len(DRAWN)), kept)
        y = math.sqrt(gamma) * (h @ pi) + w
        h_hat = scale * (y @ pi.conj().T)
        per_trial.append(np.mean(np.abs(h_hat - h) ** 2, axis=(-2, -1)))
    est = summarize(np.concatenate(per_trial))
    reference = 1.0 / (gamma * psi + 1.0)
    passed = abs(est.mean - reference) <= MMSE_RTOL * reference
    leak = gamma * config.n_a * reference
    return VerificationOutcome(
        check_name="pilot-mmse",
        reference_value=reference,
        computed_value=est.mean,
        tolerance=MMSE_RTOL,
        passed=passed,
        detail=(f"stderr {est.stderr:.3e}; residual probe-window perturbation "
                f"{leak:.3e} per entry vs unit noise"),
    )


def siso_ergodic_capacity(snr: float) -> float:
    """E{log2(1 + snr*x)} for x ~ Exp(1) by adaptive quadrature.

    Cross-checked internally against exp(1/snr)*E1(1/snr)/ln 2 whenever that
    expression is representable; disagreement or a poor quadrature error
    estimate raises QuadratureFailure.  scipy is imported here, on first
    use, so that nothing but this oracle pays for loading it.
    """
    from scipy import integrate, special

    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    if snr == 0:
        return 0.0
    value, err = integrate.quad(
        lambda x: math.log2(1.0 + snr * x) * math.exp(-x), 0.0, np.inf, limit=200)
    if err > max(1e-12, 1e-8 * abs(value)):
        raise QuadratureFailure(f"quadrature error estimate {err:.3e} too large")
    inv = 1.0 / snr
    if inv < 700.0:  # exp(inv) representable in double precision
        closed = math.exp(inv) * float(special.exp1(inv)) / math.log(2.0)
        if abs(closed - value) > 1e-8 * max(abs(closed), 1.0):
            raise QuadratureFailure(
                f"quadrature {value!r} disagrees with closed form {closed!r}")
    return value


def scalar_capacity_check(snr: float, mc: McSettings) -> VerificationOutcome:
    """Monte Carlo scalar capacity vs quadrature within 3 standard errors,
    over the engine's blocks of scalar channel draws."""
    config = ProbingConfig(n_a=1, n_b=1, n_e=1, phi_a=1, phi_b=1)
    est = estimate(lambda block: np.log2(1.0 + snr * np.abs(block.h_ba[:, 0, 0]) ** 2),
                   config, mc)
    reference = siso_ergodic_capacity(snr)
    tolerance = 3.0 * est.stderr
    passed = abs(est.mean - reference) <= tolerance
    return VerificationOutcome(
        check_name=f"scalar-capacity-snr-{snr:g}",
        reference_value=reference,
        computed_value=est.mean,
        tolerance=tolerance,
        passed=passed,
        detail=f"stderr {est.stderr:.3e} over {mc.trials} trials",
    )


def _telatar_quadrature(rows: int, cols: int, gamma: float, f) -> float:
    """The integral of f(x) against sum_{k<m} k!/(k+d)! L_k^d(x)^2 x^d e^-x
    (m = min(rows, cols), d = |rows - cols|) by adaptive quadrature, the
    Laguerre polynomials from scipy.special: a path independent of the
    engine's fixed rule and recurrence.  The range is split at 1/gamma, where
    the Wishart integrands bend, at each tenfold of it below 1 (the
    logarithm bends over all of those decades: with the split at 1/gamma
    alone the log-det mean was 6.5e-11 off at 16 x 16, gamma 1e10, and 5e-9
    at gamma 1e8) and at 1; an error estimate above 1e-10 relative raises
    QuadratureFailure.  scipy is imported on first use, as in
    siso_ergodic_capacity."""
    from scipy import integrate, special

    m, d = min(rows, cols), abs(rows - cols)
    scale = [math.exp(math.lgamma(k + 1) - math.lgamma(k + d + 1)) for k in range(m)]

    def integrand(x):
        density = sum(c * special.eval_genlaguerre(k, d, x) ** 2 for k, c in enumerate(scale))
        return f(x) * density * x ** d * math.exp(-x)

    breaks = sorted({0.0, 1.0} | {10.0 ** k / gamma for k in range(
        max(0, math.ceil(math.log10(gamma)))) if 10.0 ** k < gamma})
    total = err = 0.0
    # quad warns when it cannot reach epsrel; its error estimate, checked
    # below, says whether the value is still good enough
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(breaks, breaks[1:] + [np.inf]):
            value, e = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11,
                                      limit=200)
            total, err = total + value, err + e
    if err > 1e-10 * abs(total):
        raise QuadratureFailure(f"quadrature error estimate {err:.3e} too large")
    return total


def wishart_logdet_quadrature(rows: int, cols: int, gamma: float) -> float:
    """E log2det(I + gamma h^H h), h rows x cols with iid CN(0, 1) entries:
    Telatar's integral of ln(1 + gamma x) over ln 2, by _telatar_quadrature."""
    return _telatar_quadrature(rows, cols, gamma, lambda x: math.log1p(gamma * x)) \
        / math.log(2.0)


def wishart_trace_quadrature(rows: int, cols: int, gamma: float) -> float:
    """E tr(gamma W (I + gamma W)^-1), W = h^H h as above: the integral of
    gamma x / (1 + gamma x), by _telatar_quadrature."""
    return _telatar_quadrature(rows, cols, gamma, lambda x: gamma * x / (1.0 + gamma * x))


def wishart_power_quadrature(rows: int, cols: int) -> float:
    """E tr W, W = h^H h as above: the integral of x, by _telatar_quadrature
    (rows cols exactly)."""
    return _telatar_quadrature(rows, cols, 1.0, lambda x: x)


def wishart_mean_check(config: ProbingConfig) -> VerificationOutcome:
    """The exact mean of each of the floor's controls that
    capacity._controls declares at `config`, `times` wishart_logdet_mean(rows,
    cols, gamma), wishart_trace_mean's or, for a power control, the
    engine's rows cols, against `times` wishart_logdet_quadrature,
    wishart_trace_quadrature or wishart_power_quadrature of the same term,
    WISHART_RTOL relative, each term named by its control in the detail.  An
    edge control, whose mean is the floor's closed form, is named with its
    gamma_ea and takes no quadrature: raw_mean_check compares its samples
    with the form.  A term outside the closed form's domain is named and not
    compared: the engine gives such a floor its raw estimate."""
    worst, notes = 0.0, []
    for name, control in _controls(config).items():
        kind, args, times = control.mean
        if kind == "floor":
            notes.append(f"{name} (floor form, gamma_ea {args[3]:g})")
            continue
        if kind == "power":
            term = f"{name} ({args[0]}x{args[1]})"
            closed = _control_mean(control.mean)
            reference = times * wishart_power_quadrature(*args)
        else:
            closed_form, quadrature = (wishart_trace_mean, wishart_trace_quadrature) \
                if kind == "trace" else (wishart_logdet_mean, wishart_logdet_quadrature)
            term = f"{name} ({args[0]}x{args[1]}, gamma {args[2]:g})"
            try:
                closed = times * closed_form(*args)
            except ValueError:
                notes.append(f"{term} outside the domain")
                continue
            reference = times * quadrature(*args)
        worst = max(worst, abs(closed - reference) / abs(reference))
        notes.append(term)
    return VerificationOutcome(
        check_name="wishart-mean", reference_value=0.0, computed_value=worst,
        tolerance=WISHART_RTOL, passed=worst <= WISHART_RTOL,
        detail="largest relative deviation over " + "; ".join(notes))


# a sampled term passes raw_mean_check if its raw mean is within this many
# standard errors of its reference
RAW_MEAN_SIGMAS = 4.0


def raw_mean_check(config: ProbingConfig, mc: McSettings) -> list[VerificationOutcome]:
    """The raw mean of each sampled term whose mean has the floor's closed
    form here, on the engine's draws at `mc` in one pass, within
    RAW_MEAN_SIGMAS standard errors of that form, the samples being the
    independent oracle of the Andreief identity behind it: each of the
    floor's edge controls that capacity._controls declares (the floor at
    gamma_ea = gamma_ba / 3 and 3 gamma_ba) against its mean, as
    <name>-closed-form; then, where evaluate takes the floor's own mean from
    the form (capacity._floor_plan, gamma_ea and gamma_ba three times or
    more apart), the floor against it, as floor-closed-form.  Every form is
    evaluated in one call of capacity._floor_forms."""
    points = _edge_points(config)
    form, point = _floor_plan(config)
    if form == "closed form":
        points["floor"] = point
    forms = _floor_forms(points.values())
    references = {name: forms[point] for name, point in points.items()}
    values = trial_values_many([(config, tuple(references))], mc)[0]
    outcomes = []
    for name, reference in references.items():
        est = summarize(values[name])
        tolerance = RAW_MEAN_SIGMAS * est.stderr
        outcomes.append(VerificationOutcome(
            check_name=f"{name}-closed-form", reference_value=reference,
            computed_value=est.mean, tolerance=tolerance,
            passed=abs(est.mean - reference) <= tolerance,
            detail=f"stderr {est.stderr:.3e} over {mc.trials} trials"))
    return outcomes


def wishart_siso_check(snrs: Sequence[float]) -> VerificationOutcome:
    """wishart_logdet_mean(1, 1, snr) against siso_ergodic_capacity(snr),
    WISHART_RTOL relative, at every snr."""
    worst = 0.0
    for snr in snrs:
        reference = siso_ergodic_capacity(snr)
        worst = max(worst, abs(wishart_logdet_mean(1, 1, snr) - reference) / reference)
    return VerificationOutcome(
        check_name="wishart-mean-siso", reference_value=0.0, computed_value=worst,
        tolerance=WISHART_RTOL, passed=worst <= WISHART_RTOL,
        detail="largest relative deviation at snr " + ", ".join(f"{s:g}" for s in snrs))


def floor_resolvent(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor integrand: the resolvent determinant
    log2|I + gamma_ba H^H H (gamma_ba (noise_b/noise_ea) G^H G + I)^-1|,
    exactly zero at noise_ea = 0."""
    if config.noise_ea == 0:
        return realization.per_trial(0.0)
    gam = derive_gammas(config)
    eye = np.eye(config.n_a)
    gram_e = hermitize(conj_t(realization.g_a) @ realization.g_a)
    gram_h = hermitize(conj_t(realization.h_ba) @ realization.h_ba)
    denom = gam.gamma_ba * (config.noise_b / config.noise_ea) * gram_e + eye
    val = logdet_lu(eye + gam.gamma_ba * np.linalg.solve(denom, gram_h))
    return realization.per_trial(np.maximum(val, 0.0))


def floor_null_space(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the n_e < n_a floor and of t4, {"floor": ..., "t4": ...}
    per trial, in an orthonormal basis [Q1, N] of C^n_a from a complete QR
    factorization of g_a^H: Q1 spans g_a's row space and N its null space.
    With h1 = h_ba Q1, h2 = h_ba N and A = (g_a Q1)^H (g_a Q1),

        t4    = log2|I + gamma_ba h2 h2^H|,
        floor = log2|I + gamma_ba (h1 (I + gamma_ea A)^-1 h1^H + h2 h2^H)|,

    by LU; at noise_ea = 0 the floor is its limit there, t4."""
    gam = derive_gammas(config)
    q, _ = np.linalg.qr(conj_t(realization.g_a), mode="complete")
    seen, unseen = q[..., :config.n_e], q[..., config.n_e:]
    h_unseen = realization.h_ba @ unseen
    eye = np.eye(config.n_b)
    hidden = h_unseen @ conj_t(h_unseen)
    values = {"t4": logdet_lu(eye + gam.gamma_ba * hidden)}
    if config.noise_ea == 0:
        values["floor"] = values["t4"]
        return values
    g_seen = realization.g_a @ seen
    h_seen = realization.h_ba @ seen
    a = np.eye(config.n_e) + gam.gamma_ea * (conj_t(g_seen) @ g_seen)
    leak = h_seen @ np.linalg.solve(a, conj_t(h_seen))
    values["floor"] = logdet_lu(eye + gam.gamma_ba * (leak + hidden))
    return values


def _gram_logdet(s: np.ndarray, gamma: float):
    """log2det(I + gamma S^H S) per trial, by LU from the raw channels S, on
    the smaller side of Sylvester's identity: of I + gamma S S^H where S has
    no more rows than columns, else of I + gamma S^H S, min(rows,
    cols)-square (the larger side loses digits at high gamma)."""
    product = s @ conj_t(s) if s.shape[-2] <= s.shape[-1] else conj_t(s) @ s
    return logdet_lu(np.eye(product.shape[-1]) + gamma * product)


def eve_smaller_side(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's control t2 = log2det(I + gamma_ea G) per trial,
    by _gram_logdet of g_a: min(n_e, n_a)-square."""
    return _gram_logdet(realization.g_a, derive_gammas(config).gamma_ea)


def bob_smaller_side(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's control t3 = log2det(I + gamma_ba H) per trial,
    by _gram_logdet of h_ba: min(n_b, n_a)-square."""
    return _gram_logdet(realization.h_ba, derive_gammas(config).gamma_ba)


def joint_sylvester(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's control t5 = log2det(I + gamma_ba (G + H)) per
    trial, by _gram_logdet of S = [g_a; h_ba]: min(n_e + n_b, n_a)-square."""
    return _gram_logdet(np.concatenate([realization.g_a, realization.h_ba], axis=-2),
                        derive_gammas(config).gamma_ba)


def eve_sylvester(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's control t1 = log2det(I + gamma_ba G) per trial,
    by _gram_logdet of g_a: min(n_e, n_a)-square."""
    return _gram_logdet(realization.g_a, derive_gammas(config).gamma_ba)


def interaction_traces(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's controls u3 = tr(P_H G) and u1 = tr(P_G H),
    {"u3": ..., "u1": ...} per trial, P_M = gamma_ba M (I + gamma_ba M)^-1
    for M = m^H m: sum_k gamma_ba l_k / (1 + gamma_ba l_k) |w v_k|^2 over the
    eigenpairs (l_k, v_k) of M (numpy's eigh), w the other channel.  Where
    m has fewer rows than columns only its nonzero eigenvalues count, from
    m m^H = U diag(l) U^H with m^H u_k = sqrt(l_k) v_k, so no eigenvalue
    that is zero up to round-off is weighted by gamma_ba."""
    gamma = derive_gammas(config).gamma_ba

    def trace(m, w):
        if m.shape[-2] < m.shape[-1]:
            eigenvalues, vectors = np.linalg.eigh(hermitize(m @ conj_t(m)))
            weights = gamma / (1.0 + gamma * eigenvalues)
            seen = w @ (conj_t(m) @ vectors)
        else:
            eigenvalues, vectors = np.linalg.eigh(hermitize(conj_t(m) @ m))
            weights = gamma * eigenvalues / (1.0 + gamma * eigenvalues)
            seen = w @ vectors
        return np.sum(weights * np.sum(np.abs(seen) ** 2, axis=-2), axis=-1)

    return {"u3": trace(realization.h_ba, realization.g_a),
            "u1": trace(realization.g_a, realization.h_ba)}


def received_powers(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's controls p2 = tr G and p3 = tr H, {"p2": ...,
    "p3": ...} per trial: the real traces of the outer Grams g_a g_a^H and
    h_ba h_ba^H."""
    return {name: np.trace(m @ conj_t(m), axis1=-2, axis2=-1).real
            for name, m in (("p2", realization.g_a), ("p3", realization.h_ba))}


def floor_edges(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the floor's edge controls fl and fh that capacity._controls
    declares at `config`, {"fl": ..., "fh": ...} per trial: the regime's
    floor oracle (floor_null_space where n_e < n_a, otherwise
    floor_resolvent) at the config whose noise_ea puts Eve's gamma at the
    edge's."""
    values = {}
    for name, control in _controls(config).items():
        if control.mean.kind == "floor":
            edge = replace(config, noise_ea=config.power_a / control.mean.args[3])
            values[name] = floor_null_space(realization, edge)["floor"] \
                if config.n_e < config.n_a else floor_resolvent(realization, edge)
    return values


def gap_resolvent(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the gap integrand: v_b times the resolvent determinant
    log2det(I + c A^-1 g_b^H g_b), A = I + gamma_ab h_ab^H h_ab and c =
    gamma_ab noise_a/noise_eb, n_b-square; where n_e < n_b, as log2det(I + c
    g_b A^-1 g_b^H) on its n_e-square side (the n_b-square one loses digits
    at high SNR there).  Exactly zero at v_b = 0."""
    if config.v_b == 0:
        return realization.per_trial(0.0)
    if config.noise_eb == 0:
        raise InvalidNoise("the bound gap diverges at noise_eb = 0 with v_b > 0")
    gam = derive_gammas(config)
    weight = gam.gamma_ab * (config.noise_a / config.noise_eb)
    h, g = realization.h_ab, realization.g_b
    denom = gam.gamma_ab * hermitize(conj_t(h) @ h) + np.eye(config.n_b)
    if config.n_e < config.n_b:
        resolvent = np.eye(config.n_e) + weight * (g @ np.linalg.solve(denom, conj_t(g)))
    else:
        resolvent = np.eye(config.n_b) + weight * np.linalg.solve(
            denom, hermitize(conj_t(g) @ g))
    val = config.v_b * logdet_lu(resolvent)
    return realization.per_trial(np.maximum(val, 0.0))


def lower_bob_rectangular(realization: ChannelRealization, config: ProbingConfig):
    """Oracle of the Bob-side bound integrand: the stacked (n_b+n_e)- and
    n_e-sized outer-product determinants in place of the engine's Gram
    determinants."""
    gam = derive_gammas(config)
    val = pilot_mi(config)

    def logdet_outer(gamma, m):
        return logdet_hermitian_pd(gamma * hermitize(m @ conj_t(m)) + np.eye(m.shape[-2]))

    if config.v_a and config.noise_ea == 0 and config.n_e < config.n_a:
        # the floor's noiseless limit t4: h_ba through the projector P onto
        # null(g_a), h_ba P h_ba^H = (h_ba P)(h_ba P)^H
        g = realization.g_a
        projector = np.eye(config.n_a) - conj_t(g) @ np.linalg.solve(
            hermitize(g @ conj_t(g)), g)
        val += config.v_a * logdet_outer(gam.gamma_ba, realization.h_ba @ projector)
    elif config.v_a and config.noise_ea > 0:
        stacked = np.concatenate(
            [np.sqrt(config.noise_ea / config.noise_b) * realization.h_ba,
             realization.g_a], axis=-2)
        val += config.v_a * (logdet_outer(gam.gamma_ea, stacked)
                             - logdet_outer(gam.gamma_ea, realization.g_a))
    if config.v_b:
        if config.noise_eb == 0:
            raise InvalidNoise("lower bound diverges at noise_eb = 0 with v_b > 0")
        val += config.v_b * (logdet_outer(gam.gamma_ab, realization.h_ab)
                             - logdet_outer(gam.gamma_eb, realization.g_b))
    return realization.per_trial(val)


# the per-sample oracle of each of the floor's CONTROLS (capacity._controls
# says which of them a config has); an oracle of several values gives a dict
# of them by name
CONTROL_ORACLES = {"t2": eve_smaller_side, "t3": bob_smaller_side, "t5": joint_sylvester,
                   "t4": floor_null_space, "t1": eve_sylvester,
                   "u3": interaction_traces, "u1": interaction_traces,
                   "fl": floor_edges, "fh": floor_edges,
                   "p2": received_powers, "p3": received_powers}


def _worst_deviation(name: str, pairs, tolerance: float, detail: str) -> VerificationOutcome:
    """Outcome of the largest per-trial |a - b| over the (a, b) pairs of
    arrays over the same trials; a failure names the trial where it lies."""
    dev = np.max([np.abs(a - b) for a, b in pairs], axis=0)
    worst = int(np.argmax(dev))
    passed = bool(dev[worst] <= tolerance)
    return VerificationOutcome(
        check_name=name, reference_value=0.0, computed_value=float(dev[worst]),
        tolerance=tolerance, passed=passed,
        detail=detail if passed else f"max deviation at trial {worst}")


def determinant_identity_suite(config: ProbingConfig, realizations: int = 300,
                               master_seed: int = 1) -> list[VerificationOutcome]:
    """Per-trial certification of the engine against the oracle forms.

    Two passes over the first `realizations` trials of the engine's blocks
    at `master_seed`: one trial_values_many call for the engine's values at
    the config and at its v_b = 0 copy, and one collect of the oracle forms
    (each once per block) and the per-sample integrands.  Checks:
      (a) gap: engine vs gap_resolvent within IDENTITY_ATOL;
      (b) floor: engine vs one oracle per regime within IDENTITY_ATOL,
          floor_null_space where n_e < n_a and otherwise floor_resolvent,
          which loses digits where n_e < n_a as noise_ea falls (1e-6 bits at
          (4,2,2), power 1e5, noise_ea 1e-4);
      (c) each control that capacity._controls declares at the config:
          engine vs its CONTROL_ORACLES entry within IDENTITY_ATOL, as
          <name>-form-equivalence;
      (d) Bob-side bound: engine vs lower_bob_rectangular within IDENTITY_ATOL;
      (e) gap integrand >= 0 throughout, and exactly 0 when v_b = 0;
      (f) with v_b forced to 0, the Bob-side integrand equals
          pilot_mi + v_a * floor integrand bit for bit;
      (g) the batched engine's floor, gap, Bob- and Alice-side integrands
          (the latter unless it is the exact -inf) equal the per-sample
          integrands, each evaluated on one draw, within IDENTITY_ATOL on
          every trial (more than one block once realizations exceeds the
          block size).
    A failing check names the trial with the largest deviation.
    """
    if realizations < 100:
        raise ValidationError(f"need >= 100 realizations, got {realizations}")
    mc = McSettings(trials=realizations, master_seed=master_seed)
    oneway = replace(config, v_b=0)
    swapped = config.swap_roles()
    per_sample = {
        "floor": lambda r: secrecy_floor_sample(r, config),
        "gap": lambda r: bound_gap_sample(r, config),
        "lower_bob": lambda r: lower_bound_bob_sample(r, config),
        "lower_alice": lambda r: lower_bound_bob_sample(r.swap_roles(), swapped),
    }
    if _alice_bound_diverges(config):
        del per_sample["lower_alice"]
    oracles = {"floor": floor_null_space if config.n_e < config.n_a else floor_resolvent}
    oracles.update((name, CONTROL_ORACLES[name]) for name in _controls(config))
    engine, engine_oneway = trial_values_many(
        [(config, set(per_sample) | set(oracles)), (oneway, ("lower_bob",))], mc)

    def references(block):
        values = {"gap": gap_resolvent(block, config),
                  "lower_bob": lower_bob_rectangular(block, config)}
        forms = {form: form(block, config) for form in dict.fromkeys(oracles.values())}
        for name, form in oracles.items():
            values[name] = forms[form][name] if isinstance(forms[form], dict) else forms[form]
        for name, integrand in per_sample.items():
            values[f"{name} per sample"] = np.array(
                [integrand(block[j]) for j in range(block.trials_shape[0])])
        return values

    oracle = collect(references, config, mc)
    gaps = np.concatenate([engine["gap"], oracle["gap"]])
    over = f"over {realizations} realizations"
    return [
        _worst_deviation("gap-form-equivalence", [(engine["gap"], oracle["gap"])],
                         IDENTITY_ATOL, over),
        *(_worst_deviation(f"{name}-form-equivalence", [(engine[name], oracle[name])],
                           IDENTITY_ATOL, f"{name} against {form.__name__} {over}")
          for name, form in oracles.items()),
        _worst_deviation("lower-bob-form-equivalence",
                         [(engine["lower_bob"], oracle["lower_bob"])], IDENTITY_ATOL, over),
        VerificationOutcome(
            check_name="gap-nonnegative",
            reference_value=0.0,
            computed_value=float(gaps.min()),
            tolerance=0.0,
            passed=bool(gaps.min() >= 0.0) and (config.v_b > 0 or not gaps.any()),
            detail="gap must be exactly 0 when v_b = 0" if config.v_b == 0 else "",
        ),
        _worst_deviation("one-way-identity",
                         [(engine_oneway["lower_bob"],
                           pilot_mi(oneway) + oneway.v_a * engine["floor"])],
                         0.0, "bitwise identity with v_b = 0"),
        _worst_deviation("engine-reference-agreement",
                         [(engine[name], oracle[f"{name} per sample"]) for name in per_sample],
                         IDENTITY_ATOL, f"{', '.join(per_sample)} over {realizations} trials"),
    ]


SCALAR_CHECK_SNRS = (0.1, 1.0, 10.0)


def run_suite(configs: Sequence[ProbingConfig], mc: McSettings,
              identity_realizations: int = 300,
              corrupt_pilot_mi: bool = False) -> VerificationSummary:
    """Run every check across a set of configurations.

    The scalar-capacity cross-oracle and the scalar check of the Wishart
    log-det means are configuration independent and run once; the exact
    means of the floor's controls and the floor's closed form, at its edge
    controls and where the floor itself has it, are checked per config.
    Overall pass requires every outcome to pass.
    """
    if not configs:
        raise ValidationError("empty config set")
    outcomes: list[VerificationOutcome] = []
    for snr in SCALAR_CHECK_SNRS:
        outcomes.append(scalar_capacity_check(snr, mc))
    outcomes.append(wishart_siso_check(SCALAR_CHECK_SNRS))
    for idx, config in enumerate(configs):
        prefix = f"cfg{idx}:"
        tagged = [pilot_mi_check(config, corrupt=corrupt_pilot_mi),
                  pilot_estimation_check(config, mc)]
        tagged.extend(determinant_identity_suite(
            config, realizations=identity_realizations, master_seed=mc.master_seed))
        tagged.append(wishart_mean_check(config))
        tagged.extend(raw_mean_check(config, mc))
        for o in tagged:
            outcomes.append(replace(o, check_name=prefix + o.check_name))
    return VerificationSummary(outcomes=tuple(outcomes))
