"""Independent cross-verification of the closed forms.

Three kinds of checks live here:

* an exact, sample-free recomputation of the pilot-window MI from the joint
  Gaussian covariance of the two vectorized pilot observations, compared
  against the closed form;
* Monte Carlo validation of the pilot-estimation error model and of the
  scalar ergodic capacity against adaptive quadrature;
* per-trial determinant-identity checks certifying that the paired
  evaluation forms of the gap, the floor, and the Bob-side bound agree on
  the engine's blocks of draws, and that the batched Monte Carlo engine
  reproduces the per-sample forms on every trial.

A deliberate mutation hook is included so a silently broken oracle cannot
pass its own suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .capacity import (
    _floor_form,
    bound_gap_sample,
    lower_bound_bob_sample,
    pilot_mi,
    secrecy_floor_sample,
    trial_values,
)
# sample_channels is not called here; the benchmark tracer
# (perfbench/launch.py) wraps skcprobe.verify.sample_channels
from .channel import ProbingConfig, derive_gammas, generate_pilot, sample_channels  # noqa: F401
from .errors import DimensionGuard, QuadratureFailure, ValidationError
from .montecarlo import (
    BLOCK,
    McSettings,
    block_streams,
    collect,
    estimate,
    summarize,
    trial_blocks,
)
from .numerics import hermitize, logdet_hermitian_pd, sample_cgaussian

# largest covariance factor we will form densely; beyond this the exact
# evaluation would need structure-exploiting code that defeats its purpose
# as an independent oracle
MAX_COVARIANCE_DIM = 4096

PILOT_MI_RTOL = 1e-6
IDENTITY_ATOL = 1e-9
MMSE_RTOL = 0.05


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

    and returns log2|blk_a| + log2|blk_b| - log2|[[blk_a, cross],
    [cross^H, blk_b]]|.  The vectorization conventions matter: mixing the
    plain and transposed stacking silently breaks the cross block.
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
    joint = np.block([[blk_a, cross], [cross.conj().T, blk_b]])
    return (logdet_hermitian_pd(blk_a) + logdet_hermitian_pd(blk_b)
            - logdet_hermitian_pd(joint))


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
    channels and pilot-window noise are drawn whole, in that order, from
    the engine's stream for (master_seed, b).
    """
    gamma = derive_gammas(config).gamma_ba
    psi = config.psi_a
    pi = generate_pilot(config.n_a, config.phi_a)
    scale = math.sqrt(gamma) / (gamma * psi + 1.0)
    per_trial = []
    for _, kept, rng in block_streams(mc):
        h = sample_cgaussian(config.n_b, config.n_a, rng, BLOCK)[:kept]
        w = sample_cgaussian(config.n_b, config.phi_a, rng, BLOCK)[:kept]
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


def determinant_identity_suite(config: ProbingConfig, realizations: int = 300,
                               master_seed: int = 1) -> list[VerificationOutcome]:
    """Per-trial certification of the paired evaluation forms.

    Checks, over the first `realizations` trials of the engine's blocks at
    `master_seed`, each form evaluated once per block:
      (a) gap: stacked vs resolvent form within IDENTITY_ATOL;
      (b) floor: direct vs resolvent form within IDENTITY_ATOL;
      (c) Bob-side bound: square vs rectangular form within IDENTITY_ATOL;
      (d) gap integrand >= 0 throughout, and exactly 0 when v_b = 0;
      (e) with v_b forced to 0, the Bob-side integrand equals
          pilot_mi + v_a * floor integrand bit for bit;
      (f) the batched engine's floor, gap and Bob-side integrands equal
          the per-sample forms within IDENTITY_ATOL on every trial of the
          engine's own draws (more than one block once realizations
          exceeds the block size).
    A failing check names the trial with the largest deviation.
    """
    if realizations < 100:
        raise ValidationError(f"need >= 100 realizations, got {realizations}")
    oneway = replace(config, v_b=0)

    def paired_forms(block):
        floor_inverse = secrecy_floor_sample(block, config, form="inverse")
        return {
            "gap_stacked": bound_gap_sample(block, config, form="stacked"),
            "gap_inverse": bound_gap_sample(block, config, form="inverse"),
            # the direct form is undefined at noise_ea = 0
            "floor_direct": (secrecy_floor_sample(block, config, form="direct")
                             if config.noise_ea > 0 else floor_inverse),
            "floor_inverse": floor_inverse,
            "cb_square": lower_bound_bob_sample(block, config, form="square"),
            "cb_rect": lower_bound_bob_sample(block, config, form="rectangular"),
            "oneway_expected": pilot_mi(oneway) + oneway.v_a * secrecy_floor_sample(
                block, oneway, _floor_form(oneway)),
            "oneway_actual": lower_bound_bob_sample(block, oneway, form="square"),
        }

    v = collect(paired_forms, config, McSettings(trials=realizations,
                                                 master_seed=master_seed))
    gaps = np.concatenate([v["gap_stacked"], v["gap_inverse"]])

    def outcome(name, a, b, tol, extra):
        dev = np.abs(a - b)
        worst = int(np.argmax(dev))
        return VerificationOutcome(
            check_name=name, reference_value=0.0, computed_value=float(dev[worst]),
            tolerance=tol, passed=bool(dev[worst] <= tol),
            detail=(f"max deviation at trial {worst}" if dev[worst] > tol else extra))

    over = f"over {realizations} realizations"
    return [
        outcome("gap-form-equivalence", v["gap_stacked"], v["gap_inverse"],
                IDENTITY_ATOL, over),
        outcome("floor-form-equivalence", v["floor_direct"], v["floor_inverse"],
                IDENTITY_ATOL, over),
        outcome("lower-bob-form-equivalence", v["cb_square"], v["cb_rect"],
                IDENTITY_ATOL, over),
        VerificationOutcome(
            check_name="gap-nonnegative",
            reference_value=0.0,
            computed_value=float(gaps.min()),
            tolerance=0.0,
            passed=bool(gaps.min() >= 0.0) and (config.v_b > 0 or not gaps.any()),
            detail="gap must be exactly 0 when v_b = 0" if config.v_b == 0 else "",
        ),
        outcome("one-way-identity", v["oneway_actual"], v["oneway_expected"], 0.0,
                "bitwise identity with v_b = 0"),
        engine_agreement_check(config, realizations, master_seed),
    ]


def engine_agreement_check(config: ProbingConfig, realizations: int = 300,
                           master_seed: int = 1) -> VerificationOutcome:
    """Largest per-trial deviation of the batched engine's integrands from
    the per-sample forms (floor in the form _floor_form picks, stacked gap,
    square Bob-side bound), each evaluated on one draw of the same blocks."""
    mc = McSettings(trials=realizations, master_seed=master_seed)
    engine = trial_values(config, mc, ("floor", "gap", "lower_bob"))
    references = {
        "floor": lambda r: secrecy_floor_sample(r, config, _floor_form(config)),
        "gap": lambda r: bound_gap_sample(r, config),
        "lower_bob": lambda r: lower_bound_bob_sample(r, config),
    }
    dev, worst = 0.0, -1
    for start, block in trial_blocks(config, mc):
        for j in range(block.trials_shape[0]):
            for name, reference in references.items():
                d = float(abs(engine[name][start + j] - reference(block[j])))
                if d > dev:
                    dev, worst = d, start + j
    return VerificationOutcome(
        check_name="engine-reference-agreement", reference_value=0.0,
        computed_value=dev, tolerance=IDENTITY_ATOL, passed=dev <= IDENTITY_ATOL,
        detail=(f"max deviation at trial {worst}" if dev > IDENTITY_ATOL
                else f"floor, gap and Bob-side bound over {realizations} trials"))


SCALAR_CHECK_SNRS = (0.1, 1.0, 10.0)


def run_suite(configs: Sequence[ProbingConfig], mc: McSettings,
              identity_realizations: int = 300,
              corrupt_pilot_mi: bool = False) -> VerificationSummary:
    """Run every check across a set of configurations.

    The scalar-capacity cross-oracle is configuration independent and runs
    once.  Overall pass requires every outcome to pass.
    """
    if not configs:
        raise ValidationError("empty config set")
    outcomes: list[VerificationOutcome] = []
    for snr in SCALAR_CHECK_SNRS:
        outcomes.append(scalar_capacity_check(snr, mc))
    for idx, config in enumerate(configs):
        prefix = f"cfg{idx}:"
        tagged = [pilot_mi_check(config, corrupt=corrupt_pilot_mi),
                  pilot_estimation_check(config, mc)]
        tagged.extend(determinant_identity_suite(
            config, realizations=identity_realizations, master_seed=mc.master_seed))
        for o in tagged:
            outcomes.append(replace(o, check_name=prefix + o.check_name))
    return VerificationSummary(outcomes=tuple(outcomes))
