"""Closed-form secret-key capacity quantities and their Monte Carlo estimates.

Quantities (all in bits, log base 2):

* ``pilot_mi``      -- exact mutual information between the two pilot-window
  observations; n_a*n_b*log2 of the reciprocity gain.
* ``secrecy_floor`` -- expected secret bits per probing slot that Bob gains
  over Eve from Alice's random probes; positive whenever Eve's receive noise
  is nonzero.
* ``lower_bound_bob`` / ``lower_bound_alice`` -- the two secret-key-rate
  lower bounds per coherence period (the Alice-side bound is the Bob-side
  bound of the role-swapped scenario).
* ``bound_gap`` / ``upper_bound`` -- the upper bound exceeds the Bob-side
  lower bound by a gap that is exactly zero when v_b = 0 (one-way probing).

Each expectation has two algebraically equivalent per-sample forms computed
through different factorizations; their agreement is part of the test suite,
not an assumption.  Every per-sample integrand also accepts a block of
draws (see ChannelRealization) and then evaluates all of its trials at once
with stacked Gram products and factorizations; ``evaluate`` is the single
Monte Carlo path that every estimate here goes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .channel import ChannelRealization, ProbingConfig, derive_gammas
from .errors import GridTooSmall, InvalidNoise, OrderingViolation
from .montecarlo import Estimate, McSettings, collect, summarize
from .numerics import conj_t, hermitize, logdet_hermitian_pd, logdet_lu


def reciprocity_gain(config: ProbingConfig) -> float:
    """Per-antenna-pair MI factor of the pilot windows.

    Equals 1 iff rho = 0 and grows without bound as |rho| -> 1 with strong
    pilots; always >= 1 since |rho|^2 <= 1 only shrinks the denominator's
    cross term.
    """
    g = derive_gammas(config)
    sa = g.gamma_ba * config.psi_a
    sb = g.gamma_ab * config.psi_b
    num = (sb + 1.0) * (sa + 1.0)
    den = (1.0 - abs(config.rho) ** 2) * sb * sa + sb + sa + 1.0
    return num / den


def pilot_mi(config: ProbingConfig) -> float:
    """Exact MI between the two pilot observations, bits per coherence period."""
    return config.n_a * config.n_b * math.log2(reciprocity_gain(config))


def mi_given_channel(h: np.ndarray, gamma: float, slots: int) -> float:
    """MI of a random probe through a known channel: slots * log2 det(gamma h h^H + I)."""
    if slots < 0:
        raise ValueError(f"slots must be >= 0, got {slots}")
    if slots == 0:
        return 0.0
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    return slots * logdet_hermitian_pd(gamma * _outer(h) + np.eye(n))


def entropy_given_channel(h: np.ndarray, gamma: float, slots: int) -> float:
    """Differential entropy of the probe observation given the channel."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    return n * slots * math.log2(math.pi * math.e) + mi_given_channel(h, gamma, slots)


def _gram(m: np.ndarray) -> np.ndarray:
    return hermitize(conj_t(m) @ m)


def _outer(m: np.ndarray) -> np.ndarray:
    return hermitize(m @ conj_t(m))


def _per_trial(value, realization: ChannelRealization):
    """`value` as one number per trial: a float for a single draw, an array
    over the trials of a block."""
    out = np.broadcast_to(value, realization.trials_shape)
    return float(out) if out.ndim == 0 else out


def secrecy_floor_sample(realization: ChannelRealization, config: ProbingConfig,
                         form: str = "direct"):
    """Per-realization integrand of the secrecy floor (bits per probe slot).

    ``direct`` takes the difference of two n_a x n_a log-determinants, with
    Bob's channel folded into Eve's Gram matrix at weight noise_ea/noise_b;
    ``inverse`` evaluates the equivalent resolvent determinant
    log2|I + gamma_ba H^H H (gamma_ba (noise_b/noise_ea) G^H G + I)^-1|.
    The direct form needs noise_ea > 0; the inverse form accepts the
    noise_ea -> 0 limit, where the floor is exactly zero.
    """
    gam = derive_gammas(config)
    eye = np.eye(config.n_a)
    if form == "direct":
        if config.noise_ea == 0:
            raise InvalidNoise("direct form undefined at noise_ea = 0; use the inverse form")
        gram_e = _gram(realization.g_a)
        gram_h = _gram(realization.h_ba)
        folded = gram_e + (config.noise_ea / config.noise_b) * gram_h
        val = (logdet_hermitian_pd(gam.gamma_ea * folded + eye)
               - logdet_hermitian_pd(gam.gamma_ea * gram_e + eye))
    elif form == "inverse":
        if config.noise_ea == 0:
            return _per_trial(0.0, realization)
        denom = gam.gamma_ba * (config.noise_b / config.noise_ea) * _gram(realization.g_a) + eye
        resolvent = eye + gam.gamma_ba * np.linalg.solve(denom, _gram(realization.h_ba))
        val = logdet_lu(resolvent)
    else:
        raise ValueError(f"unknown form {form!r}")
    # mathematically >= 0 (det of M + PSD over det of M); clamp round-off
    return _per_trial(np.maximum(val, 0.0), realization)


def _floor_form(config: ProbingConfig) -> str:
    return "direct" if config.noise_ea > 0 else "inverse"


def bound_gap_sample(realization: ChannelRealization, config: ProbingConfig,
                     form: str = "stacked"):
    """Per-realization gap between the upper and Bob-side lower bound.

    ``stacked`` uses rectangular determinants of Bob's channel stacked over
    Eve's weighted channel; ``inverse`` uses the n_b x n_b resolvent form.
    Exactly zero when v_b = 0.
    """
    if config.v_b == 0:
        return _per_trial(0.0, realization)
    if config.noise_eb == 0:
        raise InvalidNoise("the bound gap diverges at noise_eb = 0 with v_b > 0")
    gam = derive_gammas(config)
    weight = config.noise_a / config.noise_eb
    if form == "stacked":
        stacked = np.concatenate([realization.h_ab, np.sqrt(weight) * realization.g_b],
                                 axis=-2)
        big = logdet_hermitian_pd(
            gam.gamma_ab * _outer(stacked) + np.eye(config.n_a + config.n_e))
        small = logdet_hermitian_pd(
            gam.gamma_ab * _outer(realization.h_ab) + np.eye(config.n_a))
        val = config.v_b * (big - small)
    elif form == "inverse":
        eye = np.eye(config.n_b)
        denom = gam.gamma_ab * _gram(realization.h_ab) + eye
        resolvent = eye + gam.gamma_ab * weight * np.linalg.solve(denom, _gram(realization.g_b))
        val = config.v_b * logdet_lu(resolvent)
    else:
        raise ValueError(f"unknown form {form!r}")
    return _per_trial(np.maximum(val, 0.0), realization)


def lower_bound_bob_sample(realization: ChannelRealization, config: ProbingConfig,
                           form: str = "square", floor=None):
    """Per-realization integrand of the Bob-side lower bound.

    ``square`` uses n_a/n_b-sized Gram determinants; ``rectangular`` uses
    the stacked (n_b+n_e)- and n_e-sized outer-product determinants.  Both
    reduce to pilot_mi + v_a * floor when v_b = 0, bit for bit in the
    square form.  A caller that already holds the floor integrand on the
    same draws passes it as ``floor`` so the square form does not compute
    it again.
    """
    gam = derive_gammas(config)
    val = pilot_mi(config)
    if form == "square":
        if config.v_a:
            if floor is None:
                floor = secrecy_floor_sample(realization, config, _floor_form(config))
            val += config.v_a * floor
        if config.v_b:
            if config.noise_eb == 0:
                raise InvalidNoise("lower bound diverges at noise_eb = 0 with v_b > 0")
            eye_b = np.eye(config.n_b)
            val += config.v_b * (
                logdet_hermitian_pd(gam.gamma_ab * _gram(realization.h_ab) + eye_b)
                - logdet_hermitian_pd(gam.gamma_eb * _gram(realization.g_b) + eye_b))
    elif form == "rectangular":
        if config.v_a and config.noise_ea > 0:
            stacked = np.concatenate(
                [np.sqrt(config.noise_ea / config.noise_b) * realization.h_ba,
                 realization.g_a], axis=-2)
            val += config.v_a * (
                logdet_hermitian_pd(gam.gamma_ea * _outer(stacked)
                                    + np.eye(config.n_b + config.n_e))
                - logdet_hermitian_pd(gam.gamma_ea * _outer(realization.g_a)
                                      + np.eye(config.n_e)))
        if config.v_b:
            if config.noise_eb == 0:
                raise InvalidNoise("lower bound diverges at noise_eb = 0 with v_b > 0")
            val += config.v_b * (
                logdet_hermitian_pd(gam.gamma_ab * _outer(realization.h_ab)
                                    + np.eye(config.n_a))
                - logdet_hermitian_pd(gam.gamma_eb * _outer(realization.g_b)
                                      + np.eye(config.n_e)))
    else:
        raise ValueError(f"unknown form {form!r}")
    return _per_trial(val, realization)


# quantities that `evaluate` estimates; 'lower' is the larger side bound
MC_QUANTITIES = ("floor", "gap", "lower_bob", "lower_alice", "upper", "lower")


def trial_values(config: ProbingConfig, mc: McSettings,
                 names: Iterable[str]) -> dict[str, np.ndarray]:
    """Per-trial integrands of 'floor', 'gap' and 'lower_bob' on the engine's
    shared draws, each evaluated once per block in the engine's form (the
    floor form that _floor_form picks, the stacked gap, the square Bob-side
    bound built on the same floor values)."""
    names = frozenset(names)
    floor_form = _floor_form(config)

    def block_values(block: ChannelRealization) -> dict[str, np.ndarray]:
        out = {}
        floor = None
        if "floor" in names or ("lower_bob" in names and config.v_a):
            floor = secrecy_floor_sample(block, config, floor_form)
        if "floor" in names:
            out["floor"] = floor
        if "lower_bob" in names:
            out["lower_bob"] = lower_bound_bob_sample(block, config, floor=floor)
        if "gap" in names:
            out["gap"] = bound_gap_sample(block, config)
        return out

    return collect(block_values, config, mc)


def _larger_side(alice: Estimate, bob: Estimate) -> Estimate:
    """The reported lower bound: whichever side bound is larger."""
    return alice if alice.mean > bob.mean else bob


def evaluate(config: ProbingConfig, mc: McSettings,
             quantities: Sequence[str]) -> dict[str, Estimate]:
    """Monte Carlo estimates of the requested quantities (MC_QUANTITIES).

    Only what the request needs is computed.  floor, gap, lower_bob and
    upper come from one pass over shared draws, so upper == lower_bob + gap
    per sample; the floor is exact 0 at noise_ea = 0 and the gap exact 0 at
    v_b = 0.  lower_alice is the Bob-side bound of the role-swapped
    scenario, drawn from its own blocks at the same seed.
    """
    unknown = set(quantities) - set(MC_QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities {sorted(unknown)}; supported: {MC_QUANTITIES}")
    wanted = set(quantities)
    if "lower" in wanted:
        wanted |= {"lower_bob", "lower_alice"}
    sampled = []
    if "floor" in wanted and config.noise_ea > 0:
        sampled.append("floor")
    if wanted & {"lower_bob", "upper"}:
        sampled.append("lower_bob")
    if wanted & {"gap", "upper"} and config.v_b > 0:
        sampled.append("gap")
    values = trial_values(config, mc, sampled) if sampled else {}
    est = {name: summarize(v) for name, v in values.items()}
    est.setdefault("floor", Estimate.exact(0.0))
    est.setdefault("gap", Estimate.exact(0.0))
    if "upper" in wanted:
        est["upper"] = summarize(values["lower_bob"] + values["gap"]) \
            if "gap" in values else est["lower_bob"]
    if "lower_alice" in wanted:
        est["lower_alice"] = lower_bound_alice(config, mc)
    if "lower" in wanted:
        est["lower"] = _larger_side(est["lower_alice"], est["lower_bob"])
    return {q: est[q] for q in quantities}


def secrecy_floor(config: ProbingConfig, mc: McSettings) -> Estimate:
    """Monte Carlo secrecy floor; exact 0 at noise_ea = 0."""
    return evaluate(config, mc, ("floor",))["floor"]


def bound_gap(config: ProbingConfig, mc: McSettings) -> Estimate:
    """Monte Carlo gap; exact 0 at v_b = 0."""
    return evaluate(config, mc, ("gap",))["gap"]


def lower_bound_bob(config: ProbingConfig, mc: McSettings) -> Estimate:
    return evaluate(config, mc, ("lower_bob",))["lower_bob"]


def lower_bound_alice(config: ProbingConfig, mc: McSettings) -> Estimate:
    """Alice-side lower bound: the Bob-side bound of the role-swapped
    scenario, drawn with the same master seed.

    With noise_ea = 0 and v_a > 0 this bound diverges to -inf (Eve observes
    Alice's probes noiselessly), reported as an exact -inf so the combined
    lower bound max(alice, bob) stays well defined.
    """
    if config.noise_ea == 0 and config.v_a > 0:
        return Estimate.exact(-math.inf)
    return lower_bound_bob(config.swap_roles(), mc)


def upper_bound(config: ProbingConfig, mc: McSettings) -> Estimate:
    """Upper bound evaluated as lower_bound_bob + gap on shared draws."""
    return evaluate(config, mc, ("upper",))["upper"]


@dataclass(frozen=True)
class SkcReport:
    """Bundle of every capacity quantity for one configuration.

    All Monte Carlo members except lower_alice share channel draws, so
    upper == lower_bob + gap holds per sample, not just in expectation.
    """

    pilot_mi: float
    floor: Estimate
    lower_bob: Estimate
    lower_alice: Estimate
    gap: Estimate
    upper: Estimate
    trials: int
    master_seed: int

    @property
    def lower(self) -> Estimate:
        """The reported lower bound: whichever side bound is larger."""
        return _larger_side(self.lower_alice, self.lower_bob)


def skc_report(config: ProbingConfig, mc: McSettings) -> SkcReport:
    """Evaluate all bounds on common random numbers."""
    values = evaluate(config, mc, ("floor", "lower_bob", "lower_alice", "gap", "upper"))
    return SkcReport(pilot_mi=pilot_mi(config), trials=mc.trials,
                     master_seed=mc.master_seed, **values)


def positive_part(x: int) -> int:
    return x if x > 0 else 0


def dof_formula(config: ProbingConfig, auto_swap: bool = False) -> int:
    """High-power pre-log of the secret-key capacity.

    Stated for n_a >= n_b: v_a*min(n_b, (n_a-n_e)^+) + v_b*(n_b-n_e)^+ plus
    n_a*n_b when the channel is perfectly reciprocal.  For n_a < n_b the
    formula applies to the role-swapped scenario; pass auto_swap=True to do
    that implicitly.
    """
    if config.n_a < config.n_b:
        if not auto_swap:
            raise OrderingViolation(
                f"n_a < n_b ({config.n_a} < {config.n_b}); pass auto_swap=True")
        config = config.swap_roles()
    delta = 1 if config.reciprocal else 0
    return (config.v_a * min(config.n_b, positive_part(config.n_a - config.n_e))
            + config.v_b * positive_part(config.n_b - config.n_e)
            + delta * config.n_a * config.n_b)


def dof_window_split(config: ProbingConfig, budget: int) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """Evaluate dof_formula over every (v_a, v_b) split of a slot budget.

    Returns (best_v_a, best_v_b, best_dof, table); ties prefer larger v_a.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    table = []
    for v_a in range(budget + 1):
        v_b = budget - v_a
        table.append((v_a, v_b, dof_formula(replace(config, v_a=v_a, v_b=v_b),
                                            auto_swap=True)))
    best = max(table, key=lambda row: (row[2], row[0]))
    return best[0], best[1], best[2], table


def config_at_power(config: ProbingConfig, p: float) -> ProbingConfig:
    """Scale both transmit powers by the common factor p (the base config's
    powers act as the split fractions)."""
    if p <= 0:
        raise ValueError(f"power scale must be > 0, got {p}")
    return replace(config, power_a=config.power_a * p, power_b=config.power_b * p)


@dataclass(frozen=True)
class DofResult:
    """Fitted high-power slope of a capacity quantity.

    formula_value is None when n_a < n_b and no swap was requested; slope is
    the least-squares slope over the top half of the grid against log2 p.
    """

    formula_value: int | None
    slope: float
    fit_residual: float
    p_grid: tuple[float, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]


MIN_GRID_POINTS = 4
MIN_GRID_DECADES = 3.0


def dof_slope(quantity: Callable[[ProbingConfig], Estimate], config: ProbingConfig,
              p_grid: Sequence[float]) -> DofResult:
    """Fit the slope of quantity(config at power p) against log2 p.

    The fit uses only the top half of the grid to approximate the infinite-
    power limit while keeping runtime bounded.  The grid must have at least
    MIN_GRID_POINTS strictly increasing values spanning MIN_GRID_DECADES
    decades.
    """
    grid = [float(p) for p in p_grid]
    if len(grid) < MIN_GRID_POINTS:
        raise GridTooSmall(f"need >= {MIN_GRID_POINTS} grid points, got {len(grid)}")
    for lo, hi in zip(grid, grid[1:]):
        if hi <= lo:
            raise GridTooSmall("grid must be strictly increasing")
    if grid[0] <= 0:
        raise GridTooSmall("grid values must be positive")
    decades = math.log10(grid[-1] / grid[0])
    if decades < MIN_GRID_DECADES * (1.0 - 1e-9):
        raise GridTooSmall(f"grid spans {decades:.2f} decades, need >= {MIN_GRID_DECADES}")
    ests = [quantity(config_at_power(config, p)) for p in grid]
    means = np.array([e.mean for e in ests])
    top = slice(len(grid) // 2, None)
    x = np.log2(np.array(grid[top]))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, means[top], rcond=None)
    resid = means[top] - design @ coef
    try:
        formula = dof_formula(config)
    except OrderingViolation:
        formula = None
    return DofResult(
        formula_value=formula,
        slope=float(coef[0]),
        fit_residual=float(np.sqrt(np.mean(resid ** 2))),
        p_grid=tuple(grid),
        means=tuple(float(m) for m in means),
        stderrs=tuple(float(e.stderr) for e in ests),
    )
