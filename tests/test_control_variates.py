"""Closed-form Wishart log-det means and the floor's control variates.

The reference means are Telatar's integral evaluated exactly: the
eigenvalue density sum_{k<m} k!/(k+d)! L_k^d(x)^2 x^d is expanded into
exact rational coefficients, and each moment int x^j ln(1 + g x) e^-x dx
follows from I_j = j I_{j-1} + J_j, J_j = (j-1)! - J_{j-1}/g, I_0 = J_0 =
e^(1/g) E1(1/g), in mpmath at a precision that covers the recurrence's
cancellation.  That path shares nothing with the engine's quadrature rule.
"""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import yaml

import skcprobe.capacity as capacity
from skcprobe import McSettings, ProbingConfig, evaluate, evaluate_many, wishart_logdet_mean
from skcprobe.capacity import (CONTROLS, CV_MIN_TRIALS, WISHART_MAX_DIM,
                               _control_corrections, _eigenvalue_weights,
                               trial_values_many)
from skcprobe.channel import derive_gammas
from skcprobe.errors import IntegrandFailure
from skcprobe.experiments import (apply_parameter, case_config, config_from_mapping,
                                  load_spec, read_spec_text)
from skcprobe.montecarlo import BLOCK, summarize, trial_blocks
from skcprobe.numerics import conj_t

from conftest import capacity_logdet, control_correction, engine_correction


def density_coefficients(m: int, d: int) -> list[Fraction]:
    """Exact power-series coefficients of sum_{k<m} k!/(k+d)! L_k^d(x)^2 x^d."""
    out = [Fraction(0)] * (2 * m - 1 + d)
    for k in range(m):
        lag = [Fraction((-1) ** i * math.comb(k + d, k - i), math.factorial(i))
               for i in range(k + 1)]
        weight = Fraction(math.factorial(k), math.factorial(k + d))
        for i, a in enumerate(lag):
            for j, b in enumerate(lag):
                out[i + j + d] += weight * a * b
    return out


def reference_mean(rows: int, cols: int, gamma: float) -> float:
    coef = density_coefficients(min(rows, cols), abs(rows - cols))
    deg = len(coef) - 1
    # each step of the J recurrence can cancel log10(1/gamma) digits
    with mpmath.workdps(30 + deg + int(deg * max(0.0, -math.log10(gamma)))):
        g = mpmath.mpf(gamma)
        j_prev = i_prev = mpmath.exp(1 / g) * mpmath.e1(1 / g)
        total = coef[0] * i_prev
        for j in range(1, deg + 1):
            j_prev = mpmath.factorial(j - 1) - j_prev / g
            i_prev = j * i_prev + j_prev
            total += mpmath.mpf(coef[j].numerator) / coef[j].denominator * i_prev
        return float(total / mpmath.log(2))


def control_terms(config: ProbingConfig) -> list[tuple[int, int, float]]:
    """(rows, cols, gamma) of the floor's two control variates: g_a at
    gamma_ea (when Eve is noisy) and h_ba at gamma_ba."""
    gam = derive_gammas(config)
    terms = [(config.n_b, config.n_a, gam.gamma_ba)]
    if config.noise_ea > 0:
        terms.append((config.n_e, config.n_a, gam.gamma_ea))
    return terms


def bundled_terms() -> set[tuple[int, int, float]]:
    """Every control-variate term of the bundled specs: each sweep point
    and dof grid point of every case, and the verify-default configs."""
    configs = [load_spec("oneway").base]
    for name in ("fig1", "fig2"):
        spec = load_spec(name)
        for case in spec.cases:
            base = case_config(spec, case)
            configs += [apply_parameter(base, spec.sweep.parameter, v)
                        for v in spec.sweep.values]
            configs += [capacity.config_at_power(base, p) for p in spec.power_grid]
    text, _ = read_spec_text("verify-default")
    configs += [config_from_mapping(c) for c in yaml.safe_load(text)["configs"]]
    return {term for config in configs for term in control_terms(config)}


class TestWishartLogdetMean:
    def test_matches_exact_reference_on_every_bundled_term_and_the_gamma_ends(self):
        terms = bundled_terms()
        shapes = {(rows, cols) for rows, cols, _ in terms}
        assert {(6, 8), (10, 8), (4, 8), (4, 4), (2, 4)} <= shapes
        terms |= {(rows, cols, g) for rows, cols in shapes | {(16, 16), (1, 16), (16, 3)}
                  for g in (1e-6, 1e-3, 1e5, 1e10)}
        worst = max(abs(wishart_logdet_mean(*t) - reference_mean(*t)) / reference_mean(*t)
                    for t in sorted(terms))
        assert worst <= 1e-10

    def test_scalar_channel_is_the_siso_ergodic_capacity(self):
        # e * E1(1) / ln 2, as frozen in test_acceptance.py
        assert wishart_logdet_mean(1, 1, 1.0) == pytest.approx(0.86034738227088595, rel=1e-12)

    def test_rule_integrates_the_density_to_its_mass(self):
        for m in range(1, WISHART_MAX_DIM + 1):
            for d in range(WISHART_MAX_DIM - m + 1):
                weights = _eigenvalue_weights(m, d)
                assert weights is not None, (m, d)
                assert abs(math.fsum(weights) - m) <= 1e-12 * m, (m, d)

    def test_vectorized_over_gamma(self):
        gammas = np.array([0.01, 3.0, 316.0, 2.6e5])
        many = wishart_logdet_mean(6, 8, gammas)
        assert many.shape == (4,)
        for g, value in zip(gammas, many):
            assert value == pytest.approx(wishart_logdet_mean(6, 8, float(g)), rel=1e-14)

    def test_symmetric_in_rows_and_cols(self):
        assert wishart_logdet_mean(4, 8, 10.0) == wishart_logdet_mean(8, 4, 10.0)

    @pytest.mark.parametrize("rows,cols,gamma", [
        (17, 4, 1.0), (4, 17, 1.0), (0, 4, 1.0), (4, 4, 0.0), (4, 4, 9e-7),
        (4, 4, 2e10), (4, 4, math.nan), (4, 4, math.inf)])
    def test_outside_the_domain_is_a_value_error(self, rows, cols, gamma):
        with pytest.raises(ValueError, match="wishart_logdet_mean"):
            wishart_logdet_mean(rows, cols, gamma)

    def test_a_rule_that_misses_the_mass_is_outside_the_domain(self, monkeypatch):
        # the mass check is the runtime guard: with a coarse rule it fails,
        # the closed form refuses, and evaluate falls back to raw samples
        def clear():
            capacity._exp_sinh_rule.cache_clear()
            capacity._eigenvalue_weights.cache_clear()

        clear()
        monkeypatch.setattr(capacity, "_EXP_SINH_STEP", 1.0 / 2)
        try:
            assert _eigenvalue_weights(8, 2) is None
            with pytest.raises(ValueError, match="mass"):
                wishart_logdet_mean(8, 10, 1.0)
            cfg = load_spec("fig1").base
            mc = McSettings(trials=300, master_seed=5)
            raw = trial_values_many([(cfg, ("floor",))], mc)[0]["floor"]
            assert evaluate(cfg, mc, ("floor",))["floor"] == summarize(raw)
        finally:
            monkeypatch.undo()
            clear()


ONEWAY = load_spec("oneway").base
FIG1_BASE = load_spec("fig1").base


class TestControlVariates:
    """evaluate_many regresses each point's floor on its two control
    variates and subtracts beta . (t - mean) from the floor's samples and
    v_a times it from lower_bob's."""

    @pytest.mark.parametrize("config", [
        ONEWAY,
        replace(FIG1_BASE, n_e=10, noise_ea=0.0316227766017),
        replace(FIG1_BASE, n_a=4, n_b=4, n_e=4, noise_ea=31.6227766017),
    ], ids=["oneway", "fig1-8-4-10-noisy-bob", "fig1-4-4-4-noisy-eve"])
    def test_adjusted_mean_agrees_with_a_raw_estimate_at_16x_the_trials(self, config):
        adjusted = evaluate(config, McSettings(trials=1000, master_seed=101),
                            ("floor", "lower"))
        raw = trial_values_many([(config, ("floor", "lower_bob"))],
                                McSettings(trials=16_000, master_seed=202))[0]
        for name, sampled in (("floor", "floor"), ("lower", "lower_bob")):
            ref = summarize(raw[sampled])
            est = adjusted[name]
            assert est.stderr < ref.stderr * 4, name
            assert abs(est.mean - ref.mean) <= 3 * math.hypot(est.stderr, ref.stderr), name

    def test_oneway_lower_stderr_falls_by_a_half_at_3000_trials(self):
        mc = McSettings(trials=3000, master_seed=1)
        est = evaluate(ONEWAY, mc, ("lower", "upper"))
        raw = summarize(trial_values_many([(ONEWAY, ("lower_bob",))], mc)[0]["lower_bob"])
        assert raw.stderr >= 1.5 * est["lower"].stderr
        assert est["lower"] == est["upper"]

    def test_correction_is_the_least_squares_one(self):
        cfg = replace(FIG1_BASE, noise_ea=0.3)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        values = trial_values_many([(cfg, ("floor", "lower_bob") + CONTROLS)], mc)[0]
        gam = derive_gammas(cfg)
        means = [wishart_logdet_mean(cfg.n_e, cfg.n_a, gam.gamma_ea),
                 wishart_logdet_mean(cfg.n_b, cfg.n_a, gam.gamma_ba)]
        engine = engine_correction(values["floor"], values["t2"], values["t3"], *means)
        reference = control_correction(values["floor"], values["t2"], values["t3"], *means)
        assert np.max(np.abs(engine - reference)) <= 1e-12 * np.max(np.abs(reference))
        est = evaluate(cfg, mc, ("floor", "lower_bob"))
        assert est["floor"] == summarize(values["floor"] - engine)
        assert est["lower_bob"] == summarize(values["lower_bob"] - cfg.v_a * engine)

    def test_controls_are_the_floor_terms_and_leave_the_floor_as_it_was(self):
        cfg = replace(FIG1_BASE, noise_ea=0.3)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        values = trial_values_many([(cfg, ("floor",) + CONTROLS)], mc)[0]
        gam = derive_gammas(cfg)
        blocks = [block for _, block in trial_blocks(cfg, mc)]
        t2 = np.concatenate([capacity_logdet(conj_t(b.g_a), gam.gamma_ea) for b in blocks])
        t3 = np.concatenate([capacity_logdet(conj_t(b.h_ba), gam.gamma_ba) for b in blocks])
        assert np.max(np.abs(values["t2"] - t2)) <= 1e-12 * np.max(t2)
        assert np.max(np.abs(values["t3"] - t3)) <= 1e-12 * np.max(t3)
        alone = trial_values_many([(cfg, ("floor",))], mc)[0]
        assert np.array_equal(values["floor"], alone["floor"])

    def test_t3_is_factored_once_per_block_for_a_noise_sweep(self, monkeypatch):
        logdets = []
        real = capacity.logdet_hermitian_pd
        monkeypatch.setattr(capacity, "logdet_hermitian_pd",
                            lambda m: logdets.append(m.shape) or real(m))
        spec = load_spec("fig1")
        configs = [replace(FIG1_BASE, noise_ea=float(v)) for v in spec.sweep.values]
        evaluate_many(configs, McSettings(trials=BLOCK + 5, master_seed=3), ("floor",))
        # per block: each point's two floor log-dets (the second is its
        # t2), and one t3 shared by all points, whose gamma_ba is the same
        assert len(logdets) == 2 * (2 * len(configs) + 1)

    @pytest.mark.parametrize("overrides,trials", [
        (dict(power_a=0.0), 300),                      # no probe: t2 = t3 = 0
        ({}, CV_MIN_TRIALS - 1),                       # too few trials
        (dict(n_a=WISHART_MAX_DIM + 1, phi_a=0), 300),  # shape outside the domain
        (dict(noise_ea=1e8), 300),                     # gamma_ea below the domain
    ], ids=["no-probe-power", "too-few-trials", "shape", "gamma"])
    def test_fallback_is_the_raw_estimate_exactly(self, overrides, trials):
        cfg = replace(ONEWAY, **overrides)
        mc = McSettings(trials=trials, master_seed=13)
        est = evaluate(cfg, mc, ("floor", "lower", "upper"))
        raw = trial_values_many([(cfg, ("floor", "lower_bob"))], mc)[0]
        assert est["floor"] == summarize(raw["floor"])
        assert est["lower"] == est["upper"] == summarize(raw["lower_bob"])

    def test_singular_regression_gives_no_correction(self, rng):
        floor = rng.standard_normal(CV_MIN_TRIALS)
        t = rng.standard_normal(CV_MIN_TRIALS)
        assert engine_correction(floor, t, np.zeros_like(t), 0.0, 0.0) is None
        assert engine_correction(floor, t, 2.0 * t, 0.0, 0.0) is None
        other = rng.standard_normal(CV_MIN_TRIALS)
        alone = engine_correction(floor, t, other, 0.1, 0.2)
        # next to a singular point, a point's correction is the one it gets alone
        batch = _control_corrections(np.array([[t, other, floor], [t, 2.0 * t, floor]]),
                                     np.array([[0.1, 0.2], [0.0, 0.0]]))
        assert np.array_equal(batch[0], alone) and batch[1] is None

    def test_non_finite_t3_fails_its_point_naming_the_floor(self, monkeypatch):
        real = capacity.Grams.identity_logdet
        skewed_gamma = derive_gammas(replace(ONEWAY, power_a=40.0)).gamma_ba

        def skewed(self, channel, gamma):
            value = real(self, channel, gamma)
            if channel == "h_ba" and gamma == skewed_gamma:
                value = value.copy()
                value[7] = np.inf
            return value

        monkeypatch.setattr(capacity.Grams, "identity_logdet", skewed)
        configs = [ONEWAY, replace(ONEWAY, power_a=40.0)]
        with pytest.raises(IntegrandFailure,
                           match=r"^trial 7: at power 40: floor integrand is inf$"):
            evaluate_many(configs, McSettings(trials=300, master_seed=3), ("lower",),
                          labels=["at power 10", "at power 40"])
