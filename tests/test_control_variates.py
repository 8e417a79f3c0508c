"""Closed-form Wishart log-det and trace means and the floor's control
variates.

The reference means are Telatar's integral evaluated exactly: the
eigenvalue density sum_{k<m} k!/(k+d)! L_k^d(x)^2 x^d is expanded into
exact rational coefficients, and each moment int x^j ln(1 + g x) e^-x dx
follows from I_j = j I_{j-1} + J_j, J_j = (j-1)! - J_{j-1}/g, I_0 = J_0 =
e^(1/g) E1(1/g), in mpmath at a precision that covers the recurrence's
cancellation; J_j = int x^j e^-x / (x + 1/g) dx, so the trace integrand's
moment int x^j (g x / (1 + g x)) e^-x dx is J_{j+1}.  That path shares
nothing with the engine's quadrature rule.
"""

import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import yaml

import skcprobe.capacity as capacity
from skcprobe import (Estimate, McSettings, ProbingConfig, evaluate, evaluate_many, pilot_mi,
                      secrecy_floor_sample, wishart_logdet_mean, wishart_trace_mean)
from skcprobe.capacity import (CV_MIN_TRIALS, WISHART_MAX_DIM, _controls,
                               _eigenvalue_weights, trial_values_many)
from skcprobe.channel import DRAWN, derive_gammas
from skcprobe.errors import IntegrandFailure
from skcprobe.experiments import (apply_parameter, config_from_mapping,
                                  load_spec, read_spec_text)
from skcprobe.montecarlo import BLOCK, summarize, trial_blocks
from skcprobe.numerics import conj_t

from conftest import (andreief_logdet, capacity_logdet, child_env, closed_floor,
                      control_correction, control_means, edge_form, engine_correction,
                      engine_means, exact_floor, j_recurrence_digits, reference_floor, scaled)


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
    with mpmath.workdps(j_recurrence_digits(deg, gamma)):
        g = mpmath.mpf(gamma)
        j_prev = i_prev = mpmath.exp(1 / g) * mpmath.e1(1 / g)
        total = coef[0] * i_prev
        for j in range(1, deg + 1):
            j_prev = mpmath.factorial(j - 1) - j_prev / g
            i_prev = j * i_prev + j_prev
            total += mpmath.mpf(coef[j].numerator) / coef[j].denominator * i_prev
        return float(total / mpmath.log(2))


def reference_trace_mean(rows: int, cols: int, gamma: float) -> float:
    """E tr(gamma W (I + gamma W)^-1): sum_j coef_j J_{j+1}."""
    coef = density_coefficients(min(rows, cols), abs(rows - cols))
    with mpmath.workdps(j_recurrence_digits(len(coef), gamma)):
        g = mpmath.mpf(gamma)
        j_prev = mpmath.exp(1 / g) * mpmath.e1(1 / g)
        total = mpmath.mpf(0)
        for j, c in enumerate(coef, start=1):
            j_prev = mpmath.factorial(j - 1) - j_prev / g
            total += mpmath.mpf(c.numerator) / c.denominator * j_prev
        return float(total)


def control_terms(config: ProbingConfig) -> list[tuple[int, int, float]]:
    """(rows, cols, gamma) of the exact-mean term of each of the floor's
    log-det and trace controls at `config`, as capacity._controls declares
    them (p2 and p3 have no gamma: their means are rows cols; the edges'
    are the floor's closed form, see TestClosedFloor)."""
    return [mean.args for mean in (control.mean for control in _controls(config).values())
            if mean.kind in ("logdet", "trace")]


def bundled_terms() -> set[tuple[int, int, float]]:
    """Every control-variate term of the bundled specs: each sweep point
    and dof grid point of every case, and the verify-default configs."""
    configs = [load_spec("oneway").base]
    for name in ("fig1", "fig2"):
        spec = load_spec(name)
        for case in spec.cases:
            base = case.config
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
        assert {(6, 8), (10, 8), (4, 8), (4, 4), (2, 4), (4, 2), (2, 2), (1, 1)} <= shapes
        terms |= {(rows, cols, g) for rows, cols in shapes | {(16, 16), (1, 16), (16, 3)}
                  for g in (1e-6, 1e-3, 1e5, 1e10)}
        worst = max(abs(wishart_logdet_mean(*t) - reference_mean(*t)) / reference_mean(*t)
                    for t in sorted(terms))
        assert worst <= 1e-10

    def test_trace_mean_matches_exact_reference_on_every_bundled_term_and_the_gamma_ends(self):
        terms = bundled_terms()
        shapes = {(rows, cols) for rows, cols, _ in terms}
        terms |= {(rows, cols, g) for rows, cols in shapes | {(16, 16), (1, 16), (16, 3), (32, 8)}
                  for g in (1e-6, 1e-3, 1e5, 1e10)}
        worst = max(abs(wishart_trace_mean(*t) - reference_trace_mean(*t))
                    / reference_trace_mean(*t) for t in sorted(terms))
        assert worst <= 1e-10

    @pytest.mark.parametrize("rows,cols,gamma", [(4, 8, 10.0), (10, 8, 0.3), (1, 1, 1e4),
                                                 (6, 8, 31.6)])
    def test_trace_mean_is_the_gamma_derivative_of_the_log_det_mean(self, rows, cols, gamma):
        # gamma ln 2 d/dgamma of wishart_logdet_mean, by a central difference
        h = 1e-4
        slope = (wishart_logdet_mean(rows, cols, gamma * (1 + h))
                 - wishart_logdet_mean(rows, cols, gamma * (1 - h))) / (2 * h)
        assert wishart_trace_mean(rows, cols, gamma) == pytest.approx(slope * math.log(2),
                                                                      rel=1e-7)

    def test_scalar_channel_is_the_siso_ergodic_capacity(self):
        # e * E1(1) / ln 2, as frozen in test_acceptance.py
        assert wishart_logdet_mean(1, 1, 1.0) == pytest.approx(0.86034738227088595, rel=1e-12)

    def test_matches_exact_reference_for_the_stacked_rows(self):
        # t5's [g_a; h_ba] has n_e + n_b rows, up to 2 WISHART_MAX_DIM
        terms = [(rows, cols, g) for rows in range(WISHART_MAX_DIM + 1, 2 * WISHART_MAX_DIM + 1)
                 for cols in (1, 4, 8, WISHART_MAX_DIM) for g in (1e-6, 1.0, 1e10)]
        terms += [(rows, 8, g) for rows in (17, 24, 32) for g in (1e-3, 31.6, 1e5)]
        worst = max(abs(wishart_logdet_mean(*t) - reference_mean(*t)) / reference_mean(*t)
                    for t in terms)
        assert worst <= 1e-10

    def test_rule_integrates_the_density_to_its_mass(self):
        # every shape of the domain: m = cols <= rows up to 2 WISHART_MAX_DIM
        # rows, or m = rows < cols
        for m in range(1, WISHART_MAX_DIM + 1):
            for d in range(2 * WISHART_MAX_DIM - m + 1):
                weights = _eigenvalue_weights(m, d)
                assert weights is not None, (m, d)
                assert abs(math.fsum(weights) - m) <= 1e-12 * m, (m, d)

    def test_symmetric_in_rows_and_cols(self):
        assert wishart_logdet_mean(4, 8, 10.0) == wishart_logdet_mean(8, 4, 10.0)

    @pytest.mark.parametrize("rows,cols,gamma", [
        (33, 4, 1.0), (4, 17, 1.0), (0, 4, 1.0), (4, 4, 0.0), (4, 4, 9e-7),
        (4, 4, 2e10), (4, 4, math.nan), (4, 4, math.inf)])
    def test_outside_the_domain_is_a_value_error(self, rows, cols, gamma):
        with pytest.raises(ValueError, match="wishart_logdet_mean"):
            wishart_logdet_mean(rows, cols, gamma)
        with pytest.raises(ValueError, match="wishart_trace_mean"):
            wishart_trace_mean(rows, cols, gamma)

    def test_a_rule_that_misses_the_mass_is_outside_the_domain(self, monkeypatch):
        # the mass check is the runtime guard: with a coarse rule it fails,
        # the closed form refuses, and evaluate falls back to raw samples
        def clear():
            capacity._exp_sinh_rule.cache_clear()
            capacity._eigenvalue_weights.cache_clear()
            capacity._control_mean.cache_clear()
            capacity._cluster_rows.cache_clear()

        clear()
        monkeypatch.setattr(capacity, "_EXP_SINH_STEP", 1.0 / 2)
        try:
            assert _eigenvalue_weights(8, 2) is None
            for mean in (wishart_logdet_mean, wishart_trace_mean):
                with pytest.raises(ValueError, match="mass"):
                    mean(8, 10, 1.0)
            cfg = load_spec("fig1").base
            mc = McSettings(trials=300, master_seed=5)
            raw = trial_values_many([(cfg, ("floor",))], mc)[0]["floor"]
            assert evaluate(cfg, mc, ("floor",))["floor"] == summarize(raw)
        finally:
            monkeypatch.undo()
            clear()


ONEWAY = load_spec("oneway").base
FIG1_BASE = load_spec("fig1").base
# noise_ea within FLOOR_FORM_RATIO of fig1's noise_b = 1, its own value
# left out: 12 points whose floor is sampled, 10^(j/16) for 0 < |j| <= 6
SAMPLED_NOISE_EA = [10 ** (j / 16) for j in range(-6, 7) if j]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_control_study():
    """scripts/control_study.py loaded as a module: its sampled_points() are
    every bundled point whose floor is sampled, and its smallest_pivot()
    the engine's singularity measure of a fit's controls."""
    spec = importlib.util.spec_from_file_location(
        "control_study", PERFBENCH.parent / "scripts" / "control_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONTROL_STUDY = load_control_study()
BUNDLED_SAMPLED = CONTROL_STUDY.sampled_points()


def null_space_t4(block, config) -> np.ndarray:
    """log2det(I + gamma_ba (h_ba N)(h_ba N)^H), N an orthonormal basis of
    null(g_a) from a complete QR factorization of g_a^H."""
    q, _ = np.linalg.qr(conj_t(block.g_a), mode="complete")
    return capacity_logdet(block.h_ba @ q[..., config.n_e:], derive_gammas(config).gamma_ba)


class TestControlVariates:
    """evaluate_many regresses each sampled point's floor on all of its
    control variates (t2, t3, t5, t1, u3, u1, the edges fl, fh, fl5 and fh5,
    p2 and p3, and t4 where n_e < n_a and no edge is declared), subtracts
    beta . (t - mean) from the floor's samples and v_a times it from
    lower_bob's, and reports the regression estimate's HC3 standard error."""

    @pytest.mark.parametrize("config", [
        ONEWAY,
        replace(FIG1_BASE, n_e=10, noise_ea=0.0316227766017),
        replace(FIG1_BASE, n_a=4, n_b=4, n_e=4, noise_ea=31.6227766017),
        replace(FIG1_BASE, n_e=10, noise_ea=17.7827941004),
    ], ids=["oneway", "fig1-8-4-10-noisy-bob", "fig1-4-4-4-noisy-eve", "fig1-8-4-10-worst"])
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

    def test_oneway_lower_stderr_falls_4x_at_3000_trials(self):
        mc = McSettings(trials=3000, master_seed=1)
        est = evaluate(ONEWAY, mc, ("lower", "upper"))
        raw = summarize(trial_values_many([(ONEWAY, ("lower_bob",))], mc)[0]["lower_bob"])
        assert raw.stderr >= 4 * est["lower"].stderr
        assert est["lower"] == est["upper"]

    def test_correction_is_the_least_squares_one(self):
        self.check_least_squares_correction(replace(FIG1_BASE, noise_ea=0.5))

    def test_correction_is_the_least_squares_one_without_t4(self):
        self.check_least_squares_correction(replace(FIG1_BASE, n_e=10, noise_ea=0.5))

    @staticmethod
    def check_least_squares_correction(config):
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        means = engine_means(config)
        values = trial_values_many([(config, ("floor", "lower_bob") + tuple(means))], mc)[0]
        engine, factor = engine_correction(values["floor"], values, means)
        reference, _ = control_correction(values["floor"], values, means)
        assert np.max(np.abs(engine - reference)) <= 1e-12 * np.max(np.abs(reference))
        est = evaluate(config, mc, ("floor", "lower_bob"))
        assert est["floor"] == scaled(summarize(values["floor"] - engine), factor)
        assert est["lower_bob"] == scaled(
            summarize(values["lower_bob"] - config.v_a * engine), factor)

    @pytest.mark.parametrize("trials", [CV_MIN_TRIALS, 200, 3000])
    @pytest.mark.parametrize("config", [
        replace(FIG1_BASE, noise_ea=0.5), replace(FIG1_BASE, n_e=10, noise_ea=0.5)],
        ids=["n_e-below-n_a", "n_e-above-n_a"])
    def test_floor_stderr_is_the_hc3_intercept_one(self, config, trials):
        mc = McSettings(trials=trials, master_seed=11)
        means = engine_means(config)
        values = trial_values_many([(config, ("floor",) + tuple(means))], mc)[0]
        _, reference = control_correction(values["floor"], values, means)
        stderr = evaluate(config, mc, ("floor",))["floor"].stderr
        assert abs(stderr - reference) <= 1e-12 * reference

    # sampled fig1 points on all of their controls: the n_e < n_a case at
    # its smallest sampled noise_ea, and the worst sampled points of the
    # other two at 200 trials (the floor is exact from 3 times noise_b or
    # a third of it on)
    SPREAD_POINTS = [("na8-nb4-ne6", 0.562341325190), ("na8-nb4-ne10", 1.77827941004),
                     ("na4-nb4-ne4", 0.562341325190)]

    @pytest.mark.parametrize("case,noise_ea", SPREAD_POINTS)
    def test_stderr_matches_the_spread_of_means_at_100_trials(self, case, noise_ea):
        self.check_stderr_against_spread(case, noise_ea, 100)

    @pytest.mark.parametrize("case,noise_ea", SPREAD_POINTS)
    def test_stderr_matches_the_spread_of_means_at_the_minimum_trials(self, case, noise_ea):
        # where a point first regresses on all twelve of its controls (the
        # spread over the median HC3 stderr was 0.91-0.96 here on eleven or
        # ten controls without the outer ring, 0.88-1.13 at the points the
        # closed form now takes, where over the median least-squares stderr it
        # was 1.06-1.35)
        self.check_stderr_against_spread(case, noise_ea, CV_MIN_TRIALS)

    @staticmethod
    def check_stderr_against_spread(case, noise_ea, trials):
        """The spread of 200 seeds' means at `trials` against the median
        stderr they report, and their mean against a 16x-trial estimate."""
        spec = load_spec("fig1")
        cfg = apply_parameter(next(c for c in spec.cases if c.name == case).config,
                              "noise_ea", noise_ea)
        assert noise_ea in spec.sweep.values
        ests = [evaluate(cfg, McSettings(trials=trials, master_seed=seed), ("floor",))["floor"]
                for seed in range(1, 201)]
        means = np.array([e.mean for e in ests])
        spread = float(np.std(means, ddof=1))
        assert abs(spread / float(np.median([e.stderr for e in ests])) - 1.0) <= 0.25
        ref = evaluate(cfg, McSettings(trials=16 * trials, master_seed=201), ("floor",))["floor"]
        assert abs(float(np.mean(means)) - ref.mean) <= 4 * math.hypot(
            spread / math.sqrt(len(means)), ref.stderr)

    # the points whose floor the product path samples: oneway at its 3000
    # trials and fig1's six at its 200, each on the master seeds 1 to 150
    CALIBRATION_POINTS = [
        ("oneway", [ONEWAY], 3000),
        ("fig1", [apply_parameter(case.config, "noise_ea", v) for case in load_spec("fig1").cases
                  for v in (1.77827941004, 0.562341325190)], 200)]

    @pytest.mark.parametrize("label,configs,trials", CALIBRATION_POINTS,
                             ids=[p[0] for p in CALIBRATION_POINTS])
    def test_stderr_covers_the_exact_floor(self, label, configs, trials):
        # z = (estimate - exact mean) / reported stderr, the exact mean
        # reference_floor's in mpmath: at every point rms z <= 1.15 and |z|
        # > 3 in at most 2% of the seeds.  With t4 in the fit beside the
        # edges oneway's stderr under-covered
        exact = [reference_floor(c.n_a, c.n_b, c.n_e, g.gamma_ea, g.gamma_ba)
                 for c, g in zip(configs, map(derive_gammas, configs))]
        z = np.array([[(est["floor"].mean - mean) / est["floor"].stderr for est, mean in zip(
            evaluate_many(configs, McSettings(trials=trials, master_seed=seed), ("floor",)), exact)]
            for seed in range(1, 151)])
        for config, column in zip(configs, z.T):
            assert math.sqrt(np.mean(column ** 2)) <= 1.15, config
            assert np.mean(np.abs(column) > 3) <= 0.02, config

    def test_controls_are_the_floor_terms_and_leave_the_floor_as_it_was(self):
        cfg = replace(FIG1_BASE, noise_ea=0.3)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        values = trial_values_many(
            [(cfg, ("floor", "t2", "t3", "t5", "t4", "t1", "u3", "u1", "p2", "p3"))], mc)[0]
        gam = derive_gammas(cfg)
        blocks = [block for _, block in trial_blocks(cfg, mc)]
        expected = {
            "t2": [capacity_logdet(conj_t(b.g_a), gam.gamma_ea) for b in blocks],
            "t1": [capacity_logdet(conj_t(b.g_a), gam.gamma_ba) for b in blocks],
            "t3": [capacity_logdet(conj_t(b.h_ba), gam.gamma_ba) for b in blocks],
            "t5": [capacity_logdet(conj_t(np.concatenate([b.g_a, b.h_ba], axis=-2)),
                                   gam.gamma_ba) for b in blocks],
            "t4": [null_space_t4(b, cfg) for b in blocks],
            "p2": [np.linalg.norm(b.g_a, axis=(-2, -1)) ** 2 for b in blocks],
            "p3": [np.linalg.norm(b.h_ba, axis=(-2, -1)) ** 2 for b in blocks]}
        for name, parts in expected.items():
            reference = np.concatenate(parts)
            assert np.max(np.abs(values[name] - reference)) <= 1e-12 * np.max(reference), name
        alone = trial_values_many([(cfg, ("floor",))], mc)[0]
        assert np.array_equal(values["floor"], alone["floor"])

    def test_t4_is_a_control_only_where_n_e_is_below_n_a(self):
        with pytest.raises(ValueError, match="t4 needs n_e < n_a"):
            trial_values_many([(replace(FIG1_BASE, n_e=8), ("floor", "t4"))],
                              McSettings(trials=10))

    @pytest.mark.parametrize("n_e", [6, 10])
    def test_t2_is_a_control_only_where_eve_is_noisy(self, n_e):
        # at noise_ea = 0 its gamma is inf, and the floor is exact
        cfg = replace(FIG1_BASE, n_e=n_e, noise_ea=0.0)
        assert "t2" not in _controls(cfg) and "t2" in _controls(replace(cfg, noise_ea=0.3))
        with pytest.raises(ValueError, match="t2 needs noise_ea > 0"):
            trial_values_many([(cfg, ("floor", "t2"))], McSettings(trials=10))

    @pytest.mark.parametrize("name", ["t1", "u3", "u1"])
    @pytest.mark.parametrize("n_e", [6, 10])
    def test_t1_and_the_traces_are_controls_at_every_noise_ea(self, n_e, name):
        # they depend on gamma_ba alone, so at noise_ea = noise_b, where the
        # floor is exact and nothing regresses on them, they are the same
        # values as at any other noise_ea > 0 on the same draws
        cfg = replace(FIG1_BASE, n_e=n_e, noise_ea=1.0)
        other = replace(cfg, noise_ea=0.3)
        assert name in _controls(cfg) and _controls(cfg)[name].mean == \
            _controls(other)[name].mean
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        equal, unequal = trial_values_many([(cfg, (name,)), (other, (name,))], mc)
        assert np.array_equal(equal[name], unequal[name])

    def test_t1_is_eves_gram_at_bobs_snr_where_n_e_is_not_below_n_a(self):
        # from G itself (where n_e < n_a, see the test above)
        cfg = replace(FIG1_BASE, n_e=10, noise_ea=0.3)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        t1 = trial_values_many([(cfg, ("floor", "t1"))], mc)[0]["t1"]
        gamma = derive_gammas(cfg).gamma_ba
        reference = np.concatenate([capacity_logdet(conj_t(b.g_a), gamma)
                                    for _, b in trial_blocks(cfg, mc)])
        assert np.max(np.abs(t1 - reference)) <= 1e-12 * np.max(reference)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (8, 4, 6), (6, 4, 5)])
    def test_t4_sample_mean_is_its_exact_mean(self, shape):
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, noise_ea=0.3)
        t4 = summarize(trial_values_many([(cfg, ("t4",))],
                                         McSettings(trials=4000, master_seed=17))[0]["t4"])
        exact = reference_mean(n_b, n_a - n_e, derive_gammas(cfg).gamma_ba)
        assert abs(t4.mean - exact) <= 4 * t4.stderr

    @pytest.mark.parametrize("shape", [(4, 2, 2), (8, 4, 6), (8, 4, 10), (4, 4, 4)])
    def test_t1_sample_mean_is_its_exact_mean(self, shape):
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, noise_ea=0.3)
        t1 = summarize(trial_values_many([(cfg, ("t1",))],
                                         McSettings(trials=4000, master_seed=17))[0]["t1"])
        exact = reference_mean(n_e, n_a, derive_gammas(cfg).gamma_ba)
        assert abs(t1.mean - exact) <= 4 * t1.stderr

    @pytest.mark.parametrize("shape", [(4, 2, 2), (8, 4, 6), (8, 4, 10), (4, 4, 4)])
    def test_trace_sample_means_are_their_exact_means(self, shape):
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, noise_ea=0.3)
        values = trial_values_many([(cfg, ("u3", "u1"))],
                                   McSettings(trials=4000, master_seed=17))[0]
        gamma = derive_gammas(cfg).gamma_ba
        for name, exact in (("u3", n_e * reference_trace_mean(n_b, n_a, gamma)),
                            ("u1", n_b * reference_trace_mean(n_e, n_a, gamma))):
            est = summarize(values[name])
            assert abs(est.mean - exact) <= 4 * est.stderr, name

    @pytest.mark.parametrize("shape", [(4, 2, 2), (8, 4, 6), (8, 4, 10), (4, 4, 4)])
    def test_edges_are_the_floor_at_their_gammas_on_every_trial(self, shape):
        # fl and fh are the floor on the same draws at gamma_ea = gamma_ba /
        # 3 and 3 gamma_ba, here noise_ea = 3 and 1/3 (to an ulp of gamma),
        # and fl5 and fh5 at gamma_ba / 5 and 5 gamma_ba
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, noise_ea=0.5)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        values = trial_values_many([(cfg, ("floor", "fl", "fh", "fl5", "fh5"))], mc)[0]
        for name, noise_ea in (("fl", 3.0), ("fh", 1 / 3), ("fl5", 5.0), ("fh5", 1 / 5)):
            gamma_ea = _controls(cfg)[name].mean.args[3]
            assert gamma_ea == pytest.approx(derive_gammas(cfg).gamma_ba / noise_ea, rel=1e-15)
            floor = trial_values_many([(replace(cfg, noise_ea=noise_ea), ("floor",))],
                                      mc)[0]["floor"]
            assert np.max(np.abs(values[name] - floor)) <= 1e-12 * np.max(floor), name

    @pytest.mark.parametrize("shape", [(4, 2, 2), (8, 4, 10), (6, 4, 5)])
    def test_edge_sample_means_are_their_closed_forms(self, shape):
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, noise_ea=0.5)
        means = control_means(cfg)
        values = trial_values_many([(cfg, ("fl", "fh", "fl5", "fh5"))],
                                   McSettings(trials=4000, master_seed=17))[0]
        for name in ("fl", "fh", "fl5", "fh5"):
            est = summarize(values[name])
            assert abs(est.mean - means[name]) <= 4 * est.stderr, name

    @pytest.mark.parametrize("label,config", BUNDLED_SAMPLED, ids=[p[0] for p in BUNDLED_SAMPLED])
    def test_edges_cut_the_residual_variance_25_fold(self, label, config):
        # with t5 - t1, the floor at gamma_ea = gamma_ba, the edges pin the
        # floor's dependence on gamma_ea from both sides: all four cut it by
        # 8,130 ((4, 4, 4) at noise_ea 0.562) to 213,000 (oneway) at 20,000
        # draws, seed 3 (scripts/control_study.py), the inner ring beside the
        # outer one by 153 to 1,010 and the outer ring beside the inner one
        # by 23.5 ((8, 4, 10) at noise_ea 0.562) to 130 (oneway)
        means = engine_means(config)
        values = trial_values_many([(config, ("floor",) + tuple(means))],
                                   McSettings(trials=20_000, master_seed=3))[0]

        def residual(without):
            kept = {q: m for q, m in means.items() if q not in without}
            return np.var(values["floor"] - engine_correction(values["floor"], values, kept)[0])

        full = residual(())
        assert full * 25 <= residual(("fl", "fh", "fl5", "fh5"))
        assert full * 25 <= residual(("fl", "fh"))
        assert full * 15 <= residual(("fl5", "fh5"))

    def test_edges_are_read_where_the_closed_form_admits_them(self):
        # for gamma_ba log-uniform over 1e-5 to 1e9, 3 gamma_ba reads
        # 2.9999999999999996 apart from gamma_ba at about 7% of them: the
        # edges are moved out by an ulp or two so that the domain admits both,
        # and those of the outer ring read at least its ratio apart
        rng = np.random.default_rng(5)
        gammas = 10.0 ** rng.uniform(-5.0, 9.0, 4000)
        rounded = 0
        for gamma in gammas.tolist():
            rounded += gamma * 3.0 / gamma < 3.0
            for *_, ratio in capacity.EDGE_RINGS:
                low, high = capacity._floor_edges(gamma, ratio)
                assert gamma / low >= ratio and high / gamma >= ratio, (gamma, ratio)
                for edge, naive in ((low, gamma / ratio), (high, gamma * ratio)):
                    assert capacity._floor_form_domain(8, 4, 6, edge, gamma), (gamma, edge)
                    assert abs(edge - naive) <= 2 * math.ulp(naive)
        assert rounded > 0.03 * len(gammas)

    def test_an_edge_outside_the_domain_is_no_control(self):
        # at (8, 4, 10) with gamma_ba = 40 the high edge, Eve's SNR the larger
        # and below a decade apart, is in the corner the domain leaves out,
        # and so is the outer ring's
        cfg = replace(FIG1_BASE, n_e=10, power_a=40.0, noise_ea=0.5)
        assert {"fl", "fl5"} <= _controls(cfg).keys() and not {"fh", "fh5"} & _controls(cfg).keys()
        with pytest.raises(ValueError, match=r"^the control fh needs gamma_ba \* "
                                             r"FLOOR_FORM_RATIO inside _floor_form_domain$"):
            trial_values_many([(cfg, ("floor", "fh"))], McSettings(trials=10))
        with pytest.raises(ValueError, match=r"^the control fh5 needs gamma_ba \* 5 inside"):
            trial_values_many([(cfg, ("floor", "fh5"))], McSettings(trials=10))
        # a shape outside the form's has no edge
        cfg = replace(FIG1_BASE, n_b=5, noise_ea=0.5)
        assert not {"fl", "fh", "fl5", "fh5"} & _controls(cfg).keys()
        with pytest.raises(ValueError, match="the control fl needs"):
            trial_values_many([(cfg, ("fl",))], McSettings(trials=10))

    @pytest.mark.parametrize("trials", [CV_MIN_TRIALS, 200])
    def test_the_singularity_test_keeps_every_bundled_point_whole(self, trials):
        # the smallest squared pivot of the correlation-scaled system is at
        # least 6.0e-8 at these seeds (oneway at CV_MIN_TRIALS), and 3.2e-8
        # elsewhere over 400 seeds (verify-default cfg1); at oneway, where t5
        # - t1 and the four edges nearly coincide, one of 400 seeds reads
        # 6.6e-10 at CV_MIN_TRIALS and is fitted without t1, and from 100
        # trials on none reads below 7.4e-9
        for label, config in BUNDLED_SAMPLED:
            means = engine_means(config)
            for seed in (1, 2, 3):
                mc = McSettings(trials=trials, master_seed=seed)
                values = trial_values_many([(config, ("floor",) + tuple(means))], mc)[0]
                pivot = CONTROL_STUDY.smallest_pivot(values, means)
                assert pivot > 10 * capacity.CV_SINGULAR_PIVOT, label
                assert engine_correction(values["floor"], values, means) is not None, label

    @pytest.mark.parametrize("case", ["na8-nb4-ne6", "na8-nb4-ne10", "na4-nb4-ne4"])
    @pytest.mark.parametrize("noise_ea", [1 - 1e-5, 1 + 1e-5])
    def test_the_singularity_test_rejects_near_equal_noise(self, case, noise_ea):
        # t1 ~ t2 there: the smallest squared pivot is at most 2e-12
        spec = load_spec("fig1")
        cfg = apply_parameter(next(c for c in spec.cases if c.name == case).config,
                              "noise_ea", noise_ea)
        means = engine_means(cfg)
        values = trial_values_many([(cfg, ("floor",) + tuple(means))],
                                   McSettings(trials=200, master_seed=1))[0]
        assert CONTROL_STUDY.smallest_pivot(values, means) < 1e-2 * capacity.CV_SINGULAR_PIVOT
        assert engine_correction(values["floor"], values, means) is None

    @pytest.mark.parametrize("n_e", [6, 10])
    def test_traces_are_the_interaction_terms_on_every_trial(self, n_e):
        # u3 = tr(P_H G), u1 = tr(P_G H), P_M = gamma_ba M (I + gamma_ba
        # M)^-1, against explicit inverses of the n_a-square Grams
        cfg = replace(FIG1_BASE, n_e=n_e, noise_ea=0.3)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        values = trial_values_many([(cfg, ("floor", "u3", "u1"))], mc)[0]
        gamma = derive_gammas(cfg).gamma_ba
        expected = {"u3": [], "u1": []}
        for _, b in trial_blocks(cfg, mc):
            g, h = (conj_t(m) @ m for m in (b.g_a, b.h_ba))
            for name, m, o in (("u3", h, g), ("u1", g, h)):
                p = gamma * m @ np.linalg.inv(np.eye(cfg.n_a) + gamma * m)
                expected[name].append(np.trace(p @ o, axis1=-2, axis2=-1).real)
        for name, parts in expected.items():
            reference = np.concatenate(parts)
            assert np.max(np.abs(values[name] - reference)) <= 1e-12 * np.max(reference), name

    @pytest.mark.parametrize("noise_ea", [1 - 1e-5, 1 + 1e-5, 1 - 1e-7, 1 + 1e-7])
    @pytest.mark.parametrize("case", ["na8-nb4-ne6", "na8-nb4-ne10", "na4-nb4-ne4"])
    def test_near_equal_noise_keeps_the_stderr_without_t1(self, case, noise_ea):
        # there t1 and t2 are nearly collinear: a system singular with t1
        # is solved again without it, so the stderr stays that of the fit
        # on the other controls, about 7e-3 |noise_ea - 1| bits at 200 trials
        spec = load_spec("fig1")
        cfg = apply_parameter(next(c for c in spec.cases if c.name == case).config,
                              "noise_ea", noise_ea)
        mc = McSettings(trials=200, master_seed=1)
        est = evaluate(cfg, mc, ("floor",))["floor"]
        without_t1 = self.adjusted_floor(cfg, mc, without=("t1",))
        assert est.stderr <= without_t1.stderr
        assert est.stderr <= 0.01 * abs(noise_ea - 1.0)

    def test_singular_system_with_t1_is_solved_again_without_it(self, rng):
        n = CV_MIN_TRIALS
        floor, t, other = (rng.standard_normal(n) for _ in range(3))
        means = {"t2": 0.1, "t3": 0.2, "t1": 0.1}
        points = [{"floor": floor, "t2": t, "t3": other, "t1": t},
                  {"floor": floor, "t2": t, "t3": t, "t1": other}]
        fits = [capacity._fit_controls(values, dict(means)) for values in points]
        alone = engine_correction(floor, {"t2": t, "t3": other}, {"t2": 0.1, "t3": 0.2})
        assert np.array_equal(fits[0][0], alone[0]) and fits[0][1] == alone[1]
        # singular without t1 too: no fit; and the controls are popped
        assert fits[1] is None
        assert [set(p) for p in points] == [{"floor"}] * 2

    def test_a_singular_system_drops_the_fewest_controls_in_the_drop_order(self, rng):
        n = CV_MIN_TRIALS
        floor, a, b, c, d, e, f, g, h, i, j = (rng.standard_normal(n) for _ in range(11))
        means = {"t2": 0.1, "t3": 0.2, "t1": 0.3, "u1": 0.6, "fl": 0.7, "fh": 0.8, "fl5": 0.9,
                 "fh5": 1.0, "p2": 0.4, "p3": 0.5}
        ring = {"fl5": i, "fh5": j}
        rest = {"fl": g, "fh": h, **ring}
        cases = [
            # p2 collinear with t2: fitted without p2
            ({"t2": a, "t3": b, "t1": c, "u1": d, **rest, "p2": 2.0 * a, "p3": e}, ("p2",)),
            # t1 collinear with t2: without t1 alone, keeping p2 and p3
            ({"t2": a, "t3": b, "t1": a, "u1": d, **rest, "p2": c, "p3": e}, ("t1",)),
            # p2 and p3 collinear with t2 and t3: without both, keeping t1
            ({"t2": a, "t3": b, "t1": c, "u1": d, **rest, "p2": 2.0 * a, "p3": 3.0 * b},
             ("p2", "p3")),
            # u1 collinear with t3 and t1 with t2: without both, u1 last in the order
            ({"t2": a, "t3": b, "t1": a, "u1": 2.0 * b, **rest, "p2": c, "p3": e}, ("t1", "u1")),
            # an edge a combination of t2 and t3: without it, keeping the other
            ({"t2": a, "t3": b, "t1": c, "u1": d, "fl": a - b, "fh": h, **ring, "p2": e, "p3": f},
             ("fl",)),
            # t1 collinear with t2 and fh with t3: without both, fh last
            ({"t2": a, "t3": b, "t1": a, "u1": d, "fl": g, "fh": 2.0 * b, **ring, "p2": e,
              "p3": f}, ("t1", "fh")),
            # an outer edge collinear with t3: without it, last in the order
            ({"t2": a, "t3": b, "t1": c, "u1": d, "fl": g, "fh": h, "fl5": i, "fh5": 2.0 * b,
              "p2": e, "p3": f}, ("fh5",)),
            # both edges of one side collinear: without the inner one, the
            # earlier in the order
            ({"t2": a, "t3": b, "t1": c, "u1": d, "fl": g, "fh": h, "fl5": i, "fh5": 2.0 * h,
              "p2": e, "p3": f}, ("fh",)),
            # t3 collinear with t2 too: no fit
            ({"t2": a, "t3": a, "t1": c, "u1": d, **rest, "p2": e, "p3": f}, None)]
        points = [dict(controls, floor=floor) for controls, _ in cases]
        fits = [capacity._fit_controls(values, dict(means)) for values in points]
        assert capacity.CV_DROP_ORDER == ("p2", "p3", "t1", "u1", "fl", "fh", "fl5", "fh5")
        for i, (controls, dropped) in enumerate(cases):
            if dropped is None:
                assert fits[i] is None
                continue
            kept = {q: m for q, m in means.items() if q not in dropped}
            alone = engine_correction(floor, controls, kept)
            assert np.array_equal(fits[i][0], alone[0]) and fits[i][1] == alone[1], dropped
        assert [set(p) for p in points] == [{"floor"}] * len(cases)

    @pytest.mark.parametrize("config,dropped", [
        (replace(ONEWAY, noise_ea=1e6), ("p2",)),
        (replace(FIG1_BASE, n_e=10, noise_ea=0.5, power_a=1.5e-3), ("t1", "fl", "fl5")),
        (replace(FIG1_BASE, n_e=10, noise_ea=0.5, power_a=1e-3), ("t1", "fl", "fl5"))],
        ids=["oneway-noisy-eve", "fig1-8-4-10-low-power", "fig1-8-4-10-lower-power"])
    def test_degenerate_controls_are_dropped_not_the_fit(self, config, dropped):
        # at noise_ea = 1e6 t2 ~ gamma_ea p2 / ln 2, and at power_a = 1.5e-3
        # or 1e-3 the edges are nearly linear in the t's (t3 ~ gamma_ba p3 /
        # ln 2, t1 ~ gamma_ba p2 / ln 2): the system on every control is
        # singular, and the point is fitted on the fewest controls dropped in
        # CV_DROP_ORDER, not on raw samples
        mc = McSettings(trials=277, master_seed=1)
        est = evaluate(config, mc, ("floor", "lower_bob"))
        means = engine_means(config)
        values = trial_values_many([(config, ("floor",) + tuple(means))], mc)[0]
        assert engine_correction(values["floor"], values, means) is None
        assert est["floor"] == self.adjusted_floor(config, mc, without=dropped)
        raw = trial_values_many([(config, ("floor", "lower_bob"))], mc)[0]
        assert est["floor"].stderr < 1e-3 * summarize(raw["floor"]).stderr
        assert est["lower_bob"].stderr < 1e-3 * summarize(raw["lower_bob"]).stderr
        # no worse than the fit on the controls without p2 and p3, which at
        # low power is singular too and is fitted without the point's other
        # dropped controls as well (measured: 1.003, 0.974 and 0.497 times
        # that fit's stderr)
        others = tuple(q for q in dropped if q not in ("p2", "p3"))
        without_powers = {q: m for q, m in means.items() if q not in ("p2", "p3")}
        if others:
            assert engine_correction(values["floor"], values, without_powers) is None
        fit = self.adjusted_floor(config, mc, without=("p2", "p3") + others)
        assert est["floor"].stderr <= 1.1 * fit.stderr

    def test_a_point_singular_on_every_control_makes_one_fit(self, monkeypatch):
        # at (8, 4, 10), power_a = 1e-3, noise_ea = 0.5 the system on every
        # control is singular and the point is fitted without t1, fl and fl5:
        # each candidate set is tested on its principal submatrix of the one
        # system and the chosen set is fitted once (18 fits, each on a fresh
        # copy of the samples, while every candidate was fitted in turn)
        calls = []
        real = capacity._control_corrections
        monkeypatch.setattr(capacity, "_control_corrections", lambda *args: (
            calls.append(args) or real(*args)))
        config = replace(FIG1_BASE, n_e=10, noise_ea=0.5, power_a=1e-3)
        mc = McSettings(trials=277, master_seed=1)
        est = evaluate(config, mc, ("floor",))["floor"]
        assert len(calls) == 1
        monkeypatch.undo()
        assert est == self.adjusted_floor(config, mc, without=("t1", "fl", "fl5"))

    @pytest.mark.parametrize("power_a", [1e-3, 1.5e-3])
    def test_a_low_power_point_keeps_its_fit(self, power_a):
        # under the determinant rule (det S <= 1e-12 prod diag S) these
        # points were fitted without t1 and u1 and their floor's stderr was
        # 1.5e-7 and 4.0e-7 bits; the correlation-scaled pivots keep p2, p3
        # and u1, and with the edges of both rings but the low ones the stderr
        # is 1.8e-10 and 1.1e-9 (1.7e-9 and 4.4e-10 with the inner ring alone)
        config = replace(FIG1_BASE, n_e=10, noise_ea=0.5, power_a=power_a)
        est = evaluate(config, McSettings(trials=277, master_seed=1), ("floor",))["floor"]
        assert est.stderr < 1e-8

    def test_t3_is_factored_once_per_block_for_a_noise_sweep(self, monkeypatch):
        logdets = []
        real = capacity.logdet_hermitian_pd
        monkeypatch.setattr(capacity, "logdet_hermitian_pd", lambda m, split=None, **kwargs: (
            logdets.append((m.shape[1:], split)) or real(m, split, **kwargs)))
        configs = [replace(FIG1_BASE, noise_ea=v) for v in SAMPLED_NOISE_EA]
        evaluate_many(configs, McSettings(trials=BLOCK + 5, master_seed=3), ("floor",))
        # per block: each point's stacked factorization (its floor and its
        # t2), and one of the reordered stacked Gram (t3, t5 and u3), one of
        # the stacked Gram in its own order (t1 and u1) and the floor's at
        # each of the four edges shared by all points, whose gamma_ba is the
        # same; t4, which no point with an edge is fitted on, is not drawn
        per_block = [((10, 10), 6)] + [((10, 10), 4)] + [((10, 10), 6)] * 5 + \
            [((10, 10), 6)] * (len(configs) - 1)
        assert logdets == per_block * 2

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

    @pytest.mark.parametrize("config,count", [
        (ONEWAY, 12), (replace(FIG1_BASE, n_e=10, noise_ea=0.5), 12)],
        ids=["n_e-below-n_a", "n_e-above-n_a"])
    def test_a_point_takes_all_of_its_controls_from_the_minimum_trials(self, config, count):
        # below CV_MIN_TRIALS raw samples, from it every control at once
        for trials, used in ((CV_MIN_TRIALS - 1, 0), (CV_MIN_TRIALS, count)):
            mc = McSettings(trials=trials, master_seed=19)
            assert evaluate(config, mc, ("floor",))["floor"] == \
                self.adjusted_floor(config, mc, used), trials

    @staticmethod
    def adjusted_floor(config, mc, count=None, without=()):
        """The floor at `config` regressed on the first `count` controls of
        its ordered list (all by default) less those named in `without`,
        with the engine's stderr factor, or raw when there are none."""
        means = {name: mean for name, mean in engine_means(config, count).items()
                 if name not in without}
        values = trial_values_many([(config, ("floor",) + tuple(means))], mc)[0]
        if not means:
            return summarize(values["floor"])
        correction, factor = engine_correction(values["floor"], values, means)
        return scaled(summarize(values["floor"] - correction), factor)

    @pytest.mark.parametrize("case,noise_ea,trials,count", [
        ("na8-nb4-ne6", 0.5, 200, 12), ("na8-nb4-ne10", 0.5, 200, 12),
        ("na4-nb4-ne4", 0.5, 3000, 12), ("na8-nb4-ne6", 1.77827941004, 200, 12),
        ("na4-nb4-ne4", 0.562341325190, 200, 12)])
    def test_a_fig1_point_takes_every_control_its_trials_allow(self, case, noise_ea, trials,
                                                               count):
        # at fig1's 200 trials every case takes (t2, t3, t5, t1, u3, u1, fl,
        # fh, fl5, fh5, p2, p3), not raw samples, also next to noise_ea =
        # noise_b (where the floor is exact); the n_e < n_a case leaves t4 out
        spec = load_spec("fig1")
        cfg = apply_parameter(next(c for c in spec.cases if c.name == case).config,
                              "noise_ea", noise_ea)
        mc = McSettings(trials=trials, master_seed=29)
        est = evaluate(cfg, mc, ("floor",))["floor"]
        assert len(control_means(cfg)) == count
        assert est == self.adjusted_floor(cfg, mc, count)
        assert est != self.adjusted_floor(cfg, mc, 0)

    @pytest.mark.parametrize("config", [
        replace(FIG1_BASE, noise_ea=1.0), replace(FIG1_BASE, n_e=10, noise_ea=1.0),
        replace(FIG1_BASE, n_a=4, n_b=4, n_e=4, noise_ea=1.0),
        replace(FIG1_BASE, n_a=6, n_b=4, n_e=5, v_a=2, v_b=1, power_a=4.0, power_b=2.0,
                noise_ea=1.0, noise_eb=0.8, rho=0.7)],
        ids=["8-4-6", "8-4-10", "4-4-4", "two-way-6-4-5"])
    def test_floor_at_equal_noise_is_the_difference_of_exact_means(self, config):
        # at noise_ea = noise_b the floor is t5 - t2 on every draw: exact at
        # any trial count, and within 4 stderr of the raw samples' mean
        means = control_means(config)
        exact = Estimate.exact(means["t5"] - means["t2"])
        for trials in (10, 4000):
            mc = McSettings(trials=trials, master_seed=31)
            assert evaluate(config, mc, ("floor",))["floor"] == exact
        raw = summarize(trial_values_many([(config, ("floor",))], mc)[0]["floor"])
        assert abs(raw.mean - exact.mean) <= 4 * raw.stderr
        # at v_b = 0 lower_bob is pilot_mi + v_a times it, to round-off
        oneway = replace(config, v_b=0)
        lower = evaluate(oneway, mc, ("lower_bob",))["lower_bob"]
        assert lower.mean == pytest.approx(pilot_mi(oneway) + oneway.v_a * exact.mean,
                                           rel=1e-14, abs=0.0)
        assert lower.stderr <= 1e-13

    def test_singular_regression_gives_no_correction(self, rng):
        n = CV_MIN_TRIALS
        floor, t, other = (rng.standard_normal(n) for _ in range(3))
        zero = {"t2": 0.0, "t3": 0.0}
        assert engine_correction(floor, {"t2": t, "t3": np.zeros_like(t)}, zero) is None
        assert engine_correction(floor, {"t2": t, "t3": 2.0 * t}, zero) is None
        assert engine_correction(floor, {"t2": t, "t3": other, "t4": t - 3.0 * other},
                                 dict(zero, t4=0.0)) is None

    def test_non_finite_t3_fails_its_point_naming_the_floor(self, monkeypatch):
        real = capacity.Grams.bob_joint_logdets
        skewed_gamma = derive_gammas(replace(ONEWAY, power_a=40.0)).gamma_ba

        def skewed(self, gamma):
            t3, *rest = real(self, gamma)
            if gamma == skewed_gamma:
                t3 = t3.copy()
                t3[7] = np.inf
            return t3, *rest

        monkeypatch.setattr(capacity.Grams, "bob_joint_logdets", skewed)
        configs = [ONEWAY, replace(ONEWAY, power_a=40.0)]
        with pytest.raises(IntegrandFailure,
                           match=r"^trial 7: at power 40: floor integrand is inf$"):
            evaluate_many(configs, McSettings(trials=300, master_seed=3), ("lower",),
                          labels=["at power 10", "at power 40"])

    def test_non_finite_draw_on_the_stacked_form_names_its_trial(self, monkeypatch):
        import skcprobe.channel as channel
        real = channel.sample_cgaussian

        def poisoned(rows, cols, stream, trials=None):
            m = real(rows, cols, stream, trials)
            if stream.stream_id == 1 and stream.substream == DRAWN.index("g_a"):
                m[5, 0, 0] = np.inf       # g_a of trial BLOCK + 5
            return m

        monkeypatch.setattr(channel, "sample_cgaussian", poisoned)
        with np.errstate(all="ignore"), pytest.raises(
                IntegrandFailure, match=rf"^trial {BLOCK + 5}: floor integrand is nan$"):
            evaluate(ONEWAY, McSettings(trials=BLOCK + 30, master_seed=3), ("lower",))

    def test_a_fig1_case_holds_its_samples_at_most_three_times(self):
        # a case keeps each sampled point's floor and controls over all its
        # trials, 8 B each, and the fit copies one point's of them at a time;
        # the rest is per-block work and the three trials buffers of the
        # fit's tail.  Measured on these 12 sampled points: 2.24x here
        # (1.24x at 10,000 trials); a fit of all the case's points in one
        # stacked regression read 2.63x (2.34x), and per-block lists kept
        # beside their concatenation and whole (points, k, trials) leverage
        # products 3.44x on fig1's 12 off-equal points
        spec = load_spec("fig1")
        configs = [apply_parameter(spec.cases[0].config, "noise_ea", v)
                   for v in SAMPLED_NOISE_EA]
        mc = McSettings(trials=2000, master_seed=1)
        kept = 8 * mc.trials * sum(1 + len(control_means(c)) for c in configs
                                   if c.noise_ea != c.noise_b)
        evaluate_many(configs[:2], McSettings(trials=300, master_seed=2), ("floor",))
        tracemalloc.start()
        try:
            evaluate_many(configs, mc, ("floor",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * kept, f"peak {peak} B is {peak / kept:.2f}x the {kept} B kept"


def mp_floor(block, config) -> list[float]:
    """log2det(I + gamma_ea G + gamma_ba H) - log2det(I + gamma_ea G) of each
    trial in 60-digit mpmath, on the exact values of the draws and gammas."""
    gam = derive_gammas(config)
    out = []
    with mpmath.workdps(60):
        for j in range(block.trials_shape[0]):
            g, h = (mpmath.matrix(m[j].tolist()) for m in (block.g_a, block.h_ba))
            gram_e = g.transpose_conj() * g
            eye = mpmath.eye(config.n_a)
            folded = eye + gam.gamma_ea * gram_e + gam.gamma_ba * (h.transpose_conj() * h)
            diff = mpmath.log(mpmath.re(mpmath.det(folded))) \
                - mpmath.log(mpmath.re(mpmath.det(eye + gam.gamma_ea * gram_e)))
            out.append(float(diff / mpmath.log(2)))
    return out


class TestStackedFloorAccuracy:
    """The n_e < n_a floor against 60-digit mpmath where a difference of
    log-dets loses its digits: Eve nearly noiseless and high power."""

    @pytest.mark.parametrize("shape,power,noise_ea", [
        ((8, 4, 6), 10.0, 1e-10), ((8, 4, 6), 1e5, 1e-8), ((4, 2, 2), 1e5, 1e-8),
        ((8, 4, 6), 10.0, 1.0)])
    def test_relative_error_against_mpmath(self, shape, power, noise_ea):
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, power_a=power,
                      noise_ea=noise_ea)
        _, block = next(trial_blocks(cfg, McSettings(trials=6, master_seed=3)))
        engine = secrecy_floor_sample(block, cfg)
        reference = np.array(mp_floor(block, cfg))
        assert np.max(np.abs(engine - reference) / reference) <= 1e-10

    @pytest.mark.parametrize("shape", [(8, 4, 6), (4, 2, 2)])
    def test_nearly_noiseless_eve_floor_approaches_the_mean_of_t4(self, shape):
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, noise_ea=1e-12)
        mc = McSettings(trials=2000, master_seed=23)
        values = trial_values_many([(cfg, ("floor", "t4"))], mc)[0]
        # the floor exceeds t4 by about gamma_ba / gamma_ea per trial
        assert np.max(np.abs(values["floor"] - values["t4"])) <= 1e-9
        floor = evaluate(cfg, mc, ("floor",))["floor"]
        exact_t4 = wishart_logdet_mean(n_b, n_a - n_e, derive_gammas(cfg).gamma_ba)
        assert abs(floor.mean - exact_t4) <= 4 * floor.stderr
        # at noise_ea = 0 the floor is that mean, exactly
        assert evaluate(replace(cfg, noise_ea=0.0), mc, ("floor",))["floor"] == \
            Estimate.exact(exact_t4)

    @pytest.mark.parametrize("shape", [(8, 4, 6), (4, 2, 2)])
    def test_noiseless_eve_floor_is_the_exact_mean_of_t4(self, shape):
        # per draw the floor is t4, Bob's channel through the dimensions Eve
        # cannot observe; the floor is reported as E t4 and, at v_b = 0,
        # lower_bob as pilot_mi + v_a E t4
        n_a, n_b, n_e = shape
        cfg = replace(FIG1_BASE, n_a=n_a, n_b=n_b, n_e=n_e, v_a=3, noise_ea=0.0)
        mc = McSettings(trials=2000, master_seed=23)
        exact_t4 = wishart_logdet_mean(n_b, n_a - n_e, derive_gammas(cfg).gamma_ba)
        values = trial_values_many([(cfg, ("floor", "lower_bob", "t4"))], mc)[0]
        assert np.array_equal(values["floor"], np.maximum(values["t4"], 0.0))
        raw = summarize(values["floor"])
        assert abs(raw.mean - exact_t4) <= 4 * raw.stderr
        est = evaluate(cfg, mc, ("floor", "lower", "upper", "lower_alice"))
        assert est["floor"] == Estimate.exact(exact_t4)
        assert est["lower"] == est["upper"]
        assert abs(est["lower"].mean - (pilot_mi(cfg) + cfg.v_a * exact_t4)) <= 1e-9
        assert est["lower"].stderr <= 1e-9 < raw.stderr
        assert est["lower_alice"] == Estimate.exact(-math.inf)
        # below CV_MIN_TRIALS too lower is exact
        few = McSettings(trials=CV_MIN_TRIALS - 1, master_seed=23)
        assert evaluate(cfg, few, ("lower",))["lower"] == \
            Estimate.exact(pilot_mi(cfg) + cfg.v_a * exact_t4)
        # where n_e >= n_a the limit is an exact 0
        full = replace(cfg, n_e=n_a)
        assert evaluate(full, mc, ("floor",))["floor"] == Estimate.exact(0.0)
        assert not trial_values_many([(full, ("floor",))], mc)[0]["floor"].any()


def fig1_points() -> list[ProbingConfig]:
    spec = load_spec("fig1")
    return [apply_parameter(case.config, "noise_ea", v)
            for case in spec.cases for v in spec.sweep.values]


class TestClosedFloor:
    """The floor's mean in closed form where gamma_ea and gamma_ba are
    FLOOR_FORM_RATIO or more apart (capacity._floor_plan), against the
    exact Andreief form in mpmath (reference_floor)."""

    R = capacity.FLOOR_FORM_RATIO

    def test_reference_with_one_cluster_is_telatars_mean(self):
        # with Eve's rows alone the form is E t2: its polynomial columns
        # (n_e > n_a) and integral ones against the Laguerre expansion
        for rows, cols, gamma in [(10, 8, 316.0), (6, 8, 1e-3), (4, 4, 1e10), (14, 8, 10.0),
                                  (1, 8, 1e-6)]:
            with mpmath.workdps(60):
                form = andreief_logdet([(gamma, rows)], cols) / mpmath.log(2)
                assert abs(float(form) - reference_mean(rows, cols, gamma)) <= \
                    1e-13 * float(form)

    def test_matches_the_reference_at_every_fig1_point_in_the_domain(self):
        closed = [(cfg, closed_floor(cfg)) for cfg in fig1_points()]
        closed = [(cfg, floor) for cfg, floor in closed if floor is not None]
        # 31.6 down to 3.16 and their reciprocals, at each of the 3 cases
        assert len(closed) == 30
        for cfg, floor in closed:
            gam = derive_gammas(cfg)
            reference = reference_floor(cfg.n_a, cfg.n_b, cfg.n_e, gam.gamma_ea, gam.gamma_ba)
            assert abs(floor - reference) <= 1e-10 * reference, cfg

    # the bundled fig1 shapes, the largest shape of the domain (8, 4, 10)
    # among them, and its other corners; (7, 4, 10), (8, 4, 9) and (7, 3,
    # 10), next to the corner the domain leaves out, have the thinnest
    # margins on the gate
    @pytest.mark.parametrize("shape", [(8, 4, 6), (8, 4, 10), (4, 4, 4), (8, 4, 1), (5, 1, 1),
                                       (4, 1, 10), (1, 1, 10), (1, 4, 1), (1, 4, 10),
                                       (7, 4, 10), (8, 4, 9), (7, 3, 10)],
                             ids=lambda shape: "{}-{}-{}".format(*shape))
    def test_matches_the_reference_at_the_ends_of_the_gamma_domain(self, shape):
        lo, hi = capacity.WISHART_GAMMAS
        top = capacity.FLOOR_FORM_MAX_RATIO
        pairs = [(lo, lo * self.R), (lo, lo * top), (hi / self.R, hi), (hi / top, hi)]
        assert capacity._floor_form_shape(*shape)
        for low, high in pairs:
            for gamma_ea, gamma_ba in ((low, high), (high, low)):
                if shape[2] >= shape[0] and gamma_ea == hi and high / low < 10:
                    # the Eve-larger corner that the domain leaves out
                    assert not capacity._floor_form_domain(*shape, gamma_ea, gamma_ba)
                    continue
                reference = reference_floor(*shape, gamma_ea, gamma_ba)
                floor = capacity._floor_form(*shape, [gamma_ea], gamma_ba)[0]
                assert abs(floor - reference) <= 1e-10 * reference, (gamma_ea, gamma_ba)

    @pytest.mark.parametrize("label,config", BUNDLED_SAMPLED, ids=[p[0] for p in BUNDLED_SAMPLED])
    def test_matches_the_reference_at_every_edge_of_every_bundled_sampled_point(self, label,
                                                                              config):
        # the edge controls' means, both rings: measured 1e-16 to 1.2e-14
        # relative, and 4.2e-11 at (8, 4, 10)'s high inner edge, gamma_ea =
        # 30, and 5.5e-12 at its high outer one, gamma_ea = 50
        edges = [name for name, control in _controls(config).items()
                 if control.mean.kind == "floor"]
        assert edges == ["fl", "fh", "fl5", "fh5"]
        for name in edges:
            reference = reference_floor(*_controls(config)[name].mean.args)
            assert abs(edge_form(config, name) - reference) <= 1e-10 * reference, name

    def test_a_stack_is_its_points_one_at_a_time(self):
        # every in-domain fig1 point, stacked per case and branch as
        # evaluate_many stacks them, bit for bit its stack of one
        plans = [capacity._floor_plan(cfg) for cfg in fig1_points()]
        points = [point for form, point in plans if form == "closed form"]
        stacked = capacity._floor_forms(points)
        assert [stacked[p] for p in points] == \
            [capacity._floor_form(*p[:3], [p[3]], p[4])[0] for p in points]

    def test_an_exact_floor_evaluates_its_form_alone(self, monkeypatch):
        # at (8, 4, 6), noise_ea = 10, the floor is the closed form and
        # lower_alice reads E t3 and E t2: one _floor_form call, a stack of
        # one, and none for the edges, which no fit reads (3 calls while
        # lower_alice read every control's mean)
        calls = []
        real = capacity._floor_form
        monkeypatch.setattr(capacity, "_floor_form", lambda *args: (
            calls.append(len(args[3])) or real(*args)))
        cfg = replace(FIG1_BASE, noise_ea=10.0)
        assert (cfg.n_a, cfg.n_b, cfg.n_e) == (8, 4, 6)
        est = evaluate(cfg, McSettings(trials=300, master_seed=1), ("floor", "lower_alice"))
        assert calls == [1]
        assert est["floor"].method == est["lower_alice"].method == "exact"

    def test_a_sweep_evaluates_each_stack_once(self, monkeypatch):
        # more than 1024 in-domain points of one shape and gamma_ba, and two
        # sampled ones: one _floor_form call per branch for all of them, the
        # sampled points' edges included (two per branch, one of each ring,
        # shared by both points), and none while the points read their floors
        # and the edges' means
        calls = []
        real = capacity._floor_form
        monkeypatch.setattr(capacity, "_floor_form", lambda *args: (
            calls.append(len(args[3])) or real(*args)))
        base = replace(FIG1_BASE, n_e=10)
        grid = [replace(base, noise_ea=float(v)) for v in np.logspace(-4, 4, 1800)]
        exact = [cfg for cfg in grid if capacity._floor_plan(cfg)[0] == "closed form"]
        sampled = [replace(base, noise_ea=v) for v in (1.77827941004, 0.562341325190)]
        assert len(exact) > 1024
        est = evaluate_many(exact + sampled, McSettings(trials=CV_MIN_TRIALS, master_seed=1),
                            ("floor",))
        gamma_ba = derive_gammas(base).gamma_ba
        assert sorted(calls) == sorted([
            sum(derive_gammas(cfg).gamma_ea > gamma_ba for cfg in exact) + 2,
            sum(derive_gammas(cfg).gamma_ea < gamma_ba for cfg in exact) + 2])
        assert all(e["floor"].method == "exact" for e in est[:len(exact)])
        assert [e["floor"].method for e in est[len(exact):]] == ["monte-carlo"] * 2

    def test_is_exact_at_a_ratio_of_r_and_none_just_below_it(self):
        # fig1's gamma_ba is 10: noise_ea = 3 and 1/3 put gamma_ea exactly
        # R below and above it
        assert self.R == 3.0
        for noise_ea in (3.0, 1 / 3):
            cfg = replace(FIG1_BASE, noise_ea=noise_ea)
            gam = derive_gammas(cfg)
            assert max(gam.gamma_ea / gam.gamma_ba, gam.gamma_ba / gam.gamma_ea) == self.R
            assert closed_floor(cfg) is not None
        for noise_ea in (3.0 * (1 - 1e-9), 1 / 3 / (1 - 1e-9)):
            assert exact_floor(replace(FIG1_BASE, noise_ea=noise_ea)) is None

    def test_fig1_points_at_ten_to_the_half_are_in_the_domain(self):
        # in floats fig1's noise_ea = 0.316 puts its gammas 3.162277660166759
        # apart, just under 10 ** 0.5: a bound of 10 ** 0.5 would leave it out
        points = [cfg for cfg in fig1_points() if cfg.noise_ea in (0.316227766017, 3.16227766017)]
        assert len(points) == 6
        for cfg in points:
            assert closed_floor(cfg) is not None, cfg
            if cfg.noise_ea < 1:
                gam = derive_gammas(cfg)
                assert gam.gamma_ea / gam.gamma_ba < 10 ** 0.5

    @pytest.mark.parametrize("shape", [(8, 4, 10), (4, 4, 4), (8, 4, 8)],
                             ids=lambda shape: "{}-{}-{}".format(*shape))
    def test_eve_larger_corner_is_left_out_only_below_a_decade(self, shape):
        # where n_e >= n_a and Eve's SNR is the larger the form is the Schur
        # complement of Eve's rows, whose entries run out of digits at high
        # gamma_ea below a decade apart (1.0-1.7e-10 at (8, 4, 10), gamma_ea
        # from 1e3): there gamma_ea must be at most FLOOR_FORM_SCHUR_GAMMA
        cap = capacity.FLOOR_FORM_SCHUR_GAMMA
        domain = capacity._floor_form_domain
        for gamma_ea in (cap, cap * (1 + 1e-9), cap * 1e3):
            # just inside the ratio bound
            gamma_ba = gamma_ea / (self.R * (1 + 1e-9))
            assert domain(*shape, gamma_ea, gamma_ba) == (gamma_ea == cap)
            # Bob's SNR the larger, and more than a decade apart, stay in
            assert domain(*shape, gamma_ba, gamma_ea)
            assert domain(*shape, gamma_ea, gamma_ea / 12)
        # where n_e < n_a the rule does not apply
        assert domain(8, 4, 6, cap * 1e3, cap * 1e3 / (self.R * (1 + 1e-9)))

    def test_is_none_at_the_other_bundled_configs_and_outside_the_domain(self):
        text, _ = read_spec_text("verify-default")
        twoway = load_spec(str(PERFBENCH / "twoway.yaml")).base
        configs = [ONEWAY, twoway, twoway.swap_roles()]
        # verify-default's cfg0 and cfg1 (2 and 1.3 apart); its cfg2 is 4
        # apart, inside the domain
        verify_configs = [config_from_mapping(c) for c in yaml.safe_load(text)["configs"]]
        assert closed_floor(verify_configs[2]) is not None
        configs += verify_configs[:2]
        # beyond the largest ratio, outside WISHART_GAMMAS, and at shapes
        # outside the domain, each a decade apart
        configs += [replace(FIG1_BASE, noise_ea=1e-3 * (1 - 1e-9)),
                    replace(FIG1_BASE, power_a=1e-6, noise_ea=10.0),
                    replace(FIG1_BASE, n_b=5, noise_ea=10.0),
                    replace(FIG1_BASE, n_e=11, noise_ea=10.0),
                    replace(FIG1_BASE, n_a=9, phi_a=0, noise_ea=10.0),
                    replace(FIG1_BASE, n_b=3, noise_ea=10.0)]
        for cfg in configs:
            assert exact_floor(cfg) is None, cfg

    def test_domain_is_empty_where_longdouble_has_no_extra_digits(self, monkeypatch):
        # where np.longdouble is float64 its eps is not below
        # FLOOR_FORM_LONG_EPS: the point is then sampled as before
        cfg = replace(FIG1_BASE, noise_ea=0.0316227766017)
        mc = McSettings(trials=CV_MIN_TRIALS, master_seed=3)
        assert evaluate(cfg, mc, ("floor",))["floor"] == Estimate.exact(
            closed_floor(cfg))
        monkeypatch.setattr(capacity, "FLOOR_FORM_LONG_EPS",
                            float(np.finfo(np.longdouble).eps))
        assert closed_floor(cfg) is None
        assert evaluate(cfg, mc, ("floor",))["floor"] == \
            TestControlVariates.adjusted_floor(cfg, mc)

    def test_points_in_the_domain_draw_nothing(self, monkeypatch):
        configs = [cfg for cfg in fig1_points() if closed_floor(cfg) is not None]
        calls = []
        real = capacity.collect
        monkeypatch.setattr(capacity, "collect", lambda *args: calls.append(args) or real(*args))
        mc = McSettings(trials=200, master_seed=5)
        for cfg, est in zip(configs, evaluate_many(configs, mc, ("floor", "lower"))):
            floor = closed_floor(cfg)
            assert est["floor"] == Estimate.exact(floor)
            # at v_b = 0 lower is pilot_mi (0 at rho = 0) plus v_a times
            # the exact floor
            assert est["lower"] == Estimate.exact(pilot_mi(cfg) + cfg.v_a * floor)
        # neither the floors nor the bounds draw anything
        assert calls == []
        calls.clear()
        evaluate_many(configs, mc, ("floor",))
        assert calls == []

    @pytest.mark.parametrize("trials", [CV_MIN_TRIALS - 1, CV_MIN_TRIALS])
    def test_an_exact_floor_makes_the_one_way_bounds_exact(self, trials):
        # 10 apart, in the closed form's domain: lower = upper = pilot_mi +
        # v_a floor at any trial count, not a mean of samples
        cfg = config_from_mapping(dict(n_a=8, n_b=4, n_e=6, v_a=1, v_b=0, power_a=10,
                                       power_b=10, noise_ea=10))
        floor = closed_floor(cfg)
        assert floor is not None
        est = evaluate(cfg, McSettings(trials=trials, master_seed=1), ("lower", "upper"))
        assert est["lower"] == est["upper"] == Estimate.exact(pilot_mi(cfg) + cfg.v_a * floor)

    def test_in_domain_fig1_means_agree_with_the_benchmark_reference(self):
        # perfbench/run.py's correctness check holds an exact mean to its
        # reference within REFERENCE_SIGMAS = 6 of the reference's stderr;
        # the largest |z| here is 2.2
        reference = json.loads((PERFBENCH / "reference.json").read_text(
            encoding="utf-8"))["fig1-floor-sweep"]["values"]
        spec = load_spec("fig1")
        checked = 0
        for case in spec.cases:
            for v in spec.sweep.values:
                floor = closed_floor(apply_parameter(case.config, "noise_ea", v))
                if floor is None:
                    continue
                mean, stderr = reference[f"{case.name}@{v:.12g}"]
                assert abs(floor - mean) <= 6.0 * stderr, (case.name, v)
                checked += 1
        assert checked == 30


def test_the_control_study_runs():
    # scripts/control_study.py prints one heading line per bundled sampled
    # point, each followed by its fit's lines
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH.parent / "scripts" / "control_study.py"),
         "--trials", "300"], capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    headings = [line.split(":")[0] for line in proc.stdout.splitlines()
                if not line.startswith(" ")]
    assert headings == [label for label, _ in BUNDLED_SAMPLED]


class TestQuadratureOracle:
    """verify's adaptive quadrature of Telatar's integral against the exact
    reference, at high gamma, where the logarithm bends over many decades."""

    @pytest.mark.parametrize("rows,cols,gamma", [
        (16, 16, 1e10), (16, 16, 1e8), (4, 4, 1e10), (1, 1, 1e10), (32, 16, 1e10),
        (16, 16, 1e-6), (10, 8, 316.0)])
    def test_log_det_quadrature_matches_the_exact_reference(self, rows, cols, gamma):
        from skcprobe.verify import wishart_logdet_quadrature

        reference = reference_mean(rows, cols, gamma)
        assert abs(wishart_logdet_quadrature(rows, cols, gamma) - reference) <= \
            1e-11 * reference
