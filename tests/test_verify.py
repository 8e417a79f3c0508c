"""Verification layer: exact covariance oracle, estimation checks, suite."""

import mpmath
import numpy as np
import pytest

from skcprobe import (
    McSettings,
    determinant_identity_suite,
    pilot_estimation_check,
    pilot_mi,
    pilot_mi_from_covariance,
    run_suite,
    siso_ergodic_capacity,
)
from skcprobe.errors import DimensionGuard, ValidationError
from skcprobe.montecarlo import BLOCK, trial_blocks
from skcprobe.verify import scalar_capacity_check
from conftest import make_config

# e * E1(1) / ln 2 to double precision (30-digit mpmath, frozen)
SCALAR_CAPACITY_AT_ONE = 0.86034738227088595


class TestPilotMiFromCovariance:
    def test_zero_rho_factors_exactly(self):
        cfg = make_config(rho=0.0, phi_a=8, phi_b=8)
        assert pilot_mi_from_covariance(cfg) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_hand_value(self):
        # n_a=n_b=1, phi=2, |rho|=1, both SNR products 1 -> log2(4/3)
        cfg = make_config(n_a=1, n_b=1, n_e=1, phi_a=2, phi_b=2,
                          power_a=0.5, power_b=0.5, noise_a=1.0, noise_b=1.0,
                          rho=1.0)
        assert pilot_mi_from_covariance(cfg) == pytest.approx(0.41503749927884382,
                                                              rel=1e-9)

    def test_matches_closed_form_with_complex_rho(self):
        cfg = make_config(n_a=2, n_b=3, n_e=1, phi_a=4, phi_b=8,
                          rho=0.3 + 0.65j)
        closed = pilot_mi(cfg)
        assert pilot_mi_from_covariance(cfg) == pytest.approx(closed, rel=1e-9)

    def test_dimension_guard(self):
        cfg = make_config(n_a=8, n_b=8, phi_a=600, phi_b=600)
        with pytest.raises(DimensionGuard):
            pilot_mi_from_covariance(cfg)


class TestPilotEstimation:
    def test_error_variance_tracks_analytic_value(self):
        # gamma = 1, psi = 99 -> error variance 1/100
        cfg = make_config(n_a=1, n_b=1, phi_a=99, power_a=1.0, noise_b=1.0)
        outcome = pilot_estimation_check(cfg, McSettings(trials=4000, master_seed=5))
        assert outcome.passed
        assert outcome.reference_value == pytest.approx(0.01, abs=1e-12)
        assert abs(outcome.computed_value - 0.01) <= 0.05 * 0.01

    def test_zero_power_leaves_prior_variance(self):
        cfg = make_config(n_a=1, n_b=1, phi_a=16, power_a=0.0)
        outcome = pilot_estimation_check(cfg, McSettings(trials=2000, master_seed=5))
        assert outcome.reference_value == 1.0
        assert outcome.passed

    def test_variance_scales_inversely_with_pilot_length(self):
        mc = McSettings(trials=4000, master_seed=7)
        cfg_small = make_config(n_a=2, n_b=2, phi_a=100, power_a=1.0, noise_b=1.0)
        cfg_large = make_config(n_a=2, n_b=2, phi_a=1600, power_a=1.0, noise_b=1.0)
        small = pilot_estimation_check(cfg_small, mc)
        large = pilot_estimation_check(cfg_large, mc)
        ratio = large.computed_value / small.computed_value
        assert ratio == pytest.approx(101.0 / 1601.0, rel=0.10)


class TestScalarCapacity:
    def test_quadrature_matches_frozen_oracle(self):
        assert siso_ergodic_capacity(1.0) == pytest.approx(SCALAR_CAPACITY_AT_ONE,
                                                           abs=1e-10)

    def test_matches_mpmath_at_runtime(self):
        # independent arithmetic: 30-digit quadrature of the same integral
        mpmath.mp.dps = 30
        for snr in (0.1, 1.0, 10.0):
            expected = float(mpmath.quad(
                lambda x: mpmath.log(1 + snr * x, 2) * mpmath.e ** (-x),
                [0, mpmath.inf]))
            assert siso_ergodic_capacity(snr) == pytest.approx(expected, rel=1e-9)

    def test_zero_snr(self):
        assert siso_ergodic_capacity(0.0) == 0.0

    def test_mc_cross_check_passes(self):
        outcome = scalar_capacity_check(1.0, McSettings(trials=4000, master_seed=3))
        assert outcome.passed


class TestIdentitySuite:
    def test_general_config_passes(self):
        outcomes = determinant_identity_suite(make_config(), realizations=150)
        assert all(o.passed for o in outcomes)
        names = [o.check_name for o in outcomes]
        assert "gap-form-equivalence" in names and "one-way-identity" in names

    def test_one_way_config_has_exact_zero_gap(self):
        outcomes = determinant_identity_suite(make_config(v_b=0), realizations=120)
        by_name = {o.check_name: o for o in outcomes}
        assert by_name["gap-nonnegative"].passed
        assert by_name["gap-nonnegative"].computed_value == 0.0

    def test_reciprocal_config_passes(self):
        outcomes = determinant_identity_suite(make_config(rho=1.0), realizations=120)
        assert all(o.passed for o in outcomes)

    @pytest.mark.parametrize("overrides", [
        dict(v_b=3), dict(noise_ea=0.0), dict(rho=1.0), dict(n_a=2, n_b=3, n_e=1)])
    def test_engine_agreement_check_crosses_a_block(self, overrides):
        outcomes = determinant_identity_suite(make_config(**overrides), realizations=300)
        by_name = {o.check_name: o for o in outcomes}
        check = by_name["engine-reference-agreement"]
        assert check.passed and check.tolerance == 1e-9
        assert "over 300 trials" in check.detail

    def test_engine_agreement_outcome_is_plain_json(self, monkeypatch):
        import json
        import skcprobe.verify as verify
        real = verify.trial_values

        def shifted(config, mc, names):
            return {k: v + 1e-12 for k, v in real(config, mc, names).items()}

        monkeypatch.setattr(verify, "trial_values", shifted)
        check = verify.engine_agreement_check(make_config(), realizations=120)
        assert check.passed is True and type(check.computed_value) is float
        assert 0.0 < check.computed_value <= 1e-9
        json.dumps(check.__dict__)

    def test_failing_form_names_the_worst_trial_in_block_layout(self, monkeypatch):
        import skcprobe.verify as verify
        real = verify.bound_gap_sample

        def skewed(block, config, form="stacked"):
            # the resolvent form is off by 1e-6 |h_ba[0, 0]|^2 on the
            # second, partial block only
            value = real(block, config, form=form)
            if form == "inverse" and block.trials_shape[0] < BLOCK:
                value = value + 1e-6 * np.abs(block.h_ba[:, 0, 0]) ** 2
            return value

        monkeypatch.setattr(verify, "bound_gap_sample", skewed)
        cfg = make_config()
        (_, _), (start, last) = trial_blocks(cfg, McSettings(trials=300, master_seed=4))
        gains = np.abs(last.h_ba[:, 0, 0]) ** 2
        outcomes = determinant_identity_suite(cfg, realizations=300, master_seed=4)
        by_name = {o.check_name: o for o in outcomes}
        check = by_name["gap-form-equivalence"]
        assert not check.passed
        assert start == BLOCK
        assert check.detail == f"max deviation at trial {BLOCK + int(np.argmax(gains))}"
        assert check.computed_value == pytest.approx(1e-6 * gains.max(), rel=1e-6)
        assert by_name["floor-form-equivalence"].passed

    def test_requires_enough_realizations(self):
        with pytest.raises(ValidationError):
            determinant_identity_suite(make_config(), realizations=50)


class TestRunSuite:
    def test_default_style_set_passes(self):
        configs = [make_config(), make_config(n_a=3, n_b=2, n_e=4, v_a=1, v_b=3,
                                              phi_a=8, phi_b=8, rho=1.0)]
        summary = run_suite(configs, McSettings(trials=1200, master_seed=1),
                            identity_realizations=120)
        assert summary.passed
        assert not summary.failures()

    def test_mutation_control_fails_the_pilot_check(self):
        summary = run_suite([make_config()], McSettings(trials=800, master_seed=1),
                            identity_realizations=110, corrupt_pilot_mi=True)
        assert not summary.passed
        failing = [o.check_name for o in summary.failures()]
        assert any("pilot-mi-exact" in name for name in failing)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            run_suite([], McSettings(trials=100, master_seed=1))

    def test_bundled_default_set_passes_quickly(self, tmp_path):
        import time
        from skcprobe.experiments import run_verify

        start = time.perf_counter()
        summary, report_path = run_verify("verify-default", {}, tmp_path)
        elapsed = time.perf_counter() - start
        assert summary.passed
        assert report_path.exists()
        assert elapsed < 120.0
