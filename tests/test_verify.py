"""Verification layer: exact covariance oracle, estimation checks, suite."""

import hashlib
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from skcprobe import (
    McSettings,
    determinant_identity_suite,
    evaluate,
    pilot_estimation_check,
    pilot_mi,
    pilot_mi_from_covariance,
    run_suite,
    siso_ergodic_capacity,
)
from skcprobe.capacity import CONTROLS, CV_MIN_TRIALS, _controls, _plan, trial_values_many
from skcprobe.channel import derive_gammas, sample_channels
from skcprobe.errors import DimensionGuard, InvalidNoise, ValidationError
from skcprobe.montecarlo import BLOCK, collect, summarize, trial_blocks
import skcprobe.verify as verify
from skcprobe.verify import (CONTROL_ORACLES, IDENTITY_ATOL, floor_null_space,
                             floor_resolvent, gap_resolvent, lower_bob_rectangular,
                             pilot_mi_check, raw_mean_check, scalar_capacity_check,
                             wishart_logdet_quadrature, wishart_mean_check,
                             wishart_trace_quadrature)
from conftest import closed_floor, edge_form, make_config, shifted_forms

# e * E1(1) / ln 2 to double precision (30-digit mpmath, frozen)
SCALAR_CAPACITY_AT_ONE = 0.86034738227088595


class TestPilotMiFromCovariance:
    def test_zero_rho_factors_exactly(self):
        cfg = make_config(rho=0.0, phi_a=8, phi_b=8)
        assert pilot_mi_from_covariance(cfg) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("power", [10.0, 1e3, 1e5])
    def test_zero_rho_is_exactly_zero_with_default_pilots(self, power):
        # no cross block, so the Schur complement is blk_b itself
        cfg = make_config(n_a=4, n_b=2, n_e=2, phi_a=0, phi_b=0, power_a=power,
                          power_b=power, rho=0.0)
        assert pilot_mi_from_covariance(cfg) == 0.0
        assert pilot_mi_check(cfg).passed

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
        real = verify.trial_values_many

        def shifted(points, mc):
            return [{k: v + 1e-12 for k, v in values.items()} for values in real(points, mc)]

        monkeypatch.setattr(verify, "trial_values_many", shifted)
        by_name = {o.check_name: o for o in determinant_identity_suite(make_config(),
                                                                      realizations=120)}
        check = by_name["engine-reference-agreement"]
        assert check.passed is True and type(check.computed_value) is float
        assert 0.0 < check.computed_value <= 1e-9
        json.dumps(check.__dict__)

    def test_failing_form_names_the_worst_trial_in_block_layout(self, monkeypatch):
        import skcprobe.verify as verify
        real = verify.gap_resolvent

        def skewed(block, config):
            # the resolvent form is off by 1e-6 |h_ba[0, 0]|^2 on the
            # second, partial block only
            value = real(block, config)
            if block.trials_shape[0] < BLOCK:
                value = value + 1e-6 * np.abs(block.h_ba[:, 0, 0]) ** 2
            return value

        monkeypatch.setattr(verify, "gap_resolvent", skewed)
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

    @pytest.mark.parametrize("overrides", [
        dict(n_a=4, n_b=2, n_e=2), dict(n_a=3, n_b=3, n_e=1, noise_ea=0.0),
        dict(n_a=8, n_b=4, n_e=6, power_a=10.0, noise_ea=1e-10)])
    def test_floor_oracle_is_the_null_space_form_where_n_e_is_below_n_a(self, overrides):
        cfg = make_config(**overrides)
        by_name = {o.check_name: o for o in determinant_identity_suite(cfg, realizations=300)}
        check = by_name["floor-form-equivalence"]
        assert check.passed and check.tolerance == IDENTITY_ATOL
        assert check.detail == "floor against floor_null_space over 300 realizations"
        check = by_name["t4-form-equivalence"]
        assert check.passed and check.detail == "t4 against floor_null_space over 300 realizations"
        check = {o.check_name: o for o in determinant_identity_suite(
            make_config(), realizations=100)}["floor-form-equivalence"]
        assert check.passed
        assert check.detail == "floor against floor_resolvent over 100 realizations"

    @pytest.mark.parametrize("overrides", [
        dict(n_a=3, n_b=3, n_e=1, noise_ea=0.0), dict(n_a=4, n_b=2, n_e=2, v_b=0, noise_ea=0.0)])
    def test_noiseless_eve_suite_passes_where_n_e_is_below_n_a(self, overrides):
        # the engine's floor and lower_bob carry t4 there, as do the oracles
        outcomes = determinant_identity_suite(make_config(**overrides), realizations=300)
        assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]
        engine = trial_values_many([(make_config(**overrides), ("floor", "t4"))],
                                   McSettings(trials=300, master_seed=1))[0]
        assert engine["floor"].min() > 0.0

    def test_high_power_null_space_config_passes(self):
        # the difference of log-dets in floor_resolvent loses about 1e-6 bits
        # here, where the engine and floor_null_space agree to 1e-12
        cfg = make_config(n_a=4, n_b=2, n_e=2, v_a=1, v_b=0, phi_a=0, phi_b=0,
                          power_a=1e5, power_b=1e5, noise_ea=1e-4, noise_eb=1.0, rho=0.0)
        outcomes = determinant_identity_suite(cfg, realizations=300)
        assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]
        assert pilot_mi_check(cfg).passed

    @pytest.mark.parametrize("overrides", [
        dict(), dict(v_b=0), dict(noise_ea=0.0), dict(n_a=4, n_b=2, n_e=2),
        dict(n_a=3, n_b=3, n_e=1, noise_ea=0.0)])
    def test_two_collect_passes_per_config(self, monkeypatch, overrides):
        # one engine pass and one oracle pass, each drawing the two blocks
        # of 300 trials once
        import skcprobe.capacity as capacity
        import skcprobe.montecarlo as montecarlo
        passes, draws = [], []

        def counted(*args):
            passes.append(args[1])
            return collect(*args)

        def sampled(*args):
            draws.append(args[1])
            return sample_channels(*args)

        monkeypatch.setattr(verify, "collect", counted)
        monkeypatch.setattr(capacity, "collect", counted)
        monkeypatch.setattr(montecarlo, "sample_channels", sampled)
        determinant_identity_suite(make_config(**overrides), realizations=300)
        assert len(passes) == 2 and len(draws) == 4


def control_term(config, name) -> str:
    """How wishart-mean's detail names the control's exact-mean term."""
    kind, args, _ = _controls(config)[name].mean
    if kind == "floor":
        return f"{name} (floor form, gamma_ea {args[3]:g})"
    if kind == "power":
        return f"{name} ({args[0]}x{args[1]})"
    return f"{name} ({args[0]}x{args[1]}, gamma {args[2]:g})"


class TestControlTable:
    """verify checks the controls that capacity._controls declares, each
    against its CONTROL_ORACLES entry and its exact-mean term."""

    def test_every_control_has_an_oracle(self):
        assert set(CONTROL_ORACLES) == set(CONTROLS)

    @pytest.mark.parametrize("overrides,declared", [
        (dict(), "t2 t3 t5 t1 u3 u1 fl fh p2 p3"),
        (dict(n_a=3, n_b=2, n_e=4), "t2 t3 t5 t1 u3 u1 fl fh p2 p3"),
        (dict(n_a=4, n_b=2, n_e=2), "t2 t3 t5 t4 t1 u3 u1 fl fh p2 p3"),
        (dict(noise_ea=1.0), "t2 t3 t5 t1 u3 u1 fl fh p2 p3"),
        (dict(n_a=4, n_b=2, n_e=2, noise_ea=1.0), "t2 t3 t5 t4 t1 u3 u1 fl fh p2 p3"),
        (dict(noise_ea=0.0), "t3 t5 t1 u3 u1 fl fh p2 p3"),
        (dict(n_a=3, n_b=3, n_e=1, noise_ea=0.0), "t3 t5 t4 t1 u3 u1 fl fh p2 p3"),
    ], ids=["n_e-at-n_a", "n_e-above-n_a", "n_e-below-n_a", "equal-gammas",
            "equal-gammas-n_e-below-n_a", "noiseless-eve", "noiseless-eve-n_e-below-n_a"])
    def test_every_declared_control_is_checked(self, overrides, declared):
        cfg = make_config(**overrides)
        assert list(_controls(cfg)) == declared.split()
        outcomes = determinant_identity_suite(cfg, realizations=100)
        assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]
        forms = [o for o in outcomes if o.check_name.endswith("-form-equivalence")]
        assert [o.check_name for o in forms] == [
            "gap-form-equivalence", "floor-form-equivalence",
            *(f"{name}-form-equivalence" for name in declared.split()),
            "lower-bob-form-equivalence"]
        for name, check in zip(declared.split(), forms[2:]):
            assert check.detail == (f"{name} against {CONTROL_ORACLES[name].__name__} "
                                    "over 100 realizations")
        means = wishart_mean_check(cfg)
        assert means.passed
        assert means.detail == "largest relative deviation over " + "; ".join(
            control_term(cfg, name) for name in declared.split())

    @pytest.mark.parametrize("name,overrides", [
        ("t2", dict()), ("t2", dict(n_a=3, n_b=2, n_e=4)), ("t2", dict(n_a=4, n_b=2, n_e=2)),
        ("t3", dict()), ("t3", dict(n_a=4, n_b=2, n_e=2)), ("t3", dict(n_a=2, n_b=3, n_e=1)),
        ("t5", dict()), ("t5", dict(n_a=3, n_b=2, n_e=4)), ("t5", dict(n_a=4, n_b=2, n_e=2)),
        ("t5", dict(n_a=8, n_b=4, n_e=6, noise_ea=0.0)),
        ("t4", dict(n_a=4, n_b=2, n_e=2)),
        ("t1", dict()), ("t1", dict(n_a=4, n_b=2, n_e=2)),
        ("u3", dict()), ("u3", dict(n_a=3, n_b=2, n_e=4)), ("u3", dict(n_a=4, n_b=2, n_e=2)),
        ("u3", dict(n_a=4, n_b=2, n_e=2, power_a=1e5, noise_ea=1e-4)),
        ("u1", dict()), ("u1", dict(n_a=3, n_b=2, n_e=4)), ("u1", dict(n_a=4, n_b=2, n_e=2)),
        ("u1", dict(n_a=4, n_b=2, n_e=2, power_a=1e5, noise_ea=1e-4)),
        ("fl", dict()), ("fl", dict(n_a=3, n_b=2, n_e=4)), ("fl", dict(n_a=4, n_b=2, n_e=2)),
        ("fh", dict()), ("fh", dict(n_a=3, n_b=2, n_e=4)), ("fh", dict(n_a=4, n_b=2, n_e=2)),
        ("p2", dict()), ("p2", dict(n_a=3, n_b=2, n_e=4)), ("p2", dict(n_a=4, n_b=2, n_e=2)),
        ("p3", dict()), ("p3", dict(n_a=2, n_b=3, n_e=1)), ("p3", dict(n_a=4, n_b=2, n_e=2)),
    ])
    def test_a_skewed_control_fails_its_own_check_at_its_trial(self, monkeypatch, name,
                                                               overrides):
        real = verify.trial_values_many

        def skewed(points, mc):
            values = real(points, mc)
            values[0][name] = values[0][name].copy()
            values[0][name][BLOCK + 5] += 1e-7
            return values

        monkeypatch.setattr(verify, "trial_values_many", skewed)
        outcomes = determinant_identity_suite(make_config(**overrides), realizations=300)
        failing = [o for o in outcomes if not o.passed]
        assert [o.check_name for o in failing] == [f"{name}-form-equivalence"]
        assert failing[0].detail == f"max deviation at trial {BLOCK + 5}"
        assert failing[0].computed_value == pytest.approx(1e-7, rel=1e-6)


def mp_gap(block, config) -> np.ndarray:
    """v_b (log2det(A + gamma_eb G_b) - log2det(A)), A = I + gamma_ab H_ab,
    H_ab and G_b the Grams of h_ab and g_b, of each trial of a block in
    50-digit mpmath, from n_b-square determinants of the exact draws and
    gammas."""
    gam = derive_gammas(config)
    out = []
    with mpmath.workdps(50):
        for j in range(block.trials_shape[0]):
            h, g = (mpmath.matrix(m[j].tolist()) for m in (block.h_ab, block.g_b))
            a = mpmath.eye(config.n_b) + gam.gamma_ab * (h.transpose_conj() * h)
            joint = a + gam.gamma_eb * (g.transpose_conj() * g)
            out.append(float(config.v_b * (mpmath.log(mpmath.re(mpmath.det(joint)), 2)
                                           - mpmath.log(mpmath.re(mpmath.det(a)), 2))))
    return np.array(out)


class TestSmallerSideOracles:
    """Oracles that factor the smaller side of Sylvester's identity stay
    accurate at high power, where the larger side loses digits."""

    @pytest.mark.parametrize("overrides", [
        # n_e < n_b at high SNR, where the n_b-square resolvent was 1.4e-9
        # bits off
        dict(n_a=3, n_b=5, n_e=2, v_a=1, v_b=1, power_a=1e4, power_b=1e4, noise_ea=1.0,
             noise_eb=0.01, rho=0.0),
        dict(n_a=3, n_b=2, n_e=4, v_b=3, rho=1.0)], ids=["n_e-below-n_b", "n_e-above-n_b"])
    def test_gap_oracle_against_mpmath(self, overrides):
        cfg = make_config(**overrides)
        _, block = next(trial_blocks(cfg, McSettings(trials=16, master_seed=3)))
        assert np.max(np.abs(gap_resolvent(block, cfg) - mp_gap(block, cfg))) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 3])
    def test_sylvester_forms_agree_at_high_power_where_n_b_is_below_n_a(self, seed):
        # fig2's (8,4,10) at its top power: the engine's t3 and the t5 and
        # t1 oracles were 1.1e-9 to 1.9e-9 bits apart on their larger sides
        cfg = make_config(n_a=8, n_b=4, n_e=10, v_a=1, v_b=0, power_a=262144.0,
                          power_b=1.0, noise_ea=1.0, rho=0.0)
        outcomes = {o.check_name: o for o in determinant_identity_suite(
            cfg, realizations=300, master_seed=seed)}
        for name in ("t2", "t3", "t5", "t1", "fl"):
            assert outcomes[f"{name}-form-equivalence"].passed, name


class TestOracleIndependence:
    """The oracle forms run and agree with the engine with every engine
    integrand and Gram helper of capacity made to raise, and every split
    (stacked) Cholesky factorization too."""

    @pytest.mark.parametrize("overrides", [
        dict(n_a=3, n_b=2, n_e=4, v_a=2, v_b=3), dict(rho=1.0), dict(noise_ea=0.0),
        dict(n_a=4, n_b=2, n_e=2, v_b=2)])
    def test_oracles_share_no_engine_code(self, monkeypatch, overrides):
        import skcprobe.capacity as capacity
        import skcprobe.numerics as numerics
        cfg = make_config(**overrides)
        mc = McSettings(trials=BLOCK + 44, master_seed=9)
        null_space = cfg.n_e < cfg.n_a
        declared = list(_controls(cfg))
        engine = trial_values_many([(cfg, ["floor", "gap", "lower_bob"] + declared)], mc)[0]

        def engine_code(*args, **kwargs):
            raise AssertionError("an oracle called engine code")

        for name in ("secrecy_floor_sample", "bound_gap_sample", "lower_bound_bob_sample",
                     "Grams", "_gram", "_outer"):
            monkeypatch.setattr(capacity, name, engine_code)
        real_logdet = numerics.logdet_hermitian_pd

        def unsplit_only(m, split=None):
            if split is not None:
                raise AssertionError("an oracle factored a stacked matrix")
            return real_logdet(m)

        for module in (numerics, capacity, verify):
            monkeypatch.setattr(module, "logdet_hermitian_pd", unsplit_only)

        def oracles(block):
            values = {"floor": floor_resolvent(block, cfg), "gap": gap_resolvent(block, cfg),
                      "lower_bob": lower_bob_rectangular(block, cfg)}
            for name in declared:
                value = CONTROL_ORACLES[name](block, cfg)
                values[name] = value[name] if isinstance(value, dict) else value
            if null_space:
                values["floor-null-space"] = floor_null_space(block, cfg)["floor"]
            return values

        values = collect(oracles, cfg, mc)
        for name, reference in values.items():
            assert reference.shape == (BLOCK + 44,)
            assert np.max(np.abs(reference - engine[name.split("-")[0]])) <= IDENTITY_ATOL, name
        assert len(values) == 3 + len(declared) + null_space
        block = next(trial_blocks(cfg, mc))[1]
        assert not gap_resolvent(block, replace(cfg, v_b=0, noise_eb=0.0)).any()
        with pytest.raises(InvalidNoise):
            gap_resolvent(block, replace(cfg, v_b=1, noise_eb=0.0))


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

    @pytest.fixture(scope="class")
    def bundled_run(self, tmp_path_factory):
        """run_verify("verify-default", ...) once: (summary, report path,
        wall time in seconds)."""
        import time
        from skcprobe.experiments import run_verify

        start = time.perf_counter()
        summary, report_path = run_verify("verify-default", tmp_path_factory.mktemp("verify"))
        return summary, report_path, time.perf_counter() - start

    def test_bundled_default_set_passes_quickly(self, bundled_run):
        summary, report_path, elapsed = bundled_run
        assert summary.passed

        def per_config(controls):
            return ["pilot-mi-exact", "pilot-mmse", "gap-form-equivalence",
                    "floor-form-equivalence",
                    *(f"{name}-form-equivalence" for name in controls.split()),
                    "lower-bob-form-equivalence", "gap-nonnegative", "one-way-identity",
                    "engine-reference-agreement", "wishart-mean", "fl-closed-form",
                    "fh-closed-form"]

        controls = ["t2 t3 t5 t1 u3 u1 fl fh p2 p3", "t2 t3 t5 t1 u3 u1 fl fh p2 p3",
                    "t2 t3 t5 t4 t1 u3 u1 fl fh p2 p3"]
        # cfg2's gammas are 4 apart: its floor has the closed form
        closed = [[], [], ["floor-closed-form"]]
        assert [o.check_name for o in summary.outcomes] == [
            "scalar-capacity-snr-0.1", "scalar-capacity-snr-1", "scalar-capacity-snr-10",
            "wishart-mean-siso"] + [f"cfg{i}:{name}" for i, names in enumerate(controls)
                                    for name in per_config(names) + closed[i]]
        assert summary.outcomes[-1].passed
        assert report_path.exists()
        # the report at the spec's seed and trials, byte for byte
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == \
            "55dafbad1756686427271ce0aff73c9e605a8c5392db0d474de2eb7b15f51ffb"
        assert elapsed < 120.0

    def test_every_check_the_readme_names_is_reported(self, bundled_run):
        import re
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        named = {name for name in re.findall(r"`([a-z0-9]+(?:-[a-z0-9.]+)+)`", readme)
                 if name.endswith("-equivalence") or name.startswith(("wishart-", "pilot-"))}
        reported = {o.check_name.split(":", 1)[-1] for o in bundled_run[0].outcomes}
        assert {"floor-form-equivalence", "wishart-mean", "pilot-mi-exact"} <= named
        assert named - reported == set()


def raw_mean_outcomes(config, mc, suffix):
    """raw_mean_check's outcomes at `config` whose check names end in
    `suffix`."""
    return [o for o in raw_mean_check(config, mc) if o.check_name.endswith(suffix)]


class TestEdgeFormCheck:
    """The edge controls' means are the floor's closed form
    (capacity._controls); verify compares their raw means on the engine's
    draws with it and sends them to no quadrature."""

    @pytest.mark.parametrize("overrides", [
        dict(), dict(n_a=3, n_b=2, n_e=4), dict(n_a=4, n_b=2, n_e=2), dict(n_a=2, n_b=3, n_e=1)],
        ids=["n_e-at-n_a", "n_e-above-n_a", "n_e-below-n_a", "n_b-above-n_a"])
    def test_edge_raw_means_are_within_four_stderr_of_the_form(self, overrides):
        cfg = make_config(**overrides)
        mc = McSettings(trials=4000, master_seed=1)
        outcomes = raw_mean_outcomes(cfg, mc, "-closed-form")
        values = trial_values_many([(cfg, ("fl", "fh"))], mc)[0]
        assert [o.check_name for o in outcomes] == ["fl-closed-form", "fh-closed-form"]
        for outcome, name in zip(outcomes, ("fl", "fh")):
            est = summarize(values[name])
            assert outcome.passed, name
            assert outcome.reference_value == edge_form(cfg, name)
            assert outcome.computed_value == est.mean and outcome.tolerance == 4 * est.stderr

    @pytest.mark.parametrize("shift,passed", [(3.0, True), (5.0, False)])
    def test_a_shifted_mean_fails_beyond_four_stderr(self, monkeypatch, shift, passed):
        cfg = make_config()
        mc = McSettings(trials=4000, master_seed=1)
        fh = trial_values_many([(cfg, ("fh",))], mc)[0]["fh"]
        form = edge_form(cfg, "fh")
        offset = form + shift * summarize(fh).stderr - summarize(fh).mean
        real = verify.trial_values_many

        def shifted(points, mc):
            values = real(points, mc)
            values[0]["fh"] = values[0]["fh"] + offset
            return values

        monkeypatch.setattr(verify, "trial_values_many", shifted)
        outcomes = {o.check_name: o for o in raw_mean_outcomes(cfg, mc, "-closed-form")}
        assert outcomes["fh-closed-form"].passed is passed
        assert outcomes["fl-closed-form"].passed

    def test_wishart_mean_names_the_edges_and_takes_no_quadrature_for_them(self, monkeypatch):
        cfg = make_config()
        terms = []
        for name in ("wishart_logdet_quadrature", "wishart_trace_quadrature",
                     "wishart_power_quadrature"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *args, real=real: (
                terms.append(args) or real(*args)))
        outcome = wishart_mean_check(cfg)
        assert outcome.passed
        assert "; fl (floor form, gamma_ea 0.666667); fh (floor form, gamma_ea 6); " \
            in outcome.detail
        assert len(terms) == len(_controls(cfg)) - 2


class TestFloorFormCheck:
    """Where evaluate takes the floor from its closed form
    (capacity._floor_plan), verify compares it with the raw mean of the
    floor's samples."""

    CLOSED = make_config(n_a=4, n_b=4, n_e=4, v_a=1, v_b=0, power_a=10.0, power_b=10.0,
                         noise_ea=0.0316227766017, rho=0.0)

    def test_the_form_is_within_four_stderr_of_the_raw_mean(self):
        mc = McSettings(trials=2000, master_seed=1)
        [outcome] = raw_mean_outcomes(self.CLOSED, mc, "floor-closed-form")
        raw = summarize(trial_values_many([(self.CLOSED, ("floor",))], mc)[0]["floor"])
        assert outcome.check_name == "floor-closed-form" and outcome.passed
        assert outcome.reference_value == closed_floor(self.CLOSED)
        assert outcome.computed_value == raw.mean and outcome.tolerance == 4 * raw.stderr

    def test_no_outcome_outside_the_domain(self):
        mc = McSettings(trials=200, master_seed=1)
        # gamma_ea and gamma_ba 2 and 2.997 apart
        assert raw_mean_outcomes(make_config(), mc, "floor-closed-form") == []
        assert raw_mean_outcomes(replace(self.CLOSED, noise_ea=1.001 / 3), mc,
                                 "floor-closed-form") == []

    @pytest.mark.parametrize("shift,passed", [(3.0, True), (5.0, False)])
    def test_a_shifted_form_fails_beyond_four_stderr(self, monkeypatch, shift, passed):
        mc = McSettings(trials=2000, master_seed=1)
        raw = summarize(trial_values_many([(self.CLOSED, ("floor",))], mc)[0]["floor"])
        monkeypatch.setattr(verify, "_floor_forms", shifted_forms(
            self.CLOSED, lambda form: raw.mean + shift * raw.stderr))
        [outcome] = raw_mean_outcomes(self.CLOSED, mc, "floor-closed-form")
        assert outcome.passed is passed


# fig1's three shapes, n_e below, at and above n_a (gamma_ba 10), at noise_ea
# 0, noise_b, two points inside the closed form's domain and one outside:
# the form of the floor's exact mean that the plan names at each
ONE_DECISION = [(shape, noise_ea, form)
                for shape, noiseless in (((8, 4, 6), "E t4"), ((4, 4, 4), "0"), ((8, 4, 10), "0"))
                for noise_ea, form in ((0.0, noiseless), (1.0, "E t5 - E t2"),
                                       (10.0, "closed form"), (0.0316227766017, "closed form"),
                                       (1.77827941004, None))]


@pytest.mark.parametrize("shape,noise_ea,form", ONE_DECISION,
                         ids=[f"{s[0]}-{s[1]}-{s[2]}@{v:g}" for s, v, _ in ONE_DECISION])
def test_evaluate_and_verify_read_one_decision(shape, noise_ea, form):
    # evaluate's floor is exact where the plan (capacity._plan) names a
    # form, at the plan's value, and verify checks the closed form against
    # the raw mean where the plan takes the floor from it, and only there
    n_a, n_b, n_e = shape
    cfg = make_config(n_a=n_a, n_b=n_b, n_e=n_e, v_a=1, v_b=0, power_a=10.0, power_b=10.0,
                      noise_ea=noise_ea, rho=0.0)
    mc = McSettings(trials=CV_MIN_TRIALS, master_seed=1)
    plan = _plan([cfg], {"floor"}, mc.trials)[0]
    assert plan.form == form
    floor = evaluate(cfg, mc, ("floor",))["floor"]
    assert (floor.method == "exact") == (plan.form is not None)
    if plan.form is not None:
        assert floor.mean == plan.exact["floor"]
    emitted = [o for o in raw_mean_check(cfg, mc) if o.check_name == "floor-closed-form"]
    assert [o.reference_value for o in emitted] == \
        ([plan.exact["floor"]] if form == "closed form" else [])


class TestWishartMeanCheck:
    """The closed-form Wishart log-det means against verify's quadrature."""

    def test_quadrature_oracle_is_the_scalar_capacity_at_one(self):
        assert wishart_logdet_quadrature(1, 1, 1.0) == pytest.approx(
            SCALAR_CAPACITY_AT_ONE, rel=1e-10)

    def test_suite_checks_both_floor_terms_per_config_and_the_scalar_case(self):
        configs = [make_config(), make_config(n_a=3, n_b=2, n_e=4, noise_ea=0.0)]
        summary = run_suite(configs, McSettings(trials=400, master_seed=1),
                            identity_realizations=100)
        by_name = {o.check_name: o for o in summary.outcomes}
        assert by_name["wishart-mean-siso"].passed
        assert "t2 (2x2, gamma 4); t3 (2x2, gamma 2)" in by_name["cfg0:wishart-mean"].detail
        # with a noiseless Eve t2 (gamma_ea = inf) is no control
        assert "t2 " not in by_name["cfg1:wishart-mean"].detail
        assert all(by_name[f"cfg{i}:wishart-mean"].passed for i in range(2))

    def test_a_skewed_closed_form_fails(self, monkeypatch):
        import skcprobe.verify as verify
        real = verify.wishart_logdet_mean
        monkeypatch.setattr(verify, "wishart_logdet_mean",
                            lambda *args: real(*args) * (1.0 + 1e-7))
        assert not wishart_mean_check(make_config()).passed
        assert not verify.wishart_siso_check(verify.SCALAR_CHECK_SNRS).passed

    def test_t4_term_is_checked_where_n_e_is_below_n_a(self, monkeypatch):
        cfg = make_config(n_a=4, n_b=2, n_e=1)
        outcome = wishart_mean_check(cfg)
        assert outcome.passed
        assert "t4 (2x3, gamma 2)" in outcome.detail
        assert "t4 " not in wishart_mean_check(make_config()).detail
        # a closed form skewed on t4's shape alone fails the check
        real = verify.wishart_logdet_mean
        monkeypatch.setattr(verify, "wishart_logdet_mean", lambda rows, cols, gamma: (
            real(rows, cols, gamma) * (1.0 + 1e-7 * ((rows, cols) == (2, 3)))))
        assert not wishart_mean_check(cfg).passed

    def test_t5_term_is_checked_where_eve_is_noisy(self, monkeypatch):
        cfg = make_config(n_a=4, n_b=2, n_e=3)
        outcome = wishart_mean_check(cfg)
        assert outcome.passed
        assert "t5 (5x4, gamma 2)" in outcome.detail
        # t5 is a control at noise_ea = 0 too
        assert "t5 (4x2, gamma 2)" in wishart_mean_check(make_config(noise_ea=0.0)).detail
        # a closed form skewed on t5's shape alone fails the check
        real = verify.wishart_logdet_mean
        monkeypatch.setattr(verify, "wishart_logdet_mean", lambda rows, cols, gamma: (
            real(rows, cols, gamma) * (1.0 + 1e-7 * ((rows, cols) == (5, 4)))))
        assert not wishart_mean_check(cfg).passed

    def test_t1_term_is_checked_where_eve_and_bob_hear_alice_at_two_snrs(self, monkeypatch):
        cfg = make_config(n_a=4, n_b=2, n_e=3)
        outcome = wishart_mean_check(cfg)
        assert outcome.passed
        # t2 at gamma_ea = 4 and t1 at gamma_ba = 2, both on g_a's shape
        assert "t2 (3x4, gamma 4)" in outcome.detail
        assert "t1 (3x4, gamma 2)" in outcome.detail
        # at noise_ea = noise_b t1 is declared too, on t2's term
        detail = wishart_mean_check(replace(cfg, noise_ea=1.0)).detail
        assert "t2 (3x4, gamma 2)" in detail and "t1 (3x4, gamma 2)" in detail
        # a closed form skewed on t1's term alone fails the check
        real = verify.wishart_logdet_mean
        monkeypatch.setattr(verify, "wishart_logdet_mean", lambda rows, cols, gamma: (
            real(rows, cols, gamma) * (1.0 + 1e-7 * ((rows, cols, gamma) == (3, 4, 2.0)))))
        assert not wishart_mean_check(cfg).passed

    def test_trace_means_are_checked_where_they_are_controls(self, monkeypatch):
        cfg = make_config(n_a=4, n_b=2, n_e=3)
        outcome = wishart_mean_check(cfg)
        assert outcome.passed and outcome.tolerance == 1e-8
        assert "; u3 (2x4, gamma 2); u1 (3x4, gamma 2);" in outcome.detail
        # at noise_ea = noise_b and at noise_ea = 0 they are controls too, as
        # the engine declares them
        for noise_ea in (1.0, 0.0):
            assert "; u3 (2x4, gamma 2); u1 (3x4, gamma 2);" in wishart_mean_check(
                replace(cfg, noise_ea=noise_ea)).detail
        # a closed form skewed on one shape fails the check
        real = verify.wishart_trace_mean
        monkeypatch.setattr(verify, "wishart_trace_mean", lambda rows, cols, gamma: (
            real(rows, cols, gamma) * (1.0 + 1e-7 * ((rows, cols) == (3, 4)))))
        assert not wishart_mean_check(cfg).passed

    def test_power_means_are_checked_at_every_config(self, monkeypatch):
        # E tr G = n_e n_a and E tr H = n_b n_a against the integral of x
        # under the eigenvalue density, at every noise_ea and power
        cfg = make_config(n_a=4, n_b=2, n_e=3)
        for config in (cfg, replace(cfg, noise_ea=0.0), replace(cfg, power_a=0.0)):
            outcome = wishart_mean_check(config)
            assert outcome.passed
            assert outcome.detail.endswith("; p2 (3x4); p3 (2x4)")
        assert verify.wishart_power_quadrature(3, 4) == pytest.approx(12.0, rel=1e-12)
        # the engine's mean, skewed on one term, fails the check
        real = verify._control_mean
        monkeypatch.setattr(verify, "_control_mean", lambda mean: (
            real(mean) * (1.0 + 1e-7 * (mean.kind == "power" and mean.args[0] == 2))))
        assert not wishart_mean_check(cfg).passed

    def test_trace_quadrature_is_exact_at_one_antenna(self):
        # E[g x / (1 + g x)], x ~ Exp(1), is 1 - e^(1/g) E1(1/g) / g
        for gamma in (0.1, 1.0, 10.0):
            expected = 1.0 - float(mpmath.exp(1 / gamma) * mpmath.e1(1 / gamma)) / gamma
            assert wishart_trace_quadrature(1, 1, gamma) == pytest.approx(expected, rel=1e-10)

    def test_terms_outside_the_domain_are_named_and_skipped(self):
        cfg = make_config(power_a=0.0)
        outcome = wishart_mean_check(cfg)
        assert outcome.passed
        # every log-det and trace term's gamma is 0; p2 and p3 have none
        # and the edges' gammas too: the config has none
        assert list(_controls(cfg)) == ["t2", "t3", "t5", "t1", "u3", "u1", "p2", "p3"]
        assert outcome.detail.count("outside the domain") == 6
        assert outcome.detail.endswith("outside the domain; p2 (2x2); p3 (2x2)")
