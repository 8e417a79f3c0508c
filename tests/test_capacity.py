"""Closed-form capacity quantities.

Frozen expected values and how they were obtained:

* log2(4/3) = 0.41503749927884382 and 6*log2(4/3) = 2.4902249956730629
  (30-digit mpmath, rounded to double).
* With both pilot SNR products equal to 1 and |rho| = 1 the reciprocity
  gain is (2*2)/(1+1+1) = 4/3 by direct substitution.
* Scalar floor: n_a=n_b=n_e=1, unit channels, gamma_ba=1, noise ratio 1
  gives log2(1 + 1/(1+1)) = log2(1.5) = 0.58496250072115618.
* Scalar gap: v_b=1, gamma_ab=1, weight 1, unit channels gives
  log2(3) - log2(2) = 0.58496250072115618.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcprobe import (
    Estimate,
    McSettings,
    ProbingConfig,
    RngStream,
    bound_gap,
    bound_gap_sample,
    config_at_power,
    dof_formula,
    dof_slope,
    dof_window_split,
    entropy_given_channel,
    lower_bound_alice,
    lower_bound_bob,
    lower_bound_bob_sample,
    mi_given_channel,
    pilot_mi,
    reciprocity_gain,
    sample_cgaussian,
    sample_channels,
    secrecy_floor,
    secrecy_floor_sample,
    skc_report,
    upper_bound,
)
from skcprobe.capacity import _floor_form, evaluate, trial_values
from skcprobe.errors import (
    GridTooSmall,
    InvalidNoise,
    OrderingViolation,
    SkcError,
    ValidationError,
)
from skcprobe.montecarlo import BLOCK, summarize, trial_blocks
from skcprobe.verify import IDENTITY_ATOL
from conftest import make_config, make_realization

LOG2_4_3 = 0.41503749927884382
LOG2_3_2 = 0.58496250072115618


def unit_product_config(**overrides):
    """Both pilot SNR products gamma*psi equal to 1."""
    params = dict(n_a=1, n_b=1, n_e=1, phi_a=2, phi_b=2,
                  power_a=0.5, power_b=0.5, rho=1.0)
    params.update(overrides)
    return make_config(**params)


class TestReciprocityGain:
    def test_uncorrelated_channels_give_unity(self):
        assert reciprocity_gain(make_config(rho=0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_unity_only_at_zero_rho(self):
        for rho in (0.1, 0.5, 0.9, 1.0):
            for power in (0.05, 1.0, 20.0):
                cfg = make_config(rho=rho, power_a=power, power_b=power)
                assert reciprocity_gain(cfg) > 1.0

    def test_hand_evaluated_four_thirds(self):
        assert reciprocity_gain(unit_product_config()) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_unbounded_growth_with_strong_pilots(self):
        # with |rho| = 1 and both products equal to s, the gain is
        # (s+1)^2/(2s+1): unbounded, asymptotically s/2
        last = 0.0
        for s in (1e2, 1e4, 1e6):
            cfg = make_config(n_a=1, n_b=1, phi_a=2, phi_b=2,
                              power_a=s / 2, power_b=s / 2, rho=1.0)
            gain = reciprocity_gain(cfg)
            assert gain > last
            assert gain / s == pytest.approx(0.5, rel=2e-2 if s < 1e3 else 2e-4)
            last = gain


class TestPilotMi:
    def test_zero_rho_zero_bits(self):
        assert pilot_mi(make_config(rho=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_scales_with_antenna_product(self):
        cfg = unit_product_config(n_a=2, n_b=3, phi_a=4, phi_b=6,
                                  power_a=0.25, power_b=1.0 / 6.0)
        # both products still 1: gamma_ba*psi_a = 0.25*4, gamma_ab*psi_b = 6/6
        assert pilot_mi(cfg) == pytest.approx(6 * LOG2_4_3, rel=1e-12)
        assert pilot_mi(cfg) == pytest.approx(2.4902249956730629, rel=1e-12)

    @pytest.mark.parametrize("power", [0.0, 1e-300])
    def test_zero_and_vanishing_power_give_zero_bits(self, power):
        for rho in (0.0, 0.9, 1.0):
            cfg = make_config(rho=rho, power_a=power, power_b=power)
            assert pilot_mi(cfg) == 0.0

    def test_one_silent_side_gives_zero_bits(self):
        assert pilot_mi(make_config(rho=1.0, power_a=0.0, power_b=1e160)) == 0.0


class TestPilotMiAtExtremePower:
    """Power 1e160 puts the SNR products sa = sb = 8e160 past the point
    where their product overflows."""

    @staticmethod
    def config(rho):
        return make_config(n_a=2, n_b=2, phi_a=8, phi_b=8,
                           power_a=1e160, power_b=1e160, rho=rho)

    def test_uncorrelated_is_zero(self):
        assert pilot_mi(self.config(0.0)) == 0.0

    def test_partial_reciprocity_saturates(self):
        # gain -> 1 / (1 - |rho|^2) once both products dominate
        assert pilot_mi(self.config(0.9)) == pytest.approx(
            4 * math.log2(1.0 / 0.19), rel=1e-12)

    def test_full_reciprocity_reaches_the_finite_limit(self):
        # gain -> sa sb / (sa + sb), evaluated in logs
        s = 8e160
        limit = 4 * (math.log2(s) + math.log2(s) - math.log2(2 * s))
        assert pilot_mi(self.config(1.0)) == pytest.approx(limit, rel=1e-12)

    def test_overflowing_products_with_full_reciprocity_are_rejected(self):
        # power/noise = 1e310 overflows: the pilot MI itself is infinite
        cfg = make_config(power_a=1e300, power_b=1e300, noise_a=1e-10,
                          noise_b=1e-10, rho=1.0)
        with pytest.raises(ValidationError, match="pilot MI is infinite"):
            pilot_mi(cfg)
        assert math.isfinite(pilot_mi(replace(cfg, rho=0.9)))


class TestMiGivenChannel:
    def test_zero_slots(self):
        assert mi_given_channel(np.eye(2), 1.0, 0) == 0.0

    def test_scalar_one_bit(self):
        assert mi_given_channel(np.array([[1.0]]), 1.0, 1) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 8), cols=st.integers(1, 8),
        gamma=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_push_through_equivalence(self, rows, cols, gamma, seed):
        # det(g H H^H + I_N) == det(g H^H H + I_K)
        h = sample_cgaussian(rows, cols, RngStream(seed, 0))
        assert abs(mi_given_channel(h, gamma, 1)
                   - mi_given_channel(h.conj().T, gamma, 1)) <= 1e-9

    def test_entropy_adds_gaussian_term(self):
        h = np.array([[1.0]])
        expected = math.log2(math.pi * math.e) + 1.0
        assert entropy_given_channel(h, 1.0, 1) == pytest.approx(expected, abs=1e-12)

    def test_mc_mean_matches_quadrature(self):
        # E{log2(1+|h|^2)} = 0.86034738227088595 (mpmath quadrature)
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        gen = RngStream(31, 0).generator()
        vals = [mi_given_channel(sample_channels(cfg, gen).h_ba, 1.0, 1)
                for _ in range(10_000)]
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(float(np.mean(vals)) - 0.86034738227088595) <= 3 * stderr


class TestSecrecyFloorSample:
    def test_scalar_hand_value(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1, power_a=1.0, noise_b=1.0, noise_ea=1.0)
        r = make_realization(h_ba=[[1.0]], g_a=[[1.0]], g_b=[[1.0]])
        for form in ("direct", "inverse"):
            assert secrecy_floor_sample(r, cfg, form) == pytest.approx(LOG2_3_2, abs=1e-12)

    def test_zero_probe_power(self):
        cfg = make_config(power_a=0.0)
        r = sample_channels(cfg, RngStream(1, 0))
        assert secrecy_floor_sample(r, cfg, "direct") == 0.0
        assert secrecy_floor_sample(r, cfg, "inverse") == 0.0

    def test_noiseless_eve_limit(self):
        cfg = make_config(noise_ea=0.0)
        r = sample_channels(cfg, RngStream(1, 0))
        assert secrecy_floor_sample(r, cfg, "inverse") == 0.0
        with pytest.raises(InvalidNoise):
            secrecy_floor_sample(r, cfg, "direct")

    def test_forms_agree_and_nonnegative(self, rng):
        cfg = make_config(n_a=3, n_b=2, n_e=4)
        for trial in range(50):
            r = sample_channels(cfg, RngStream(77, trial))
            d = secrecy_floor_sample(r, cfg, "direct")
            i = secrecy_floor_sample(r, cfg, "inverse")
            assert d >= 0.0 and i >= 0.0
            assert abs(d - i) <= 1e-9


class TestBoundGapSample:
    def test_scalar_hand_value(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1, v_b=1, power_b=1.0,
                          noise_a=1.0, noise_eb=1.0)
        r = make_realization(h_ba=[[1.0]], g_a=[[1.0]], g_b=[[1.0]])
        expected = math.log2(3.0) - math.log2(2.0)
        for form in ("stacked", "inverse"):
            assert bound_gap_sample(r, cfg, form) == pytest.approx(expected, abs=1e-12)

    def test_exactly_zero_without_bob_probes(self):
        cfg = make_config(v_b=0)
        r = sample_channels(cfg, RngStream(1, 0))
        assert bound_gap_sample(r, cfg, "stacked") == 0.0
        assert bound_gap_sample(r, cfg, "inverse") == 0.0

    def test_vanishes_when_eve_hears_bob_badly(self):
        # noise_a/noise_eb -> 0 removes Eve's contribution
        cfg = make_config(v_b=2, noise_a=1.0, noise_eb=1e12)
        r = sample_channels(cfg, RngStream(2, 0))
        assert bound_gap_sample(r, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_eve_diverges(self):
        cfg = make_config(v_b=1, noise_eb=0.0)
        r = sample_channels(cfg, RngStream(1, 0))
        with pytest.raises(InvalidNoise):
            bound_gap_sample(r, cfg)


class TestLowerBoundBob:
    def test_pilot_only_configuration(self):
        cfg = make_config(v_a=0, v_b=0)
        r = sample_channels(cfg, RngStream(3, 0))
        for form in ("square", "rectangular"):
            assert lower_bound_bob_sample(r, cfg, form) == pilot_mi(cfg)

    def test_one_way_identity_is_bitwise(self):
        cfg = make_config(v_a=1, v_b=0)
        for trial in range(100):
            r = sample_channels(cfg, RngStream(41, trial))
            expected = pilot_mi(cfg) + cfg.v_a * secrecy_floor_sample(r, cfg, "direct")
            assert lower_bound_bob_sample(r, cfg, "square") == expected

    def test_bob_probe_contribution_sign(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1, v_a=0, v_b=1, rho=0.0,
                          power_a=1.0, power_b=1.0, noise_a=1.0, noise_eb=1.0)
        strong_bob = make_realization(h_ba=[[2.0]], g_a=[[1.0]], g_b=[[0.1]])
        strong_eve = make_realization(h_ba=[[0.1]], g_a=[[1.0]], g_b=[[2.0]])
        assert lower_bound_bob_sample(strong_bob, cfg) > pilot_mi(cfg)
        assert lower_bound_bob_sample(strong_eve, cfg) < pilot_mi(cfg)

    def test_forms_agree(self):
        cfg = make_config(n_a=3, n_b=2, n_e=4, v_a=2, v_b=3)
        for trial in range(50):
            r = sample_channels(cfg, RngStream(53, trial))
            square = lower_bound_bob_sample(r, cfg, "square")
            rect = lower_bound_bob_sample(r, cfg, "rectangular")
            assert abs(square - rect) <= 1e-9


class TestBatchedIntegrands:
    @pytest.mark.parametrize("overrides", [
        dict(v_a=2, v_b=3, n_e=3),            # Bob probes too
        dict(noise_ea=0.0),                   # noiseless Eve on Alice's probes
        dict(rho=1.0),                        # perfect reciprocity
        dict(n_a=2, n_b=3, n_e=1, v_b=2),     # n_a < n_b
    ])
    def test_engine_matches_per_sample_forms_on_every_trial(self, overrides):
        cfg = make_config(**overrides)
        mc = McSettings(trials=BLOCK + 44, master_seed=43)
        engine = trial_values(cfg, mc, ("floor", "gap", "lower_bob"))
        for start, block in trial_blocks(cfg, mc):
            for j in range(block.trials_shape[0]):
                r = block[j]
                i = start + j
                assert abs(engine["floor"][i]
                           - secrecy_floor_sample(r, cfg, _floor_form(cfg))) <= IDENTITY_ATOL
                assert abs(engine["gap"][i] - bound_gap_sample(r, cfg)) <= IDENTITY_ATOL
                assert abs(engine["lower_bob"][i] - lower_bound_bob_sample(r, cfg)) <= IDENTITY_ATOL
        assert all(len(v) == mc.trials for v in engine.values())

    def test_stacked_forms_match_per_sample_forms(self):
        cfg = make_config(n_a=3, n_b=2, n_e=4, v_a=2, v_b=3)
        block = sample_channels(cfg, RngStream(61, 0), trials=40)
        pairs = [(secrecy_floor_sample, "direct"), (secrecy_floor_sample, "inverse"),
                 (bound_gap_sample, "stacked"), (bound_gap_sample, "inverse"),
                 (lower_bound_bob_sample, "square"), (lower_bound_bob_sample, "rectangular")]
        for fn, form in pairs:
            stacked = fn(block, cfg, form)
            assert stacked.shape == (40,)
            singles = [fn(block[j], cfg, form) for j in range(40)]
            assert np.max(np.abs(stacked - singles)) <= IDENTITY_ATOL

    def test_floor_alone_equals_floor_in_report(self):
        cfg = make_config(v_b=2)
        mc = McSettings(trials=BLOCK + 30, master_seed=47)
        assert secrecy_floor(cfg, mc) == skc_report(cfg, mc).floor
        assert evaluate(cfg, mc, ("floor",)) == \
            {"floor": evaluate(cfg, mc, ("floor", "gap", "lower", "upper"))["floor"]}

    def test_upper_is_lower_bob_plus_gap_per_sample(self):
        cfg = make_config(v_b=2)
        mc = McSettings(trials=BLOCK + 30, master_seed=53)
        values = trial_values(cfg, mc, ("gap", "lower_bob"))
        assert upper_bound(cfg, mc) == summarize(values["lower_bob"] + values["gap"])

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError, match="unknown quantities"):
            evaluate(make_config(), McSettings(trials=10), ("entropy",))


class TestRoleSymmetry:
    def test_symmetric_config_gives_identical_bounds(self):
        cfg = make_config(n_a=2, n_b=2, v_a=1, v_b=1, phi_a=16, phi_b=16,
                          power_a=2.0, power_b=2.0, noise_a=1.0, noise_b=1.0,
                          noise_ea=0.5, noise_eb=0.5, rho=0.8)
        mc = McSettings(trials=200, master_seed=7)
        assert lower_bound_alice(cfg, mc) == lower_bound_bob(cfg, mc)

    def test_double_swap_bitwise_identical(self):
        cfg = make_config()
        mc = McSettings(trials=150, master_seed=3)
        direct = lower_bound_bob(cfg, mc)
        double = lower_bound_bob(cfg.swap_roles().swap_roles(), mc)
        assert direct == double

    def test_one_way_coincidence_under_swap(self):
        # with v_a = 0 the Alice-side bound is the upper bound of the
        # role-swapped scenario, bit for bit on shared draws
        cfg = make_config(v_a=0, v_b=2)
        mc = McSettings(trials=300, master_seed=11)
        alice = lower_bound_alice(cfg, mc)
        swapped_upper = upper_bound(cfg.swap_roles(), mc)
        assert alice == swapped_upper
        # and it matches this scenario's upper bound within Monte Carlo noise
        upper = upper_bound(cfg, mc)
        assert abs(alice.mean - upper.mean) <= 3 * (alice.stderr + upper.stderr)


class TestSkcReport:
    def test_shared_draws_make_upper_exact(self):
        cfg = make_config()
        report = skc_report(cfg, McSettings(trials=300, master_seed=13))
        assert report.upper.mean == pytest.approx(
            report.lower_bob.mean + report.gap.mean, abs=1e-12)

    def test_one_way_bounds_coincide(self):
        cfg = make_config(v_a=2, v_b=0, noise_ea=0.25)
        report = skc_report(cfg, McSettings(trials=300, master_seed=17))
        assert report.gap.method == "exact" and report.gap.stderr == 0.0
        assert report.upper == report.lower_bob
        assert report.lower.mean == report.upper.mean

    def test_noiseless_eve_floor_is_exact_zero(self):
        cfg = make_config(noise_ea=0.0)
        report = skc_report(cfg, McSettings(trials=150, master_seed=19))
        assert report.floor == Estimate.exact(0.0)
        # the Alice-side bound diverges when Eve hears Alice noiselessly
        assert report.lower_alice.mean == -math.inf
        assert report.lower == report.lower_bob

    def test_bound_ordering_within_noise(self):
        cfg = make_config()
        report = skc_report(cfg, McSettings(trials=400, master_seed=23))
        slack = 3 * (report.lower.stderr + report.upper.stderr)
        assert report.upper.mean >= report.lower.mean - slack
        assert report.gap.mean >= -3 * report.gap.stderr

    def test_common_snr_rescaling_is_bit_identical(self):
        cfg = make_config()
        mc = McSettings(trials=200, master_seed=29)
        for factor in (4.0, 3.0):
            scaled = replace(cfg, power_a=cfg.power_a * factor, power_b=cfg.power_b * factor,
                             noise_a=cfg.noise_a * factor, noise_b=cfg.noise_b * factor,
                             noise_ea=cfg.noise_ea * factor, noise_eb=cfg.noise_eb * factor)
            assert skc_report(scaled, mc) == skc_report(cfg, mc)


@st.composite
def valid_configs(draw):
    """Small antenna counts, one- and two-way probing, powers from 1e-3 to
    1e200 (past the point where pilot SNR products overflow), noiseless or
    noisy eavesdroppers and reciprocity from none to perfect."""
    n_a, n_b, n_e = (draw(st.integers(1, 3)) for _ in range(3))
    power = st.floats(-3.0, 200.0).map(lambda e: 10.0 ** e)
    eve_noise = st.one_of(st.just(0.0), st.floats(0.1, 10.0))
    return ProbingConfig(
        n_a=n_a, n_b=n_b, n_e=n_e,
        v_a=draw(st.integers(0, 2)), v_b=draw(st.sampled_from((0, 1, 2))),
        phi_a=n_a + draw(st.integers(0, 4)), phi_b=n_b + draw(st.integers(0, 4)),
        power_a=draw(power), power_b=draw(power),
        noise_ea=draw(eve_noise), noise_eb=draw(eve_noise),
        rho=draw(st.one_of(st.sampled_from((0.0, 0.9, 1.0)), st.floats(0.0, 1.0))))


class TestRandomValidConfigs:
    @settings(max_examples=40, deadline=None)
    @given(config=valid_configs(), seed=st.integers(0, 2**32 - 1))
    def test_finite_or_named_error_and_shared_draw_identities(self, config, seed):
        assert math.isfinite(pilot_mi(config))
        mc = McSettings(trials=8, master_seed=seed)
        try:
            values = trial_values(config, mc, ("floor", "gap", "lower_bob"))
            upper = evaluate(config, mc, ("upper",))["upper"]
        except SkcError as exc:
            assert type(exc) is not SkcError
            return
        for v in values.values():
            assert v.shape == (8,) and np.isfinite(v).all()
        gap = values["gap"]
        assert (gap >= 0.0).all()
        if config.v_b == 0:
            assert (gap == 0.0).all()
        assert upper == summarize(values["lower_bob"] + gap)


class TestMonotonicity:
    def test_floor_nonincreasing_in_noise_ratio(self):
        # the floor shrinks as Eve's observation of Alice gets relatively
        # cleaner (noise_b/noise_ea grows); shared draws make this exact
        mc = McSettings(trials=400, master_seed=31)
        ratios = np.logspace(-1.5, 1.5, 9)
        means = []
        for ratio in ratios:
            cfg = make_config(noise_b=1.0, noise_ea=1.0 / ratio)
            means.append(secrecy_floor(cfg, mc).mean)
        for a, b in zip(means, means[1:]):
            assert b <= a + 1e-12


class TestDofFormula:
    def test_fig2_tuples(self):
        cfg = make_config(n_a=8, n_b=4, n_e=6, v_a=1, v_b=0, rho=0.0,
                          phi_a=800, phi_b=400)
        assert dof_formula(cfg) == 2
        assert dof_formula(replace(cfg, n_e=10)) == 0

    def test_reciprocal_pilot_term(self):
        cfg = make_config(n_a=3, n_b=2, n_e=2, v_a=0, v_b=0, rho=1.0, phi_a=16, phi_b=16)
        assert dof_formula(cfg) == 6

    def test_ordering_guard(self):
        cfg = make_config(n_a=2, n_b=3, n_e=1, phi_a=16, phi_b=16)
        with pytest.raises(OrderingViolation):
            dof_formula(cfg)
        assert dof_formula(cfg, auto_swap=True) == dof_formula(cfg.swap_roles())

    def test_window_split_maximizer(self):
        cfg = make_config(n_a=8, n_b=4, n_e=6, v_a=2, v_b=2, rho=0.0,
                          phi_a=800, phi_b=400)
        best_va, best_vb, best, table = dof_window_split(cfg, 4)
        assert (best_va, best_vb, best) == (4, 0, 8)
        assert len(table) == 5
        assert table[0][2] == 0  # all slots to Bob: (4-6)^+ contributions vanish


class TestDofSlope:
    @staticmethod
    def exact_quantity(fn):
        def evaluator(config):
            return Estimate.exact(fn(config))
        return evaluator

    def test_constant_quantity_has_zero_slope(self):
        cfg = make_config(power_a=1.0, power_b=1.0)
        result = dof_slope(self.exact_quantity(lambda c: 5.0), cfg,
                           [1, 10, 100, 1000, 10_000])
        assert result.slope == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_log_power_has_unit_slope(self):
        cfg = make_config(power_a=1.0, power_b=1.0)
        result = dof_slope(self.exact_quantity(lambda c: math.log2(c.power_a)), cfg,
                           [1, 10, 100, 1000, 10_000])
        assert result.slope == pytest.approx(1.0, abs=1e-9)
        assert result.fit_residual < 1e-9

    def test_grid_validation(self):
        cfg = make_config()
        q = self.exact_quantity(lambda c: 0.0)
        with pytest.raises(GridTooSmall):
            dof_slope(q, cfg, [1, 10, 100])           # too few points
        with pytest.raises(GridTooSmall):
            dof_slope(q, cfg, [1, 10, 10, 100])       # not strictly increasing
        with pytest.raises(GridTooSmall):
            dof_slope(q, cfg, [1, 2, 4, 8])           # under three decades

    def test_power_scaling_applies_to_both_sides(self):
        cfg = make_config(power_a=2.0, power_b=0.5)
        scaled = config_at_power(cfg, 8.0)
        assert scaled.power_a == 16.0 and scaled.power_b == 4.0

    @pytest.mark.parametrize("na,nb,ne,va,vb,rho,expected", [
        (2, 1, 1, 1, 0, 0.0, 1),
        (2, 2, 1, 1, 1, 0.0, 2),
        (2, 1, 3, 1, 1, 1.0, 2),
    ])
    def test_lower_bound_slope_matches_formula(self, na, nb, ne, va, vb, rho, expected):
        cfg = make_config(n_a=na, n_b=nb, n_e=ne, v_a=va, v_b=vb, rho=rho,
                          phi_a=max(100 * na, 64), phi_b=max(100 * nb, 64),
                          power_a=1.0, power_b=1.0, noise_a=1.0, noise_b=1.0,
                          noise_ea=1.0, noise_eb=1.0)
        assert dof_formula(cfg) == expected
        mc = McSettings(trials=2000, master_seed=37)

        def quantity(config):
            return lower_bound_bob(config, mc)

        result = dof_slope(quantity, cfg, [2.0 ** e for e in range(8, 21, 2)])
        assert result.slope == pytest.approx(expected, abs=0.2)


class TestStandaloneEstimators:
    def test_floor_estimate_positive(self):
        cfg = make_config()
        est = secrecy_floor(cfg, McSettings(trials=400, master_seed=41))
        assert est.mean > 3 * est.stderr

    def test_gap_exact_zero_short_circuit(self):
        cfg = make_config(v_b=0)
        assert bound_gap(cfg, McSettings(trials=50, master_seed=1)) == Estimate.exact(0.0)
