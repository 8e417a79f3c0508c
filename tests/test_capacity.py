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
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcprobe import (
    Estimate,
    McSettings,
    ProbingConfig,
    RngStream,
    bound_gap_sample,
    config_at_power,
    dof_formula,
    dof_slope,
    dof_window_split,
    evaluate,
    evaluate_many,
    lower_bound_bob_sample,
    pilot_mi,
    reciprocity_gain,
    sample_cgaussian,
    sample_channels,
    secrecy_floor_sample,
    wishart_logdet_mean,
)
from skcprobe.capacity import (
    FLOOR_FORM_RATIO,
    QUANTITIES,
    SAMPLED,
    Grams,
    _alice_bound_diverges,
    trial_values_many,
)
from skcprobe.channel import derive_gammas
from skcprobe.errors import (
    GridTooSmall,
    IntegrandFailure,
    InvalidNoise,
    NotPositiveDefinite,
    OrderingViolation,
    SkcError,
    ValidationError,
)
from skcprobe.experiments import apply_parameter, load_spec
from skcprobe.montecarlo import BLOCK, collect, summarize, trial_blocks
from skcprobe.verify import (IDENTITY_ATOL, floor_resolvent, gap_resolvent,
                             lower_bob_rectangular)
from conftest import (capacity_logdet, closed_floor, engine_correction, engine_means,
                      exact_floor, make_config, make_realization, scaled)

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
    """MI of a Gaussian probe through a known channel (conftest.capacity_logdet)."""

    def test_scalar_one_bit(self):
        assert capacity_logdet(np.array([[1.0]]), 1.0) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 8), cols=st.integers(1, 8),
        gamma=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_push_through_equivalence(self, rows, cols, gamma, seed):
        # det(g H H^H + I_N) == det(g H^H H + I_K)
        h = sample_cgaussian(rows, cols, RngStream(seed, 0))
        assert abs(capacity_logdet(h, gamma) - capacity_logdet(h.conj().T, gamma)) <= 1e-9

    def test_mc_mean_matches_quadrature(self):
        # E{log2(1+|h|^2)} = 0.86034738227088595 (mpmath quadrature)
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        block = sample_channels(cfg, RngStream(31, 0), trials=10_000)
        vals = capacity_logdet(block.h_ba, 1.0)
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(float(np.mean(vals)) - 0.86034738227088595) <= 3 * stderr


class TestSecrecyFloorSample:
    def test_scalar_hand_value(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1, power_a=1.0, noise_b=1.0, noise_ea=1.0)
        r = make_realization(h_ba=[[1.0]], g_a=[[1.0]], g_b=[[1.0]])
        for form in (secrecy_floor_sample, floor_resolvent):
            assert form(r, cfg) == pytest.approx(LOG2_3_2, abs=1e-12)

    def test_zero_probe_power(self):
        cfg = make_config(power_a=0.0)
        r = sample_channels(cfg, RngStream(1, 0))
        assert secrecy_floor_sample(r, cfg) == 0.0
        assert floor_resolvent(r, cfg) == 0.0

    def test_noiseless_eve_limit(self):
        cfg = make_config(noise_ea=0.0)
        r = sample_channels(cfg, RngStream(1, 0))
        block = sample_channels(cfg, RngStream(1, 0), trials=5)
        for form in (secrecy_floor_sample, floor_resolvent):
            assert form(r, cfg) == 0.0 and type(form(r, cfg)) is float
            assert np.array_equal(form(block, cfg), np.zeros(5))

    def test_forms_agree_and_nonnegative(self, rng):
        cfg = make_config(n_a=3, n_b=2, n_e=4)
        for trial in range(50):
            r = sample_channels(cfg, RngStream(77, trial))
            d = secrecy_floor_sample(r, cfg)
            i = floor_resolvent(r, cfg)
            assert d >= 0.0 and i >= 0.0
            assert abs(d - i) <= 1e-9


class TestBoundGapSample:
    def test_scalar_hand_value(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1, v_b=1, power_b=1.0,
                          noise_a=1.0, noise_eb=1.0)
        r = make_realization(h_ba=[[1.0]], g_a=[[1.0]], g_b=[[1.0]])
        expected = math.log2(3.0) - math.log2(2.0)
        for form in (bound_gap_sample, gap_resolvent):
            assert form(r, cfg) == pytest.approx(expected, abs=1e-12)

    def test_exactly_zero_without_bob_probes(self):
        cfg = make_config(v_b=0)
        r = sample_channels(cfg, RngStream(1, 0))
        assert bound_gap_sample(r, cfg) == 0.0
        assert gap_resolvent(r, cfg) == 0.0

    def test_vanishes_when_eve_hears_bob_badly(self):
        # noise_a/noise_eb -> 0 removes Eve's contribution
        cfg = make_config(v_b=2, noise_a=1.0, noise_eb=1e12)
        r = sample_channels(cfg, RngStream(2, 0))
        assert bound_gap_sample(r, cfg) == pytest.approx(0.0, abs=1e-9)
        assert gap_resolvent(r, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_eve_diverges(self):
        cfg = make_config(v_b=1, noise_eb=0.0)
        r = sample_channels(cfg, RngStream(1, 0))
        for form in (bound_gap_sample, gap_resolvent):
            with pytest.raises(InvalidNoise):
                form(r, cfg)


class TestLowerBoundBob:
    def test_pilot_only_configuration(self):
        cfg = make_config(v_a=0, v_b=0)
        r = sample_channels(cfg, RngStream(3, 0))
        for form in (lower_bound_bob_sample, lower_bob_rectangular):
            assert form(r, cfg) == pilot_mi(cfg)

    def test_one_way_identity_is_bitwise(self):
        cfg = make_config(v_a=1, v_b=0)
        for trial in range(100):
            r = sample_channels(cfg, RngStream(41, trial))
            expected = pilot_mi(cfg) + cfg.v_a * secrecy_floor_sample(r, cfg)
            assert lower_bound_bob_sample(r, cfg) == expected

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
            square = lower_bound_bob_sample(r, cfg)
            rect = lower_bob_rectangular(r, cfg)
            assert abs(square - rect) <= 1e-9


def mp_probe_terms(r, cfg) -> np.ndarray:
    """v_b (log2det(I + gamma_ab H_ab) - log2det(I + gamma_eb G_b)), H_ab and
    G_b the Grams of h_ab and g_b, of each trial of a block in 50-digit
    mpmath, from n_b-square determinants of the exact draws and gammas."""
    gam = derive_gammas(cfg)
    out = []
    with mpmath.workdps(50):
        for j in range(r.trials_shape[0]):
            terms = []
            for gamma, name in ((gam.gamma_ab, "h_ab"), (gam.gamma_eb, "g_b")):
                m = mpmath.matrix(getattr(r, name)[j].tolist())
                det = mpmath.det(mpmath.eye(cfg.n_b) + gamma * (m.transpose_conj() * m))
                terms.append(mpmath.log(mpmath.re(det), 2))
            out.append(float(cfg.v_b * (terms[0] - terms[1])))
    return np.array(out)


# n_e < n_b and a high SNR at Eve for Bob's probes: an n_b-square log-det of
# g_b's rank-n_e Gram loses digits there, the leading n_e block of the
# role-swapped floor's stacked factorization does not.  v_a = 0 keeps the
# stacked floor's own error at high gamma_ba out of the comparison
PROBE_ACCURACY = {
    "(4,4,2)": ProbingConfig(n_a=4, n_b=4, n_e=2, v_a=0, v_b=1, power_a=1e5, power_b=1e5,
                             noise_ea=1e-6, noise_eb=1e-6, rho=0.5),
    "(3,5,2)": ProbingConfig(n_a=3, n_b=5, n_e=2, v_a=0, v_b=1, power_a=1e4, power_b=1e4,
                             noise_eb=0.01, rho=0.5),
}


class TestProbeTermsAccuracy:
    """The Bob-side bound's v_b terms, t3' - t2' of the role-swapped
    scenario, and the Alice side's v_a terms against 50-digit mpmath."""

    @pytest.mark.parametrize("name", PROBE_ACCURACY)
    def test_bob_side_against_mpmath(self, name):
        cfg = PROBE_ACCURACY[name]
        _, block = next(trial_blocks(cfg, McSettings(trials=16, master_seed=3)))
        engine = lower_bound_bob_sample(block, cfg) - pilot_mi(cfg)
        assert np.max(np.abs(engine - mp_probe_terms(block, cfg))) <= 1e-10

    @pytest.mark.parametrize("name", PROBE_ACCURACY)
    def test_alice_side_of_the_mirror_against_mpmath(self, name):
        # the mirror's Alice side is the config's Bob-side bound on the
        # swapped draws: its v_a terms are the config's v_b terms
        cfg = PROBE_ACCURACY[name]
        mirror = cfg.swap_roles()
        mc = McSettings(trials=16, master_seed=3)
        alice = trial_values_many([(mirror, ("lower_alice",))], mc)[0]["lower_alice"]
        _, block = next(trial_blocks(mirror, mc))
        reference = mp_probe_terms(block.swap_roles(), cfg)
        assert np.max(np.abs(alice - pilot_mi(cfg) - reference)) <= 1e-10


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
        # the Alice-side bound is sampled unless it is the exact -inf
        alice_sampled = not (cfg.noise_ea == 0 and cfg.v_a > 0)
        names = ("floor", "gap", "lower_bob") + (("lower_alice",) if alice_sampled else ())
        engine = trial_values_many([(cfg, names)], mc)[0]
        for start, block in trial_blocks(cfg, mc):
            for j in range(block.trials_shape[0]):
                r = block[j]
                i = start + j
                assert abs(engine["floor"][i]
                           - secrecy_floor_sample(r, cfg)) <= IDENTITY_ATOL
                assert abs(engine["gap"][i] - bound_gap_sample(r, cfg)) <= IDENTITY_ATOL
                assert abs(engine["lower_bob"][i] - lower_bound_bob_sample(r, cfg)) <= IDENTITY_ATOL
                if alice_sampled:
                    assert abs(engine["lower_alice"][i] - lower_bound_bob_sample(
                        r.swap_roles(), cfg.swap_roles())) <= IDENTITY_ATOL
        assert set(engine) == set(names)
        assert all(len(v) == mc.trials for v in engine.values())

    def test_stacked_forms_match_per_sample_forms(self):
        cfg = make_config(n_a=3, n_b=2, n_e=4, v_a=2, v_b=3)
        block = sample_channels(cfg, RngStream(61, 0), trials=40)
        forms = [secrecy_floor_sample, floor_resolvent, bound_gap_sample, gap_resolvent,
                 lower_bound_bob_sample, lower_bob_rectangular]
        for form in forms:
            stacked = form(block, cfg)
            assert stacked.shape == (40,)
            singles = [form(block[j], cfg) for j in range(40)]
            assert np.max(np.abs(stacked - singles)) <= IDENTITY_ATOL

    def test_floor_alone_equals_floor_in_report(self):
        cfg = make_config(v_b=2)
        mc = McSettings(trials=BLOCK + 30, master_seed=47)
        assert evaluate(cfg, mc, ("floor",))["floor"] == evaluate(cfg, mc, QUANTITIES)["floor"]
        assert evaluate(cfg, mc, ("floor",)) == \
            {"floor": evaluate(cfg, mc, ("floor", "gap", "lower", "upper"))["floor"]}

    def test_upper_is_lower_bob_plus_gap_per_sample(self):
        # on the adjusted samples: lower_bob less v_a times the floor's
        # control-variate correction (see TestControlVariates)
        cfg = make_config(v_b=2)
        mc = McSettings(trials=BLOCK + 30, master_seed=53)
        means = engine_means(cfg)
        values = trial_values_many([(cfg, ("gap", "lower_bob", "floor") + tuple(means))],
                                   mc)[0]
        correction, factor = engine_correction(values["floor"], values, means)
        assert evaluate(cfg, mc, ("upper",))["upper"] == scaled(
            summarize((values["lower_bob"] - cfg.v_a * correction) + values["gap"]), factor)

    def test_one_collect_pass_for_any_request(self, monkeypatch):
        import skcprobe.capacity as capacity
        calls = []

        def counting_collect(*args):
            calls.append(args)
            return collect(*args)

        monkeypatch.setattr(capacity, "collect", counting_collect)
        cfg = make_config(v_b=2)
        mc = McSettings(trials=BLOCK + 30, master_seed=59)
        for quantities in (("lower", "upper"), QUANTITIES):
            calls.clear()
            evaluate(cfg, mc, quantities)
            assert len(calls) == 1, quantities

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError, match="unknown quantities"):
            evaluate(make_config(), McSettings(trials=10), ("entropy",))


def _conj_t(m):
    return np.swapaxes(m, -1, -2).conj()


def _hermitize(m):
    return (m + _conj_t(m)) / 2.0


def _cholesky_logdet(m, start=0, stop=None):
    """log2 det of m, or the part of it from the Cholesky factor's diagonal
    entries start .. stop: from `start` on, the trailing block's Schur
    complement; up to `stop`, the leading block."""
    diag = np.real(np.diagonal(np.linalg.cholesky(m), axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log2(diag)[..., start:stop], axis=-1)


def textbook_role_logdets(r, cfg):
    """The log-dets of cfg's role as plain expressions, one fresh array per
    step, in the engine's form for its regime: t2, t3, the unclamped floor
    and the joint log-det S = log2det(I + gamma_ea G + gamma_ba H).  Where
    n_e < n_a: t2 and the floor are the leading and trailing log-dets of B =
    I + S S^H with S = [sqrt(gamma_ea) g_a; sqrt(gamma_ba) h_ba], built as
    the Gram K of [g_a; h_ba] times the exact block factors gamma_ea,
    sqrt(gamma_ea) sqrt(gamma_ba) and gamma_ba, S is their sum, and t3 is
    the leading log-det of I + gamma_ba K with K's blocks reordered to
    [h_ba; g_a]; otherwise n_a x n_a log-dets, S with h_ba's Gram folded
    into g_a's at weight noise_ea/noise_b and the floor S - t2."""
    gam = derive_gammas(cfg)
    if cfg.n_e < cfg.n_a:
        stacked = np.concatenate([r.g_a, r.h_ba], axis=-2)
        gram = _hermitize(stacked @ _conj_t(stacked))
        eye = np.eye(cfg.n_e + cfg.n_b)
        scale = np.full(gram.shape[-2:], np.sqrt(gam.gamma_ea) * np.sqrt(gam.gamma_ba))
        scale[:cfg.n_e, :cfg.n_e] = gam.gamma_ea
        scale[cfg.n_e:, cfg.n_e:] = gam.gamma_ba
        t2 = _cholesky_logdet(scale * gram + eye, 0, cfg.n_e)
        floor = _cholesky_logdet(scale * gram + eye, cfg.n_e)
        order = np.r_[np.arange(cfg.n_e, cfg.n_e + cfg.n_b), np.arange(cfg.n_e)]
        t3 = _cholesky_logdet(gam.gamma_ba * gram[..., order[:, None], order] + eye,
                              0, cfg.n_b)
        return {"t2": t2, "t3": t3, "floor": floor, "joint": t2 + floor}
    eye = np.eye(cfg.n_a)
    gram_e = _hermitize(_conj_t(r.g_a) @ r.g_a)
    gram_h = _hermitize(_conj_t(r.h_ba) @ r.h_ba)
    joint = _cholesky_logdet(gam.gamma_ea * (gram_e + (cfg.noise_ea / cfg.noise_b) * gram_h)
                             + eye)
    t2 = _cholesky_logdet(gam.gamma_ea * gram_e + eye)
    return {"t2": t2, "t3": _cholesky_logdet(gam.gamma_ba * gram_h + eye),
            "floor": joint - t2, "joint": joint}


def textbook_floor(r, cfg):
    """The floor as a plain expression."""
    return np.maximum(textbook_role_logdets(r, cfg)["floor"], 0.0)


def textbook_lower_bob(r, cfg):
    """The Bob-side bound on the direct floor, its v_b terms t3 - t2 of the
    role-swapped scenario, as a plain expression."""
    swapped = textbook_role_logdets(r.swap_roles(), cfg.swap_roles())
    return (pilot_mi(cfg) + cfg.v_a * textbook_floor(r, cfg)
            + cfg.v_b * (swapped["t3"] - swapped["t2"]))


def textbook_gap(r, cfg):
    """The gap v_b (S - t3) of the role-swapped scenario as a plain
    expression."""
    swapped = textbook_role_logdets(r.swap_roles(), cfg.swap_roles())
    return np.maximum(cfg.v_b * (swapped["joint"] - swapped["t3"]), 0.0)


# (8, 4, 6) is fig1's first case, with 8 x 8 stacks; (6, 4, 5) with both
# probes is the benchmark's two-way scenario (9 x 9 stacks for the floor,
# 4 x 4 for the role-swapped one); (2, 8, 6) puts the 8 x 8 stacks on Bob's
# side, where n_e < n_b gives the role-swapped floor, and with it the gap
# and the v_b terms, the stacked form
TEXTBOOK_CONFIGS = {
    "fig1": dict(n_a=8, n_b=4, n_e=6, v_a=1, v_b=0, power_a=10.0, power_b=10.0,
                 noise_ea=0.3, rho=0.0),
    "twoway": dict(n_a=6, n_b=4, n_e=5, v_a=2, v_b=3, power_a=10.0, power_b=10.0,
                   noise_ea=0.3, noise_eb=2.0, rho=0.7),
    "bob-wider": dict(n_a=2, n_b=8, n_e=6, v_a=1, v_b=2, power_b=30.0),
}


class TestTextbookArithmetic:
    """Every integrand equals its plain expression bit for bit, and nothing
    it returns is overwritten by a later integrand on the same Gram store."""

    @pytest.mark.parametrize("name", sorted(TEXTBOOK_CONFIGS))
    def test_integrands_equal_their_textbook_expressions(self, name):
        cfg = make_config(**TEXTBOOK_CONFIGS[name])
        block = sample_channels(cfg, RngStream(71, 0), trials=BLOCK)
        for r in (block, block[0], block[BLOCK - 1]):
            assert np.array_equal(secrecy_floor_sample(r, cfg), textbook_floor(r, cfg))
            assert np.array_equal(lower_bound_bob_sample(r, cfg), textbook_lower_bob(r, cfg))
            if cfg.v_b:
                assert np.array_equal(bound_gap_sample(r, cfg), textbook_gap(r, cfg))

    @pytest.mark.parametrize("name", sorted(TEXTBOOK_CONFIGS))
    def test_engine_points_equal_their_textbook_expressions(self, name):
        # three points on shared draws and one Gram store per block, each
        # with every integrand including the role-swapped bound
        base = make_config(**TEXTBOOK_CONFIGS[name])
        configs = [base, replace(base, power_a=3.0, noise_ea=0.05),
                   replace(base, power_b=0.5, noise_eb=0.4)]
        mc = McSettings(trials=BLOCK + 7, master_seed=73)
        points = trial_values_many([(c, SAMPLED) for c in configs], mc)
        for cfg, values in zip(configs, points):
            expected = {"floor": [], "lower_bob": [], "gap": [], "lower_alice": []}
            for _, block in trial_blocks(cfg, mc):
                expected["floor"].append(textbook_floor(block, cfg))
                expected["lower_bob"].append(textbook_lower_bob(block, cfg))
                expected["gap"].append(textbook_gap(block, cfg) if cfg.v_b
                                       else np.zeros(block.trials_shape))
                expected["lower_alice"].append(
                    textbook_lower_bob(block.swap_roles(), cfg.swap_roles()))
            for q in SAMPLED:
                assert np.array_equal(values[q], np.concatenate(expected[q])), (cfg, q)

    def test_returned_values_survive_later_points_and_the_swapped_view(self):
        cfg = make_config(**TEXTBOOK_CONFIGS["twoway"])
        other = replace(cfg, power_a=0.5, power_b=20.0, noise_ea=2.0)
        block = sample_channels(cfg, RngStream(79, 0), trials=BLOCK)
        grams = Grams(block)
        swapped = grams.swap_roles()
        first = [secrecy_floor_sample(block, cfg, grams=grams),
                 lower_bound_bob_sample(block, cfg, grams=grams),
                 bound_gap_sample(block, cfg, grams=grams),
                 lower_bound_bob_sample(block.swap_roles(), cfg.swap_roles(), grams=swapped)]
        kept = [v.copy() for v in first]
        secrecy_floor_sample(block, other, grams=grams)
        lower_bound_bob_sample(block, other, grams=grams)
        bound_gap_sample(block, other, grams=grams)
        lower_bound_bob_sample(block.swap_roles(), other.swap_roles(), grams=swapped)
        for value, copy in zip(first, kept):
            assert np.array_equal(value, copy)

    @pytest.mark.parametrize("shape", [(4, 4, 2), (2, 3, 3)], ids=["n_e<n_a", "n_e>=n_a"])
    def test_every_array_it_hands_out_is_read_only(self, shape):
        # every value a Grams method keeps is shared with later callers, so
        # none of them may be written through, Gram products included; each
        # shape keeps both roles in one regime, and (2, 3, 3) takes both of
        # bob_interaction_trace's branches
        n_a, n_b, n_e = shape
        block = sample_channels(make_config(n_a=n_a, n_b=n_b, n_e=n_e), RngStream(5, 0),
                                trials=6)
        grams = Grams(block)
        for role in (grams, grams.swap_roles()):
            values = [role["g_a"], role["h_ba"], role._gram("h_ba", True), role.power("g_a"),
                      role.identity_logdet("g_a", 0.5), role.identity_logdet("h_ba", 2.0)]
            if n_e < n_a:
                values += [role._stacked(), *role.floor_logdets(0.5, 2.0),
                           role.null_logdet(2.0), *role.eve_joint_logdets(2.0),
                           *role.bob_joint_logdets(2.0)]
            else:
                values += [role._times(), role.interaction_trace(2.0),
                           role.bob_interaction_trace(2.0), role.folded_logdet(0.5, 4.0)]
            for value in values:
                assert isinstance(value, np.ndarray) and not value.flags.writeable


class TestEvaluateMany:
    """The batched path equals one-config evaluate bit for bit, point by
    point, however its configs group into shared draws."""

    @staticmethod
    def assert_equals_one_config_evaluate(configs, mc, quantities):
        batched = evaluate_many(configs, mc, quantities)
        assert len(batched) == len(configs)
        for config, point in zip(configs, batched):
            assert point == evaluate(config, mc, quantities), config
        # every integrand, except the Alice-side bound where it is the exact -inf
        points = [(c, [n for n in SAMPLED if n in quantities
                       and not (n == "lower_alice" and _alice_bound_diverges(c))])
                  for c in configs]
        for (config, names), values in zip(points, trial_values_many(points, mc)):
            single = trial_values_many([(config, names)], mc)[0]
            assert values.keys() == single.keys()
            for name in values:
                assert np.array_equal(values[name], single[name]), (config, name)
        return batched

    def test_fig1_noise_grid_with_noiseless_eve(self):
        spec = load_spec("fig1")
        base = replace(spec.base, n_e=6)
        configs = [replace(base, noise_ea=float(v)) for v in spec.sweep.values + (0.0,)]
        mc = McSettings(trials=BLOCK + 30, master_seed=3)
        batched = self.assert_equals_one_config_evaluate(configs, mc, QUANTITIES)
        # where n_e < n_a the noiseless-Eve floor is E t4, not 0, and at
        # noise_ea = noise_b it is E t5 - E t2
        gamma = derive_gammas(base).gamma_ba
        assert batched[-1]["floor"] == Estimate.exact(wishart_logdet_mean(4, 2, gamma))
        equal = spec.sweep.values.index(1.0)
        assert batched[equal]["floor"] == Estimate.exact(
            wishart_logdet_mean(10, 8, gamma) - wishart_logdet_mean(6, 8, gamma))
        # where gamma_ea and gamma_ba are FLOOR_FORM_RATIO or more apart it
        # is the closed form, and elsewhere the per-sample direct form over
        # the blocks, less its control-variate correction, summarized, with
        # the regression's stderr factor
        closed = [v for v in spec.sweep.values if max(v, 1 / v) >= FLOOR_FORM_RATIO]
        assert len(closed) == 10
        for config, point in zip(configs[:-1], batched):
            if config.noise_ea == config.noise_b:
                continue
            if config.noise_ea in closed:
                assert point["floor"] == Estimate.exact(closed_floor(config))
                continue
            direct = np.concatenate([secrecy_floor_sample(block, config)
                                     for _, block in trial_blocks(config, mc)])
            means = engine_means(config)
            controls = trial_values_many([(config, tuple(means))], mc)[0]
            correction, factor = engine_correction(direct, controls, means)
            assert point["floor"] == scaled(summarize(direct - correction), factor)

    @pytest.mark.parametrize("trials", [200, BLOCK + 30])
    def test_fig1_cases_share_the_stacked_solve(self, trials):
        # at either count the n_e < n_a case regresses on seven controls and
        # the others on six, so of the 15 points the 12 whose floor is not
        # exact (at noise_ea = noise_b it is) are solved in two stacks,
        # within one block and across two
        spec = load_spec("fig1")
        configs = [apply_parameter(case.config, "noise_ea", v)
                   for case in spec.cases for v in spec.sweep.values[::3]]
        mc = McSettings(trials=trials, master_seed=37)
        self.assert_equals_one_config_evaluate(configs, mc, ("floor", "lower"))

    def test_fig2_power_grid(self):
        spec = load_spec("fig2")
        configs = [config_at_power(spec.base, p) for p in spec.power_grid]
        mc = McSettings(trials=BLOCK + 30, master_seed=5)
        self.assert_equals_one_config_evaluate(configs, mc, ("floor", "lower_bob", "upper"))

    def test_two_way_every_quantity(self):
        base = make_config(n_a=3, n_b=2, n_e=2, v_a=2, v_b=1, rho=0.7)
        configs = [base, replace(base, noise_eb=0.25), replace(base, power_a=40.0),
                   replace(base, v_a=0), replace(base, noise_ea=0.0)]
        mc = McSettings(trials=BLOCK + 30, master_seed=7)
        self.assert_equals_one_config_evaluate(configs, mc, QUANTITIES)

    def test_mixed_draw_groups(self, monkeypatch):
        import skcprobe.capacity as capacity
        import skcprobe.montecarlo as montecarlo
        collects, samples = [], []

        def counting_collect(*args):
            collects.append(args)
            return collect(*args)

        def counting_sample(*args):
            samples.append(args)
            return sample_channels(*args)

        monkeypatch.setattr(capacity, "collect", counting_collect)
        monkeypatch.setattr(montecarlo, "sample_channels", counting_sample)
        base = make_config(n_a=3, n_b=2, n_e=2, v_a=1, v_b=1, rho=0.7)
        # four draw groups, interleaved: (n_e, rho) = (2, .7), (3, .7), (2, 0), (3, 0)
        configs = [base, replace(base, n_e=3), replace(base, rho=0.0),
                   replace(base, power_a=5.0), replace(base, n_e=3, rho=0.0),
                   replace(base, n_e=3, noise_ea=2.0), replace(base, rho=0.0, v_b=0)]
        mc = McSettings(trials=2 * BLOCK + 5, master_seed=11)
        batched = evaluate_many(configs, mc, QUANTITIES)
        assert len(collects) == 4
        assert len(samples) == 4 * math.ceil(mc.trials / BLOCK)
        monkeypatch.undo()
        assert batched == self.assert_equals_one_config_evaluate(configs, mc, QUANTITIES)

    @pytest.mark.parametrize("overrides,quantities,per_block", [
        (dict(v_b=0), ("floor",), 2),
        (dict(v_b=0), ("lower", "upper"), 2),
        (dict(v_b=1), ("lower", "upper"), 4),
    ], ids=["floor", "oneway-bounds", "twoway-bounds"])
    def test_matrices_drawn_per_block(self, monkeypatch, overrides, quantities, per_block):
        # an integrand draws only the channels it reads: the floor and the
        # one-way bounds read h_ba and g_a; the two-way bounds also read
        # h_ab (from h_ba and the residual) and g_b
        import skcprobe.channel as channel
        drawn = []
        real = channel.sample_cgaussian
        monkeypatch.setattr(channel, "sample_cgaussian",
                            lambda *args: drawn.append(args) or real(*args))
        mc = McSettings(trials=2 * BLOCK + 5, master_seed=2)
        evaluate(make_config(n_a=3, n_b=2, n_e=2, **overrides), mc, quantities)
        assert len(drawn) == per_block * math.ceil(mc.trials / BLOCK)
        assert sorted(trials for *_, trials in drawn) == \
            sorted([BLOCK] * 2 * per_block + [5] * per_block)

    def test_each_gram_formed_once_per_block(self, monkeypatch):
        import skcprobe.capacity as capacity
        formed = []
        real_gram, real_outer = capacity._gram, capacity._outer
        real_logdet = capacity.logdet_hermitian_pd
        monkeypatch.setattr(capacity, "_gram",
                            lambda m: formed.append(("gram", m.shape)) or real_gram(m))
        monkeypatch.setattr(capacity, "_outer",
                            lambda m: formed.append(("outer", m.shape)) or real_outer(m))
        mc = McSettings(trials=BLOCK + 30, master_seed=5)
        spec = load_spec("fig2")
        grid = [config_at_power(spec.base, p) for p in spec.power_grid]
        # fig2's floor is exact (noise_ea = noise_b): no draws, no Grams
        evaluate_many(grid, mc, ("floor",))
        assert formed == []
        evaluate_many([replace(c, noise_ea=0.5) for c in grid], mc, ("floor",))
        # n_e < n_a: [g_a; h_ba] stacked, (6 + 4) x 8, in each of two blocks
        assert formed == [("outer", (BLOCK, 10, 8)), ("outer", (30, 10, 8))]
        formed.clear()
        base = make_config(v_a=2, v_b=1)
        evaluate_many([base, replace(base, power_a=9.0), replace(base, noise_eb=0.5)],
                      mc, QUANTITIES)
        # n_e >= n_a: all four channels, once per block
        assert [kind for kind, _ in formed].count("gram") == 4 * 2
        # a (6, 4, 5) block of every quantity factors the floor's seven
        # (n_e + n_b)-square matrices (floor_logdets at the point and at each
        # of the four edges, bob_joint_logdets with u3, eve_joint_logdets
        # with t1 and u1; t4's null_logdet is not drawn beside the edges) and
        # three
        # n_b-square ones of the role-swapped floor (folded_logdet, t2',
        # t3'), which the bounds and the gap read too
        factored = []
        monkeypatch.setattr(capacity, "logdet_hermitian_pd", lambda m, *args, **kwargs: (
            factored.append(m.shape[1:]) or real_logdet(m, *args, **kwargs)))
        # (at noise_ea = 0.5: at TEXTBOOK_CONFIGS' 0.3 the gammas are 3.3 apart
        # and the floor is exact)
        twoway = make_config(**dict(TEXTBOOK_CONFIGS["twoway"], noise_ea=0.5))
        evaluate(twoway, McSettings(trials=BLOCK, master_seed=5), QUANTITIES)
        assert sorted(factored) == [(4, 4)] * 3 + [(9, 9)] * 7

    def test_exact_points_take_no_pass(self, monkeypatch):
        import skcprobe.capacity as capacity
        calls = []
        monkeypatch.setattr(capacity, "collect", lambda *args: calls.append(args))
        configs = [make_config(noise_ea=0.0), make_config(noise_ea=0.0, power_a=9.0)]
        batched = evaluate_many(configs, McSettings(trials=10), ("pilot_mi", "floor"))
        assert calls == []
        assert [p["floor"] for p in batched] == [Estimate.exact(0.0)] * 2

    def test_failure_names_point_and_quantity(self, monkeypatch):
        import skcprobe.capacity as capacity
        real = capacity.secrecy_floor_sample

        def failing(block, config, *args):
            if config.power_a == 8.0:
                raise NotPositiveDefinite("matrix 3: Cholesky failed")
            return real(block, config, *args)

        monkeypatch.setattr(capacity, "secrecy_floor_sample", failing)
        configs = [make_config(power_a=p) for p in (2.0, 8.0)]
        with pytest.raises(IntegrandFailure,
                           match="trials 0-9: at power 8: floor: matrix 3: Cholesky failed"):
            evaluate_many(configs, McSettings(trials=10), ("floor",),
                          labels=["at power 2", "at power 8"])

    def test_non_finite_value_names_point_and_quantity(self):
        configs = [make_config(power_a=p) for p in (2.0, 1.0e308)]
        with np.errstate(all="ignore"), \
                pytest.raises(IntegrandFailure,
                              match="trial 0: huge: floor integrand is nan"):
            evaluate_many(configs, McSettings(trials=10), ("floor",),
                          labels=["small", "huge"])


class TestOneWayLower:
    """At v_b = 0 the reported lower bound is the Bob-side bound, which is
    also the upper bound, and the Alice side is sampled only when named."""

    ONE_WAY = {
        "oneway": {},
        "n_a<n_b": dict(n_a=2, n_b=3, n_e=2),
        "rho=1": dict(rho=1.0),
        "noisy-eve": dict(noise_ea=1.0e6),
        "noiseless-eve": dict(noise_ea=0.0),
    }

    @staticmethod
    def one_way(overrides):
        return replace(load_spec("oneway").base, **overrides)

    def test_lower_upper_take_one_pass_without_the_role_swap(self, monkeypatch):
        import skcprobe.capacity as capacity
        collects, bob_configs, logdets = [], [], []

        def counting_collect(*args):
            collects.append(args)
            return collect(*args)

        def recording_bob(block, config, *args, **kwargs):
            bob_configs.append(config)
            return lower_bound_bob_sample(block, config, *args, **kwargs)

        real_logdet = capacity.logdet_hermitian_pd
        monkeypatch.setattr(capacity, "collect", counting_collect)
        monkeypatch.setattr(capacity, "lower_bound_bob_sample", recording_bob)
        monkeypatch.setattr(capacity, "logdet_hermitian_pd", lambda m, split=None, **kwargs: (
            logdets.append((m.shape[1:], split)) or real_logdet(m, split, **kwargs)))
        cfg = self.one_way({})
        mc = McSettings(trials=2 * BLOCK + 9, master_seed=71)
        est = evaluate(cfg, mc, ("lower", "upper"))
        blocks = math.ceil(mc.trials / BLOCK)
        assert len(collects) == 1
        assert bob_configs == [cfg] * blocks         # never the role-swapped config
        # n_e < n_a: the floor's stacked factorization (which also gives
        # t2), t3, t5 and u3 from the reordered stacked Gram, t1 and u1 from
        # the stacked Gram in its own order and the floor's factorization at
        # each of the four edges (t4 is not drawn beside them); Bob's bound
        # reuses the floor
        assert logdets == [((4, 4), 2)] * 7 * blocks
        assert est["lower"] == est["upper"]

    @pytest.mark.parametrize("overrides", list(ONE_WAY.values()), ids=list(ONE_WAY))
    def test_lower_is_lower_bob_bit_for_bit(self, overrides):
        cfg = self.one_way(overrides)
        mc = McSettings(trials=BLOCK + 21, master_seed=73)
        est = evaluate(cfg, mc, ("lower", "lower_bob", "upper"))
        named = evaluate(cfg, mc, ("lower", "lower_alice"))
        assert est["lower"] == est["lower_bob"] == est["upper"]
        assert named["lower"] == est["lower"]
        # where the floor is exact, so is the one-way bound
        assert est["lower"].method == ("monte-carlo" if exact_floor(cfg) is None else "exact")

    @pytest.mark.parametrize("seed", range(73, 84))
    def test_lower_alice_is_exact_and_below_lower_bob(self, seed):
        # per sample lower_alice is the swapped pilot_mi + v_a (t3 - t2);
        # at noise_ea = 1e6 it is below lower_bob by about 2.4e-4 bits
        mc = McSettings(trials=BLOCK + 21, master_seed=seed)
        for name, overrides in self.ONE_WAY.items():
            cfg = self.one_way(overrides)
            est = evaluate(cfg, mc, ("lower_bob", "lower_alice"))
            alice = est["lower_alice"]
            assert alice.method == "exact", name
            if cfg.noise_ea > 0:
                means = engine_means(cfg)
                assert alice.mean == pilot_mi(cfg.swap_roles()) + cfg.v_a * (
                    means["t3"] - means["t2"]), name
            assert alice.mean <= est["lower_bob"].mean, name


    def test_probeless_bounds_are_pilot_mi_without_a_draw(self, monkeypatch):
        # at v_a = v_b = 0 lower_bob is pilot_mi on every draw, so it, lower
        # and upper are exact where the floor is sampled too (gammas 2 apart
        # here), and nothing is drawn
        import skcprobe.capacity as capacity
        calls = []
        monkeypatch.setattr(capacity, "collect", lambda *args: calls.append(args))
        cfg = ProbingConfig(n_a=2, n_b=3, n_e=1, v_a=0, v_b=0, power_a=2.0, power_b=1.0,
                            noise_ea=0.5, rho=0.9)
        assert exact_floor(cfg) is None
        names = ("lower", "upper", "lower_bob")
        est = evaluate(cfg, McSettings(trials=277), names)
        assert calls == []
        assert est == dict.fromkeys(names, Estimate.exact(pilot_mi(cfg)))

    def test_lower_alice_reads_only_the_means_it_uses(self):
        # at (16, 16, 17) t5's mean (33 x 16) is outside wishart_logdet_mean's
        # domain, but lower_alice reads E t3 and E t2 alone: it is exact, not
        # a raw mean (11.798 +- 0.155 at 300 trials, seed 1, while it needed
        # every control's mean)
        cfg = ProbingConfig(n_a=16, n_b=16, n_e=17, power_a=10.0, power_b=10.0, noise_ea=2.0)
        gam = derive_gammas(cfg)
        with pytest.raises(ValueError):
            wishart_logdet_mean(33, 16, gam.gamma_ba)
        est = evaluate(cfg, McSettings(trials=300, master_seed=1), ("lower_alice",))
        assert est["lower_alice"] == Estimate.exact(pilot_mi(cfg.swap_roles()) + cfg.v_a * (
            wishart_logdet_mean(16, 16, gam.gamma_ba) - wishart_logdet_mean(17, 16, gam.gamma_ea)))
        assert est["lower_alice"].mean == pytest.approx(11.519791, abs=1e-6)


class TestRoleSymmetry:
    def test_lower_alice_at_zero_power_divides_no_zero_by_zero(self):
        # at power_a = 0 the role-swapped t3 is read from the factorization
        # that also gives |L21|^2 = gamma_ba u3, which no point reads there;
        # dividing it by gamma_ba = 0 beside t3 made a NaN and a warning
        cfg = ProbingConfig(n_a=6, n_b=4, n_e=5, v_a=2, v_b=1, power_a=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alice = evaluate(cfg, McSettings(trials=100), ("lower_alice",))["lower_alice"]
        assert math.isfinite(alice.mean) and math.isfinite(alice.stderr)

    def test_symmetric_config_gives_identical_bounds(self):
        cfg = make_config(n_a=2, n_b=2, v_a=1, v_b=1, phi_a=16, phi_b=16,
                          power_a=2.0, power_b=2.0, noise_a=1.0, noise_b=1.0,
                          noise_ea=0.5, noise_eb=0.5, rho=0.8)
        mc = McSettings(trials=200, master_seed=7)
        est = evaluate(cfg, mc, ("lower_alice", "lower_bob"))
        alice, bob = est["lower_alice"], est["lower_bob"]
        # the Alice-side bound is the Bob-side bound of the role-swapped
        # scenario on the role-swapped draws of the same blocks
        swapped = np.concatenate([lower_bound_bob_sample(block.swap_roles(), cfg.swap_roles())
                                  for _, block in trial_blocks(cfg, mc)])
        assert alice == summarize(swapped)
        # the scenario is its own swap, so the two sides agree in expectation
        assert abs(alice.mean - bob.mean) <= 3 * (alice.stderr + bob.stderr)

    def test_double_swap_bitwise_identical(self):
        cfg = make_config()
        mc = McSettings(trials=150, master_seed=3)
        direct = evaluate(cfg, mc, ("lower_bob",))
        double = evaluate(cfg.swap_roles().swap_roles(), mc, ("lower_bob",))
        assert direct == double

    def test_one_way_coincidence_under_swap(self):
        # with v_a = 0 the Alice-side bound is the upper bound, per sample
        # on the shared draws
        mc = McSettings(trials=300, master_seed=11)
        for cfg in (make_config(v_a=0, v_b=2),
                    make_config(n_a=3, n_b=2, n_e=2, v_a=0, v_b=2, rho=0.3)):
            values = trial_values_many([(cfg, ("lower_alice", "lower_bob", "gap"))], mc)[0]
            upper = values["lower_bob"] + values["gap"]
            assert np.max(np.abs(values["lower_alice"] - upper)) <= IDENTITY_ATOL
            est = evaluate(cfg, mc, ("lower_alice", "upper"))
            assert abs(est["lower_alice"].mean - est["upper"].mean) <= IDENTITY_ATOL


class TestSkcReport:
    """`evaluate` asked for every quantity at once."""

    def test_shared_draws_make_upper_exact(self):
        cfg = make_config()
        report = evaluate(cfg, McSettings(trials=300, master_seed=13), QUANTITIES)
        assert report["upper"].mean == pytest.approx(
            report["lower_bob"].mean + report["gap"].mean, abs=1e-12)

    def test_one_way_bounds_coincide(self):
        cfg = make_config(v_a=2, v_b=0, noise_ea=0.25)
        report = evaluate(cfg, McSettings(trials=300, master_seed=17), QUANTITIES)
        assert report["gap"].method == "exact" and report["gap"].stderr == 0.0
        assert report["upper"] == report["lower_bob"]
        assert report["lower"].mean == report["upper"].mean

    def test_noiseless_eve_floor_is_exact_zero(self):
        cfg = make_config(noise_ea=0.0)
        report = evaluate(cfg, McSettings(trials=150, master_seed=19), QUANTITIES)
        assert report["floor"] == Estimate.exact(0.0)
        # the Alice-side bound diverges when Eve hears Alice noiselessly
        assert report["lower_alice"] == Estimate.exact(-math.inf)
        assert report["lower"] == report["lower_bob"]

    def test_bound_ordering_within_noise(self):
        cfg = make_config()
        report = evaluate(cfg, McSettings(trials=400, master_seed=23), QUANTITIES)
        slack = 3 * (report["lower"].stderr + report["upper"].stderr)
        assert report["upper"].mean >= report["lower"].mean - slack
        assert report["gap"].mean >= -3 * report["gap"].stderr

    def test_common_snr_rescaling_is_bit_identical(self):
        cfg = make_config()
        mc = McSettings(trials=200, master_seed=29)
        for factor in (4.0, 3.0):
            scaled = replace(cfg, power_a=cfg.power_a * factor, power_b=cfg.power_b * factor,
                             noise_a=cfg.noise_a * factor, noise_b=cfg.noise_b * factor,
                             noise_ea=cfg.noise_ea * factor, noise_eb=cfg.noise_eb * factor)
            assert evaluate(scaled, mc, QUANTITIES) == evaluate(cfg, mc, QUANTITIES)


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
        alice_sampled = not _alice_bound_diverges(config)
        names = ("floor", "gap", "lower_bob") + (("lower_alice",) if alice_sampled else ())
        try:
            values = trial_values_many([(config, names)], mc)[0]
            est = evaluate(config, mc, ("upper", "lower_alice"))
        except SkcError as exc:
            assert type(exc) is not SkcError
            return
        upper, alice = est["upper"], est["lower_alice"]
        if config.noise_ea == 0 and config.v_a > 0:
            assert alice == Estimate.exact(-math.inf)
        else:
            assert math.isfinite(alice.mean) and math.isfinite(alice.stderr)
        for v in values.values():
            assert v.shape == (8,) and np.isfinite(v).all()
        gap = values["gap"]
        assert (gap >= 0.0).all()
        if config.v_b == 0:
            assert (gap == 0.0).all()
            # why 'lower' is the Bob-side bound at v_b = 0 without sampling
            # the Alice side: that side is never larger, per sample
            if alice_sampled:
                bob, alice = values["lower_bob"], values["lower_alice"]
                assert (alice - bob <= 1e-12 * (np.abs(alice) + np.abs(bob))).all()
        floor = exact_floor(config)
        if config.v_a == config.v_b == 0:
            # lower_bob is pilot_mi on every draw
            assert upper == Estimate.exact(pilot_mi(config))
        elif floor is None:
            assert upper == summarize(values["lower_bob"] + gap)
        elif config.v_b == 0:
            assert upper == Estimate.exact(pilot_mi(config) + config.v_a * floor)
        else:
            # the exact floor replaces the floor's samples in lower_bob's
            assert upper == summarize(
                values["lower_bob"] - config.v_a * (values["floor"] - floor) + gap)


class TestMonotonicity:
    def test_floor_nonincreasing_in_noise_ratio(self):
        # the floor shrinks as Eve's observation of Alice gets relatively
        # cleaner (noise_b/noise_ea grows); shared draws make this exact
        mc = McSettings(trials=400, master_seed=31)
        ratios = np.logspace(-1.5, 1.5, 9)
        means = []
        for ratio in ratios:
            cfg = make_config(noise_b=1.0, noise_ea=1.0 / ratio)
            means.append(evaluate(cfg, mc, ("floor",))["floor"].mean)
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
        def evaluator(configs):
            return [Estimate.exact(fn(config)) for config in configs]
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

    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_non_finite_mean_has_no_slope(self, value):
        # a least-squares fit through it would give slope nan
        cfg = make_config(power_a=1.0, power_b=1.0)
        q = self.exact_quantity(lambda c: value if c.power_a == 100.0 else 1.0)
        with pytest.raises(ValueError, match=f"the estimate at power 100 is {value}"):
            dof_slope(q, cfg, [1, 10, 100, 1000])

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

        def quantity(configs):
            return [v["lower_bob"] for v in evaluate_many(configs, mc, ("lower_bob",))]

        result = dof_slope(quantity, cfg, [2.0 ** e for e in range(8, 21, 2)])
        assert result.slope == pytest.approx(expected, abs=0.2)


class TestStandaloneEstimators:
    def test_floor_estimate_positive(self):
        cfg = make_config()
        est = evaluate(cfg, McSettings(trials=400, master_seed=41), ("floor",))["floor"]
        assert est.mean > 3 * est.stderr

    def test_gap_exact_zero_short_circuit(self):
        cfg = make_config(v_b=0)
        assert evaluate(cfg, McSettings(trials=50, master_seed=1), ("gap",)) == \
            {"gap": Estimate.exact(0.0)}
