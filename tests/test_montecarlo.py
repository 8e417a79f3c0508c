"""Monte Carlo engine: determinism, error scaling, prefix reproducibility."""

import numpy as np
import pytest

from skcprobe import Estimate, McSettings, estimate, evaluate
from skcprobe.capacity import secrecy_floor_sample, trial_values_many
from skcprobe.errors import IntegrandFailure, ValidationError
from skcprobe.montecarlo import BLOCK, collect, pairwise_sum, summarize, trial_blocks
from conftest import engine_correction, engine_means, make_config, scaled


def abs2_integrand(block):
    return np.abs(block.h_ba[:, 0, 0]) ** 2


def constant(value):
    return lambda block: np.full(block.trials_shape, value)


class TestPairwiseSum:
    def test_matches_fsum(self, rng):
        import math
        values = list(rng.standard_normal(1000))
        assert pairwise_sum(values) == pytest.approx(math.fsum(values), rel=1e-12)

    def test_prefix_shape_stability(self, rng):
        # the reduction over the first k values is the reduction a fresh
        # k-length run would perform
        values = list(rng.standard_normal(257))
        assert pairwise_sum(values[:100]) == pairwise_sum(list(values[:100]))

    def test_empty(self):
        assert pairwise_sum([]) == 0.0


class TestEstimate:
    def test_constant_integrand(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        est = estimate(constant(3.0), cfg, McSettings(trials=50, master_seed=1))
        assert est.mean == 3.0
        assert est.stderr == 0.0
        assert est.trials == 50
        assert est.method == "monte-carlo"

    def test_exponential_moment(self):
        # |h|^2 for h ~ CN(0,1) is Exp(1): mean 1
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        est = estimate(abs2_integrand, cfg, McSettings(trials=10_000, master_seed=3))
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr
        assert est.stderr == pytest.approx(1.0 / 100.0, rel=0.1)

    def test_sample_form_equals_summary_of_collected_values(self):
        cfg = make_config()
        settings = McSettings(trials=BLOCK + 144, master_seed=5)
        est = estimate(lambda b: secrecy_floor_sample(b, cfg), cfg, settings)
        values = collect(lambda b: {"floor": secrecy_floor_sample(b, cfg)}, cfg, settings)
        assert est == summarize(values["floor"])
        # evaluate summarizes the same values less their control-variate
        # correction, its stderr times the regression's factor (see
        # test_control_variates.py)
        means = engine_means(cfg)
        values = trial_values_many([(cfg, ("floor",) + tuple(means))], settings)[0]
        correction, factor = engine_correction(values["floor"], values, means)
        assert evaluate(cfg, settings, ("floor",))["floor"] == \
            scaled(summarize(values["floor"] - correction), factor)

    def test_non_finite_value_names_lowest_trial(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)

        def integrand(block):
            values = np.ones(block.trials_shape)
            if block.trials_shape[0] < BLOCK:      # the last, partial block
                values[44] = np.inf
                values[4] = np.nan
            return values

        with pytest.raises(IntegrandFailure, match=f"trial {BLOCK + 4}: "):
            estimate(integrand, cfg, McSettings(trials=BLOCK + 100, master_seed=1))

    def test_exact_constructor(self):
        est = Estimate.exact(1.25)
        assert est.stderr == 0.0 and est.method == "exact"

    def test_trials_validated(self):
        with pytest.raises(ValidationError):
            McSettings(trials=0)

    def test_seed_is_a_64_bit_key(self):
        # outside [0, 2**64) a seed would alias its value modulo 2**64
        for seed in (-1, 2**64, -2**64):
            with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*64\)"):
                McSettings(master_seed=seed)
        assert McSettings(master_seed=0).master_seed == 0
        assert McSettings(master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("field,value", [
        ("master_seed", 1.5), ("master_seed", True), ("master_seed", "1"),
        ("trials", 2.5), ("trials", True), ("trials", 100.0),
    ])
    def test_fields_must_be_integers(self, field, value):
        # a float seed or trial count used to fail later with a raw
        # TypeError, and master_seed=True drew seed 1
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            McSettings(**{field: value})


class TestCollect:
    def test_blocks_cover_trials_in_order(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        settings = McSettings(trials=2 * BLOCK + 3, master_seed=4)
        starts = [(start, block.trials_shape) for start, block in trial_blocks(cfg, settings)]
        assert starts == [(0, (BLOCK,)), (BLOCK, (BLOCK,)), (2 * BLOCK, (3,))]

    def test_values_follow_trial_order(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        settings = McSettings(trials=BLOCK + 10, master_seed=6)
        arrays = collect(lambda b: {"h": b.h_ba[:, 0, 0].real}, cfg, settings)
        expected = [block[j].h_ba[0, 0].real for _, block in trial_blocks(cfg, settings)
                    for j in range(block.trials_shape[0])]
        np.testing.assert_array_equal(arrays["h"], expected)

    def test_short_run_is_a_prefix_of_a_longer_one(self):
        # the short run's last block draws 44 trials, the long run's draws
        # the whole block; both begin with the same 44
        cfg = make_config(n_a=3, n_b=2, n_e=2, rho=0.6)

        def channels(block):
            return {name: getattr(block, name).reshape(block.trials_shape[0], -1)
                    for name in ("h_ba", "h_ab", "g_a", "g_b")}

        short = collect(channels, cfg, McSettings(trials=BLOCK + 44, master_seed=3))
        long = collect(channels, cfg, McSettings(trials=2 * BLOCK + 9, master_seed=3))
        for name, values in short.items():
            assert values.shape[0] == BLOCK + 44
            np.testing.assert_array_equal(values, long[name][:BLOCK + 44])

    def test_values_are_the_blocks_concatenated_bit_for_bit(self):
        # complex values with a trailing shape, broadcast per_trial values
        # and a short last block come out as np.concatenate of the blocks'
        # values gives them
        cfg = make_config(n_a=3, n_b=2, n_e=2, rho=0.6)
        settings = McSettings(trials=2 * BLOCK + 9, master_seed=3)

        def integrand(block):
            return {"h_ab": block.h_ab.reshape(block.trials_shape[0], -1), "g_a": block.g_a,
                    "zero": block.per_trial(0.0), "floor": secrecy_floor_sample(block, cfg)}

        arrays = collect(integrand, cfg, settings)
        assert list(arrays) == ["h_ab", "g_a", "zero", "floor"]
        for name, values in arrays.items():
            expected = np.concatenate([integrand(block)[name]
                                       for _, block in trial_blocks(cfg, settings)])
            assert (values.dtype, values.shape) == (expected.dtype, expected.shape)
            assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("last,message", [
        (lambda n: {"a": np.zeros(n), "b": np.zeros(n)},
         r"the integrand returned \['a', 'b'\], the first block \['a'\]"),
        (lambda n: {"b": np.zeros(n)}, r"the integrand returned \['b'\], the first block \['a'\]"),
        (lambda n: {"a": np.zeros(n, dtype=np.float32)},
         r"a values are float32 of shape \(20,\), not float64 of shape \(20,\)"),
        (lambda n: {"a": np.zeros((n, 2))},
         r"a values are float64 of shape \(20, 2\), not float64 of shape \(20,\)"),
        (lambda n: {"a": np.zeros(1)},
         r"a values are float64 of shape \(1,\), not float64 of shape \(20,\)"),
    ], ids=["extra-name", "other-name", "dtype", "trailing-shape", "trial-count"])
    def test_a_block_unlike_the_first_names_its_trials(self, last, message):
        cfg = make_config(n_a=1, n_b=1, n_e=1)

        def integrand(block):
            n = block.trials_shape[0]
            return last(n) if n < BLOCK else {"a": np.zeros(n)}

        with pytest.raises(IntegrandFailure, match=rf"^trials {BLOCK}-{BLOCK + 19}: {message}$"):
            collect(integrand, cfg, McSettings(trials=BLOCK + 20, master_seed=1))

    def test_lowest_non_finite_trial_across_names(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)

        def integrand(block):
            a = np.ones(block.trials_shape)
            b = np.ones(block.trials_shape)
            if block.trials_shape[0] < BLOCK:      # the last, partial block
                a[7] = np.inf
                b[3] = np.nan
            return {"a": a, "b": b}

        with pytest.raises(IntegrandFailure, match=f"trial {BLOCK + 3}: b integrand is nan"):
            collect(integrand, cfg, McSettings(trials=BLOCK + 20, master_seed=1))

    def test_error_names_the_block_trial_range(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)

        def integrand(block):
            if block.trials_shape[0] < BLOCK:
                raise RuntimeError("boom")
            return {"a": np.zeros(block.trials_shape)}

        with pytest.raises(IntegrandFailure, match=f"trials {BLOCK}-{BLOCK + 19}: boom"):
            collect(integrand, cfg, McSettings(trials=BLOCK + 20, master_seed=1))


class TestSummarize:
    def test_single_value(self):
        est = summarize([4.0])
        assert est.mean == 4.0 and est.stderr == 0.0 and est.trials == 1

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            summarize([])
