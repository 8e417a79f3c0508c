"""Monte Carlo engine: determinism, error scaling, prefix reproducibility."""

import numpy as np
import pytest

from skcprobe import Estimate, McSettings, convergence_report, estimate, secrecy_floor
from skcprobe.capacity import secrecy_floor_sample
from skcprobe.errors import IntegrandFailure, ValidationError
from skcprobe.montecarlo import BLOCK, collect, pairwise_sum, summarize, trial_blocks
from conftest import make_config


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
        assert est == secrecy_floor(cfg, settings)

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


class TestConvergenceReport:
    def test_prefix_equals_fresh_run(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        settings = McSettings(trials=500, master_seed=9)
        table = convergence_report(abs2_integrand, cfg, settings, [100, 500])
        fresh = estimate(abs2_integrand, cfg, McSettings(trials=100, master_seed=9))
        assert table[0] == fresh
        assert table[0].trials == 100 and table[1].trials == 500

    def test_prefix_across_block_boundary(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        settings = McSettings(trials=3 * BLOCK, master_seed=9)
        table = convergence_report(abs2_integrand, cfg, settings, [BLOCK + 1, 2 * BLOCK + 7])
        for k, est in zip((BLOCK + 1, 2 * BLOCK + 7), table):
            assert est == estimate(abs2_integrand, cfg, McSettings(trials=k, master_seed=9))

    def test_constant_integrand_checkpoints_agree(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        table = convergence_report(constant(2.5), cfg,
                                   McSettings(trials=100, master_seed=1), [10, 100])
        assert table[0].mean == table[1].mean == 2.5

    def test_stderr_scales_as_inverse_sqrt(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        table = convergence_report(abs2_integrand, cfg,
                                   McSettings(trials=10_000, master_seed=21),
                                   [100, 10_000])
        ratio = table[0].stderr / table[1].stderr
        assert 10.0 / 1.3 <= ratio <= 10.0 * 1.3

    def test_checkpoint_validation(self):
        cfg = make_config(n_a=1, n_b=1, n_e=1)
        settings = McSettings(trials=100, master_seed=1)
        with pytest.raises(ValidationError):
            convergence_report(abs2_integrand, cfg, settings, [50, 50])
        with pytest.raises(ValidationError):
            convergence_report(abs2_integrand, cfg, settings, [50, 200])
        with pytest.raises(ValidationError):
            convergence_report(abs2_integrand, cfg, settings, [])


class TestSummarize:
    def test_single_value(self):
        est = summarize([4.0])
        assert est.mean == 4.0 and est.stderr == 0.0 and est.trials == 1

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            summarize([])
