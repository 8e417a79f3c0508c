"""Scenario configuration, channel sampling, and pilots."""

import dataclasses
import math

import numpy as np
import pytest

from skcprobe import (
    ProbingConfig,
    RngStream,
    derive_gammas,
    generate_pilot,
    sample_channels,
)
from skcprobe.channel import _draws_key
from skcprobe.errors import PilotTooShort, ValidationError
from conftest import make_config


class TestProbingConfig:
    def test_pilot_defaults_scale_with_antennas(self):
        cfg = ProbingConfig(n_a=8, n_b=4, n_e=6)
        assert cfg.phi_a == 800 and cfg.phi_b == 400
        assert cfg.psi_a == 800.0  # unit-power pilot entries: psi == phi
        small = ProbingConfig(n_a=1, n_b=1, n_e=1)
        assert small.phi_a == 100

    def test_pilot_shorter_than_antennas_rejected(self):
        with pytest.raises(ValidationError, match="phi_a < n_a"):
            ProbingConfig(n_a=4, n_b=2, n_e=2, phi_a=2)

    @pytest.mark.parametrize("bad", [
        dict(n_a=0, n_b=1, n_e=1),
        dict(n_a=1, n_b=1, n_e=1, v_a=-1),
        dict(n_a=1, n_b=1, n_e=1, noise_a=0.0),
        dict(n_a=1, n_b=1, n_e=1, noise_ea=-0.5),
        dict(n_a=1, n_b=1, n_e=1, power_a=-1.0),
        dict(n_a=1, n_b=1, n_e=1, rho=1.5),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValidationError):
            ProbingConfig(**bad)

    @pytest.mark.parametrize("name,value", [
        ("power_a", math.nan), ("power_b", math.inf), ("noise_a", math.nan),
        ("noise_b", math.inf), ("noise_ea", math.inf), ("noise_eb", math.nan),
        ("rho", math.nan), ("rho", complex(0.0, math.inf)),
    ])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            ProbingConfig(n_a=2, n_b=2, n_e=2, **{name: value})

    def test_swap_roles_is_involution(self):
        cfg = make_config(rho=0.3 + 0.4j)
        swapped = cfg.swap_roles()
        assert swapped.n_a == cfg.n_b and swapped.v_b == cfg.v_a
        assert swapped.noise_ea == cfg.noise_eb
        assert swapped.rho == complex(cfg.rho).conjugate()
        assert swapped.swap_roles() == cfg

    def test_reciprocal_flag_tolerates_rounding(self):
        assert ProbingConfig(n_a=1, n_b=1, n_e=1, rho=1.0).reciprocal
        assert ProbingConfig(n_a=1, n_b=1, n_e=1, rho=1.0 - 1e-14).reciprocal
        assert not ProbingConfig(n_a=1, n_b=1, n_e=1, rho=0.999).reciprocal


class TestDeriveGammas:
    def test_unit_everything(self):
        g = derive_gammas(ProbingConfig(n_a=1, n_b=1, n_e=1))
        assert g.gamma_ab == g.gamma_ba == g.gamma_ea == g.gamma_eb == 1.0

    def test_direct_ratio(self):
        cfg = ProbingConfig(n_a=1, n_b=1, n_e=1, power_a=10.0, noise_b=2.0)
        assert derive_gammas(cfg).gamma_ba == 5.0

    def test_noiseless_eve_flagged_infinite(self):
        cfg = ProbingConfig(n_a=1, n_b=1, n_e=1, noise_ea=0.0)
        assert math.isinf(derive_gammas(cfg).gamma_ea)


class TestSampleChannels:
    def test_shapes(self):
        cfg = make_config(n_a=3, n_b=2, n_e=4)
        r = sample_channels(cfg, RngStream(1, 0))
        assert r.h_ba.shape == (2, 3)
        assert r.h_ab.shape == (3, 2)
        assert r.g_a.shape == (4, 3)
        assert r.g_b.shape == (4, 2)
        assert not r.h_ba.flags.writeable

    def test_perfect_reciprocity_is_exact_transpose(self):
        cfg = make_config(rho=1.0)
        r = sample_channels(cfg, RngStream(5, 3))
        np.testing.assert_array_equal(r.h_ab, r.h_ba.T)

    def test_unit_variance_and_residual_variance(self):
        cfg = ProbingConfig(n_a=1, n_b=1, n_e=1, rho=0.8)
        block = sample_channels(cfg, RngStream(7, 0), trials=100_000)
        h_ba, h_ab = block.h_ba[:, 0, 0], block.h_ab[:, 0, 0]
        assert abs(np.var(h_ba) - 1.0) < 0.02
        assert abs(np.var(h_ab) - 1.0) < 0.02
        resid = h_ab - 0.8 * h_ba
        assert abs(np.var(resid) - (1 - 0.8 ** 2)) < 0.02 * (1 - 0.8 ** 2) + 0.005

    @pytest.mark.parametrize("rho,tol", [(0.0, 0.02), (0.8, 0.01)])
    def test_cross_correlation_matches_rho(self, rho, tol):
        cfg = ProbingConfig(n_a=1, n_b=1, n_e=1, rho=rho)
        block = sample_channels(cfg, RngStream(11, 0), trials=100_000)
        # correlation pairs entry (j, i) of h_ab with entry (i, j) of h_ba
        corr = np.mean(block.h_ab[:, 0, 0] * np.conj(block.h_ba[:, 0, 0]))
        assert abs(corr - rho) < tol

    def test_transposed_entry_pairing_for_matrices(self):
        # rho couples h_ab[j, i] with h_ba[i, j], not the same-index entries
        cfg = ProbingConfig(n_a=2, n_b=3, n_e=1, rho=0.9)
        block = sample_channels(cfg, RngStream(13, 0), trials=40_000)
        paired = np.mean(block.h_ab[:, 0, 1] * np.conj(block.h_ba[:, 1, 0]))
        unpaired = np.mean(block.h_ab[:, 0, 1] * np.conj(block.h_ba[:, 0, 1]))
        assert abs(paired - 0.9) < 0.02
        assert abs(unpaired) < 0.02


class TestSampleChannelBlock:
    def test_block_shapes_and_trial_indexing(self):
        cfg = make_config(n_a=3, n_b=2, n_e=4)
        block = sample_channels(cfg, RngStream(1, 0), trials=5)
        assert block.trials_shape == (5,)
        assert block.h_ba.shape == (5, 2, 3) and block.h_ab.shape == (5, 3, 2)
        assert block.g_a.shape == (5, 4, 3) and block.g_b.shape == (5, 4, 2)
        assert not block.h_ab.flags.writeable
        one = block[2]
        assert one.trials_shape == () and one.h_ba.shape == (2, 3)
        np.testing.assert_array_equal(one.g_b, block.g_b[2])
        assert block[:3].trials_shape == (3,)

    def test_block_reciprocity_is_exact_transpose_per_trial(self):
        cfg = make_config(rho=1.0)
        block = sample_channels(cfg, RngStream(5, 3), trials=7)
        np.testing.assert_array_equal(block.h_ab, np.swapaxes(block.h_ba, 1, 2))

    def test_block_legitimate_draws_ignore_n_e(self):
        small = sample_channels(make_config(n_e=1), RngStream(9, 0), trials=16)
        large = sample_channels(make_config(n_e=6), RngStream(9, 0), trials=16)
        np.testing.assert_array_equal(small.h_ba, large.h_ba)
        np.testing.assert_array_equal(small.h_ab, large.h_ab)

    def test_h_ba_ignores_n_e_and_rho(self):
        ref = sample_channels(make_config(n_e=2, rho=0.8), RngStream(9, 2), trials=16)
        for cfg in (make_config(n_e=5, rho=0.8), make_config(n_e=2, rho=0.1 + 0.3j),
                    make_config(n_e=1, rho=1.0)):
            other = sample_channels(cfg, RngStream(9, 2), trials=16)
            np.testing.assert_array_equal(other.h_ba, ref.h_ba)

    def test_g_a_ignores_n_b_and_rho(self):
        ref = sample_channels(make_config(n_b=2, rho=0.8), RngStream(9, 2), trials=16)
        for cfg in (make_config(n_b=4, rho=0.8), make_config(n_b=2, rho=0.0),
                    make_config(n_b=1, rho=-0.5j)):
            other = sample_channels(cfg, RngStream(9, 2), trials=16)
            np.testing.assert_array_equal(other.g_a, ref.g_a)

    # a value of every ProbingConfig field that make_config does not give
    CHANGED = dict(n_a=3, n_b=3, n_e=3, v_a=0, v_b=2, phi_a=20, phi_b=24, power_a=7.0,
                   power_b=0.25, noise_a=2.0, noise_b=0.5, noise_ea=0.0, noise_eb=3.0,
                   rho=0.3 + 0.4j)

    def test_draws_read_only_their_key(self):
        # the Monte Carlo engine groups points by _draws_key: a field outside
        # it leaves every matrix of a block bit for bit the same, and of the
        # fields in it rho reaches h_ab alone (the antenna counts set shapes)
        assert self.CHANGED.keys() == {f.name for f in dataclasses.fields(ProbingConfig)}
        base = make_config()
        ref = sample_channels(base, RngStream(9, 2), trials=16)
        for name, value in self.CHANGED.items():
            cfg = dataclasses.replace(base, **{name: value})
            if name in ("n_a", "n_b", "n_e"):
                assert _draws_key(cfg) != _draws_key(base), name
                continue
            other = sample_channels(cfg, RngStream(9, 2), trials=16)
            same = [m for m in ("h_ba", "h_ab", "g_a", "g_b")
                    if np.array_equal(getattr(other, m), getattr(ref, m))]
            if name == "rho":
                assert _draws_key(cfg) != _draws_key(base)
                assert same == ["h_ba", "g_a", "g_b"]
            else:
                assert _draws_key(cfg) == _draws_key(base), name
                assert same == ["h_ba", "h_ab", "g_a", "g_b"], name

    def test_single_draw_is_trial_zero_of_a_block(self):
        cfg = make_config(n_a=3, n_b=2, n_e=4)
        one = sample_channels(cfg, RngStream(3, 1))
        block = sample_channels(cfg, RngStream(3, 1), trials=5)
        for name in ("h_ba", "h_ab", "g_a", "g_b"):
            np.testing.assert_array_equal(getattr(one, name), getattr(block, name)[0])

    def test_matrices_drawn_on_first_read_only(self, monkeypatch):
        import skcprobe.channel as channel
        drawn = []
        real = channel.sample_cgaussian
        monkeypatch.setattr(channel, "sample_cgaussian",
                            lambda *args: drawn.append(args[:2]) or real(*args))
        cfg = make_config(n_a=3, n_b=2, n_e=4)
        block = sample_channels(cfg, RngStream(1, 0), trials=5)
        assert drawn == []
        block[1:3].swap_roles().h_ab
        block.g_a, block.h_ba
        assert drawn == [(2, 3), (4, 3)]           # h_ba, then g_a
        block.h_ab, block[0].h_ab, block.swap_roles().h_ba
        assert drawn == [(2, 3), (4, 3), (2, 3)]   # the residual, once

    def test_a_generator_is_not_a_stream(self):
        with pytest.raises(TypeError, match="expected RngStream"):
            sample_channels(make_config(), RngStream(1, 0).generator())

    def test_block_statistics(self):
        cfg = ProbingConfig(n_a=1, n_b=1, n_e=1, rho=0.8)
        block = sample_channels(cfg, RngStream(7, 0), trials=100_000)
        h_ba, h_ab = block.h_ba[:, 0, 0], block.h_ab[:, 0, 0]
        assert abs(np.var(h_ba) - 1.0) < 0.02
        assert abs(np.var(h_ab) - 1.0) < 0.02
        assert abs(np.mean(h_ab * np.conj(h_ba)) - 0.8) < 0.01


class TestGeneratePilot:
    def test_single_row(self):
        pi = generate_pilot(1, 4)
        assert pi.shape == (1, 4)
        np.testing.assert_allclose(np.abs(pi), 1.0, atol=1e-14)
        assert (pi @ pi.conj().T)[0, 0] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("n,phi", [(2, 2), (3, 8), (4, 64), (8, 800)])
    def test_row_orthogonality(self, n, phi):
        pi = generate_pilot(n, phi)
        residual = np.max(np.abs(pi @ pi.conj().T - phi * np.eye(n)))
        assert residual < 1e-12

    def test_too_short_raises(self):
        with pytest.raises(PilotTooShort):
            generate_pilot(3, 2)
