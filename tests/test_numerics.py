"""Linear-algebra and RNG substrate.

Expected values here are either hand-evaluated (determinants of explicit
small matrices) or checked against an independent arithmetic path
(eigenvalues, LU factorization, the Schur complement).
"""

import math

import numpy as np
import pytest

from skcprobe import (
    RngStream,
    logdet_hermitian_pd,
    logdet_lu,
    mi_given_channel,
    sample_cgaussian,
)
from skcprobe.errors import DimensionMismatch, NotHermitian, NotPositiveDefinite


class TestSampleCGaussian:
    def test_shape(self):
        m = sample_cgaussian(2, 3, RngStream(1, 0))
        assert m.shape == (2, 3)
        assert m.dtype == complex

    def test_deterministic_for_same_key(self):
        a = sample_cgaussian(4, 4, RngStream(99, 7))
        b = sample_cgaussian(4, 4, RngStream(99, 7))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_cgaussian(4, 4, RngStream(99, 7))
        b = sample_cgaussian(4, 4, RngStream(99, 8))
        assert not np.array_equal(a, b)

    def test_moments_over_1e5_draws(self):
        m = sample_cgaussian(100_000, 1, RngStream(2024, 0))
        assert abs(np.mean(m)) < 0.02
        assert abs(np.var(m) - 1.0) < 0.02
        # circular symmetry: each part carries half the variance
        assert abs(np.var(m.real) - 0.5) < 0.01
        assert abs(np.var(m.imag) - 0.5) < 0.01

    def test_rejects_empty_shape(self):
        with pytest.raises(DimensionMismatch):
            sample_cgaussian(0, 3, RngStream(1))


class TestLogdetHermitianPd:
    def test_identity_is_zero(self):
        assert logdet_hermitian_pd(np.eye(3)) == 0.0

    def test_diag_2_2_is_two_bits(self):
        assert logdet_hermitian_pd(np.diag([2.0, 2.0])) == pytest.approx(2.0, abs=1e-12)

    def test_rank_one_update(self):
        # det(I + g h h^H) = 1 + g*|h|^2 = 3 for g=1, h=(1, i)
        h = np.array([[1.0], [1.0j]])
        m = np.eye(2) + h @ h.conj().T
        assert logdet_hermitian_pd(m) == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_not_hermitian_raises(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotHermitian):
            logdet_hermitian_pd(m)

    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_hermitian_pd(np.diag([1.0, -1.0]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            logdet_hermitian_pd(np.ones((2, 3)))

    def test_matches_eigenvalue_path(self, rng):
        # independent route: sum of log2 eigenvalues
        for n in (2, 3, 5, 8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = a @ a.conj().T + np.eye(n)
            expected = float(np.sum(np.log2(np.linalg.eigvalsh(m))))
            assert logdet_hermitian_pd(m) == pytest.approx(expected, abs=1e-8)

    def test_agrees_with_lu_path(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a @ a.conj().T + np.eye(4)
        assert logdet_hermitian_pd(m) == pytest.approx(logdet_lu(m), abs=1e-10)


    def test_schur_complement_identity(self, rng):
        # log det [[A, C], [C^H, B]] == log det A + log det(B - C^H A^-1 C)
        for trial in range(20):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = x @ x.conj().T + np.eye(3)
            b = y @ y.conj().T + np.eye(2)
            c = 0.3 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
            joint = np.block([[a, c], [c.conj().T, b]])
            schur = b - c.conj().T @ np.linalg.solve(a, c)
            expected = logdet_hermitian_pd(a) + logdet_hermitian_pd(schur)
            assert logdet_hermitian_pd(joint) == pytest.approx(expected, abs=1e-9)


class TestStackedLogdet:
    @staticmethod
    def pd_stack(rng, count, n):
        a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        return a @ np.swapaxes(a, 1, 2).conj() + np.eye(n)

    def test_matches_per_matrix_values(self, rng):
        stack = self.pd_stack(rng, 12, 3)
        out = logdet_hermitian_pd(stack)
        assert out.shape == (12,)
        assert np.array_equal(out, [logdet_hermitian_pd(m) for m in stack])
        lu = logdet_lu(stack)
        assert lu.shape == (12,)
        assert np.max(np.abs(out - lu)) <= 1e-10

    def test_jitter_applies_per_failing_matrix(self, rng):
        # a rank-deficient PSD matrix needs the jitter; its neighbours do not
        stack = self.pd_stack(rng, 4, 2)
        v = np.array([[1.0], [1.0j]])
        stack[2] = v @ v.conj().T
        out = logdet_hermitian_pd(stack)
        assert np.isfinite(out).all()
        assert out[0] == logdet_hermitian_pd(stack[0])
        assert out[3] == logdet_hermitian_pd(stack[3])
        assert out[2] < -30.0  # log2 of the tiny jitter-sized eigenvalue

    def test_failure_names_the_matrix(self, rng):
        stack = self.pd_stack(rng, 5, 2)
        stack[3] = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite, match="matrix 3: "):
            logdet_hermitian_pd(stack)

    def test_hermitian_check_covers_the_stack(self, rng):
        stack = self.pd_stack(rng, 3, 2)
        stack[1, 0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            logdet_hermitian_pd(stack)


class TestCapacityLogdet:
    # log2 det(I + gamma H H^H), the capacity log-det; mi_given_channel
    # computes it per slot (the push-through case is in test_capacity)
    def test_zero_snr(self, rng):
        h = rng.standard_normal((3, 2))
        assert mi_given_channel(h, 0.0, 1) == 0.0

    def test_identity_channel(self):
        assert mi_given_channel(np.eye(2), 3.0, 1) == pytest.approx(4.0, abs=1e-12)
