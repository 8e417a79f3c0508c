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
    sample_cgaussian,
)
from skcprobe.errors import DimensionMismatch, NotHermitian, NotPositiveDefinite
from skcprobe.numerics import _max_asymmetry, hermitize
from conftest import capacity_logdet


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

    def test_substreams_differ_and_zero_is_the_stream_itself(self):
        stream = RngStream(99, 7)
        assert stream.split(0) == stream
        draws = [sample_cgaussian(4, 4, stream.split(k)) for k in range(4)]
        for i in range(4):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j])

    def test_substream_starts_in_the_counter_high_word(self):
        state = RngStream(5, 3, 2).generator().bit_generator.state["state"]
        np.testing.assert_array_equal(state["counter"], [0, 0, 0, 2])
        np.testing.assert_array_equal(state["key"], [5, 3])

    def test_trial_major_prefix(self):
        # the first k trials of a stack are those of any longer stack, and a
        # single matrix is trial 0
        long = sample_cgaussian(2, 3, RngStream(4, 1), trials=300)
        np.testing.assert_array_equal(sample_cgaussian(2, 3, RngStream(4, 1), trials=7),
                                      long[:7])
        np.testing.assert_array_equal(sample_cgaussian(2, 3, RngStream(4, 1)), long[0])

    def test_real_and_imaginary_parts_interleave(self):
        normals = RngStream(8, 0).generator().standard_normal(12)
        m = sample_cgaussian(2, 3, RngStream(8, 0))
        np.testing.assert_array_equal(m.real.ravel(), normals[0::2] * np.sqrt(0.5))
        np.testing.assert_array_equal(m.imag.ravel(), normals[1::2] * np.sqrt(0.5))


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

    def test_factor_gives_the_schur_term(self, rng):
        # for [[A, C], [C^H, B]] split after A, the factor's off-diagonal
        # block L21 has L21 L21^H = C^H A^-1 C, here from LU, and its leading
        # block is A's own Cholesky factor
        x = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        y = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        a = x @ np.swapaxes(x, 1, 2).conj() + np.eye(3)
        b = y @ np.swapaxes(y, 1, 2).conj() + np.eye(2)
        c = 0.3 * (rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2)))
        joint = hermitize(np.block([[a, c], [np.swapaxes(c, 1, 2).conj(), b]]))
        leading, trailing, chol = logdet_hermitian_pd(joint, split=3, factor=True)
        pair = logdet_hermitian_pd(joint, split=3)
        assert np.array_equal(leading, pair[0]) and np.array_equal(trailing, pair[1])
        cross = chol[:, 3:, :3]
        expected = np.swapaxes(c, 1, 2).conj() @ np.linalg.solve(a, c)
        assert np.max(np.abs(cross @ np.swapaxes(cross, 1, 2).conj() - expected)) \
            <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(chol[:, :3, :3] - np.linalg.cholesky(a))) <= 1e-12 * np.max(np.abs(a))
        single = logdet_hermitian_pd(joint[4], split=3, factor=True)
        assert type(single[0]) is float and np.array_equal(single[2], chol[4])

    def test_factor_needs_a_split(self):
        with pytest.raises(ValueError, match="factor needs split"):
            logdet_hermitian_pd(np.eye(2), factor=True)


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

    @pytest.mark.parametrize("index,asymmetry", [((1, 0), "1.000e-06"),
                                                 ((2, 2), "2.000e-06"),
                                                 ((0, 2), "1.000e-06")],
                             ids=["lower", "diagonal", "upper"])
    def test_asymmetry_is_caught_in_either_triangle(self, rng, index, asymmetry):
        # the check reads one triangle; a lower entry, or an imaginary part
        # on the diagonal, shows there as well
        stack = self.pd_stack(rng, 3, 3)
        stack[(1,) + index] += 1e-6j
        with pytest.raises(NotHermitian, match=f"max asymmetry {asymmetry} "):
            logdet_hermitian_pd(stack)

    @pytest.mark.parametrize("entry", [np.inf, np.nan, complex(np.inf, 1.0)])
    def test_non_finite_matrix_is_nan_and_not_factored(self, rng, entry):
        # its asymmetry reads NaN; the other matrices keep their values
        stack = self.pd_stack(rng, 4, 2)
        stack[1, 0, 0] = entry
        with np.errstate(invalid="ignore"):
            out = logdet_hermitian_pd(stack)
            single = logdet_hermitian_pd(stack[1])
        assert np.isnan(out[1]) and np.isnan(single)
        for k in (0, 2, 3):
            assert out[k] == logdet_hermitian_pd(stack[k])

    def test_overflowing_trace_gives_nan_not_an_infinite_jitter(self, rng):
        # finite and not PD, but its trace, and so its jitter, overflows
        stack = self.pd_stack(rng, 3, 3)
        stack[1] = np.diag([1.0e308, 1.0e308, -1.0])
        with np.errstate(over="ignore"):
            out = logdet_hermitian_pd(stack)
        assert np.isnan(out[1])
        assert out[2] == logdet_hermitian_pd(stack[2])


class TestMaxAsymmetry:
    """The one-triangle check equals the maximum over the whole difference
    m - m^H, bit for bit, and leaves its input as it was."""

    @staticmethod
    def full(m):
        return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))

    @staticmethod
    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (256, 8, 8), (3, 4, 6, 6)])
    def test_equals_the_full_difference_on_random_stacks(self, rng, shape):
        special = [np.nan, np.inf, -np.inf, complex(np.inf, 1.0),
                   complex(0.0, -np.inf), complex(np.nan, 0.0), 0.0, -0.0]
        for trial in range(40):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if trial % 2:
                m = (m + np.swapaxes(m, -1, -2).conj()) / 2.0  # Hermitian ...
                m *= 10.0 ** rng.integers(-300, 300)
                m.flat[rng.integers(m.size)] += 1e-7  # ... but for one entry
            for _ in range(trial % 4):
                m.flat[rng.integers(m.size)] = special[rng.integers(len(special))]
            before = m.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                expected, got = self.full(m), _max_asymmetry(m)
            assert self.same(got, expected), (trial, got, expected)
            assert np.array_equal(m, before, equal_nan=True)

    def test_exactly_hermitian_reads_zero(self, rng):
        a = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        assert _max_asymmetry(hermitize(a)) == 0.0


class TestHermitize:
    @pytest.mark.parametrize("transposed", [False, True])
    def test_is_the_plain_formula_in_one_c_contiguous_array(self, rng, transposed):
        a = rng.standard_normal((256, 8, 8)) + 1j * rng.standard_normal((256, 8, 8))
        m = np.swapaxes(a, -1, -2) if transposed else a
        expected = (m + np.swapaxes(m, -1, -2).conj()) / 2.0
        before = m.copy()
        out = hermitize(m)
        assert np.array_equal(out, expected)
        assert out.flags.c_contiguous
        assert np.array_equal(m, before)


class TestCapacityLogdet:
    # log2 det(I + gamma H H^H), the capacity log-det (the push-through case
    # is in test_capacity)
    def test_zero_snr(self, rng):
        h = rng.standard_normal((3, 2))
        assert capacity_logdet(h, 0.0) == 0.0

    def test_identity_channel(self):
        assert capacity_logdet(np.eye(2), 3.0) == pytest.approx(4.0, abs=1e-12)
