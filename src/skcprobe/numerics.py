"""Complex dense linear algebra and reproducible random streams.

Every log-determinant here is base 2, so all capacities and entropies built
on top of this module come out in bits.  All functions are pure; arrays are
never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily; importing it here puts that cost in the
# import of the package rather than in the first draw of a run
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, NotHermitian, NotPositiveDefinite

HERMITIAN_ATOL = 1e-10

_LN2 = float(np.log(2.0))
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Identical keys reproduce identical sequences bit for bit; distinct
    stream ids are independent by construction (Philox keyed generator).
    The Monte Carlo engine draws trial block b from stream_id=b, so a
    block's draws depend only on (master_seed, b).
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64],
            dtype=np.uint64,
        )
        return Generator(Philox(key=key))


def as_generator(stream: "RngStream | Generator") -> Generator:
    """Accept either an RngStream or an already-built numpy Generator."""
    if isinstance(stream, RngStream):
        return stream.generator()
    if isinstance(stream, Generator):
        return stream
    raise TypeError(f"expected RngStream or numpy Generator, got {type(stream)!r}")


def sample_cgaussian(rows: int, cols: int, stream, trials: int | None = None) -> np.ndarray:
    """Draw a rows x cols matrix of iid CN(0, 1) entries, or a stack of
    `trials` such matrices with shape (trials, rows, cols).

    Real and imaginary parts are independent N(0, 1/2), so each complex
    entry has unit variance.  All real parts are drawn before all imaginary
    parts.
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"matrix shape must be >= 1x1, got {rows}x{cols}")
    shape = (rows, cols) if trials is None else (trials, rows, cols)
    rng = as_generator(stream)
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out


def conj_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (m^H for each stacked matrix)."""
    return np.swapaxes(m, -1, -2).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^H)/2, per matrix of a stack.

    Gram and outer products from BLAS are Hermitian only to round-off at
    the matrix scale, which can exceed HERMITIAN_ATOL at high SNR; callers
    building covariance-like matrices pass them through here so the
    Hermitian check stays a genuine contract on the inputs.
    """
    m = np.asarray(m, dtype=complex)
    return (m + conj_t(m)) / 2.0


def _square_stack(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _per_matrix(values: np.ndarray):
    """A plain float for a single matrix, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def _cholesky_jittered(m: np.ndarray, index: int) -> np.ndarray:
    """Cholesky factor of one matrix, retried once with a tiny trace-scaled
    diagonal jitter; `index` names the matrix in the error."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        n = m.shape[0]
        jitter = 1e-12 * float(np.real(np.trace(m))) / n
        try:
            return np.linalg.cholesky(m + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"matrix {index}: Cholesky failed even with jitter {jitter:.3e}") from exc


def logdet_hermitian_pd(m: np.ndarray):
    """log2 det of a Hermitian positive-definite matrix via Cholesky.

    Accepts one matrix (returns a float) or a stack with shape (..., n, n)
    (returns an array of shape (...)).  The input must be Hermitian to
    HERMITIAN_ATOL, which callers ensure by passing Gram products through
    hermitize; it is checked and then factored as given.  If the
    factorization fails, each matrix is factored on its own and a failing
    one is retried once with a tiny trace-scaled diagonal jitter; a second
    failure raises NotPositiveDefinite naming the matrix's index in the
    flattened stack (these matrices are PD by construction, so failure
    indicates a caller bug rather than bad data).
    """
    m = _square_stack(m)
    asym = float(np.max(np.abs(m - conj_t(m))))
    if asym > HERMITIAN_ATOL:
        raise NotHermitian(f"max asymmetry {asym:.3e} exceeds {HERMITIAN_ATOL:.0e}")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        flat = m.reshape((-1,) + m.shape[-2:])
        chol = np.stack([_cholesky_jittered(x, k) for k, x in enumerate(flat)])
        chol = chol.reshape(m.shape)
    diag = np.real(np.diagonal(chol, axis1=-2, axis2=-1))
    return _per_matrix(2.0 * np.sum(np.log2(diag), axis=-1))


def logdet_lu(m: np.ndarray):
    """log2 |det m| via LU factorization, for one matrix or a stack.

    Deliberately a different arithmetic path from logdet_hermitian_pd; the
    resolvent-form identity checks rely on the two paths being independent.
    """
    _, logabs = np.linalg.slogdet(_square_stack(m))
    return _per_matrix(logabs / _LN2)
