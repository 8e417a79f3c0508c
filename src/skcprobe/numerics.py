"""Complex dense linear algebra and reproducible random streams.

Every log-determinant here is base 2, so all capacities and entropies built
on top of this module come out in bits.  No function modifies its inputs;
hermitize returns a new array.
"""

from __future__ import annotations

import functools
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
    """Counter-based random stream keyed by (master_seed, stream_id), split
    into substreams.

    Identical keys reproduce identical sequences bit for bit; distinct
    stream ids are independent by construction (Philox keyed generator).
    Substream k of a stream starts the Philox4x64 counter at k * 2**192,
    that is with k in the counter's high 64-bit word; a draw advances the
    counter from its low word, one step per four 64-bit outputs, so two
    substreams could only overlap after 2**192 steps.  The Monte Carlo
    engine draws trial block b from stream_id=b and each channel matrix of
    the block from its own substream (see channel.sample_channels), so a
    matrix's draws depend only on (master_seed, b, matrix).
    """

    master_seed: int
    stream_id: int = 0
    substream: int = 0

    def generator(self) -> Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64],
            dtype=np.uint64,
        )
        counter = np.array([0, 0, 0, self.substream & _MASK64], dtype=np.uint64)
        return Generator(Philox(key=key, counter=counter))

    def split(self, substream: int) -> "RngStream":
        """Substream `substream` of this stream's key."""
        return RngStream(self.master_seed, self.stream_id, substream)


_SQRT_HALF = float(np.sqrt(0.5))


def sample_cgaussian(rows: int, cols: int, stream: RngStream,
                     trials: int | None = None) -> np.ndarray:
    """Draw a rows x cols matrix of iid CN(0, 1) entries, or a stack of
    `trials` such matrices with shape (trials, rows, cols).

    Real and imaginary parts are independent N(0, 1/2), so each complex
    entry has unit variance.  The draw is one standard_normal of shape
    (trials, rows, cols, 2) viewed as complex: trial-major, each entry's
    real part followed by its imaginary part.  So the first k trials drawn
    from a stream are those of any longer draw from the same stream, and a
    single matrix is trial 0 of a stack.
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"matrix shape must be >= 1x1, got {rows}x{cols}")
    shape = (rows, cols) if trials is None else (trials, rows, cols)
    parts = stream.generator().standard_normal(shape + (2,))
    parts *= _SQRT_HALF
    return parts.view(complex).reshape(shape)


def conj_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (m^H for each stacked matrix)."""
    return np.swapaxes(m, -1, -2).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^H)/2, per matrix of a stack, as one new
    C-contiguous array.

    Gram and outer products from BLAS are Hermitian only to round-off at
    the matrix scale, which can exceed HERMITIAN_ATOL at high SNR; callers
    building covariance-like matrices pass them through here so the
    Hermitian check stays a genuine contract on the inputs.
    """
    m = np.asarray(m, dtype=complex)
    out = np.empty(m.shape, dtype=complex)
    np.conjugate(np.swapaxes(m, -1, -2), out=out)
    out += m
    out /= 2.0
    return out


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
    diagonal jitter; `index` names the matrix in the error.  A matrix whose
    trace overflows has no finite jitter and is not retried: its factor is
    all NaN."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        n = m.shape[0]
        jitter = 1e-12 * float(np.real(np.trace(m))) / n
        if not np.isfinite(jitter):
            return np.full_like(m, np.nan)
        try:
            return np.linalg.cholesky(m + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"matrix {index}: Cholesky failed even with jitter {jitter:.3e}") from exc


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle and the diagonal of an
    n x n matrix, row by row; built once per size and read-only."""
    r = np.arange(n)
    rows, cols = np.nonzero(r[:, None] <= r)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _max_asymmetry(m: np.ndarray) -> float:
    """max |m - m^H| over a stack, read from the upper triangle and the
    diagonal only: d = m[i, j] - conj(m[j, i]) for i <= j.  The entry at
    (j, i) of m - m^H has real part -d.real exactly (IEEE subtraction gives
    a - b == -(b - a)) and imaginary part d.imag (a sum of the same two
    terms), so its modulus equals |d| bit for bit, and the maximum, NaN
    included, is that of the whole difference at about half the work and
    memory.  A difference that is all zeros skips the moduli, its maximum
    being 0.0 (a NaN is not zero); the engine's matrices, sums of real
    multiples of hermitize's output and I, are all exactly Hermitian.  m is
    not modified."""
    i, j = _upper_triangle(m.shape[-1])
    d = m[..., i, j]
    mirrored = m[..., j, i]
    np.conjugate(mirrored, out=mirrored)
    d -= mirrored
    if not d.any():
        return 0.0
    return float(np.max(np.abs(d)))


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Cholesky factor of each matrix of a stack; see logdet_hermitian_pd
    for the checks, the jitter retry and the NaN factors.  A stack in which
    some matrix holds a NaN or an infinite entry (its asymmetry reads NaN)
    is factored with the identity standing in for each such matrix, so
    every other matrix keeps its index, and that matrix's factor is then
    NaN."""
    asym = _max_asymmetry(m)
    if not asym <= HERMITIAN_ATOL:
        if not np.isnan(asym):
            raise NotHermitian(f"max asymmetry {asym:.3e} exceeds {HERMITIAN_ATOL:.0e}")
        finite = np.isfinite(m).all(axis=(-2, -1))
        chol = _cholesky(np.where(finite[..., None, None], m, np.eye(m.shape[-1])))
        chol[~finite] = np.nan
        return chol
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        flat = m.reshape((-1,) + m.shape[-2:])
        chol = np.stack([_cholesky_jittered(x, k) for k, x in enumerate(flat)])
        return chol.reshape(m.shape)


def logdet_hermitian_pd(m: np.ndarray, split: int | None = None, factor: bool = False):
    """log2 det of a Hermitian positive-definite matrix via Cholesky.

    Accepts one matrix (returns a float) or a stack with shape (..., n, n)
    (returns an array of shape (...)).  With `split` = k it returns the
    pair (leading, trailing) instead: the log-det of the leading k x k
    block, and that of the trailing block's Schur complement, which add up
    to the whole (the factor's first k and last n - k diagonal entries).
    With `factor` as well it returns a third value, the lower-triangular
    Cholesky factor L itself, from which a caller reads what else it needs:
    for m = [[A, B^H], [B, C]] the off-diagonal block L21 has L21 L21^H =
    B A^-1 B^H, and the leading block L11 L11^H = A.

    The input must be Hermitian to HERMITIAN_ATOL, which callers ensure by
    passing Gram products through hermitize; it is checked, on one triangle
    and the diagonal (see _max_asymmetry), and then factored as given, and
    it is never modified, so a caller may pass a work array and overwrite
    it afterwards.  If the factorization fails, each matrix is factored on
    its own and a failing one is retried once with a tiny trace-scaled
    diagonal jitter; a second failure raises NotPositiveDefinite naming the
    matrix's index in the flattened stack (these matrices are PD by
    construction, so failure indicates a caller bug rather than bad data).

    Two matrices are out of double range and get a NaN log-det (every part
    of a split), which the Monte Carlo engine's finiteness check then
    reports for its trial: one holding a NaN or an infinite entry, which is
    not factored, and one whose factorization fails and whose trace, and
    so its jitter, overflows.
    """
    if factor and split is None:
        raise ValueError("factor needs split")
    chol = _cholesky(_square_stack(m))
    log_diag = np.log2(np.real(np.diagonal(chol, axis1=-2, axis2=-1)))
    if split is None:
        return _per_matrix(2.0 * np.sum(log_diag, axis=-1))
    parts = (_per_matrix(2.0 * np.sum(log_diag[..., :split], axis=-1)),
             _per_matrix(2.0 * np.sum(log_diag[..., split:], axis=-1)))
    return parts + (chol,) if factor else parts


def logdet_lu(m: np.ndarray):
    """log2 |det m| via LU factorization, for one matrix or a stack.

    Deliberately a different arithmetic path from logdet_hermitian_pd; the
    resolvent-form identity checks rely on the two paths being independent.
    """
    _, logabs = np.linalg.slogdet(_square_stack(m))
    return _per_matrix(logabs / _LN2)
