"""Reproducible Monte Carlo expectation engine.

Trials are drawn in fixed blocks of BLOCK trials: block b holds trials
b*BLOCK .. (b+1)*BLOCK - 1 and is sampled as stacked (trials, rows, cols)
channel arrays from the counter-based stream keyed by (master_seed, b),
one substream per channel matrix.  A matrix is drawn when an integrand
first reads it, so a block costs only the channels its integrands use.
Draws are trial-major, and the last block draws only the trials the run
keeps; its first k trials are still those of the whole block, so the
first k trials of a run are those of any longer run at the same seed and
prefix estimates are exactly reproducible.  `collect` is the one trial
loop: it evaluates a block integrand once per block on the whole stack and
writes each named value into one preallocated array over all trials, so a
run holds its samples once, and `estimate` reduces what it returns to a
mean and standard error.
Aggregation is a numpy reduction whose shape depends only on the number
of values, so every result is bit-identical from run to run.  The engine
is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from .channel import ChannelRealization, ProbingConfig, sample_channels
from .errors import IntegrandFailure, ValidationError
from .numerics import RngStream

# block integrand: a block of draws in, named per-trial value arrays out; a
# name is any orderable key, printed with str() in error messages
BlockIntegrand = Callable[[ChannelRealization], Mapping[Hashable, np.ndarray]]
# a block of draws in, one value per trial out (every *_sample integrand is one)
TrialIntegrand = Callable[[ChannelRealization], np.ndarray]

BLOCK = 256


@dataclass(frozen=True)
class McSettings:
    """Trial count and master seed of a Monte Carlo run.

    Both must be integers, and a bool is not one.  The seed keys a 64-bit
    Philox stream, so it must lie in [0, 2**64): a seed outside that range
    would silently draw what its value modulo 2**64 draws while the output
    records the unreduced seed.
    """

    trials: int = 10_000
    master_seed: int = 1

    def __post_init__(self):
        for name in ("trials", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValidationError(
                f"seed must be in [0, 2**64), got {self.master_seed}")


@dataclass(frozen=True)
class Estimate:
    """Mean and standard error of a scalar quantity in bits."""

    mean: float
    stderr: float
    trials: int
    method: str = "monte-carlo"

    @classmethod
    def exact(cls, value: float) -> "Estimate":
        return cls(mean=float(value), stderr=0.0, trials=0, method="exact")


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum by numpy's pairwise reduction over a contiguous float64 array,
    whose shape depends only on the length."""
    return float(np.add.reduce(np.ascontiguousarray(values, dtype=np.float64)))


def summarize(values: Sequence[float]) -> Estimate:
    """Two-pass mean/stderr, both passes pairwise for determinism."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise ValidationError("cannot summarize zero trials")
    mean = pairwise_sum(x) / n
    if n == 1:
        return Estimate(mean=float(mean), stderr=0.0, trials=1)
    dev = x - mean
    var = pairwise_sum(dev * dev) / (n - 1)
    return Estimate(mean=float(mean), stderr=float(np.sqrt(var / n)), trials=n)


def block_streams(settings: McSettings) -> Iterator[tuple[int, int, RngStream]]:
    """(first trial index, trials kept, stream of the block) for every
    block, in trial order.  A caller draws the kept trials, and no more,
    from substreams of the stream."""
    for b, start in enumerate(range(0, settings.trials, BLOCK)):
        yield start, min(BLOCK, settings.trials - start), RngStream(settings.master_seed, b)


def trial_blocks(config: ProbingConfig,
                 settings: McSettings) -> Iterator[tuple[int, ChannelRealization]]:
    """(first trial index, block of draws) for every block, in trial order;
    the last block holds only the trials up to the trial count."""
    for start, kept, stream in block_streams(settings):
        yield start, sample_channels(config, stream, kept)


def require_finite(arrays: Mapping[Hashable, np.ndarray]) -> None:
    """Raise IntegrandFailure for the lowest trial index holding a NaN or
    infinite value in any of the arrays."""
    failures = []
    for name, values in arrays.items():
        bad = ~np.isfinite(values)
        if bad.any():
            failures.append((int(np.argmax(bad)), name))
    if failures:
        trial, name = min(failures)
        raise IntegrandFailure(
            f"trial {trial}: {name} integrand is {arrays[name][trial]}")


def collect(integrand: BlockIntegrand, config: ProbingConfig,
            settings: McSettings) -> dict[Hashable, np.ndarray]:
    """Evaluate a block integrand on every block; one array per name.

    Every named value comes from the same draws, which is what turns
    expectation-level identities (for example upper = lower + gap) into
    exact per-sample identities.  Each name's values go straight into one
    (trials, *rest) array, allocated at the first block with the shape and
    dtype of that block's values, so the run keeps one copy of its samples
    and the result is bit for bit the blocks' concatenation.  An error in a
    block aborts the run, reported for that block's trial range, as does a
    block whose names, per-trial shapes or dtypes differ from the first
    block's; a non-finite value aborts it for the lowest failing trial
    index.
    """
    arrays: dict[Hashable, np.ndarray] = {}
    for start, block in trial_blocks(config, settings):
        kept = block.trials_shape[0]
        where = f"trials {start}-{start + kept - 1}"
        try:
            values = {name: np.asarray(v) for name, v in integrand(block).items()}
        except Exception as exc:
            raise IntegrandFailure(f"{where}: {exc}") from exc
        if not arrays:
            arrays = {name: np.empty((settings.trials, *v.shape[1:]), v.dtype)
                      for name, v in values.items()}
        if values.keys() != arrays.keys():
            raise IntegrandFailure(f"{where}: the integrand returned {sorted(map(str, values))}, "
                                   f"the first block {sorted(map(str, arrays))}")
        for name, v in values.items():
            out = arrays[name][start:start + kept]
            if v.shape != out.shape or v.dtype != out.dtype:
                raise IntegrandFailure(f"{where}: {name} values are {v.dtype} of shape {v.shape}, "
                                       f"not {out.dtype} of shape {out.shape}")
            out[...] = v
    require_finite(arrays)
    return arrays


def estimate(integrand: TrialIntegrand, config: ProbingConfig,
             settings: McSettings) -> Estimate:
    """Monte Carlo mean and standard error of a trial integrand."""
    return summarize(collect(lambda block: {"value": integrand(block)},
                             config, settings)["value"])
