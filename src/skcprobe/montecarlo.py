"""Reproducible Monte Carlo expectation engine.

Trials are drawn in fixed blocks of BLOCK trials: block b holds trials
b*BLOCK .. (b+1)*BLOCK - 1 and is sampled as stacked (BLOCK, rows, cols)
channel arrays from the counter-based stream keyed by (master_seed, b).
A block is always drawn whole and then cut to the trial count, so the
first k trials of a run are those of any longer run at the same seed and
prefix estimates are exactly reproducible.  `collect` is the one trial
loop: it evaluates a block integrand once per block on the whole stack,
and `estimate` / `convergence_report` reduce what it returns.
Aggregation is a numpy reduction whose shape depends only on the number
of values, so every result is bit-identical from run to run.  The engine
is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .channel import ChannelRealization, ProbingConfig, sample_channels
from .errors import IntegrandFailure, ValidationError
from .numerics import RngStream

# block integrand: a block of draws in, named per-trial value arrays out
BlockIntegrand = Callable[[ChannelRealization], Mapping[str, np.ndarray]]
# a block of draws in, one value per trial out (every *_sample form is one)
TrialIntegrand = Callable[[ChannelRealization], np.ndarray]

BLOCK = 256


@dataclass(frozen=True)
class McSettings:
    """Trial count and master seed of a Monte Carlo run."""

    trials: int = 10_000
    master_seed: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")


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


def summarize(values: Sequence[float], method: str = "monte-carlo") -> Estimate:
    """Two-pass mean/stderr, both passes pairwise for determinism."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise ValidationError("cannot summarize zero trials")
    mean = pairwise_sum(x) / n
    if n == 1:
        return Estimate(mean=float(mean), stderr=0.0, trials=1, method=method)
    dev = x - mean
    var = pairwise_sum(dev * dev) / (n - 1)
    return Estimate(mean=float(mean), stderr=float(np.sqrt(var / n)),
                    trials=n, method=method)


def block_streams(settings: McSettings) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(first trial index, trials kept, generator of the block's stream) for
    every block, in trial order.  A caller draws BLOCK trials from the
    generator and keeps the first `trials kept` of them."""
    for b, start in enumerate(range(0, settings.trials, BLOCK)):
        yield (start, min(BLOCK, settings.trials - start),
               RngStream(settings.master_seed, b).generator())


def trial_blocks(config: ProbingConfig,
                 settings: McSettings) -> Iterator[tuple[int, ChannelRealization]]:
    """(first trial index, block of draws) for every block, in trial order;
    the last block is cut to the trial count."""
    for start, kept, rng in block_streams(settings):
        yield start, sample_channels(config, rng, BLOCK)[:kept]


def require_finite(arrays: Mapping[str, np.ndarray]) -> None:
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
            settings: McSettings) -> dict[str, np.ndarray]:
    """Evaluate a block integrand on every block; one array per name.

    Every named value comes from the same draws, which is what turns
    expectation-level identities (for example upper = lower + gap) into
    exact per-sample identities.  An error in a block aborts the run,
    reported for that block's trial range; a non-finite value aborts it
    for the lowest failing trial index.
    """
    parts: dict[str, list[np.ndarray]] = {}
    for start, block in trial_blocks(config, settings):
        try:
            values = integrand(block)
        except Exception as exc:
            stop = start + block.trials_shape[0] - 1
            raise IntegrandFailure(f"trials {start}-{stop}: {exc}") from exc
        for name, v in values.items():
            parts.setdefault(name, []).append(v)
    arrays = {name: np.concatenate(v) for name, v in parts.items()}
    require_finite(arrays)
    return arrays


def _values(integrand: TrialIntegrand, config: ProbingConfig,
            settings: McSettings) -> np.ndarray:
    """A trial integrand's values on every trial, in trial order."""
    return collect(lambda block: {"value": integrand(block)},
                   config, settings)["value"]


def estimate(integrand: TrialIntegrand, config: ProbingConfig,
             settings: McSettings) -> Estimate:
    """Monte Carlo mean and standard error of a trial integrand."""
    return summarize(_values(integrand, config, settings))


def convergence_report(integrand: TrialIntegrand, config: ProbingConfig,
                       settings: McSettings,
                       checkpoints: Sequence[int]) -> list[Estimate]:
    """Nested-prefix estimates: checkpoint k reuses the first k trials.

    Because blocks are drawn whole from streams keyed by (master_seed,
    block), the k-trial prefix is bit-identical to a fresh run with
    trials=k.
    """
    if not checkpoints:
        raise ValidationError("checkpoints must be nonempty")
    prev = 0
    for k in checkpoints:
        if k <= prev:
            raise ValidationError(f"checkpoints must be strictly increasing: {checkpoints}")
        prev = k
    if checkpoints[-1] > settings.trials:
        raise ValidationError(
            f"largest checkpoint {checkpoints[-1]} exceeds trials {settings.trials}")
    values = _values(integrand, config, settings)
    return [summarize(values[:k]) for k in checkpoints]
