"""Two-way MIMO probing scenario: configuration, channels, pilots.

A coherence period has four windows: Alice sends a pilot (phi_a slots) then a
random payload (v_a slots); Bob does the same (phi_b, v_b).  Channels are
block fading: constant within a period, redrawn independently across periods.
The forward/reverse channels between Alice and Bob are correlated entrywise
by the reciprocity coefficient rho; Eve's channels are independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidNoise, PilotTooShort, ValidationError
from .numerics import as_generator, sample_cgaussian

# |rho| at or above this counts as perfectly reciprocal (float equality with
# 1.0 would be meaningless).
RHO_UNITY_TOL = 1e-12


def default_pilot_length(n: int) -> int:
    """Pilot window long enough that pilot-based channel estimates are
    effectively exact (error variance ~ 1/(gamma*psi + 1))."""
    return max(100 * n, 64)


@dataclass(frozen=True)
class ProbingConfig:
    """All scenario parameters.

    Antenna counts n_a/n_b/n_e, random-probe window lengths v_a/v_b (slots,
    may be zero), pilot window lengths phi_a/phi_b (default
    ``default_pilot_length``), per-antenna transmit powers power_a/power_b,
    receiver noise variances noise_a/noise_b (> 0), Eve's noise variances
    relative to each transmitter noise_ea/noise_eb (>= 0; zero models a
    noiseless eavesdropper in limit studies), and the complex reciprocity
    correlation rho with ``|rho| <= 1``.

    Pilot entries have unit power, so the pilot row-norm psi equals phi and
    is derived rather than stored.
    """

    n_a: int
    n_b: int
    n_e: int
    v_a: int = 1
    v_b: int = 0
    phi_a: int = 0  # 0 means "use default_pilot_length(n_a)"
    phi_b: int = 0
    power_a: float = 1.0
    power_b: float = 1.0
    noise_a: float = 1.0
    noise_b: float = 1.0
    noise_ea: float = 1.0
    noise_eb: float = 1.0
    rho: complex = 0.0

    def __post_init__(self):
        for name in ("n_a", "n_b", "n_e"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("v_a", "v_b"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.phi_a == 0:
            object.__setattr__(self, "phi_a", default_pilot_length(self.n_a))
        if self.phi_b == 0:
            object.__setattr__(self, "phi_b", default_pilot_length(self.n_b))
        if self.phi_a < self.n_a:
            raise ValidationError(f"phi_a < n_a ({self.phi_a} < {self.n_a}): pilot rows cannot be orthogonal")
        if self.phi_b < self.n_b:
            raise ValidationError(f"phi_b < n_b ({self.phi_b} < {self.n_b}): pilot rows cannot be orthogonal")
        for name in ("power_a", "power_b", "noise_a", "noise_b", "noise_ea",
                     "noise_eb", "rho"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("power_a", "power_b"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("noise_a", "noise_b"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("noise_ea", "noise_eb"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "rho", complex(self.rho))
        if abs(self.rho) > 1.0 + RHO_UNITY_TOL:
            raise ValidationError(f"|rho| must be <= 1, got {abs(self.rho)}")

    @property
    def psi_a(self) -> float:
        return float(self.phi_a)

    @property
    def psi_b(self) -> float:
        return float(self.phi_b)

    @property
    def reciprocal(self) -> bool:
        """True when |rho| counts as exactly 1."""
        return abs(self.rho) >= 1.0 - RHO_UNITY_TOL

    def swap_roles(self) -> "ProbingConfig":
        """Exchange the Alice and Bob roles (rho is conjugated; only |rho|^2
        enters any formula, so the conjugation is unobservable downstream)."""
        return ProbingConfig(
            n_a=self.n_b, n_b=self.n_a, n_e=self.n_e,
            v_a=self.v_b, v_b=self.v_a,
            phi_a=self.phi_b, phi_b=self.phi_a,
            power_a=self.power_b, power_b=self.power_a,
            noise_a=self.noise_b, noise_b=self.noise_a,
            noise_ea=self.noise_eb, noise_eb=self.noise_ea,
            rho=complex(self.rho).conjugate(),
        )


@dataclass(frozen=True)
class GammaSet:
    """Receive SNRs: gamma_ab at Alice, gamma_ba at Bob, gamma_ea/gamma_eb at
    Eve.  A value of math.inf flags a noiseless eavesdropper."""

    gamma_ab: float
    gamma_ba: float
    gamma_ea: float
    gamma_eb: float


def derive_gammas(config: ProbingConfig) -> GammaSet:
    """Power/noise ratios for all four receive directions.

    noise_ea or noise_eb equal to zero is permitted for limit studies; the
    corresponding SNR is flagged as math.inf.
    """
    if config.noise_a <= 0 or config.noise_b <= 0:
        raise InvalidNoise("noise_a and noise_b must be > 0")
    return GammaSet(
        gamma_ab=config.power_b / config.noise_a,
        gamma_ba=config.power_a / config.noise_b,
        gamma_ea=math.inf if config.noise_ea == 0 else config.power_a / config.noise_ea,
        gamma_eb=math.inf if config.noise_eb == 0 else config.power_b / config.noise_eb,
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the four channel matrices, or a block of draws.

    h_ba (n_b x n_a) is the Alice-to-Bob response, h_ab (n_a x n_b) the
    Bob-to-Alice response; g_a (n_e x n_a) and g_b (n_e x n_b) are Eve's
    channels from Alice and Bob.  Entrywise, h_ab^T = rho*h_ba +
    sqrt(1-|rho|^2)*residual, so rho=1 gives h_ab == h_ba^T exactly.

    A block stacks its trials along a leading axis of every matrix
    (h_ba has shape (trials, n_b, n_a), and so on); indexing a block
    selects trials: block[j] is trial j, block[:k] the first k trials.
    """

    h_ba: np.ndarray
    h_ab: np.ndarray
    g_a: np.ndarray
    g_b: np.ndarray

    @property
    def n_a(self) -> int:
        return self.h_ba.shape[-1]

    @property
    def n_b(self) -> int:
        return self.h_ba.shape[-2]

    @property
    def n_e(self) -> int:
        return self.g_a.shape[-2]

    @property
    def trials_shape(self) -> tuple[int, ...]:
        """() for a single draw, (trials,) for a block."""
        return self.h_ba.shape[:-2]

    def __getitem__(self, index) -> "ChannelRealization":
        return ChannelRealization(self.h_ba[index], self.h_ab[index],
                                  self.g_a[index], self.g_b[index])

    def swap_roles(self) -> "ChannelRealization":
        return ChannelRealization(h_ba=self.h_ab, h_ab=self.h_ba,
                                  g_a=self.g_b, g_b=self.g_a)


def sample_channels(config: ProbingConfig, stream,
                    trials: int | None = None) -> ChannelRealization:
    """Draw one correlated channel realization, or a block of `trials`.

    Sampling order is fixed (h_ba, reciprocity residual, g_a, g_b), each
    drawn for the whole block at once, so that changing n_e does not
    disturb the legitimate-channel draws of a given stream -- that is what
    makes common-random-number sweeps work.
    """
    rng = as_generator(stream)
    rho = complex(config.rho)
    h_ba = sample_cgaussian(config.n_b, config.n_a, rng, trials)
    resid = sample_cgaussian(config.n_b, config.n_a, rng, trials)
    scale = np.sqrt(max(0.0, 1.0 - abs(rho) ** 2))
    h_ab = np.ascontiguousarray(np.swapaxes(rho * h_ba + scale * resid, -1, -2))
    g_a = sample_cgaussian(config.n_e, config.n_a, rng, trials)
    g_b = sample_cgaussian(config.n_e, config.n_b, rng, trials)
    return ChannelRealization(_frozen(h_ba), _frozen(h_ab), _frozen(g_a), _frozen(g_b))


def generate_pilot(n: int, phi: int) -> np.ndarray:
    """Row-wise orthogonal pilot: first n rows of the phi-point DFT matrix.

    Entries are unit modulus, so pilot @ pilot^H == phi * I exactly (phases
    are reduced mod phi before exponentiation to keep the orthogonality
    residual at round-off level for large phi).
    """
    if n < 1:
        raise ValidationError(f"pilot needs n >= 1, got {n}")
    if phi < n:
        raise PilotTooShort(f"phi < n ({phi} < {n})")
    k = np.arange(n, dtype=np.int64)[:, None]
    ell = np.arange(phi, dtype=np.int64)[None, :]
    return np.exp(-2j * np.pi * ((k * ell) % phi) / phi)
