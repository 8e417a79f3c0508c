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
from typing import Callable

import numpy as np

from .errors import InvalidNoise, PilotTooShort, ValidationError
from .numerics import RngStream, sample_cgaussian

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


# the channel that each channel becomes when Alice and Bob exchange roles
_SWAPPED = {"h_ba": "h_ab", "h_ab": "h_ba", "g_a": "g_b", "g_b": "g_a"}


class ChannelRealization:
    """One draw of the four channel matrices, or a block of draws, each
    matrix produced on first read and then kept.

    h_ba (n_b x n_a) is the Alice-to-Bob response, h_ab (n_a x n_b) the
    Bob-to-Alice response; g_a (n_e x n_a) and g_b (n_e x n_b) are Eve's
    channels from Alice and Bob.  Entrywise, h_ab^T = rho*h_ba +
    sqrt(1-|rho|^2)*residual, so rho=1 gives h_ab == h_ba^T exactly.

    A block stacks its trials along a leading axis of every matrix
    (h_ba has shape (trials, n_b, n_a), and so on); indexing a block
    selects trials: block[j] is trial j, block[:k] the first k trials.
    Indexing and swap_roles read the matrices of the realization they
    come from, so neither draws anything a caller does not read.

    `read(realization, name)` produces the matrix `name` (h_ba, h_ab, g_a
    or g_b) on its first read.  from_arrays builds a realization from given
    matrices, and sample_channels one that draws them.
    """

    __slots__ = ("_read", "_matrices", "trials_shape")

    def __init__(self, read: Callable[["ChannelRealization", str], np.ndarray],
                 trials_shape: tuple[int, ...]):
        self._read = read
        self._matrices: dict[str, np.ndarray] = {}
        self.trials_shape = trials_shape  # () for a single draw, (trials,) for a block

    @classmethod
    def from_arrays(cls, h_ba, h_ab, g_a, g_b) -> "ChannelRealization":
        matrices = {"h_ba": h_ba, "h_ab": h_ab, "g_a": g_a, "g_b": g_b}
        return cls(lambda _, name: matrices[name], np.shape(h_ba)[:-2])

    def _matrix(self, name: str) -> np.ndarray:
        m = self._matrices.get(name)
        if m is None:
            m = self._matrices[name] = self._read(self, name)
        return m

    h_ba = property(lambda self: self._matrix("h_ba"))
    h_ab = property(lambda self: self._matrix("h_ab"))
    g_a = property(lambda self: self._matrix("g_a"))
    g_b = property(lambda self: self._matrix("g_b"))

    def __getitem__(self, index) -> "ChannelRealization":
        shape = np.empty(self.trials_shape, dtype=bool)[index].shape
        return ChannelRealization(lambda _, name: self._matrix(name)[index], shape)

    def swap_roles(self) -> "ChannelRealization":
        return ChannelRealization(lambda _, name: self._matrix(_SWAPPED[name]),
                                  self.trials_shape)

    def per_trial(self, value):
        """`value` as one number per trial: a float for a single draw, an
        array over the trials of a block."""
        if not self.trials_shape:
            return float(value)
        return np.broadcast_to(value, self.trials_shape)


# the matrices sample_channels draws; each comes from the substream of the
# block's stream numbered by its position here
DRAWN = ("h_ba", "residual", "g_a", "g_b")


def sample_channels(config: ProbingConfig, stream: RngStream,
                    trials: int | None = None) -> ChannelRealization:
    """One correlated channel realization, or a block of `trials`, whose
    matrices are drawn on first read.

    Each matrix of DRAWN (h_ba, the reciprocity residual, g_a, g_b) is one
    sample_cgaussian draw from its own substream of `stream`, so it depends
    only on the stream and its own shape: h_ba does not change with n_e or
    rho, nor g_a with n_b or rho -- that is what makes common-random-number
    sweeps work -- and an integrand that reads h_ba and g_a draws nothing
    else.  h_ab is formed from h_ba and the residual when it is read.
    Draws are trial-major, so the first k trials of a block are those of
    any larger block from the same stream, and a single draw is trial 0.
    """
    if not isinstance(stream, RngStream):
        raise TypeError(f"expected RngStream, got {type(stream)!r}")
    shapes = {"h_ba": (config.n_b, config.n_a), "residual": (config.n_b, config.n_a),
              "g_a": (config.n_e, config.n_a), "g_b": (config.n_e, config.n_b)}
    rho = complex(config.rho)
    scale = np.sqrt(max(0.0, 1.0 - abs(rho) ** 2))

    def draw(name: str) -> np.ndarray:
        return sample_cgaussian(*shapes[name], stream.split(DRAWN.index(name)), trials)

    def read(block: ChannelRealization, name: str) -> np.ndarray:
        if name != "h_ab":
            return _frozen(draw(name))
        h_ab = rho * block.h_ba + scale * draw("residual")
        return _frozen(np.ascontiguousarray(np.swapaxes(h_ab, -1, -2)))

    return ChannelRealization(read, () if trials is None else (trials,))


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
