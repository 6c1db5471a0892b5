"""Complex baseband signal container and channel-level operations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, check_int, is_real


def _as_complex_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.ndim != 1:
        raise ParameterError(f"samples must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("samples must be non-empty")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ParameterError("samples must be finite")
    return arr


@dataclass(frozen=True)
class ComplexSignal:
    """An immutable, non-empty, finite 1-D complex128 sample sequence.

    It carries no sample rate: every stage works in normalized frequency
    (cycles/sample in synthesis, rad/sample in the decomposition).
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = _as_complex_samples(self.samples)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def power(self) -> float:
        """Mean squared magnitude of the samples."""
        return float(np.mean(np.abs(self.samples) ** 2))


def normalize_power(sig: ComplexSignal) -> ComplexSignal:
    """Rescale to unit mean squared magnitude; an all-zero signal raises
    DegenerateInputError."""
    p = sig.power
    if p <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero signal")
    return ComplexSignal(sig.samples * np.sqrt(1.0 / p))


def noise_variance(power: float, snr_db) -> float:
    """``power / 10**(snr_db/10)``, the noise variance per complex sample of a
    signal of mean power ``power`` at ``snr_db``.  Raises ParameterError
    naming an SNR that is not a finite number, or whose power ratio or
    variance is not a finite positive float64."""
    if not is_real(snr_db):
        raise ParameterError(f"snr_db must be a finite number, got {snr_db!r}")
    try:
        variance = power / 10.0 ** (float(snr_db) / 10.0)
    except (OverflowError, ZeroDivisionError):  # a ratio past float64's range, or under it
        variance = 0.0
    if not 0.0 < variance < float("inf"):
        raise ParameterError(f"SNR {snr_db} dB is out of range for a float64 power ratio and noise variance")
    return variance


def add_awgn(sig: ComplexSignal, snr_db: float, seed: int) -> ComplexSignal:
    """Add circular complex white Gaussian noise at the requested SNR.

    The noise variance per complex sample is ``noise_variance``, split
    equally between the real and imaginary parts.  Same ``seed`` in, same
    noise out, so ``seed`` must be an integer >= 0.
    """
    check_int("seed", seed, 0)
    p = sig.power
    if p <= 0.0:
        raise DegenerateInputError("SNR is undefined for an all-zero signal")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(noise_variance(p, snr_db) / 2.0)
    n = sig.samples.size
    noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ComplexSignal(sig.samples + noise)
