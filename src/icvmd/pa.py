"""Power-amplifier distortion models that imprint per-emitter fingerprints.

Each emitter is a Hammerstein model: a static odd-order polynomial
nonlinearity followed by a causal FIR memory filter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .signals import ComplexSignal


def _check_coeffs(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    if not np.any(arr != 0.0):
        raise ParameterError(f"{name} must have at least one nonzero entry")
    return arr


@dataclass(frozen=True)
class EmitterProfile:
    """Hammerstein fingerprint of one emitter.

    nonlinear_coeffs b[k], k = 1..K -- weights of the odd polynomial
        sum_k b[k] * x * |x|**(k-1); even-order entries are normally zero.
    memory_taps c[q], q = 0..Q-1 -- causal FIR taps applied after the
        nonlinearity.
    """

    emitter_id: int
    nonlinear_coeffs: np.ndarray
    memory_taps: np.ndarray

    def __post_init__(self):
        b = _check_coeffs("nonlinear_coeffs", self.nonlinear_coeffs)
        c = _check_coeffs("memory_taps", self.memory_taps)
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "nonlinear_coeffs", b)
        object.__setattr__(self, "memory_taps", c)

    @property
    def nonlinear_order(self) -> int:
        return self.nonlinear_coeffs.size

    @property
    def memory_depth(self) -> int:
        return self.memory_taps.size


# Odd-order envelope coefficients of the seven-emitter bank: (b3, b5) pairs with
# b1 = 1 and even orders zero.  These are the fixed fingerprints the
# classification experiments try to tell apart.
_BANK_B3_B5 = (
    (0.1126, 0.2937),
    (0.2479, 0.1396),
    (0.3959, 0.1948),
    (0.5027, 0.2833),
    (0.1683, 0.4412),
    (0.3246, 0.3463),
    (0.4698, 0.3946),
)

# Shared memory taps: a mildly dispersive causal FIR, dominated by the direct path.
DEFAULT_MEMORY_TAPS = (1.0, 0.05, 0.01, 0.005, 0.001, 0.0005)


def emitter_bank(memory_taps=DEFAULT_MEMORY_TAPS) -> list:
    """The standard bank of seven Hammerstein emitter profiles.

    All emitters share ``memory_taps``; they differ only in the odd
    polynomial coefficients, which is where the fingerprint lives.
    """
    profiles = []
    for idx, (b3, b5) in enumerate(_BANK_B3_B5):
        b = np.array([1.0, 0.0, b3, 0.0, b5])
        profiles.append(EmitterProfile(idx, b, np.asarray(memory_taps, dtype=float)))
    return profiles


def auxiliary_bank(n_emitters: int, seed: int, memory_taps=DEFAULT_MEMORY_TAPS) -> list:
    """Randomly drawn disjoint emitter profiles used for pre-training.

    b3 and b5 are uniform on [0.1, 0.5] (same family as the main bank, but a
    fresh seeded draw), b1 = 1, even orders zero.  Emitter ids continue after
    the main bank so the two sets can never collide.
    """
    if n_emitters < 1:
        raise ParameterError("n_emitters must be >= 1")
    rng = np.random.default_rng(seed)
    profiles = []
    for k in range(n_emitters):
        b3, b5 = rng.uniform(0.1, 0.5, 2)
        b = np.array([1.0, 0.0, b3, 0.0, b5])
        profiles.append(
            EmitterProfile(len(_BANK_B3_B5) + k, b, np.asarray(memory_taps, dtype=float))
        )
    return profiles


def hammerstein_apply(sig: ComplexSignal, profile: EmitterProfile) -> ComplexSignal:
    """Static polynomial then causal FIR:

        v[n] = sum_k b[k] * x[n] * |x[n]|**(k-1)
        y[n] = sum_q c[q] * v[n-q]

    Output length equals input length (the FIR tail is truncated).
    """
    x = sig.samples
    mag = np.abs(x)
    v = np.zeros_like(x)
    for k, bk in enumerate(profile.nonlinear_coeffs, start=1):
        if bk != 0.0:
            v += bk * x * mag ** (k - 1)
    y = np.convolve(v, profile.memory_taps)[: x.size]
    out = sig.with_samples(y)
    out.meta["emitter_id"] = profile.emitter_id
    return out
