"""Power-amplifier distortion models that imprint per-emitter fingerprints.

Each emitter is a Hammerstein model: a static odd-order polynomial
nonlinearity followed by a causal FIR memory filter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_int, is_real
from .signals import ComplexSignal


def _check_coeffs(name: str, values) -> tuple:
    """values, a non-empty list, tuple or 1-D array of finite real numbers
    (ints too, never a bool) with one nonzero at least, as a tuple of floats."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(values, (list, tuple)) or not values:
        raise ParameterError(f"{name} must be a non-empty 1-D array")
    if not all(is_real(v) for v in values):
        raise ParameterError(f"{name} must hold finite real numbers, not bools, got {values!r}")
    if not any(v != 0 for v in values):
        raise ParameterError(f"{name} must have at least one nonzero entry")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class EmitterProfile:
    """Hammerstein fingerprint of one emitter, kept as tuples of floats so that
    profiles compare and hash by value.

    nonlinear_coeffs b[k], k = 1..K -- weights of the odd polynomial
        sum_k b[k] * x * |x|**(k-1); even-order entries are normally zero.
    memory_taps c[q], q = 0..Q-1 -- causal FIR taps applied after the
        nonlinearity.
    """

    emitter_id: int
    nonlinear_coeffs: tuple
    memory_taps: tuple

    def __post_init__(self):
        check_int("emitter_id", self.emitter_id, 0)  # it names files and is the class label
        object.__setattr__(self, "nonlinear_coeffs", _check_coeffs("nonlinear_coeffs", self.nonlinear_coeffs))
        object.__setattr__(self, "memory_taps", _check_coeffs("memory_taps", self.memory_taps))


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


def emitter_bank() -> list:
    """The standard bank of seven Hammerstein emitter profiles.

    All emitters share ``DEFAULT_MEMORY_TAPS``; they differ only in the odd
    polynomial coefficients, which is where the fingerprint lives.
    """
    profiles = []
    for idx, (b3, b5) in enumerate(_BANK_B3_B5):
        profiles.append(EmitterProfile(idx, (1.0, 0.0, b3, 0.0, b5), DEFAULT_MEMORY_TAPS))
    return profiles


def auxiliary_bank(n_emitters: int, seed: int) -> list:
    """Randomly drawn disjoint emitter profiles used for pre-training.

    b3 and b5 are uniform on [0.1, 0.5] (same family as the main bank, but a
    fresh seeded draw), b1 = 1, even orders zero.  Emitter ids continue after
    the main bank so the two sets can never collide.
    """
    check_int("n_emitters", n_emitters, 1)
    rng = np.random.default_rng(seed)
    profiles = []
    for k in range(n_emitters):
        b3, b5 = rng.uniform(0.1, 0.5, 2)
        profiles.append(EmitterProfile(len(_BANK_B3_B5) + k, (1.0, 0.0, b3, 0.0, b5), DEFAULT_MEMORY_TAPS))
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
    return ComplexSignal(y)
