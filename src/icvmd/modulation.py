"""Constant-envelope baseband waveform synthesis.

All frequencies are normalized (cycles/sample); the emitted signals have unit
magnitude per sample, so nonlinear amplifier models act on a constant envelope.
Every kind is keyed at one recipe, the module constants below; only the kind,
the length and the symbol seed vary.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ParameterError, check_int
from .signals import ComplexSignal


class ModulationKind(enum.Enum):
    CW = "cw"
    LFM = "lfm"
    BPSK = "bpsk"
    QPSK = "qpsk"
    PSK8 = "8psk"
    MSK = "msk"


_PSK_ORDER = {
    ModulationKind.BPSK: 2,
    ModulationKind.QPSK: 4,
    ModulationKind.PSK8: 8,
}


# The one waveform recipe every dataset keys: the amplifier, not the waveform,
# carries the fingerprint.  The widest kind, a keyed one budgeted a first-null
# half-width of one symbol rate, reaches 0.1 + 1/8 = 0.225, clear of Nyquist.
CARRIER = 0.1  # center frequency, cycles/sample
SAMPLES_PER_SYMBOL = 8  # rectangular symbol length of the keyed kinds
SWEEP_SPAN = 0.2  # total swept width of LFM, cycles/sample


def gen_baseband(kind: ModulationKind, n_samples: int, seed: int) -> ComplexSignal:
    """Generate ``n_samples`` of the requested unit-envelope waveform.

    Keyed kinds draw symbols from ``default_rng(seed)``; the same kind, length
    and seed always reproduce the same samples.
    """
    if not isinstance(kind, ModulationKind):
        raise ParameterError(f"kind must be a ModulationKind, got {kind!r}")
    check_int("n_samples", n_samples, 1)
    check_int("seed", seed, 0)
    t = np.arange(n_samples)
    rng = np.random.default_rng(seed)  # drawn from by the keyed kinds only
    n_sym = math.ceil(n_samples / SAMPLES_PER_SYMBOL)

    if kind is ModulationKind.CW:
        x = np.exp(2j * np.pi * CARRIER * t)
    elif kind is ModulationKind.LFM:
        f0 = CARRIER - SWEEP_SPAN / 2.0
        rate = SWEEP_SPAN / max(n_samples - 1, 1)  # one sample: phase 0
        x = np.exp(1j * (2.0 * np.pi * (f0 * t + 0.5 * rate * t**2)))
    elif kind in _PSK_ORDER:
        m = _PSK_ORDER[kind]
        symbols = rng.integers(0, m, n_sym)
        sym_phase = 2.0 * np.pi * symbols / m
        per_sample = np.repeat(sym_phase, SAMPLES_PER_SYMBOL)[:n_samples]
        x = np.exp(1j * (2.0 * np.pi * CARRIER * t + per_sample))
    else:  # MSK, the last kind of the closed enum
        bits = 2 * rng.integers(0, 2, n_sym) - 1
        deviation = 1.0 / (4.0 * SAMPLES_PER_SYMBOL)
        freq = CARRIER + deviation * np.repeat(bits, SAMPLES_PER_SYMBOL)[:n_samples]
        phase = np.zeros(n_samples)  # integrated frequency, phase[0] = 0
        phase[1:] = 2.0 * np.pi * np.cumsum(freq[:-1])
        x = np.exp(1j * phase)
    return ComplexSignal(x)
