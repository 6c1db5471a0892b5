"""Constant-envelope baseband waveform synthesis.

All frequencies are normalized (cycles/sample); the emitted signals have unit
magnitude per sample, so nonlinear amplifier models act on a constant envelope.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ModulationSpec:
    """Waveform recipe: what to key, where to sit in the band, and the symbol RNG seed.

    carrier       -- center frequency in cycles/sample
    samples_per_symbol -- rectangular symbol length for keyed kinds
    sweep_span    -- total swept width (cycles/sample) for LFM
    seed          -- drives the symbol/bit draw only (noise is seeded separately)
    """

    kind: ModulationKind
    carrier: float = 0.1
    samples_per_symbol: int = 8
    sweep_span: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, ModulationKind):
            raise ParameterError(f"kind must be a ModulationKind, got {self.kind!r}")
        if not (0.0 <= self.carrier < 0.5):
            raise ParameterError(f"carrier must lie in [0, 0.5), got {self.carrier}")
        check_int("samples_per_symbol", self.samples_per_symbol, 1)
        if not (0.0 <= self.sweep_span):
            raise ParameterError("sweep_span must be >= 0")
        hw = occupied_halfwidth(self)
        if self.carrier + hw >= 0.5:
            raise ParameterError(
                f"carrier {self.carrier} + occupied half-width {hw:.4f} reaches the "
                "Nyquist edge; the waveform would alias"
            )


def occupied_halfwidth(spec: ModulationSpec) -> float:
    """Rough one-sided occupied bandwidth used by the aliasing guard.

    CW occupies a line; LFM half its sweep span; keyed kinds are budgeted a
    first-null half-width of one symbol rate.
    """
    if spec.kind is ModulationKind.CW:
        return 0.0
    if spec.kind is ModulationKind.LFM:
        return spec.sweep_span / 2.0
    return 1.0 / spec.samples_per_symbol


def gen_baseband(spec: ModulationSpec, n_samples: int) -> ComplexSignal:
    """Generate ``n_samples`` of the requested unit-envelope waveform.

    Keyed kinds draw symbols from ``default_rng(spec.seed)``; the same spec and
    length always reproduce the same samples.
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    t = np.arange(n_samples)
    kind = spec.kind

    if kind is ModulationKind.CW:
        x = np.exp(2j * np.pi * spec.carrier * t)
    elif kind is ModulationKind.LFM:
        f0 = spec.carrier - spec.sweep_span / 2.0
        rate = spec.sweep_span / max(n_samples - 1, 1)  # one sample: phase 0
        x = np.exp(1j * (2.0 * np.pi * (f0 * t + 0.5 * rate * t**2)))
    elif kind in _PSK_ORDER:
        m = _PSK_ORDER[kind]
        rng = np.random.default_rng(spec.seed)
        n_sym = math.ceil(n_samples / spec.samples_per_symbol)
        symbols = rng.integers(0, m, n_sym)
        sym_phase = 2.0 * np.pi * symbols / m
        per_sample = np.repeat(sym_phase, spec.samples_per_symbol)[:n_samples]
        x = np.exp(1j * (2.0 * np.pi * spec.carrier * t + per_sample))
    elif kind is ModulationKind.MSK:
        rng = np.random.default_rng(spec.seed)
        n_sym = math.ceil(n_samples / spec.samples_per_symbol)
        bits = 2 * rng.integers(0, 2, n_sym) - 1
        deviation = 1.0 / (4.0 * spec.samples_per_symbol)
        freq = spec.carrier + deviation * np.repeat(bits, spec.samples_per_symbol)[:n_samples]
        phase = np.zeros(n_samples)  # integrated frequency, phase[0] = 0
        phase[1:] = 2.0 * np.pi * np.cumsum(freq[:-1])
        x = np.exp(1j * phase)
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unsupported modulation kind {kind!r}")
    return ComplexSignal(x)
