"""Fixed-layout feature vectors from a two-sided decomposition.

Layout of the ``3*MAX_MODES + 12`` entries:

    [0 : 3*MAX_MODES)   per retained mode, energy-descending:
                        (center frequency [rad, negative side negated],
                         3 dB bandwidth [rad],
                         energy fraction of the two real side sequences'
                         summed energy, about half the complex input's)
                        zero-padded when fewer modes, or none, are retained
    [3*MAX_MODES : +4)  |C20|, C21, |C40|, C42 of the feature-part
                        reconstruction (fourth-order mixed cumulants of the
                        centered complex sequence), zero when none is
    [3*MAX_MODES+4 : +8) the same four cumulants of the input itself, which
                        the full selection returns bit for bit: this block
                        equals raw_cumulant_features
    [3*MAX_MODES+8 : +12) the same four cumulants of the narrowband-mode
                        (SIGNAL-labeled) reconstruction only

Retained modes are those labeled FEATURE on either side, with nonzero energy.

The decomposition is linear in the input, so every geometric quantity
(centers, bandwidths, energy fractions) is invariant to an overall gain; the
absolute cumulant blocks are what carry amplifier-scale fingerprints.  The
input block is (near) modulation-invariant for unit-envelope waveforms, the
feature-part block reacts to distortion and noise-floor structure, and the
signal-part block reads the power of the SIGNAL modes alone.
"""
from __future__ import annotations

import numpy as np

from .decompose import IcvmdResult, ModeLabel, label_parts
from .errors import DegenerateInputError, ParameterError
from .signals import ComplexSignal

MAX_MODES = 6


def cumulants(z: np.ndarray) -> dict:
    """Second- and fourth-order moments/cumulants of a centered complex sequence.

        C20 = E[y^2]        C21 = E[|y|^2]
        C40 = E[y^4] - 3*C20^2
        C42 = E[|y|^4] - |C20|^2 - 2*C21^2

    where y = z - mean(z), taken as products of y*y and of |y|^2 = re^2 + im^2.
    A sequence whose cumulants overflow float64 raises DegenerateInputError.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size < 2:
        raise ParameterError("cumulants need a 1-D sequence of at least 2 samples")
    n = z.size
    with np.errstate(over="ignore", invalid="ignore"):
        y = z - z.sum() / n
        y2 = y * y
        a2 = y.real * y.real + y.imag * y.imag
        c20, c21 = y2.sum() / n, a2.sum() / n
        c40 = y2.dot(y2) / n - 3.0 * c20**2
        c42 = a2.dot(a2) / n - abs(c20) ** 2 - 2.0 * c21**2
    if not np.isfinite([c40, c42]).all():
        raise DegenerateInputError(f"the cumulants of a sequence with peak {np.abs(z).max():.3g} overflow float64")
    return {"C20": complex(c20), "C21": float(c21), "C40": complex(c40), "C42": float(c42)}


def _cumulant_block(samples: np.ndarray) -> tuple:
    """The 4-entry cumulant block of every feature layout: |C20|, C21, |C40|, C42."""
    c = cumulants(samples)
    return abs(c["C20"]), c["C21"], abs(c["C40"]), c["C42"]


def _bandwidth_3db(coefficients: np.ndarray) -> float:
    """Width in radians of the contiguous half-power region around the peak of a mode's coefficient row."""
    p = coefficients**2
    peak = int(np.argmax(p))
    under = p < p[peak] / 2.0  # the bins below half power; never the peak's
    down, up = int(under[peak::-1].argmax()), int(under[peak:].argmax())  # steps to the nearest, 0 for none
    lo = peak - down + 1 if down else 0
    hi = peak + up - 1 if up else p.size - 1
    return float((hi - lo + 1) * (np.pi / (p.size - 1)))


def extract_features(result: IcvmdResult) -> np.ndarray:
    """Build the fixed-layout vector described in the module docstring."""
    sides = ((+1.0, result.pos), (-1.0, result.neg))
    total = max(result.pos.energy + result.neg.energy, 1e-300)
    rows = []
    for side_sign, side in sides:
        for k, (label, energy) in enumerate(zip(side.labels, side.energies)):
            if label is ModeLabel.FEATURE and energy != 0.0:
                bandwidth = _bandwidth_3db(side.mode_set.coefficients[k])
                rows.append((float(energy), side_sign * float(side.omegas[k]), bandwidth, float(energy / total)))
    rows.sort(key=lambda r: -r[0])
    rows = rows[:MAX_MODES]

    vec = np.zeros(3 * MAX_MODES + 12)
    for i, (_, omega, bw, frac) in enumerate(rows):
        vec[3 * i : 3 * i + 3] = (omega, bw, frac)

    base = 3 * MAX_MODES
    vec[base + 4 : base + 8] = _cumulant_block(result.input_signal.samples)  # first, so an overflow names the capture's peak
    # The FEATURE and SIGNAL reconstructions, as two reconstruct calls build them, in one pass.
    feature, signal = label_parts([(side.labels, side.modes) for _, side in sides], ({ModeLabel.FEATURE}, {ModeLabel.SIGNAL}))
    vec[base : base + 4] = _cumulant_block(feature)
    vec[base + 8 :] = _cumulant_block(signal)
    return vec


def raw_cumulant_features(sig: ComplexSignal) -> np.ndarray:
    """Cumulant features of the undecomposed signal, for baseline comparisons.

    Same 4-entry layout as the cumulant blocks of :func:`extract_features`
    (|C20|, C21, |C40|, C42) but computed straight from the raw samples, so a
    classifier fed with these sees what the decomposition-based features add.
    """
    return np.array(_cumulant_block(sig.samples))
