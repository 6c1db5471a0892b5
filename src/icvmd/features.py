"""Fixed-layout feature vectors from a two-sided decomposition.

Layout of the ``3*MAX_MODES + 12`` entries:

    [0 : 3*MAX_MODES)   per retained mode, energy-descending:
                        (center frequency [rad, negative side negated],
                         3 dB bandwidth [rad],
                         energy fraction of the total input energy)
                        zero-padded when fewer modes are retained
    [3*MAX_MODES : +4)  |C20|, C21, |C40|, C42 of the feature-part
                        reconstruction (fourth-order mixed cumulants of the
                        centered complex sequence)
    [3*MAX_MODES+4 : +8) the same four cumulants of the input itself, which
                        the full selection returns bit for bit: this block
                        equals raw_cumulant_features
    [3*MAX_MODES+8 : +12) the same four cumulants of the narrowband-mode
                        (SIGNAL-labeled) reconstruction only

Retained modes are those labeled FEATURE on either side.

The decomposition is linear in the input, so every geometric quantity
(centers, bandwidths, energy fractions) is invariant to an overall gain; the
absolute cumulant blocks are what carry amplifier-scale fingerprints.  The
input block is (near) modulation-invariant for unit-envelope waveforms, the
feature-part block reacts to distortion and noise-floor structure, and the
signal-part block reads the power of the SIGNAL modes alone.
"""
from __future__ import annotations

import numpy as np

from .decompose import IcvmdResult, ModeLabel, mode_energies, reconstruct, side_input_energy
from .errors import DegenerateInputError, ParameterError
from .signals import ComplexSignal

MAX_MODES = 6


def cumulants(z: np.ndarray) -> dict:
    """Second- and fourth-order moments/cumulants of a centered complex sequence.

        C20 = E[y^2]        C21 = E[|y|^2]
        C40 = E[y^4] - 3*C20^2
        C42 = E[|y|^4] - |C20|^2 - 2*C21^2

    where y = z - mean(z).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size < 2:
        raise ParameterError("cumulants need a 1-D sequence of at least 2 samples")
    y = z - z.mean()
    c20 = np.mean(y**2)
    c21 = float(np.mean(np.abs(y) ** 2))
    c40 = np.mean(y**4) - 3.0 * c20**2
    c42 = float(np.mean(np.abs(y) ** 4)) - abs(c20) ** 2 - 2.0 * c21**2
    return {"C20": complex(c20), "C21": c21, "C40": complex(c40), "C42": c42}


def _cumulant_block(samples: np.ndarray) -> tuple:
    """The 4-entry cumulant block of every feature layout: |C20|, C21, |C40|, C42."""
    c = cumulants(samples)
    return abs(c["C20"]), c["C21"], abs(c["C40"]), c["C42"]


def _bandwidth_3db(spectrum: np.ndarray, n_bins: int) -> float:
    """Width in radians of the contiguous half-power region around the peak."""
    p = np.abs(spectrum) ** 2
    peak = int(np.argmax(p))
    half = p[peak] / 2.0
    lo = peak
    while lo > 0 and p[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < p.size - 1 and p[hi + 1] >= half:
        hi += 1
    step = np.pi / (n_bins - 1)
    return float((hi - lo + 1) * step)


def extract_features(result: IcvmdResult) -> np.ndarray:
    """Build the fixed-layout vector described in the module docstring.

    Raises DegenerateInputError when no FEATURE mode exists on either side
    (there is no fingerprint content to describe).
    """
    has_feature = ModeLabel.FEATURE in result.labels_pos or ModeLabel.FEATURE in result.labels_neg
    if not has_feature:
        raise DegenerateInputError("no FEATURE modes were retained; nothing to extract")

    total = max(side_input_energy(result.pos) + side_input_energy(result.neg), 1e-300)
    rows = []
    for side_sign, side, labels in (
        (+1.0, result.pos, result.labels_pos),
        (-1.0, result.neg, result.labels_neg),
    ):
        n_bins = side.mode_set.mode_spectra.shape[1]
        energies = mode_energies(side)
        for k, label in enumerate(labels):
            if label is not ModeLabel.FEATURE or energies[k] == 0.0:
                continue
            rows.append(
                (
                    float(energies[k]),
                    side_sign * float(side.omegas[k]),
                    _bandwidth_3db(side.mode_set.mode_spectra[k], n_bins),
                    float(energies[k] / total),
                )
            )
    rows.sort(key=lambda r: -r[0])
    rows = rows[:MAX_MODES]

    vec = np.zeros(3 * MAX_MODES + 12)
    for i, (_, omega, bw, frac) in enumerate(rows):
        vec[3 * i : 3 * i + 3] = (omega, bw, frac)

    base = 3 * MAX_MODES
    vec[base : base + 4] = _cumulant_block(reconstruct(result, {ModeLabel.FEATURE}).samples)
    vec[base + 4 : base + 8] = _cumulant_block(result.input_signal.samples)
    vec[base + 8 :] = _cumulant_block(reconstruct(result, {ModeLabel.SIGNAL}).samples)
    return vec


def raw_cumulant_features(sig: ComplexSignal) -> np.ndarray:
    """Cumulant features of the undecomposed signal, for baseline comparisons.

    Same 4-entry layout as the cumulant blocks of :func:`extract_features`
    (|C20|, C21, |C40|, C42) but computed straight from the raw samples, so a
    classifier fed with these sees what the decomposition-based features add.
    """
    return np.array(_cumulant_block(sig.samples))
