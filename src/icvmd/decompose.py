"""Two-sided decomposition of complex signals with mode labelling.

Pipeline: split the complex input into two real sequences (positive- and
negative-frequency halves, the DC bin with the positive side), run the
real-signal mode decomposition on each side independently with one
``VmdConfig``, then label every mode by one fixed rule so downstream code can
select the intentional-modulation content, the distortion features, near-DC
content, or near-Nyquist content, and rebuild a complex signal from any
selection.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import analytic_split, boundary_correction, combine_analytic
from .errors import DegenerateInputError, ParameterError
from .signals import ComplexSignal
from .vmd import ModeSet, VmdConfig, VmdResult, check_memory_budget, smoothed_power, vmd_decompose

# A mode centred above _SPECIAL_LOW (radians) that holds at least
# _SPECIAL_ENERGY_MIN of its side's input energy is SPECIAL.
_SPECIAL_LOW = 0.9 * math.pi
_SPECIAL_ENERGY_MIN = 0.05


class ModeLabel(enum.Enum):
    SIGNAL = "signal"  # intentional modulation content
    FEATURE = "feature"  # residual distortion bands (the fingerprint carriers)
    DC = "dc"  # near-zero-frequency content kept out of both groups
    SPECIAL = "special"  # strong content near Nyquist


class Selection(enum.Enum):
    """What reconstruct() may sum, besides explicit labels."""

    RESIDUAL = "residual"


@dataclass(frozen=True)
class IcvmdResult:
    """Everything needed to select, inspect, or rebuild: per-side mode sets,
    labels, residuals, and the boundary-bin amplitudes the split cannot carry."""

    pos: VmdResult
    neg: VmdResult
    labels_pos: tuple
    labels_neg: tuple
    dc_imag: float
    nyquist_imag: float
    sample_rate: float = 1.0

    @property
    def n_samples(self) -> int:
        return self.pos.modes.shape[1]


def mode_energies(result: VmdResult) -> np.ndarray:
    return np.sum(result.modes**2, axis=1)


def side_input_energy(result: VmdResult) -> float:
    """Energy of the side sequence the modes were decomposed from."""
    side_input = result.modes.sum(axis=0) + result.residual
    return float(np.sum(side_input**2))


def partition_modes(result: VmdResult) -> tuple:
    """Label each mode of one side.

    A mode centred within one grid step of 0 is DC; one centred above
    ``_SPECIAL_LOW`` with at least ``_SPECIAL_ENERGY_MIN`` of the side's input
    energy is SPECIAL; the strongest remaining mode is SIGNAL and the rest are
    FEATURE.  A side with no mode left for SIGNAL raises DegenerateInputError.
    """
    energies = mode_energies(result)
    fractions = energies / max(side_input_energy(result), 1e-300)
    grid_step = math.pi / (result.mode_set.mode_spectra.shape[1] - 1)
    labels = [
        ModeLabel.DC if omega < grid_step
        else ModeLabel.SPECIAL if omega > _SPECIAL_LOW and fraction >= _SPECIAL_ENERGY_MIN
        else ModeLabel.FEATURE
        for omega, fraction in zip(result.omegas, fractions)
    ]
    remaining = [i for i, label in enumerate(labels) if label is ModeLabel.FEATURE]
    if not remaining:
        raise DegenerateInputError("every mode of a side is DC or SPECIAL; none is left for SIGNAL")
    labels[min(remaining, key=lambda i: (-energies[i], i))] = ModeLabel.SIGNAL
    return tuple(labels)


def icvmd_decompose(sig: ComplexSignal, cfg: VmdConfig) -> IcvmdResult:
    """Split, decompose each side independently with ``cfg``, and label the modes.

    A side whose sequence is numerically all-zero (e.g. a purely positive-
    frequency input) still yields a result: its modes are all zero and all
    labeled FEATURE, with the residual carrying nothing.
    """
    pair = analytic_split(sig)
    # A side holding only FFT roundoff from the split (e.g. the negative side
    # of a purely positive-frequency input) is treated as empty rather than
    # decomposed: its "modes" would be arbitrary slices of numerical noise.
    input_energy = float(np.sum(np.abs(sig.samples) ** 2))
    k = cfg.n_modes
    results = {}
    labels = {}
    for name, x in (("pos", pair.x_plus), ("neg", pair.x_minus)):
        if float(np.sum(x**2)) > 1e-24 * input_energy:
            # The sweep runs in float32; the residual against the float64
            # side keeps the full-selection roundtrip exact.
            res = vmd_decompose(x.astype(np.float32), cfg)
            res = VmdResult(res.modes, res.mode_set, residual=x - res.modes.sum(axis=0))
            labels[name] = partition_modes(res)
        else:
            n = x.size
            check_memory_budget(n, k)
            # n + 1 rfft bins of the mirror-extended (2n) sequence; no sweep ran.
            spectra = np.zeros((k, n + 1), dtype=np.complex64)
            empty = ModeSet(spectra, np.zeros(k), 0, True, 0.0)
            res = VmdResult(modes=np.zeros((k, n)), mode_set=empty, residual=np.zeros(n))
            labels[name] = tuple([ModeLabel.FEATURE] * k)
        results[name] = res

    return IcvmdResult(
        pos=results["pos"],
        neg=results["neg"],
        labels_pos=labels["pos"],
        labels_neg=labels["neg"],
        dc_imag=pair.dc_imag,
        nyquist_imag=pair.nyquist_imag,
        sample_rate=sig.sample_rate,
    )


def _assemble(selection, n, parts, read, dc_imag, nyquist_imag) -> np.ndarray:
    """Recombine the selected (side, label, ref) parts into complex samples;
    each side's residual is labeled Selection.RESIDUAL and carries the
    boundary-bin correction.  ``read(ref)`` runs for selected parts only."""
    selection = frozenset(selection)
    bad = selection - (set(ModeLabel) | set(Selection))
    if bad:
        raise ParameterError(f"unknown selection entries: {sorted(str(b) for b in bad)}")
    sides = {"pos": np.zeros(n), "neg": np.zeros(n)}
    for side, label, ref in parts:
        if label in selection:
            sides[side] = sides[side] + read(ref)
    if not np.any(sides["pos"]) and not np.any(sides["neg"]):
        z = np.zeros(n, dtype=complex)
    else:
        z = combine_analytic(sides["pos"], sides["neg"])
    if Selection.RESIDUAL in selection:
        z = z + boundary_correction(n, dc_imag, nyquist_imag)
    return z


def reconstruct(result: IcvmdResult, selection) -> ComplexSignal:
    """Rebuild a complex signal from the selected labels.

    ``selection`` is an iterable of ModeLabel and/or Selection.RESIDUAL.
    Selecting every label plus RESIDUAL reproduces the original input (the
    boundary-bin correction rides with RESIDUAL).  An empty selection yields
    an all-zero signal.
    """
    parts = []
    for name, side, labels in (
        ("pos", result.pos, result.labels_pos),
        ("neg", result.neg, result.labels_neg),
    ):
        parts += [(name, label, mode) for label, mode in zip(labels, side.modes)]
        parts.append((name, Selection.RESIDUAL, side.residual))
    z = _assemble(
        selection, result.n_samples, parts, lambda part: part, result.dc_imag, result.nyquist_imag
    )
    return ComplexSignal(z, result.sample_rate)


FULL_SELECTION = frozenset(ModeLabel) | frozenset({Selection.RESIDUAL})


@dataclass(frozen=True)
class ProbeSuggestion:
    """Data-driven starting point for the solver knobs."""

    k_low: int
    k_high: int
    alpha: float
    n_peaks: int
    mean_bandwidth_rad: float


def probe_parameters(sig: ComplexSignal) -> ProbeSuggestion:
    """Suggest a mode-count range and a bandwidth-penalty decade from a
    smoothed periodogram.

    Peaks are contiguous regions at least 6 dB above the median smoothed
    power; each contributes a 3 dB width.  The mode count brackets the peak
    count (never below the usual working range), and alpha is the decade of
    n / (4 * mean 3 dB width in radians) -- narrower structure needs a larger
    penalty to isolate it.
    """
    z = sig.samples
    n = z.size
    if n < 16:
        raise ParameterError("probe needs at least 16 samples")
    smooth = smoothed_power(np.fft.fft(z), max(3, n // 16))
    floor = float(np.median(smooth))
    thresh = floor * (10.0 ** 0.6) if floor > 0 else 0.0

    above = smooth > max(thresh, 1e-300)
    # Contiguous runs of above-threshold bins.
    starts = list(np.flatnonzero(np.diff(np.concatenate([[0], above.astype(int)])) == 1))
    ends = list(np.flatnonzero(np.diff(np.concatenate([above.astype(int), [0]])) == -1))
    regions = list(zip(starts, ends))

    bandwidths = []
    for s, e in regions:
        seg = smooth[s : e + 1]
        peak = float(seg.max())
        half = peak / 2.0
        idx = np.flatnonzero(seg >= half)
        n_bins = idx[-1] - idx[0] + 1
        bandwidths.append(n_bins * 2.0 * np.pi / n)

    n_peaks = len(regions)
    mean_bw = float(np.mean(bandwidths)) if bandwidths else math.pi
    k_low = max(n_peaks, 5)
    k_high = max(n_peaks + 2, 8)
    alpha_raw = n / (4.0 * mean_bw)
    alpha = float(10.0 ** round(math.log10(alpha_raw))) if alpha_raw > 0 else 1000.0
    return ProbeSuggestion(
        k_low=k_low, k_high=k_high, alpha=alpha, n_peaks=n_peaks, mean_bandwidth_rad=mean_bw
    )


def dump_modes(result: IcvmdResult, out_dir) -> dict:
    """Write every mode (and the two residuals) as iqf32 files plus one JSON manifest.

    Each mode is a real sequence; it is stored with a zero quadrature channel.
    The manifest records side, center frequency, energy fraction, and label for
    every file, plus the boundary-bin amplitudes, so a complex signal can be
    rebuilt from the dump alone.  ``solver`` holds each side's sweep count,
    converged flag and final convergence metric (null when no two sweeps were
    compared).
    """
    from .iqfile import write_iqf32

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    solver = {}
    for side_name, side, labels in (
        ("pos", result.pos, result.labels_pos),
        ("neg", result.neg, result.labels_neg),
    ):
        ms = side.mode_set
        delta = ms.final_delta if math.isfinite(ms.final_delta) else None
        solver[side_name] = dict(iterations=ms.iterations, converged=ms.converged, final_delta=delta)
        energies = mode_energies(side)
        total = max(side_input_energy(side), 1e-300)
        for k in range(side.modes.shape[0]):
            fname = f"mode_{side_name}_{k:02d}.iqf32"
            write_iqf32(out_dir / fname, side.modes[k].astype(complex))
            entries.append(
                {
                    "file": fname,
                    "side": side_name,
                    "index": k,
                    "omega": float(side.omegas[k]),
                    "energy_fraction": float(energies[k] / total),
                    "label": labels[k].value,
                }
            )
        write_iqf32(out_dir / f"residual_{side_name}.iqf32", side.residual.astype(complex))
    manifest = {
        "schema_version": 1,
        "n_samples": result.n_samples,
        "sample_rate": result.sample_rate,
        "dc_imag": result.dc_imag,
        "nyquist_imag": result.nyquist_imag,
        "residuals": {"pos": "residual_pos.iqf32", "neg": "residual_neg.iqf32"},
        "modes": entries,
        "solver": solver,
    }
    (out_dir / "modes.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def reconstruct_from_dump(dump_dir, selection) -> ComplexSignal:
    """Rebuild a complex signal from a dump_modes() directory.

    Lossy float32 storage aside, selecting everything plus RESIDUAL reproduces
    the originally decomposed signal.  A manifest that lacks a key, names an
    unknown label or side, or names a file that is not a bare name inside the
    dump, a side whose mode indices are not 0..K-1 each once (the same K on
    both sides), and a selected file of the wrong length, raise ParameterError.
    """
    from .iqfile import json_object, read_iqf32

    dump_dir = Path(dump_dir)
    manifest_path = dump_dir / "modes.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no modes.json in {dump_dir}")
    manifest = json_object(manifest_path.read_text(), manifest_path)
    if manifest.get("schema_version") != 1:
        raise ParameterError("unsupported modes.json schema_version")
    try:
        parts = [(e["side"], ModeLabel(e["label"]), e["file"]) for e in manifest["modes"]]
        keys = [(e["side"], e["index"]) for e in manifest["modes"]]
        residuals = manifest["residuals"]
        if not isinstance(residuals, dict) or sorted(residuals) != ["neg", "pos"]:
            raise TypeError(f"residuals must be an object with the keys pos and neg, got {residuals!r}")
        parts += [(side, Selection.RESIDUAL, f) for side, f in residuals.items()]
        n = int(manifest["n_samples"])
        dc_imag, nyquist_imag = float(manifest["dc_imag"]), float(manifest["nyquist_imag"])
        sample_rate = float(manifest.get("sample_rate", 1.0))
    except KeyError as exc:
        raise ParameterError(f"modes.json lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad modes.json: {exc}") from None
    for side, _, fname in parts:
        if side not in ("pos", "neg"):
            raise ParameterError(f"bad modes.json: unknown side {side!r}")
        if not isinstance(fname, str) or fname in ("", "..") or Path(fname).name != fname:
            raise ParameterError(f"bad modes.json: {fname!r} is not a file name inside the dump")
    for side, index in keys:
        if isinstance(index, bool) or not isinstance(index, int) or index < 0:
            raise ParameterError(f"bad modes.json: {side} mode index {index!r} is not a non-negative integer")
    k = max(sum(s == side for s, _ in keys) for side in ("pos", "neg"))
    for side in ("pos", "neg"):
        for index in range(k):
            count = keys.count((side, index))
            if count != 1:
                raise ParameterError(f"bad modes.json: {side} mode {index} is listed {count} times, not once")

    def read(fname):
        x = read_iqf32(dump_dir / fname, with_sidecar=False).samples.real
        if x.size != n:
            raise ParameterError(f"{fname} holds {x.size} samples, modes.json says {n}")
        return x

    z = _assemble(selection, n, parts, read, dc_imag, nyquist_imag)
    return ComplexSignal(z, sample_rate)
