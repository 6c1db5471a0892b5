"""Two-sided decomposition of complex signals with mode labelling.

Pipeline: split the complex input into two real sequences (positive- and
negative-frequency halves, the DC bin with the positive side), run the
real-signal mode decomposition on each side independently with one
``VmdConfig``, then label every mode by one fixed rule so downstream code can
select the intentional-modulation content or the distortion features, and
rebuild a complex signal from any selection.  A selection with the residual
is rebuilt as the input minus the modes it leaves out, so selecting
everything returns the input bit for bit.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import analytic_split, combine_analytic
from .errors import DegenerateInputError, ParameterError
from .signals import ComplexSignal
from .vmd import ModeSet, VmdConfig, VmdResult, check_memory_budget, vmd_decompose

class ModeLabel(enum.Enum):
    SIGNAL = "signal"  # intentional modulation content
    FEATURE = "feature"  # residual distortion bands (the fingerprint carriers)


class Selection(enum.Enum):
    """What reconstruct() may sum, besides explicit labels."""

    RESIDUAL = "residual"


@dataclass(frozen=True)
class IcvmdResult:
    """Everything needed to select, inspect, or rebuild: per-side mode sets,
    labels and residuals, and the decomposed input."""

    pos: VmdResult
    neg: VmdResult
    labels_pos: tuple
    labels_neg: tuple
    input_signal: ComplexSignal


def mode_energies(result: VmdResult) -> np.ndarray:
    return np.sum(result.modes**2, axis=1)


def side_energies(*sides: VmdResult) -> tuple:
    """Each side's mode energies and the summed energy of the side sequences, all
    taken on the sides over 2^e, e from the frexp of their joint peak: there no
    square over- or underflows, and a power of two passes through every ratio."""
    inputs = [side.modes.sum(axis=0) + side.residual for side in sides]
    e = math.frexp(max(float(np.abs(x).max()) for x in inputs))[1]
    total = max(sum(float(np.sum(np.ldexp(x, -e) ** 2)) for x in inputs), 1e-300)
    return [np.sum(np.ldexp(side.modes, -e) ** 2, axis=1) for side in sides], total


def partition_modes(result: VmdResult) -> tuple:
    """Label each mode of one side: the strongest is SIGNAL (the lower index
    on a tie) and the rest are FEATURE."""
    labels = [ModeLabel.FEATURE] * len(result.omegas)
    labels[int(np.argmax(mode_energies(result)))] = ModeLabel.SIGNAL
    return tuple(labels)


def _decompose_side(x: np.ndarray, cfg: VmdConfig, e: int, floor: float) -> tuple:
    """Decompose one side sequence; returns its ``(VmdResult, labels)``."""
    # A side holding only FFT roundoff from the split (e.g. the negative side
    # of a purely positive-frequency input) is treated as empty rather than
    # decomposed: its "modes" would be arbitrary slices of numerical noise.
    if float(np.sum(np.ldexp(x, -e) ** 2)) <= floor:
        n, k = x.size, cfg.n_modes
        check_memory_budget(n, k, np.float32)  # the dtype a side is swept in
        # n + 1 coefficients per mode (vmd module docstring); no sweep ran.
        empty = ModeSet(np.zeros((k, n + 1), dtype=np.float32), np.zeros(k), 0, True, 0.0)
        return VmdResult(np.zeros((k, n)), empty, residual=np.zeros(n)), (ModeLabel.FEATURE,) * k
    # Swept in float32 and labelled at its own unit peak; the residual against the float64
    # side keeps its energy, and so each energy fraction, that side's.
    e_side = int(np.frexp(np.abs(x).max())[1])
    res = vmd_decompose(np.ldexp(x, -e_side).astype(np.float32), cfg)
    modes = np.ldexp(res.modes, e_side)
    return VmdResult(modes, res.mode_set, residual=x - modes.sum(axis=0)), partition_modes(res)


def icvmd_decompose(sig: ComplexSignal, cfg: VmdConfig) -> IcvmdResult:
    """Split, decompose each side independently with ``cfg``, and label the modes.

    A side with at most 1e-24 of the input's energy (e.g. the negative side
    of a one-sided input) is not solved: its modes are all zero and all
    labeled FEATURE, with the residual carrying nothing.  An all-zero input
    raises DegenerateInputError.
    """
    magnitudes = np.abs(sig.samples)
    peak = magnitudes.max()
    if peak == 0:
        raise DegenerateInputError("cannot decompose an all-zero signal")
    e = int(np.frexp(peak)[1])  # both energies are taken at unit peak, where no square over- or underflows
    floor = 1e-24 * float(np.sum(np.ldexp(magnitudes, -e) ** 2))
    (pos, labels_pos), (neg, labels_neg) = (_decompose_side(x, cfg, e, floor) for x in analytic_split(sig))
    return IcvmdResult(pos, neg, labels_pos, labels_neg, input_signal=sig)


def _assemble(selection, sides: dict, samples: np.ndarray) -> np.ndarray:
    """Recombine a selection into complex samples.  ``sides`` maps pos and neg
    to (labels, modes [K, n]) and ``samples`` is the decomposed input.  Without
    Selection.RESIDUAL this combines the selected modes; with it, it subtracts
    the unselected modes from the input, so the residual carries everything
    the modes do not, the boundary bins the split drops included."""
    if selection is None or isinstance(selection, (str, enum.Enum)):
        raise ParameterError(f"selection must be a collection of ModeLabel and Selection members, got {selection!r}")
    selection = frozenset(selection)
    bad = selection - (set(ModeLabel) | set(Selection))
    if bad:
        raise ParameterError(f"unknown selection entries: {sorted(str(b) for b in bad)}")
    selected = Selection.RESIDUAL not in selection  # combine the selected modes, or the others
    z = combine_analytic(*_mode_sums([sides["pos"], sides["neg"]], lambda label: (label in selection) == selected))
    return z if selected else samples - z


def _mode_sums(sides, keep) -> list:
    """Per side, given as (labels, modes [K, n]), the sum of the modes whose label ``keep`` accepts."""
    return [sum([mode for label, mode in zip(labels, modes) if keep(label)], np.zeros(modes.shape[1])) for labels, modes in sides]


def reconstruct(result: IcvmdResult, selection) -> ComplexSignal:
    """Rebuild a complex signal from the selected labels.

    ``selection`` is an iterable of ModeLabel and/or Selection.RESIDUAL.
    Selecting every label plus RESIDUAL returns the input bit for bit, and a
    selection and its complement sum to the input to rounding.  An empty
    selection yields an all-zero signal.
    """
    sides = {"pos": (result.labels_pos, result.pos.modes), "neg": (result.labels_neg, result.neg.modes)}
    return ComplexSignal(_assemble(selection, sides, result.input_signal.samples))


FULL_SELECTION = frozenset(ModeLabel) | frozenset({Selection.RESIDUAL})


DUMP_VERSION = 3


def dump_modes(result: IcvmdResult, out_dir) -> dict:
    """Write the modes and the input to ``modes.npz`` and the rest to ``modes.json``.

    ``modes.npz`` holds float64 ``modes_pos`` and ``modes_neg`` ``[K, n]`` and
    the complex128 ``input`` ``[n]``, so the dump rebuilds exactly what
    ``reconstruct`` does.  Under ``sides``, ``modes.json`` lists each
    side's labels, centers and energy fractions by mode row, and its sweep
    count, converged flag and final metric (null when no two sweeps were
    compared).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays, sides = {"input": result.input_signal.samples}, {}
    for name, side, labels in (("pos", result.pos, result.labels_pos), ("neg", result.neg, result.labels_neg)):
        ms = side.mode_set
        (energies,), total = side_energies(side)
        arrays[f"modes_{name}"] = side.modes
        sides[name] = {
            "labels": [label.value for label in labels],
            "omegas": [float(w) for w in side.omegas],
            "energy_fractions": [float(e / total) for e in energies],
            "iterations": ms.iterations,
            "converged": ms.converged,
            "final_delta": ms.final_delta if math.isfinite(ms.final_delta) else None,
        }
    np.savez(out_dir / "modes.npz", **arrays)
    manifest = {"schema_version": DUMP_VERSION, "sides": sides}
    (out_dir / "modes.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def reconstruct_from_dump(dump_dir, selection) -> ComplexSignal:
    """Rebuild a complex signal from a dump_modes() directory, exactly as
    ``reconstruct`` rebuilds it from the dumped result.

    K and n come from the array shapes.  A ``modes.json`` that is not
    ``schema_version`` 3, lacks a key, names an unknown label or has sides
    other than pos and neg raises ParameterError; so does a ``modes.npz`` that
    lacks a float64 modes array or the complex128 input, or a side without
    one label per mode or without the input's n.
    """
    from .iqfile import json_object, load_npz

    dump_dir = Path(dump_dir)
    manifest_path = dump_dir / "modes.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no modes.json in {dump_dir}")
    manifest = json_object(manifest_path.read_text(), manifest_path)
    version = manifest.get("schema_version")
    if version != DUMP_VERSION:
        raise ParameterError(f"unsupported modes.json schema_version {version!r}, not {DUMP_VERSION}")
    try:
        sides = manifest["sides"]
        labels = {name: [ModeLabel(v) for v in sides[name]["labels"]] for name in ("pos", "neg")}
        if len(sides) != 2:
            raise ValueError(f"sides must hold only pos and neg, got {sorted(sides)}")
    except KeyError as exc:
        raise ParameterError(f"modes.json lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad modes.json: {exc}") from None

    with load_npz(dump_dir / "modes.npz") as (sizes, read):
        arrays = read(sizes)
    for key, dtype in (("modes_pos", "float64"), ("modes_neg", "float64"), ("input", "complex128")):
        found = arrays[key].dtype.name if key in arrays else "nothing"
        if found != dtype:
            raise ParameterError(f"modes.npz needs a {dtype} array {key}, found {found}")
    samples = arrays["input"]
    parts = {}
    for name in ("pos", "neg"):
        modes = arrays[f"modes_{name}"]
        if samples.ndim != 1 or modes.shape != (len(labels[name]), samples.size):
            raise ParameterError(
                f"bad dump: the {name} side has {len(labels[name])} labels and modes of shape {modes.shape}; "
                f"the input has shape {samples.shape}"
            )
        parts[name] = (labels[name], modes)
    sig = ComplexSignal(samples)  # rejects an empty or non-finite input
    return ComplexSignal(_assemble(selection, parts, sig.samples))
