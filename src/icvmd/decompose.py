"""Two-sided decomposition of complex signals with mode labelling.

Pipeline: split the complex input into two real sequences (positive- and
negative-frequency halves, the DC bin with the positive side), run the
real-signal mode decomposition on each side independently with one
``VmdConfig``, then label every mode by one fixed rule so downstream code can
select the intentional-modulation content or the distortion features, and
rebuild a complex signal from any selection (``label_parts``, the one
rebuild).  A selection with the residual is the input minus the modes it
leaves out, so selecting everything returns the input bit for bit.
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
class Side(VmdResult):
    """One decomposed side: its modes at the capture's scale, each mode's
    label, and each mode's energy and the side sequence's own energy, both at
    the capture's unit peak (see icvmd_decompose), where no square over- or
    underflows and a power of two passes through every ratio.  The modes need
    not sum to the side: the residual of a rebuild closes the sum."""

    labels: tuple
    energies: np.ndarray
    energy: float


@dataclass(frozen=True)
class IcvmdResult:
    """Everything needed to select, inspect, or rebuild: the two sides and the decomposed input."""

    pos: Side
    neg: Side
    input_signal: ComplexSignal


def partition_modes(energies: np.ndarray) -> tuple:
    """Label the modes of one side by their energies: the strongest is SIGNAL
    (the lower index on a tie) and the rest are FEATURE."""
    labels = [ModeLabel.FEATURE] * len(energies)
    labels[int(np.argmax(energies))] = ModeLabel.SIGNAL
    return tuple(labels)


def _decompose_side(x: np.ndarray, cfg: VmdConfig, e: int, floor: float) -> Side:
    """Decompose one side sequence ``x``, given at the capture's unit peak, and
    scale its modes back by 2^e."""
    energy = float(np.sum(x**2))
    # A side holding only FFT roundoff from the split (e.g. the negative side
    # of a purely positive-frequency input) is treated as empty rather than
    # decomposed: its "modes" would be arbitrary slices of numerical noise.
    if energy <= floor:
        n, k = x.size, cfg.n_modes
        check_memory_budget(n, k, np.float32)  # the dtype a side is swept in
        # n + 1 coefficients per mode (vmd module docstring); no sweep ran.
        empty = ModeSet(np.zeros((k, n + 1), dtype=np.float32), np.zeros(k), 0, True, 0.0)
        return Side(np.zeros((k, n)), empty, (ModeLabel.FEATURE,) * k, np.zeros(k), energy)
    # Cast to float32 at the capture's unit peak (the solver sweeps it at its own).
    res = vmd_decompose(x.astype(np.float32), cfg)
    energies = np.sum(res.modes**2, axis=1)
    modes = np.ldexp(res.modes, e, out=res.modes)
    return Side(modes, res.mode_set, partition_modes(energies), energies, energy)


def icvmd_decompose(sig: ComplexSignal, cfg: VmdConfig) -> IcvmdResult:
    """Split, decompose each side independently with ``cfg``, and label the modes.

    The capture is split at its unit peak, over the power of two 2^e that
    brings its peak into [1/2, 1), which is exact; each side is swept there
    and its modes are scaled back by 2^e.  A side with at most 1e-24 of the
    input's energy (e.g. the negative side of a one-sided input) is not
    solved: its modes are all zero and all labeled FEATURE.  What the modes
    leave out is the residual of ``reconstruct``, the input minus the
    unselected modes.  An all-zero input raises DegenerateInputError.
    """
    peak = np.abs(sig.samples).max()
    if peak == 0:
        raise DegenerateInputError("cannot decompose an all-zero signal")
    e = int(np.frexp(peak)[1])
    unit = np.ldexp(sig.samples.view(np.float64), -e).view(np.complex128)  # a power of two: exact
    floor = 1e-24 * float(np.vdot(unit, unit).real)
    pos, neg = (_decompose_side(x, cfg, e, floor) for x in analytic_split(ComplexSignal(unit)))
    return IcvmdResult(pos, neg, input_signal=sig)


def _assemble(selection, sides: list, samples: np.ndarray) -> np.ndarray:
    """Recombine a selection into complex samples.  ``sides`` holds the pos and
    neg (labels, modes [K, n]) pairs and ``samples`` is the decomposed input.  Without
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
    (z,) = label_parts(sides, [selection if selected else set(ModeLabel) - selection])
    return z if selected else samples - z


def label_parts(sides, groups) -> np.ndarray:
    """Per label set in ``groups``, the complex sum of the modes it labels in the (labels, modes [K, n]) ``sides``: [len(groups), n]."""
    return combine_analytic(*[[sum([m for label, m in zip(labels, modes) if label in group], np.zeros(modes.shape[1]))
                               for group in groups] for labels, modes in sides])


def reconstruct(result: IcvmdResult, selection) -> ComplexSignal:
    """Rebuild a complex signal from the selected labels.

    ``selection`` is an iterable of ModeLabel and/or Selection.RESIDUAL.
    Selecting every label plus RESIDUAL returns the input bit for bit, and a
    selection and its complement sum to the input to rounding.  An empty
    selection yields an all-zero signal.
    """
    sides = [(side.labels, side.modes) for side in (result.pos, result.neg)]
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
    for name, side in (("pos", result.pos), ("neg", result.neg)):
        ms = side.mode_set
        arrays[f"modes_{name}"] = side.modes
        sides[name] = {
            "labels": [label.value for label in side.labels],
            "omegas": [float(w) for w in side.omegas],
            "energy_fractions": [float(e / max(side.energy, 1e-300)) for e in side.energies],
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
    parts = []
    for name in ("pos", "neg"):
        modes = arrays[f"modes_{name}"]
        if samples.ndim != 1 or modes.shape != (len(labels[name]), samples.size):
            raise ParameterError(
                f"bad dump: the {name} side has {len(labels[name])} labels and modes of shape {modes.shape}; "
                f"the input has shape {samples.shape}"
            )
        parts.append((labels[name], modes))
    sig = ComplexSignal(samples)  # rejects an empty or non-finite input
    return ComplexSignal(_assemble(selection, parts, sig.samples))
