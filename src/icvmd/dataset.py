"""Simulated emitter dataset generation and manifest handling.

One dataset = a directory of iqf32 files plus ``manifest.json``.  For every
emitter and every SNR grid point, ``signals_per_emitter`` signals are written,
split evenly across the modulation kinds (any remainder goes to the first
kind).  Each signal is generated as:

    baseband -> unit power -> emitter amplifier model -> AWGN at the SNR

with per-signal seeds derived from (dataset seed, emitter index, SNR index,
modulation index, repetition) so any file can be regenerated in isolation and
two runs with the same spec are byte-identical.
"""
from __future__ import annotations

import json
import numbers
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ParameterError, check_int
from .iqfile import json_object, read_iqf32, write_iqf32
from .modulation import ModulationKind, ModulationSpec, gen_baseband
from .pa import EmitterProfile, emitter_bank, hammerstein_apply
from .signals import ComplexSignal, add_awgn, normalize_power

DEFAULT_SNR_GRID = tuple(range(-4, 21, 2))
DEFAULT_MODULATIONS = (
    ModulationKind.CW,
    ModulationKind.LFM,
    ModulationKind.BPSK,
    ModulationKind.QPSK,
    ModulationKind.PSK8,
    ModulationKind.MSK,
)


def _is_a(value, kind) -> bool:
    """isinstance, except that a bool is never a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _repeated(values) -> list:
    """The values that occur more than once, sorted."""
    return sorted(v for v, n in Counter(values).items() if n > 1)


@dataclass(frozen=True)
class DatasetSpec:
    """What to simulate.  ``signals_per_emitter`` counts signals per emitter
    per SNR point (desk-scale default 60; crank it for full-scale runs)."""

    emitters: tuple = ()  # empty -> the standard seven-emitter bank
    modulations: tuple = DEFAULT_MODULATIONS
    snr_grid_db: tuple = DEFAULT_SNR_GRID
    n_samples: int = 2100
    signals_per_emitter: int = 60
    carrier: float = 0.1
    samples_per_symbol: int = 8
    sweep_span: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_samples", 16), ("signals_per_emitter", 1), ("samples_per_symbol", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        for value in (self.carrier, self.sweep_span, *self.snr_grid_db):
            if not (_is_a(value, numbers.Real) and np.isfinite(value)):
                raise ParameterError(f"carrier, sweep_span and SNRs must be finite numbers, got {value!r}")
        if len(self.snr_grid_db) == 0:
            raise ParameterError("snr_grid_db must be non-empty")
        if len(self.modulations) == 0:
            raise ParameterError("modulations must be non-empty")
        if not all(isinstance(m, ModulationKind) for m in self.modulations):
            raise ParameterError(f"modulations must be ModulationKind members, got {self.modulations!r}")
        if not all(isinstance(e, EmitterProfile) for e in self.emitters):
            raise ParameterError("emitters must be EmitterProfile instances")
        # Each of these names the files, so a repeat would overwrite a capture.
        keys = {
            "SNR point (in whole dB)": [int(round(v)) for v in self.snr_grid_db],
            "modulation": [m.value for m in self.modulations],
            "emitter_id": [e.emitter_id for e in self.emitters],
        }
        for what, values in keys.items():
            dupes = _repeated(values)
            if dupes:
                raise ParameterError(f"each {what} may appear only once; repeated: {dupes}")
        object.__setattr__(self, "modulations", tuple(self.modulations))
        object.__setattr__(self, "snr_grid_db", tuple(self.snr_grid_db))
        object.__setattr__(self, "emitters", tuple(self.emitters))

    def resolved_emitters(self) -> list:
        return list(self.emitters) or emitter_bank()

    def echo(self) -> dict:
        """JSON-serializable summary embedded in manifests and reports."""
        emitters = [
            dict(emitter_id=e.emitter_id, nonlinear_coeffs=e.nonlinear_coeffs.tolist(), memory_taps=e.memory_taps.tolist())
            for e in self.resolved_emitters()
        ]
        out = dict(emitters=emitters, modulations=[m.value for m in self.modulations], snr_grid_db=list(self.snr_grid_db))
        scalars = ("n_samples", "signals_per_emitter", "carrier", "samples_per_symbol", "sweep_span", "seed")
        return out | {name: getattr(self, name) for name in scalars}


def _rep_counts(total: int, n_kinds: int) -> list:
    base = total // n_kinds
    counts = [base] * n_kinds
    counts[0] += total - base * n_kinds
    return counts


def synthesize_one(
    spec: DatasetSpec,
    profile: EmitterProfile,
    kind: ModulationKind,
    snr_db: float,
    symbol_seed: int,
    noise_seed: int,
) -> ComplexSignal:
    """The full single-signal chain used for every dataset entry."""
    mod = ModulationSpec(
        kind=kind,
        carrier=spec.carrier,
        samples_per_symbol=spec.samples_per_symbol,
        sweep_span=spec.sweep_span,
        seed=symbol_seed,
    )
    x = gen_baseband(mod, spec.n_samples)
    x = normalize_power(x, 1.0)
    y = hammerstein_apply(x, profile)
    return add_awgn(y, snr_db, noise_seed)


def generate_dataset(spec: DatasetSpec, out_dir) -> dict:
    """Write every signal and the manifest; returns the manifest dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emitters = spec.resolved_emitters()
    n_kinds = len(spec.modulations)
    counts = _rep_counts(spec.signals_per_emitter, n_kinds)

    entries = []
    for e_idx, profile in enumerate(emitters):
        for s_idx, snr_db in enumerate(spec.snr_grid_db):
            for m_idx, kind in enumerate(spec.modulations):
                for rep in range(counts[m_idx]):
                    ss = np.random.SeedSequence((spec.seed, e_idx, s_idx, m_idx, rep))
                    symbol_seed, noise_seed = (int(v) for v in ss.generate_state(2))
                    sig = synthesize_one(spec, profile, kind, snr_db, symbol_seed, noise_seed)
                    fname = (
                        f"emitter{profile.emitter_id}_snr{int(round(snr_db)):+03d}_"
                        f"{kind.value}_{rep:04d}.iqf32"
                    )
                    entry = {
                        "path": fname,
                        "label": profile.emitter_id,
                        "emitter_id": profile.emitter_id,
                        "modulation": kind.value,
                        "snr_db": float(snr_db),
                        "seed": symbol_seed,
                        "noise_seed": noise_seed,
                    }
                    # The sidecar is the manifest entry with the sample rate in place of the path.
                    sidecar = {k: v for k, v in entry.items() if k != "path"} | {"sample_rate": 1.0}
                    write_iqf32(out_dir / fname, sig.samples, sidecar)
                    entries.append(entry)

    manifest = {"schema_version": 1, "spec": spec.echo(), "files": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_manifest(data_dir) -> dict:
    data_dir = Path(data_dir)
    path = data_dir / "manifest.json" if data_dir.is_dir() else data_dir
    if not path.exists():
        raise FileNotFoundError(f"no manifest at {path}")
    manifest = json_object(path.read_text(), path)
    if manifest.get("schema_version") != 1:
        raise ParameterError(f"unsupported manifest schema_version {manifest.get('schema_version')!r}")
    files = manifest.get("files")
    if not (isinstance(files, list) and all(isinstance(e, dict) and isinstance(e.get("path"), str) for e in files)):
        raise ParameterError(f"{path}: files must be a list of objects, each with a string path")
    for e in files:
        if not (_is_a(e.get("label"), int) and _is_a(e.get("snr_db"), numbers.Real) and abs(e["snr_db"]) < np.inf):
            raise ParameterError(f"{path}: {e['path']} needs an integer label and a numeric snr_db that is finite")
    dupes = _repeated(e["path"] for e in files)
    if dupes:
        raise ParameterError(f"{path}: files lists these paths more than once: {dupes}")
    manifest["_dir"] = str(path.parent)
    return manifest


def load_entry(manifest: dict, entry: dict) -> ComplexSignal:
    return read_iqf32(Path(manifest["_dir"]) / entry["path"])


def split_manifest(manifest: dict, test_fraction: float, seed: int) -> tuple:
    """Deterministic stratified split into (train, test) manifests.

    Strata are (label, snr_db); each stratum contributes
    round(test_fraction * size) test entries (at least 1 when the stratum has
    more than one entry).  The two sides are disjoint by construction, given
    that no path is listed twice; a manifest that does is rejected.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ParameterError("test_fraction must lie in (0, 1)")
    dupes = _repeated(entry["path"] for entry in manifest["files"])
    if dupes:
        raise ParameterError(f"manifest lists these paths more than once: {dupes}")
    rng = np.random.default_rng(seed)
    strata: dict = {}
    for entry in manifest["files"]:
        strata.setdefault((entry["label"], entry["snr_db"]), []).append(entry)

    train, test = [], []
    for key in sorted(strata):
        group = sorted(strata[key], key=lambda e: e["path"])
        k = int(round(test_fraction * len(group)))
        if len(group) > 1:
            k = min(max(k, 1), len(group) - 1)
        else:
            k = 0
        order = rng.permutation(len(group))
        chosen = set(order[:k].tolist())
        for i, entry in enumerate(group):
            (test if i in chosen else train).append(entry)

    return dict(manifest, files=train), dict(manifest, files=test)


def subsample_manifest(manifest: dict, proportion: float, seed: int) -> dict:
    """Keep floor(proportion * n) entries per label class.

    Raises DegenerateInputError if any class would end up empty -- callers
    treat that as an unsupported experiment cell, not a crash site.
    """
    if not (0.0 < proportion <= 1.0):
        raise ParameterError("proportion must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    by_label: dict = {}
    for entry in manifest["files"]:
        by_label.setdefault(entry["label"], []).append(entry)

    kept = []
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda e: e["path"])
        k = int(np.floor(proportion * len(group)))
        if k < 1:
            raise DegenerateInputError(
                f"class {label} would keep 0 of {len(group)} entries at proportion {proportion}"
            )
        order = rng.permutation(len(group))
        kept.extend(group[i] for i in sorted(order[:k].tolist()))
    return dict(manifest, files=kept)
