"""Simulated emitter dataset generation and manifest handling.

One dataset = a directory of iqf32 files plus ``manifest.json``.  For every
emitter and every SNR grid point, ``signals_per_emitter`` signals are written,
split evenly across the modulation kinds (any remainder goes to the first
kind).  Each signal is generated as:

    baseband -> unit power -> emitter amplifier model -> AWGN at the SNR

The baseband is keyed at ``modulation``'s one recipe (carrier, symbol
length, sweep span), which no spec field changes.  Per-signal seeds are
derived from (dataset seed, emitter index, SNR index, modulation index,
repetition) so any file can be regenerated in isolation and two runs with
the same spec are byte-identical.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ParameterError, check_int, is_real
from .iqfile import json_object, read_iqf32, write_iqf32
from .modulation import ModulationKind, gen_baseband
from .pa import EmitterProfile, emitter_bank, hammerstein_apply
from .signals import ComplexSignal, add_awgn, noise_variance, normalize_power

DEFAULT_SNR_GRID = tuple(range(-4, 21, 2))
DEFAULT_MODULATIONS = (
    ModulationKind.CW,
    ModulationKind.LFM,
    ModulationKind.BPSK,
    ModulationKind.QPSK,
    ModulationKind.PSK8,
    ModulationKind.MSK,
)

# How many standard deviations of a noise draw the SNR check keeps inside
# float32's range; a standard normal passes 10 with odds below 2e-23.
NOISE_TAIL_SIGMAS = 10.0


def _repeated(values) -> list:
    """The values that occur more than once, sorted."""
    return sorted(v for v, n in Counter(values).items() if n > 1)


@dataclass(frozen=True)
class DatasetSpec:
    """What to simulate.  ``emitters`` defaults to the seven-emitter
    ``emitter_bank()`` and may not be empty.  ``signals_per_emitter`` counts
    signals per emitter per SNR point (desk-scale default 60; crank it for
    full-scale runs).  Specs compare and hash by value."""

    emitters: tuple = tuple(emitter_bank())
    modulations: tuple = DEFAULT_MODULATIONS
    snr_grid_db: tuple = DEFAULT_SNR_GRID
    n_samples: int = 2100
    signals_per_emitter: int = 60
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_samples", 16), ("signals_per_emitter", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        for name in ("emitters", "modulations", "snr_grid_db"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ParameterError(f"{name} must be a list or tuple, got {value!r}")
            if len(value) == 0:
                raise ParameterError(f"{name} must be non-empty")
        if not all(isinstance(m, ModulationKind) for m in self.modulations):
            raise ParameterError(f"modulations must be ModulationKind members, got {self.modulations!r}")
        if not all(isinstance(e, EmitterProfile) for e in self.emitters):
            raise ParameterError("emitters must be EmitterProfile instances")
        # A unit-envelope input bounds the amplifier's output power by (sum|b_k| * sum|c_q|)**2.
        power = max(sum(map(abs, e.nonlinear_coeffs)) * sum(map(abs, e.memory_taps)) for e in self.emitters) ** 2
        for value in self.snr_grid_db:  # refused before any file is written
            if not np.sqrt(noise_variance(power, value) / 2.0) * NOISE_TAIL_SIGMAS < np.finfo(np.float32).max:
                raise ParameterError(f"SNR {value} dB is out of range: its noise would pass float32's range")
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

    def echo(self) -> dict:
        """JSON-serializable summary embedded in manifests and reports."""
        emitters = [
            dict(emitter_id=e.emitter_id, nonlinear_coeffs=list(e.nonlinear_coeffs), memory_taps=list(e.memory_taps))
            for e in self.emitters
        ]
        mods = [m.value for m in self.modulations]
        return asdict(self) | dict(emitters=emitters, modulations=mods, snr_grid_db=list(self.snr_grid_db))


def load_spec(path) -> DatasetSpec:
    """Read a JSON DatasetSpec: ``schema_version`` 1 and any fields, written as
    ``echo`` writes them.  A bad field, or a key that names no field (such as
    ``carrier``, a module constant), raises ParameterError naming it."""
    raw = json_object(Path(path).read_text(), path)
    if raw.pop("schema_version", None) != 1:
        raise ParameterError("dataset config must carry schema_version 1")
    try:
        if "modulations" in raw:
            raw["modulations"] = tuple(ModulationKind(m) for m in raw["modulations"])
        if "emitters" in raw:
            raw["emitters"] = tuple(EmitterProfile(**e) for e in raw["emitters"])
        return DatasetSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad dataset config: {exc}") from None


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
    x = normalize_power(gen_baseband(kind, spec.n_samples, symbol_seed))
    y = hammerstein_apply(x, profile)
    return add_awgn(y, snr_db, noise_seed)


def generate_dataset(spec: DatasetSpec, out_dir) -> dict:
    """Write every signal and the manifest; returns the manifest dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_kinds = len(spec.modulations)
    counts = _rep_counts(spec.signals_per_emitter, n_kinds)

    entries = []
    for e_idx, profile in enumerate(spec.emitters):
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
                    write_iqf32(out_dir / fname, sig.samples)
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
        if not (type(e.get("label")) is int and is_real(e.get("snr_db"))):
            raise ParameterError(f"{path}: {e['path']} needs an integer label and a numeric snr_db that is finite")
    dupes = _repeated(e["path"] for e in files)
    if dupes:
        raise ParameterError(f"{path}: files lists these paths more than once: {dupes}")
    manifest["_dir"] = str(path.parent)
    return manifest


def load_entry(manifest: dict, entry: dict) -> ComplexSignal:
    return read_iqf32(Path(manifest["_dir"]) / entry["path"])


def _draw(manifest: dict, key, count, seed: int) -> tuple:
    """(drawn, rest): each group of entries by ``key(entry)``, in key and then path
    order, draws the first ``count(group_key, size)`` of one seeded permutation of it."""
    rng = np.random.default_rng(seed)
    groups: dict = {}
    for entry in manifest["files"]:
        groups.setdefault(key(entry), []).append(entry)
    drawn, rest = [], []
    for k in sorted(groups):
        group = sorted(groups[k], key=lambda e: e["path"])
        chosen = set(rng.permutation(len(group))[: count(k, len(group))].tolist())
        for i, entry in enumerate(group):
            (drawn if i in chosen else rest).append(entry)
    return drawn, rest


def split_manifest(manifest: dict, test_fraction: float, seed: int) -> tuple:
    """Deterministic stratified split into (train, test) manifests, one _draw.

    Strata are (label, snr_db); each stratum contributes
    round(test_fraction * size) test entries (at least 1 when the stratum has
    more than one entry).  The two sides are disjoint by construction, given
    that no path is listed twice; a manifest that does is rejected.
    """
    if not (is_real(test_fraction) and 0.0 < test_fraction < 1.0):
        raise ParameterError("test_fraction must lie in (0, 1)")
    dupes = _repeated(entry["path"] for entry in manifest["files"])
    if dupes:
        raise ParameterError(f"manifest lists these paths more than once: {dupes}")
    test, train = _draw(manifest, lambda e: (e["label"], e["snr_db"]),
                        lambda _, n: min(max(int(round(test_fraction * n)), 1), n - 1), seed)
    return dict(manifest, files=train), dict(manifest, files=test)


# proportion * n can land a rounding error under the whole number it names
# (0.29 * 100 is 28.999999999999996), so the floor is taken after adding this
# slack: only a proportion less than 1e-9 / n under k / n keeps k, not k - 1.
_FLOOR_SLACK = 1e-9


def subsample_manifest(manifest: dict, proportion: float, seed: int) -> dict:
    """Keep floor(proportion * n) entries per label class, one _draw; the floor
    is taken after float rounding, so 0.29 of 100 keeps 29.  At one seed the
    kept entries of a smaller proportion are among those of a larger one.

    Raises DegenerateInputError if any class would end up empty -- callers
    treat that as an unsupported experiment cell, not a crash site.
    """
    def count(label, n: int) -> int:
        k = int(np.floor(proportion * n + _FLOOR_SLACK))
        if k < 1:
            raise DegenerateInputError(f"class {label} would keep 0 of {n} entries at proportion {proportion}")
        return k

    if not (is_real(proportion) and 0.0 < proportion <= 1.0):
        raise ParameterError("proportion must lie in (0, 1]")
    kept, _ = _draw(manifest, lambda e: e["label"], count, seed)
    return dict(manifest, files=kept)
