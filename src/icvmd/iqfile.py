"""The iqf32 on-disk sample format.

Layout: little-endian float32, interleaved I then Q per sample, no header.
A file of N complex samples is exactly 8*N bytes.  Metadata lives in a JSON
sidecar with the same stem and a ``.json`` suffix.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .signals import ComplexSignal


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_iqf32(path, samples, sidecar: dict | None = None) -> Path:
    """Write interleaved I/Q float32; optionally write the JSON sidecar too."""
    path = Path(path)
    z = np.asarray(samples, dtype=np.complex128)
    if z.ndim != 1:
        raise ParameterError(f"samples must be 1-D, got shape {z.shape}")
    inter = np.empty(2 * z.size, dtype="<f4")
    inter[0::2] = z.real.astype("<f4")
    inter[1::2] = z.imag.astype("<f4")
    path.parent.mkdir(parents=True, exist_ok=True)
    inter.tofile(path)
    if sidecar is not None:
        sidecar_path(path).write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    return path


def read_iqf32(path, with_sidecar: bool = True) -> ComplexSignal:
    """Read an iqf32 file back into a ComplexSignal (complex128 in memory).

    If the sidecar exists its fields land in ``meta`` and its sample_rate is
    honored; otherwise sample_rate defaults to 1.0.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such iqf32 file: {path}")
    raw = np.fromfile(path, dtype="<f4")
    if raw.size == 0 or raw.size % 2 != 0:
        raise ParameterError(
            f"{path} holds {raw.size} float32 values; an iqf32 file needs a "
            "positive, even count (interleaved I,Q)"
        )
    z = raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
    meta: dict = {}
    rate = 1.0
    side = sidecar_path(path)
    if with_sidecar and side.exists():
        meta = json.loads(side.read_text())
        rate = float(meta.get("sample_rate", 1.0))
    return ComplexSignal(z, rate, meta)


def make_sidecar(
    sample_rate: float,
    label: int,
    modulation: str,
    snr_db: float,
    seed: int,
    emitter_id: int,
    **extra,
) -> dict:
    """Standard sidecar fields; extras are allowed but the six core keys always exist."""
    d = {
        "sample_rate": sample_rate,
        "label": label,
        "modulation": modulation,
        "snr_db": snr_db,
        "seed": seed,
        "emitter_id": emitter_id,
    }
    d.update(extra)
    return d
