"""Single-file .npz checkpoints with an embedded JSON manifest.

The manifest records the format version and every architecture hyperparameter
needed to rebuild the model; the arrays are stored as trained under their
parameter keys and load as float32.  Loading refuses a missing or unknown key,
a reshaped array, a non-finite value, a non-integer class count and an
``n_out`` other than ``n_classes``.
"""
from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ..errors import ParameterError
from ..iqfile import json_object, load_npz
from .model import ModelConfig, NetParams, init_params

FORMAT_VERSION = 1


def save_checkpoint(path, params: NetParams) -> Path:
    path = Path(path)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(params.config),
        "n_classes": params.n_classes,
        "n_out": params.n_classes,  # the head width, always n_classes
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8), **params.arrays)
    return path


def _check_keys(what: str, stored, expected) -> None:
    missing, extra = set(expected) - set(stored), set(stored) - set(expected)
    if missing or extra:
        raise ParameterError(f"checkpoint {what} mismatch: missing {sorted(missing)}, extra {sorted(extra)}")


def load_checkpoint(path) -> NetParams:
    """Rebuild NetParams from a checkpoint.

    Every stored array must match the key, the shape and the finiteness of
    the manifest architecture.
    """
    files = load_npz(path)
    if "manifest" not in files:
        raise ParameterError(f"{path} is not a model checkpoint (missing manifest)")
    manifest = json_object(bytes(files.pop("manifest").tobytes()).decode(), f"{path} manifest")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ParameterError(
            f"unsupported checkpoint format_version {manifest.get('format_version')!r}"
        )
    _check_keys("config", manifest.get("config", {}), [f.name for f in fields(ModelConfig)])
    config = ModelConfig(**manifest["config"])
    n, n_out = manifest.get("n_classes"), manifest.get("n_out")
    if type(n) is not int or n < 2:
        raise ParameterError(f"checkpoint manifest n_classes must be an integer >= 2, got {n!r}")
    if type(n_out) is not int or n_out != n:
        raise ParameterError(f"checkpoint manifest n_out must be an integer equal to n_classes, got {n_out!r}")
    expected = init_params(config, n, seed=0).arrays
    _check_keys("key", files, expected)
    for key, ref in expected.items():
        if files[key].shape != ref.shape:
            raise ParameterError(f"shape mismatch at {key}: {ref.shape} vs {files[key].shape}")
        if not np.all(np.isfinite(files[key])):
            raise ParameterError(f"non-finite value in {key}")
    return NetParams(config, {key: files[key].astype(np.float32, copy=False) for key in expected})
