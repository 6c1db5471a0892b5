"""Single-file .npz checkpoints with an embedded JSON manifest.

The manifest records the format version, the model's ``config`` (its segment
length, as the rest of the architecture is fixed) and the caller's metadata,
which must include ``class_ids``, the emitter label of each model output.
The arrays are stored as trained under their parameter keys and load in
the classifier's DTYPE.  Saving refuses a non-finite value, so a diverged
run writes no file that loading would refuse.  Loading refuses a manifest
that is not UTF-8 JSON, a missing or unknown key, ``class_ids`` that are
not at least 2 distinct integers, an array shaped for another head width,
and a non-finite value.
"""
from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ..errors import ParameterError
from ..iqfile import json_object, load_npz
from .layers import DTYPE
from .model import ModelConfig, NetParams, init_params

FORMAT_VERSION = 3


def _check_finite(key: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"non-finite value in {key}")


def save_checkpoint(path, params: NetParams, meta: dict) -> Path:
    for key, a in params.arrays.items():
        _check_finite(key, a)
    path = Path(path)
    manifest = dict(meta, format_version=FORMAT_VERSION, config=asdict(params.config))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8), **params.arrays)
    return path


def _check_keys(what: str, stored, expected) -> None:
    missing, extra = set(expected) - set(stored), set(stored) - set(expected)
    if missing or extra:
        raise ParameterError(f"checkpoint {what} mismatch: missing {sorted(missing)}, extra {sorted(extra)}")


def load_checkpoint(path) -> tuple[NetParams, dict]:
    """Rebuild NetParams from a checkpoint; returns them with the metadata it was saved with.

    Every stored array must match the key, the shape and the finiteness of
    the model with one output per class id.
    """
    files = load_npz(path)
    if "manifest" not in files:
        raise ParameterError(f"{path} is not a model checkpoint (missing manifest)")
    try:
        text = files.pop("manifest").astype(np.uint8, casting="equiv").tobytes().decode()
    except (TypeError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{path} manifest is not UTF-8 bytes: {exc}") from None
    meta = json_object(text, f"{path} manifest")
    version, config = meta.pop("format_version", None), meta.pop("config", None)
    if version != FORMAT_VERSION:
        raise ParameterError(f"unsupported checkpoint format_version {version!r}, not {FORMAT_VERSION}")
    if not isinstance(config, dict):
        raise ParameterError(f"{path} manifest config must be a JSON object, got {config!r}")
    _check_keys("config", config, [f.name for f in fields(ModelConfig)])
    ids = meta.get("class_ids")
    if not (isinstance(ids, list) and all(type(c) is int for c in ids) and len(set(ids)) == len(ids) >= 2):
        raise ParameterError(f"{path} manifest class_ids must list at least 2 distinct integers, got {ids!r}")
    config = ModelConfig(**config)
    expected = init_params(config, len(ids), seed=0).arrays
    _check_keys("key", files, expected)
    for key, ref in expected.items():
        if files[key].shape != ref.shape:
            raise ParameterError(f"shape mismatch at {key}: {ref.shape} vs {files[key].shape}")
        _check_finite(key, files[key])
    return NetParams(config, {key: files[key].astype(DTYPE, copy=False) for key in expected}), meta
