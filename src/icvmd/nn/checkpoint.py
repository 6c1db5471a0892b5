"""Single-file .npz checkpoints with an embedded JSON manifest.

The manifest records the format version, the model's ``config`` (its segment
length, as the rest of the architecture is fixed) and the caller's metadata,
which must include ``class_ids``, the emitter label of each model output.
The arrays are stored as trained under their parameter keys and load in
the classifier's DTYPE.  Saving refuses a non-finite value or a manifest over
its bound, so no file it writes is one that loading would refuse.  Loading
refuses a manifest over that bound (before it is read) or not UTF-8 JSON,
``class_ids`` that are not at least 2 distinct integers, a missing or unknown
key or a member larger than its float64 array (both before any array is
read), an array that is not real floats or is shaped for another head width,
and a value not finite in DTYPE (a float64 1e39).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ..errors import ParameterError, check_keys
from ..iqfile import json_object, load_npz
from .layers import DTYPE
from .model import ModelConfig, NetParams, param_shapes

FORMAT_VERSION = 3

# The manifest's bound, checked before it is written or read: icvmd train
# writes under 1 KiB of settings beside its class_ids and one history float
# per epoch, each at most 26 bytes of JSON, so 1 MiB holds 40,000 of them.
_MANIFEST_BYTES = 1 << 20
MAX_EPOCHS = (_MANIFEST_BYTES - 1024) // 26  # icvmd train refuses more before it reads any data


def _check_finite(key: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"non-finite value in {key}")


def save_checkpoint(path, params: NetParams, meta: dict) -> Path:
    for key, a in params.arrays.items():
        _check_finite(key, a)
    path = Path(path)
    manifest = json.dumps(dict(meta, format_version=FORMAT_VERSION, config=asdict(params.config))).encode()
    if len(manifest) > _MANIFEST_BYTES:
        raise ParameterError(f"checkpoint manifest of {len(manifest)} bytes is over its bound of {_MANIFEST_BYTES}")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, manifest=np.frombuffer(manifest, dtype=np.uint8), **params.arrays)
    return path


def load_checkpoint(path) -> tuple[NetParams, dict]:
    """Rebuild NetParams from a checkpoint; returns them with the metadata it was saved with.

    Every stored array must match the key and the shape of the model with one
    output per class id, hold real floats, and be finite once cast to DTYPE;
    names and sizes are checked off the zip directory before any is read.
    """
    with load_npz(path) as (sizes, read):
        if "manifest" not in sizes:
            raise ParameterError(f"{path} is not a model checkpoint (missing manifest)")
        if sizes["manifest"] > _MANIFEST_BYTES + 1024:  # as below, 1 KiB for the .npy header
            raise ParameterError(f"{path} manifest unpacks to {sizes['manifest']} bytes, over its bound of {_MANIFEST_BYTES}")
        try:
            text = read(["manifest"])["manifest"].astype(np.uint8, casting="equiv").tobytes().decode()
        except (TypeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"{path} manifest is not UTF-8 bytes: {exc}") from None
        meta = json_object(text, f"{path} manifest")
        version, config = meta.pop("format_version", None), meta.pop("config", None)
        if version != FORMAT_VERSION:
            raise ParameterError(f"unsupported checkpoint format_version {version!r}, not {FORMAT_VERSION}")
        if not isinstance(config, dict):
            raise ParameterError(f"{path} manifest config must be a JSON object, got {config!r}")
        check_keys("checkpoint config", config, [f.name for f in fields(ModelConfig)])
        ids = meta.get("class_ids")
        if not (isinstance(ids, list) and all(type(c) is int for c in ids) and len(set(ids)) == len(ids) >= 2):
            raise ParameterError(f"{path} manifest class_ids must list at least 2 distinct integers, got {ids!r}")
        config = ModelConfig(**config)
        expected = param_shapes(len(ids))
        check_keys("checkpoint key", sizes.keys() - {"manifest"}, expected)
        for key, shape in expected.items():
            if sizes[key] > 8 * math.prod(shape) + 1024:  # numpy's .npy header takes 128 of the 1 KiB allowed
                raise ParameterError(f"{key} unpacks to {sizes[key]} bytes, more than a float64 array of shape {shape}")
        files = read(expected)
    for key, shape in expected.items():  # files holds the keys in this order
        a = np.asarray(files[key])  # numpy reads a member that is not .npy data as bytes
        if not np.issubdtype(a.dtype, np.floating):
            raise ParameterError(f"{key} must hold real floats, got dtype {a.dtype}")
        if a.shape != shape:
            raise ParameterError(f"shape mismatch at {key}: {shape} vs {a.shape}")
        with np.errstate(over="ignore"):  # a value float32 cannot hold becomes inf, refused below
            files[key] = a.astype(DTYPE, copy=False)
        _check_finite(key, files[key])
    return NetParams(config, files), meta
