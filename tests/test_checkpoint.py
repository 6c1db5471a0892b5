import json

import numpy as np
import pytest

from icvmd.errors import ParameterError
from icvmd.nn.checkpoint import load_checkpoint, save_checkpoint
from icvmd.nn.model import ModelConfig, init_params, model_forward
from oracles import as_float64

TINY = ModelConfig(
    channels=4,
    encoder_layers=1,
    n_blocks=2,
    branch_channels=3,
    branch_layers=1,
    segment_len=10,
)


def test_roundtrip_is_bit_identical(tmp_path):
    params = init_params(TINY, 3, seed=9)
    path = save_checkpoint(tmp_path / "m.npz", params)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    assert list(loaded.arrays) == list(params.arrays)
    for p, a in params.arrays.items():
        b = loaded.arrays[p]
        assert np.array_equal(a, b), p
        assert b.dtype == a.dtype == np.float32


def test_float64_checkpoint_loads_as_float32(tmp_path):
    # A float64 model, moved off the float32 grid, saved the way every
    # checkpoint was written before models trained in float32.
    params = as_float64(init_params(TINY, 3, seed=9))
    rng = np.random.default_rng(4)
    for a in params.arrays.values():
        a += rng.normal(scale=1e-3, size=a.shape)
    path = save_checkpoint(tmp_path / "old.npz", params)
    with np.load(path) as z:
        assert z["classifier1.weights"].dtype == np.float64
    loaded = load_checkpoint(path)
    assert all(a.dtype == np.float32 for a in loaded.arrays.values())
    xm, xb = rng.normal(size=(2, 2, 30)), rng.normal(size=(2, 2, 30))
    want, _ = model_forward(params, xm, xb)
    got, _ = model_forward(loaded, xm, xb)
    assert got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.npz")


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ParameterError):
        load_checkpoint(path)


def test_wrong_format_version(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params)
    with np.load(path) as z:
        files = dict(z.items())
    manifest = json.loads(bytes(files["manifest"].tobytes()).decode())
    manifest["format_version"] = 99
    files["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **files)
    with pytest.raises(ParameterError):
        load_checkpoint(path)


def test_missing_key_rejected(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params)
    with np.load(path) as z:
        files = dict(z.items())
    files.pop("classifier1.bias")
    np.savez(path, **files)
    with pytest.raises(ParameterError, match="missing"):
        load_checkpoint(path)


def test_extra_key_rejected(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params)
    with np.load(path) as z:
        files = dict(z.items())
    files["bogus.weights"] = np.zeros(2)
    np.savez(path, **files)
    with pytest.raises(ParameterError, match="extra"):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params)
    with np.load(path) as z:
        files = dict(z.items())
    files["classifier1.weights"] = np.zeros((2, 2))
    np.savez(path, **files)
    with pytest.raises(ParameterError, match="shape"):
        load_checkpoint(path)


def rewrite(path, edit):
    with np.load(path) as z:
        files = dict(z.items())
    manifest = json.loads(bytes(files["manifest"].tobytes()).decode())
    edit(files, manifest)
    files["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **files)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_rejected(tmp_path, bad):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0))

    def poison(files, _):
        files["tcn.merge.weights"][0, 0, 0] = bad

    rewrite(path, poison)
    with pytest.raises(ParameterError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value", [("n_classes", None), ("n_out", None), ("n_classes", 3.0), ("n_classes", True),
                   ("n_classes", 1), ("n_out", 0), ("n_out", "3"), ("n_out", 4)]
)
def test_bad_class_count_in_manifest_rejected(tmp_path, key, value):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0))
    rewrite(path, lambda _, m: m.pop(key) if value is None else m.update({key: value}))
    with pytest.raises(ParameterError, match=f"manifest {key} must be an integer"):
        load_checkpoint(path)


def test_config_key_mismatch_rejected(tmp_path):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0))
    rewrite(path, lambda _, m: m["config"].update(depth=3))
    with pytest.raises(ParameterError, match="extra"):
        load_checkpoint(path)
    rewrite(path, lambda _, m: [m["config"].pop(k) for k in ("depth", "channels")])
    with pytest.raises(ParameterError, match="missing"):
        load_checkpoint(path)
