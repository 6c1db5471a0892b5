import json
import re

import numpy as np
import pytest

from icvmd.errors import ParameterError
from icvmd.nn.checkpoint import load_checkpoint, save_checkpoint
from icvmd.nn.model import ModelConfig, init_params, model_forward
from oracles import as_float64

TINY = ModelConfig(segment_len=10)
META = {"class_ids": [3, 5, 9], "note": "saved by the tests"}


def test_roundtrip_is_bit_identical(tmp_path):
    params = init_params(TINY, 3, seed=9)
    path = save_checkpoint(tmp_path / "m.npz", params, META)
    loaded, meta = load_checkpoint(path)
    assert meta == META
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
    path = save_checkpoint(tmp_path / "old.npz", params, META)
    with np.load(path) as z:
        assert z["classifier1.weights"].dtype == np.float64
    loaded, _ = load_checkpoint(path)
    assert all(a.dtype == np.float32 for a in loaded.arrays.values())
    xm, xb = rng.normal(size=(2, 2, 30)), rng.normal(size=(2, 2, 30))
    want, _ = model_forward(params, xm, xb)
    got, _ = model_forward(loaded, xm, xb)
    assert got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


def rewrite(path, edit):
    with np.load(path) as z:
        files = dict(z.items())
    manifest = json.loads(bytes(files["manifest"].tobytes()).decode())
    edit(files, manifest)
    files["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **files)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.npz")


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ParameterError):
        load_checkpoint(path)


def test_wrong_format_version(tmp_path):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0), META)
    # Version 1 kept its label map in a separate .labels.json file, and version 2
    # stored nine architecture settings that are now fixed.
    for version in (99, 2, 1):
        rewrite(path, lambda _, m: m.update(format_version=version))
        with pytest.raises(ParameterError, match=f"unsupported checkpoint format_version {version}, not 3"):
            load_checkpoint(path)


def test_missing_key_rejected(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params, META)
    with np.load(path) as z:
        files = dict(z.items())
    files.pop("classifier1.bias")
    np.savez(path, **files)
    with pytest.raises(ParameterError, match="missing"):
        load_checkpoint(path)


def test_extra_key_rejected(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params, META)
    with np.load(path) as z:
        files = dict(z.items())
    files["bogus.weights"] = np.zeros(2)
    np.savez(path, **files)
    with pytest.raises(ParameterError, match="extra"):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    params = init_params(TINY, 3, seed=0)
    path = save_checkpoint(tmp_path / "m.npz", params, META)
    with np.load(path) as z:
        files = dict(z.items())
    files["classifier1.weights"] = np.zeros((2, 2))
    np.savez(path, **files)
    with pytest.raises(ParameterError, match="shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_rejected(tmp_path, bad):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0), META)

    def poison(files, _):
        files["tcn.merge.weights"][0, 0, 0] = bad

    rewrite(path, poison)
    with pytest.raises(ParameterError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_array_is_not_saved(tmp_path, bad):
    # A diverged run would otherwise write a file that load_checkpoint refuses.
    params = init_params(TINY, 3, seed=0)
    params.arrays["encoder.0.weights"][1, 0, 2] = bad
    path = tmp_path / "out" / "m.npz"
    with pytest.raises(ParameterError, match=r"^non-finite value in encoder\.0\.weights$"):
        save_checkpoint(path, params, META)
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.pop("class_ids"),
        lambda m: m.update(class_ids={"0": 3}),
        lambda m: m.update(class_ids=[3]),
        lambda m: m.update(class_ids=[3, 5, True]),
        lambda m: m.update(class_ids=[3, 5, "9"]),
        lambda m: m.update(class_ids=[3, 5, 9.0]),
        lambda m: m.update(class_ids=[3, 5, 5]),
    ],
    ids=["missing", "not_a_list", "single_id", "bool", "string", "float", "repeated"],
)
def test_bad_class_count_in_manifest_rejected(tmp_path, edit):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0), META)
    rewrite(path, lambda _, m: edit(m))
    with pytest.raises(ParameterError, match=re.escape(f"{path} manifest class_ids must list at least 2 distinct integers")):
        load_checkpoint(path)


@pytest.mark.parametrize("ids", [[3, 5], [3, 5, 9, 11]], ids=["fewer", "more"])
def test_class_ids_for_another_head_width_rejected(tmp_path, ids):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0), META)
    rewrite(path, lambda _, m: m.update(class_ids=ids))
    with pytest.raises(ParameterError, match="shape mismatch at classifier1.weights"):
        load_checkpoint(path)


def test_config_key_mismatch_rejected(tmp_path):
    path = save_checkpoint(tmp_path / "m.npz", init_params(TINY, 3, seed=0), META)
    rewrite(path, lambda _, m: m["config"].update(depth=3))
    with pytest.raises(ParameterError, match="extra"):
        load_checkpoint(path)
    rewrite(path, lambda _, m: [m["config"].pop(k) for k in ("depth", "segment_len")])
    with pytest.raises(ParameterError, match="missing"):
        load_checkpoint(path)
