import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from icvmd.dataset import (
    DatasetSpec,
    generate_dataset,
    load_entry,
    load_manifest,
    split_manifest,
    subsample_manifest,
    synthesize_one,
)
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.modulation import ModulationKind
from icvmd.pa import emitter_bank


def tiny_spec(**kw):
    base = dict(
        emitters=tuple(emitter_bank()[:2]),
        modulations=(ModulationKind.CW, ModulationKind.BPSK),
        snr_grid_db=(18.0,),
        n_samples=128,
        signals_per_emitter=4,
        seed=0,
    )
    base.update(kw)
    return DatasetSpec(**base)


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(ParameterError):
        tiny_spec(n_samples=8)
    with pytest.raises(ParameterError):
        tiny_spec(signals_per_emitter=0)
    with pytest.raises(ParameterError):
        tiny_spec(snr_grid_db=())
    with pytest.raises(ParameterError):
        tiny_spec(modulations=())
    with pytest.raises(ParameterError):
        tiny_spec(emitters=("not a profile",)).resolved_emitters()


@pytest.mark.parametrize(
    "kw",
    [{"n_samples": 100.5}, {"seed": "x"}, {"seed": -1}, {"signals_per_emitter": True},
     {"samples_per_symbol": 8.0}, {"carrier": "0.1"}, {"snr_grid_db": (18.0, None)},
     {"snr_grid_db": (float("nan"),)}, {"carrier": float("inf")}, {"n_samples": 15},
     {"signals_per_emitter": 0}, {"samples_per_symbol": 0}, {"modulations": ("cw",)},
     {"modulations": (ModulationKind.CW, "bpsk")}],
)
def test_spec_rejects_wrong_types(kw):
    with pytest.raises(ParameterError):
        tiny_spec(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        {"snr_grid_db": (18.0, 18.4)},
        {"snr_grid_db": (-4, -4.0)},
        {"modulations": (ModulationKind.CW, ModulationKind.BPSK, ModulationKind.CW)},
        {"emitters": (emitter_bank()[1], emitter_bank()[1])},
    ],
    ids=["snr_same_whole_db", "snr_equal", "modulation", "emitter_id"],
)
def test_spec_rejects_values_whose_file_names_collide(kw):
    # Each of these names the capture files; a repeat would overwrite files
    # and list each surviving path twice in the manifest.
    with pytest.raises(ParameterError, match="may appear only once"):
        tiny_spec(**kw)


def test_load_manifest_rejects_a_path_listed_twice(tmp_path):
    generate_dataset(tiny_spec(), tmp_path)
    path = tmp_path / "manifest.json"
    content = json.loads(path.read_text())
    content["files"].append(dict(content["files"][0], snr_db=18.4))
    path.write_text(json.dumps(content))
    with pytest.raises(ParameterError, match="more than once"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
def test_load_manifest_rejects_a_non_finite_snr(tmp_path, snr_db):
    # json.loads reads NaN and Infinity; such an SNR would make an empty bucket.
    generate_dataset(tiny_spec(), tmp_path)
    path = tmp_path / "manifest.json"
    content = json.loads(path.read_text())
    content["files"][1]["snr_db"] = snr_db
    path.write_text(json.dumps(content))
    with pytest.raises(ParameterError, match=re.escape(f"{path}: {content['files'][1]['path']} needs") + ".* finite$"):
        load_manifest(tmp_path)


def test_default_emitters_are_the_bank():
    spec = DatasetSpec()
    ids = [e.emitter_id for e in spec.resolved_emitters()]
    assert ids == [0, 1, 2, 3, 4, 5, 6]


def test_echo_is_json_serializable():
    echo = tiny_spec().echo()
    parsed = json.loads(json.dumps(echo))
    assert parsed["n_samples"] == 128
    assert parsed["modulations"] == ["cw", "bpsk"]
    assert len(parsed["emitters"]) == 2


# ---------------------------------------------------------------- generation


def test_generate_counts_and_manifest(tmp_path):
    spec = tiny_spec()
    manifest = generate_dataset(spec, tmp_path)
    # 2 emitters x 1 SNR x 4 signals.
    assert len(manifest["files"]) == 8
    assert len(list(tmp_path.glob("*.iqf32"))) == 8
    loaded = load_manifest(tmp_path)
    assert [e["path"] for e in loaded["files"]] == [e["path"] for e in manifest["files"]]
    # Even split across the two kinds.
    kinds = [e["modulation"] for e in manifest["files"]]
    assert kinds.count("cw") == 4
    assert kinds.count("bpsk") == 4


def test_modulation_remainder_goes_to_first_kind(tmp_path):
    spec = tiny_spec(signals_per_emitter=5, emitters=tuple(emitter_bank()[:1]))
    manifest = generate_dataset(spec, tmp_path)
    kinds = [e["modulation"] for e in manifest["files"]]
    assert kinds.count("cw") == 3
    assert kinds.count("bpsk") == 2


def test_generation_is_byte_identical(tmp_path):
    spec = tiny_spec()
    generate_dataset(spec, tmp_path / "a")
    generate_dataset(spec, tmp_path / "b")
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_seed_changes_the_data(tmp_path):
    generate_dataset(tiny_spec(seed=0), tmp_path / "a")
    generate_dataset(tiny_spec(seed=1), tmp_path / "b")
    assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")


def test_entries_load_and_match_sidecars(tmp_path):
    spec = tiny_spec()
    manifest = generate_dataset(spec, tmp_path)
    loaded = load_manifest(tmp_path)
    entry = loaded["files"][0]
    sig = load_entry(loaded, entry)
    assert sig.samples.size == 128
    side = json.loads((tmp_path / entry["path"]).with_suffix(".json").read_text())
    assert side["sample_rate"] == sig.sample_rate == 1.0
    for key in ("label", "emitter_id", "modulation", "snr_db", "seed", "noise_seed"):
        assert side[key] == entry[key]


def test_single_signal_chain_is_snr_faithful():
    spec = tiny_spec(n_samples=60000)
    profile = emitter_bank()[0]
    sig = synthesize_one(spec, profile, ModulationKind.CW, 10.0, symbol_seed=1, noise_seed=2)
    clean = synthesize_one(spec, profile, ModulationKind.CW, 300.0, symbol_seed=1, noise_seed=2)
    noise_power = np.mean(np.abs(sig.samples - clean.samples) ** 2)
    measured = 10 * np.log10(clean.power / noise_power)
    assert measured == pytest.approx(10.0, abs=0.1)


def test_manifest_schema_guard(tmp_path):
    generate_dataset(tiny_spec(), tmp_path)
    path = tmp_path / "manifest.json"
    content = json.loads(path.read_text())
    content["schema_version"] = 2
    path.write_text(json.dumps(content))
    with pytest.raises(ParameterError):
        load_manifest(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "nowhere")


# -------------------------------------------------------------------- splits


def make_manifest(per_class=6, classes=(0, 1), snrs=(0.0, 18.0)):
    files = []
    for c in classes:
        for s in snrs:
            for i in range(per_class):
                files.append(
                    {"path": f"e{c}_s{s}_{i}.iqf32", "label": c, "snr_db": s}
                )
    return {"schema_version": 1, "spec": {}, "files": files}


def test_split_is_disjoint_and_stratified():
    manifest = make_manifest(per_class=6)
    train, test = split_manifest(manifest, 1.0 / 3.0, seed=0)
    train_paths = {e["path"] for e in train["files"]}
    test_paths = {e["path"] for e in test["files"]}
    assert not train_paths & test_paths
    assert len(train_paths) + len(test_paths) == 24
    # Every (label, snr) stratum contributes round(6/3) = 2 test entries.
    for c in (0, 1):
        for s in (0.0, 18.0):
            got = [e for e in test["files"] if e["label"] == c and e["snr_db"] == s]
            assert len(got) == 2


def test_split_is_seeded():
    manifest = make_manifest()
    a = split_manifest(manifest, 0.25, seed=3)[1]
    b = split_manifest(manifest, 0.25, seed=3)[1]
    c = split_manifest(manifest, 0.25, seed=4)[1]
    assert [e["path"] for e in a["files"]] == [e["path"] for e in b["files"]]
    assert [e["path"] for e in a["files"]] != [e["path"] for e in c["files"]]


def test_split_keeps_at_least_one_on_each_side():
    manifest = make_manifest(per_class=2)
    train, test = split_manifest(manifest, 0.01, seed=0)
    for stratum_entries in (train["files"], test["files"]):
        assert len(stratum_entries) > 0


def test_split_validation():
    with pytest.raises(ParameterError):
        split_manifest(make_manifest(), 0.0, seed=0)
    with pytest.raises(ParameterError):
        split_manifest(make_manifest(), 1.0, seed=0)


def test_split_rejects_a_path_listed_twice():
    # A repeated path is the only way the two sides could share a capture; the
    # check is an exception, not an assert, so it also holds under python -O.
    manifest = make_manifest(per_class=3)
    manifest["files"].append(dict(manifest["files"][0]))
    with pytest.raises(ParameterError, match="more than once"):
        split_manifest(manifest, 1.0 / 3.0, seed=0)


# ----------------------------------------------------------------- subsample


def test_subsample_floor_counts():
    manifest = make_manifest(per_class=6, snrs=(18.0,))  # 6 entries per class
    sub = subsample_manifest(manifest, 0.5, seed=0)
    for c in (0, 1):
        assert sum(1 for e in sub["files"] if e["label"] == c) == 3
    sub = subsample_manifest(manifest, 0.34, seed=0)  # floor(2.04) = 2
    for c in (0, 1):
        assert sum(1 for e in sub["files"] if e["label"] == c) == 2


def test_subsample_empty_class_raises_degenerate():
    manifest = make_manifest(per_class=6, snrs=(18.0,))
    with pytest.raises(DegenerateInputError):
        subsample_manifest(manifest, 0.1, seed=0)  # floor(0.6) = 0


def test_subsample_full_keeps_everything():
    manifest = make_manifest()
    sub = subsample_manifest(manifest, 1.0, seed=0)
    assert len(sub["files"]) == len(manifest["files"])


def test_subsample_validation():
    with pytest.raises(ParameterError):
        subsample_manifest(make_manifest(), 0.0, seed=0)
    with pytest.raises(ParameterError):
        subsample_manifest(make_manifest(), 1.5, seed=0)


def test_subsample_is_seeded():
    manifest = make_manifest()
    a = subsample_manifest(manifest, 0.5, seed=1)
    b = subsample_manifest(manifest, 0.5, seed=1)
    c = subsample_manifest(manifest, 0.5, seed=2)
    assert [e["path"] for e in a["files"]] == [e["path"] for e in b["files"]]
    assert [e["path"] for e in a["files"]] != [e["path"] for e in c["files"]]
