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
    load_spec,
    split_manifest,
    subsample_manifest,
    synthesize_one,
)
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.modulation import ModulationKind
from icvmd.pa import EmitterProfile, auxiliary_bank, emitter_bank
from oracles import reference_split_manifest, reference_subsample_manifest


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
        tiny_spec(emitters=("not a profile",))


def test_spec_refuses_an_snr_whose_noise_would_pass_float32s_range(tmp_path):
    with pytest.raises(ParameterError, match=r"SNR -760.0 dB is out of range: its noise would pass float32's range"):
        tiny_spec(snr_grid_db=(18.0, -760.0))
    # The bound scales with the loudest emitter: a tap of 1e3 lifts its power 1e6-fold.
    loud = EmitterProfile(9, (1.0,), (1e3,))
    with pytest.raises(ParameterError, match=r"SNR -740.0 dB is out of range"):
        tiny_spec(emitters=(*emitter_bank()[:2], loud), snr_grid_db=(-740.0,))
    # What the check lets through is written: every sample is finite in float32.
    spec = tiny_spec(snr_grid_db=(18.0, -740.0))
    manifest = generate_dataset(spec, tmp_path / "d")
    assert len(manifest["files"]) == 16


@pytest.mark.parametrize(
    "kw",
    [{"n_samples": 100.5}, {"seed": "x"}, {"seed": -1}, {"signals_per_emitter": True},
     {"snr_grid_db": (18.0, None)}, {"snr_grid_db": (float("nan"),)}, {"n_samples": 15},
     {"signals_per_emitter": 0}, {"modulations": ("cw",)}, {"modulations": (ModulationKind.CW, "bpsk")},
     {"emitters": 5}, {"snr_grid_db": None}, {"snr_grid_db": (18.0, 4000.0)}],
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
    ids = [e.emitter_id for e in spec.emitters]
    assert ids == [0, 1, 2, 3, 4, 5, 6]
    assert spec.emitters == tuple(emitter_bank())


def test_an_empty_emitters_sequence_is_refused():
    for empty in ((), []):
        with pytest.raises(ParameterError, match="^emitters must be non-empty$"):
            tiny_spec(emitters=empty)


def test_specs_compare_and_hash_by_value():
    assert DatasetSpec() == DatasetSpec()
    assert hash(DatasetSpec()) == hash(DatasetSpec())
    aux = DatasetSpec(emitters=tuple(auxiliary_bank(5, 77)))
    assert hash(aux) == hash(DatasetSpec(emitters=list(auxiliary_bank(5, 77))))
    assert aux != DatasetSpec() and len({aux, DatasetSpec(), DatasetSpec()}) == 2


def test_load_spec_reads_what_echo_writes(tmp_path):
    spec = tiny_spec(emitters=tuple(auxiliary_bank(2, 77)), snr_grid_db=(18.0, -4))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.echo() | {"schema_version": 1}))
    assert load_spec(path) == spec
    path.write_text(json.dumps({"emitters": []}))
    with pytest.raises(ParameterError, match="^dataset config must carry schema_version 1$"):
        load_spec(path)
    path.write_text(json.dumps({"schema_version": 1, "emitters": []}))
    with pytest.raises(ParameterError, match="^bad dataset config: emitters must be non-empty$"):
        load_spec(path)


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


def test_entries_load_with_no_file_beside_them(tmp_path):
    generate_dataset(tiny_spec(), tmp_path)
    loaded = load_manifest(tmp_path)
    for entry in loaded["files"]:
        sig = load_entry(loaded, entry)
        assert sig.samples.size == 128
    # The manifest is the only metadata: no capture has a .json beside it.
    assert sorted(p.name for p in tmp_path.glob("*.json")) == ["manifest.json"]


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


def test_split_puts_a_single_entry_stratum_in_train():
    manifest = make_manifest(per_class=1, classes=(0,), snrs=(0.0,))
    train, test = split_manifest(manifest, 0.5, seed=0)
    assert train["files"] == manifest["files"] and test["files"] == []


def test_split_validation():
    for fraction in (0.0, 1.0, "0.3", True, None, np.nan):
        with pytest.raises(ParameterError, match=r"^test_fraction must lie in \(0, 1\)$"):
            split_manifest(make_manifest(), fraction, seed=0)


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
    for proportion in (0.0, 1.5, "1", True, None, np.nan):
        with pytest.raises(ParameterError, match=r"^proportion must lie in \(0, 1\]$"):
            subsample_manifest(make_manifest(), proportion, seed=0)


def test_subsample_is_seeded():
    manifest = make_manifest()
    a = subsample_manifest(manifest, 0.5, seed=1)
    b = subsample_manifest(manifest, 0.5, seed=1)
    c = subsample_manifest(manifest, 0.5, seed=2)
    assert [e["path"] for e in a["files"]] == [e["path"] for e in b["files"]]
    assert [e["path"] for e in a["files"]] != [e["path"] for e in c["files"]]


def test_subsample_floors_after_float_rounding():
    # 0.29 * 100 is 28.999999999999996 in floating point; a plain floor kept 28.
    manifest = make_manifest(per_class=50)  # 100 entries per class
    for proportion, keep in [(0.29, 29), (0.57, 57), (0.58, 58), (0.295, 29)]:
        sub = subsample_manifest(manifest, proportion, seed=0)
        for c in (0, 1):
            assert sum(1 for e in sub["files"] if e["label"] == c) == keep, proportion


def test_subsamples_of_one_seed_are_nested_across_proportions():
    # run_fewshot's memo reuses a capture's decomposition across proportions.
    manifest = make_manifest(per_class=20, classes=(0, 1, 2))  # 40 entries per class
    for seed in range(5):
        subs = [subsample_manifest(manifest, p, seed) for p in (0.1, 0.3, 1.0)]
        for c in (0, 1, 2):
            kept = [{e["path"] for e in sub["files"] if e["label"] == c} for sub in subs]
            assert [len(k) for k in kept] == [4, 12, 40]
            assert kept[0] < kept[1] < kept[2]


def random_manifest(rng) -> dict:
    """Labels x SNRs x 1-9 entries each, listed in a shuffled order under
    random path names, now and then with one path listed twice."""
    labels = rng.choice(7, size=rng.integers(1, 4), replace=False).tolist()
    snrs = rng.choice([-4.0, 0.0, 6.0, 18.0], size=rng.integers(1, 3), replace=False).tolist()
    files = [
        {"path": f"{rng.integers(1 << 40):011x}.iqf32", "label": c, "snr_db": s}
        for c in labels for s in snrs for _ in range(rng.integers(1, 10))
    ]
    files = [files[i] for i in rng.permutation(len(files))]
    if rng.random() < 0.05:
        files.append(dict(files[0]))
    return {"schema_version": 1, "spec": {}, "files": files}


def outcome(draw, *args):
    try:
        return draw(*args)
    except (ParameterError, DegenerateInputError) as exc:
        return type(exc), str(exc)


def test_split_and_subsample_match_their_reference_loops():
    rng = np.random.default_rng(2024)
    refused = {"split": 0, "subsample": 0}
    for _ in range(600):
        manifest, seed = random_manifest(rng), int(rng.integers(1 << 31))
        fraction = [0.01, 1 / 3, 0.25, 0.5, 0.99, rng.uniform(0.001, 0.999)][rng.integers(6)]
        proportion = [0.01, 0.1, 0.29, 0.5, 1.0, rng.uniform(0.01, 1.0)][rng.integers(6)]
        got = outcome(split_manifest, manifest, fraction, seed)
        assert got == outcome(reference_split_manifest, manifest, fraction, seed)
        got_sub = outcome(subsample_manifest, manifest, proportion, seed)
        assert got_sub == outcome(reference_subsample_manifest, manifest, proportion, seed)
        refused["split"] += got[0] is ParameterError  # a path listed twice
        refused["subsample"] += isinstance(got_sub, tuple)  # an empty class
    assert min(refused.values()) >= 10, refused  # the refusals are compared too, not only the lists
