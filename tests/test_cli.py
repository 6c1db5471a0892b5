import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from icvmd import decompose as decompose_module
from icvmd import cli, fewshot
from icvmd.cli import main
from icvmd.dataset import DatasetSpec, generate_dataset
from icvmd.decompose import dump_modes, icvmd_decompose
from icvmd.errors import DegenerateInputError
from icvmd.features import extract_features
from icvmd.fewshot import FewshotResult
from icvmd.iqfile import read_iqf32, write_iqf32
from icvmd.nn.model import ModelConfig
from icvmd.nn.train import TrainConfig, TrainResult
from icvmd.vmd import VmdConfig, vmd_decompose


@pytest.fixture()
def runner():
    return CliRunner()


def gen_tiny(runner, out_dir, spe=2, extra=()):
    args = [
        "gen",
        "--out",
        str(out_dir),
        "--n-samples",
        "128",
        "--signals-per-emitter",
        str(spe),
        "--snr-db",
        "18",
        "--modulations",
        "cw",
        "--modulations",
        "bpsk",
        *extra,
    ]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return out_dir


def break_first_capture(data_dir, fault) -> str:
    """Break the first capture (by name) of a dataset in one of four ways; returns its name."""
    path = sorted(Path(data_dir).glob("*.iqf32"))[0]
    if fault == "bad_sidecar":
        path.with_suffix(".json").write_text(json.dumps({"sample_rate": "x"}))
    elif fault == "malformed_sidecar":
        path.with_suffix(".json").write_text("{not json")
    elif fault == "odd_float_count":
        path.write_bytes(path.read_bytes()[:-4])
    else:
        path.unlink()
    return path.name


def write_tone(path, n=256, f=0.2):
    z = np.exp(2j * np.pi * f * np.arange(n)) + 0.3 * np.exp(-2j * np.pi * 0.35 * np.arange(n))
    write_iqf32(path, z)
    return z


# ----------------------------------------------------------------------- gen


def test_gen_writes_dataset(runner, tmp_path):
    out = gen_tiny(runner, tmp_path / "data")
    assert (out / "manifest.json").exists()
    # 7 bank emitters x 1 SNR x 2 signals.
    assert len(list(out.glob("*.iqf32"))) == 14


def option_defaults(command):
    return {param.name: param.default for param in main.commands[command].params}


def test_option_defaults_are_the_config_defaults():
    fields = ("n_samples", "signals_per_emitter", "carrier", "samples_per_symbol", "sweep_span", "seed")
    spec = DatasetSpec()
    for command in ("gen", "fewshot"):
        defaults = option_defaults(command)
        assert {f: defaults[f] for f in fields} == {f: getattr(spec, f) for f in fields}
    train = option_defaults("train")
    assert train["segment_len"] == ModelConfig().segment_len
    side = VmdConfig()
    assert train["n_modes"] == side.n_modes
    recipe = ("epochs", "learning_rate", "batch_size", "seed")
    assert {f: train[f] for f in recipe} == {f: getattr(TrainConfig(), f) for f in recipe}
    decompose = option_defaults("decompose")
    solver = ("n_modes", "alpha", "tol", "max_iter")
    assert {f: decompose.pop(f) for f in solver} == {f: getattr(side, f) for f in solver}
    assert set(decompose) == {"input_file", "out_dir"}


def test_gen_rejects_bad_parameters(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--out", str(tmp_path / "d"), "--n-samples", "4"])
    assert res.exit_code == 2
    assert "error" in res.output


@pytest.mark.parametrize("command", ["gen", "fewshot"])
@pytest.mark.parametrize(
    "repeat",
    [["--snr-db", "18", "--snr-db", "18.4", "--modulations", "cw"],
     ["--snr-db", "18", "--modulations", "cw", "--modulations", "cw"]],
    ids=["snr_same_whole_db", "modulation"],
)
def test_a_repeat_that_would_collide_in_the_file_names_exits_2(runner, tmp_path, command, repeat):
    out = tmp_path / "d"
    where = "--out" if command == "gen" else "--workdir"
    res = runner.invoke(main, [command, where, str(out), "--n-samples", "128", "--signals-per-emitter", "1", *repeat])
    assert res.exit_code == 2, res.output
    assert "may appear only once" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_that_lists_a_path_twice_exits_2(runner, tmp_path, command):
    data = gen_tiny(runner, tmp_path / "data")
    ck = tmp_path / "model.npz"
    train = ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"]
    if command == "eval":
        assert runner.invoke(main, train).exit_code == 0
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["files"].append(dict(manifest["files"][0]))
    (data / "manifest.json").write_text(json.dumps(manifest))
    args = train if command == "train" else ["eval", "--data", str(data), "--checkpoint", str(ck)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "more than once" in res.output


def test_gen_from_config_json(runner, tmp_path):
    cfg = {
        "schema_version": 1,
        "n_samples": 128,
        "signals_per_emitter": 1,
        "snr_grid_db": [18.0],
        "modulations": ["cw"],
    }
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["gen", "--out", str(tmp_path / "d"), "--config", str(cfg_path)])
    assert res.exit_code == 0, res.output
    assert len(list((tmp_path / "d").glob("*.iqf32"))) == 7


def test_gen_rejects_malformed_config(runner, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    res = runner.invoke(main, ["gen", "--out", str(tmp_path / "d"), "--config", str(cfg_path)])
    assert res.exit_code == 3


def test_gen_rejects_wrong_config_schema(runner, tmp_path):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"schema_version": 0, "n_samples": 128}))
    res = runner.invoke(main, ["gen", "--out", str(tmp_path / "d"), "--config", str(cfg_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["gen", "fewshot"])
@pytest.mark.parametrize(
    "payload",
    [
        {"n_samples": 128, "snr_db": [18.0]},
        {"modulations": ["cw", "qam1024"]},
        {"n_samples": "128"},
        {"n_samples": 100.5},
        {"seed": "x"},
        {"signals_per_emitter": True},
    ],
    ids=["unknown-key", "unknown-modulation", "string-n-samples", "float-n-samples",
         "string-seed", "bool-signals-per-emitter"],
)
def test_bad_config_payload_is_a_parameter_error(runner, tmp_path, command, payload):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **payload}))
    where = "--out" if command == "gen" else "--workdir"
    res = runner.invoke(main, [command, where, str(tmp_path / "d"), "--config", str(cfg_path)])
    assert res.exit_code == 2, res.output
    assert "error: bad dataset config" in res.output


@pytest.mark.parametrize("command", ["gen", "fewshot"])
def test_config_rejects_dataset_options_given_beside_it(runner, tmp_path, command):
    # Each dataset option given with --config is named, even one at its
    # default value; the other options of the command may still be given.
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "n_samples": 64, "signals_per_emitter": 1}))
    where = ["--out"] if command == "gen" else ["--pipeline", "raw_nn", "--workdir"]
    args = [command, *where, str(tmp_path / "d"), "--config", str(cfg_path)]
    res = runner.invoke(main, args + ["--n-samples", "128", "--signals-per-emitter", "3", "--seed", "0"])
    assert res.exit_code == 2, res.output
    assert "error: --n-samples, --signals-per-emitter, --seed cannot be given with --config" in res.output
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------- decompose / reconstruct


def test_decompose_reconstruct_roundtrip(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    z = write_tone(src)
    res = runner.invoke(
        main,
        [
            "decompose",
            str(src),
            "--out",
            str(tmp_path / "modes"),
            "--n-modes",
            "2",
            "--alpha",
            "300",
        ],
    )
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in (tmp_path / "modes").iterdir()) == ["modes.json", "modes.npz"]
    assert "side=pos  index=0  omega=" in res.output and "label=" in res.output

    out_file = tmp_path / "rebuilt.iqf32"
    res = runner.invoke(
        main,
        [
            "reconstruct",
            str(tmp_path / "modes"),
            "--out",
            str(out_file),
            "--select",
            "signal",
            "--select",
            "feature",
            "--select",
            "residual",
        ],
    )
    assert res.exit_code == 0, res.output
    rebuilt = read_iqf32(out_file)
    assert np.allclose(rebuilt.samples, z, atol=1e-3)  # float32 storage


def test_decompose_defaults_are_the_config_defaults(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    res = runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "cli")])
    assert res.exit_code == 0, res.output
    dump_modes(icvmd_decompose(read_iqf32(src), VmdConfig()), tmp_path / "api")
    for name in ("modes.json", "modes.npz"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()


def test_reconstruct_single_selection(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    runner.invoke(
        main,
        ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2", "--alpha", "300"],
    )
    out_file = tmp_path / "sig.iqf32"
    res = runner.invoke(
        main, ["reconstruct", str(tmp_path / "m"), "--out", str(out_file), "--select", "signal"]
    )
    assert res.exit_code == 0, res.output
    sig = read_iqf32(out_file)
    assert sig.samples.size == 256
    assert json.loads(out_file.with_suffix(".json").read_text())["selection"] == ["signal"]


def test_reconstruct_rejects_a_manifest_with_an_unknown_label(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2"])
    manifest_path = tmp_path / "m" / "modes.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sides"]["pos"]["labels"][0] = "carrier"
    manifest_path.write_text(json.dumps(manifest))
    res = runner.invoke(main, ["reconstruct", str(tmp_path / "m"), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "error: bad modes.json: 'carrier'" in res.output


@pytest.mark.parametrize("rate", ["fast", None])
def test_reconstruct_rejects_a_non_numeric_sample_rate(runner, tmp_path, rate):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2"])
    manifest_path = tmp_path / "m" / "modes.json"
    manifest_path.write_text(json.dumps(json.loads(manifest_path.read_text()) | {"sample_rate": rate}))
    res = runner.invoke(main, ["reconstruct", str(tmp_path / "m"), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "error: bad modes.json" in res.output


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda m: m["sides"].update(up=m["sides"]["pos"]),
            "bad modes.json: sides must hold only pos and neg, got ['neg', 'pos', 'up']",
        ),
        (
            lambda m: m["sides"]["pos"]["labels"].append(m["sides"]["pos"]["labels"][0]),
            "bad dump: the pos side has 3 labels and modes of shape (2, 256)",
        ),
        (
            lambda m: m["sides"]["neg"]["labels"].pop(),
            "bad dump: the neg side has 1 labels and modes of shape (2, 256)",
        ),
    ],
    ids=["unknown_side", "repeated_mode", "dropped_mode"],
)
def test_reconstruct_rejects_a_bad_modes_json(runner, tmp_path, edit, message):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2"])
    manifest_path = tmp_path / "m" / "modes.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    res = runner.invoke(main, ["reconstruct", str(tmp_path / "m"), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"error: {message}" in res.output


def test_decompose_rejects_a_non_numeric_sidecar_sample_rate(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_iqf32(src, np.exp(2j * np.pi * 0.2 * np.arange(256)), sidecar={"sample_rate": "fast"})
    res = runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m")])
    assert res.exit_code == 2, res.output
    assert "tone.json: sample_rate must be a number, got 'fast'" in res.output


def test_decompose_rejects_an_infinite_tol(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    res = runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--tol", "inf"])
    assert res.exit_code == 2, res.output
    assert "error: tol must be positive and finite, got inf" in res.output
    assert not (tmp_path / "m").exists()


def non_object_sidecar(runner, tmp_path, payload):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    src.with_suffix(".json").write_text(payload)
    return ["decompose", str(src), "--out", str(tmp_path / "m")], "tone.json"


def non_object_dataset_config(runner, tmp_path, payload):
    (tmp_path / "spec.json").write_text(payload)
    return ["gen", "--out", str(tmp_path / "d"), "--config", str(tmp_path / "spec.json")], "spec.json"


def non_object_dataset_manifest(runner, tmp_path, payload):
    data = gen_tiny(runner, tmp_path / "data")
    (data / "manifest.json").write_text(payload)
    return ["train", "--data", str(data), "--out", str(tmp_path / "model.npz")], "manifest.json"


def non_object_modes_json(runner, tmp_path, payload):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2"])
    (tmp_path / "m" / "modes.json").write_text(payload)
    return ["reconstruct", str(tmp_path / "m"), "--out", str(tmp_path / "o")], "modes.json"


def non_object_checkpoint_manifest(runner, tmp_path, payload):
    data = gen_tiny(runner, tmp_path / "data")
    ck = tmp_path / "model.npz"
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    with np.load(ck) as z:
        files = dict(z.items())
    files["manifest"] = np.frombuffer(payload.encode(), dtype=np.uint8)
    np.savez(ck, **files)
    return ["eval", "--data", str(data), "--checkpoint", str(ck)], "model.npz manifest"


# Every JSON file a command reads, each written with the payload a test gives.
EACH_JSON_FILE = pytest.mark.parametrize(
    "setup",
    [
        non_object_sidecar,
        non_object_dataset_config,
        non_object_dataset_manifest,
        non_object_modes_json,
        non_object_checkpoint_manifest,
    ],
    ids=["sidecar", "dataset_config", "dataset_manifest", "modes_json", "checkpoint_manifest"],
)


@pytest.mark.parametrize("payload", ["[]", "[1, 2]"])
@EACH_JSON_FILE
def test_a_json_file_that_is_not_an_object_is_a_parameter_error(runner, tmp_path, setup, payload):
    args, name = setup(runner, tmp_path, payload)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert f"{name} must hold a JSON object, got list" in res.output


@EACH_JSON_FILE
def test_a_json_file_that_does_not_parse_is_an_io_error_naming_it(runner, tmp_path, setup):
    args, name = setup(runner, tmp_path, "{not json")
    res = runner.invoke(main, args)
    assert res.exit_code == 3, res.output
    where = rf"{re.escape(str(tmp_path))}/\S*{re.escape(name)}"
    assert re.search(rf"i/o error: malformed JSON in {where}: Expecting property name", res.output), res.output


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["files"].__setitem__(0, "x.iqf32"),
        lambda m: m["files"][0].pop("path"),
        lambda m: m["files"][0].update(path=3),
        lambda m: m.update(files="x.iqf32"),
        lambda m: m.pop("files"),
    ],
    ids=["string_entry", "no_path", "non_string_path", "string_files", "no_files"],
)
def test_train_rejects_a_manifest_with_a_bad_files_entry(runner, tmp_path, edit):
    data = gen_tiny(runner, tmp_path / "data")
    manifest = json.loads((data / "manifest.json").read_text())
    edit(manifest)
    (data / "manifest.json").write_text(json.dumps(manifest))
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(tmp_path / "model.npz")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "files must be a list of objects, each with a string path" in res.output


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e.pop("label"),
        lambda e: e.update(label="3"),
        lambda e: e.update(label=True),
        lambda e: e.pop("snr_db"),
        lambda e: e.update(snr_db="18"),
        lambda e: e.update(snr_db=float("nan")),
    ],
    ids=["no_label", "string_label", "bool_label", "no_snr", "string_snr", "nan_snr"],
)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_entry_needs_an_integer_label_and_a_numeric_snr(runner, tmp_path, command, edit):
    data = gen_tiny(runner, tmp_path / "data")
    ck = tmp_path / "model.npz"
    train = ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"]
    if command == "eval":
        res = runner.invoke(main, train)
        assert res.exit_code == 0, res.output
    manifest = json.loads((data / "manifest.json").read_text())
    edit(manifest["files"][-1])
    (data / "manifest.json").write_text(json.dumps(manifest))
    args = train if command == "train" else ["eval", "--data", str(data), "--checkpoint", str(ck)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "needs an integer label and a numeric snr_db" in res.output


def test_decompose_reports_solver_state_and_warns_at_the_cap(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    out = tmp_path / "m"
    args = ["decompose", str(src), "--out", str(out), "--n-modes", "2", "--alpha", "300"]
    res = runner.invoke(main, args + ["--max-iter", "2"])
    assert res.exit_code == 0, res.output
    solver = json.loads((out / "modes.json").read_text())["sides"]
    assert set(solver) == {"pos", "neg"}
    for side in ("pos", "neg"):
        assert solver[side]["iterations"] == 2
        assert solver[side]["converged"] is False
        assert solver[side]["final_delta"] > 1e-7
        assert f"warning: {side} side stopped at 2 sweeps" in res.stderr
    assert "warning" not in res.stdout

    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    solver = json.loads((out / "modes.json").read_text())["sides"]
    assert all(s["converged"] and 2 < s["iterations"] < 500 for s in solver.values())
    assert "warning" not in res.stderr


def test_decompose_missing_input_is_usage_error(runner, tmp_path):
    res = runner.invoke(main, ["decompose", str(tmp_path / "ghost.iqf32"), "--out", str(tmp_path / "m")])
    assert res.exit_code == 2


def test_decompose_corrupt_input(runner, tmp_path):
    bad = tmp_path / "bad.iqf32"
    np.array([1.0, 2.0, 3.0], dtype="<f4").tofile(bad)  # odd float count
    res = runner.invoke(main, ["decompose", str(bad), "--out", str(tmp_path / "m")])
    assert res.exit_code == 2


def dumped_modes_npz(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    res = runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2"])
    assert res.exit_code == 0, res.output
    return tmp_path / "m" / "modes.npz", ["reconstruct", str(tmp_path / "m"), "--out", str(tmp_path / "o")]


def trained_checkpoint(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data")
    ck = tmp_path / "model.npz"
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    return ck, ["eval", "--data", str(data), "--checkpoint", str(ck)]


@pytest.mark.parametrize(
    "damage", [lambda b: b[: len(b) // 2], lambda b: b"not an archive\n" * 8], ids=["truncated", "junk"]
)
@pytest.mark.parametrize("setup", [dumped_modes_npz, trained_checkpoint], ids=["reconstruct", "eval"])
def test_an_unreadable_npz_is_a_parameter_error(runner, tmp_path, setup, damage):
    path, args = setup(runner, tmp_path)
    path.write_bytes(damage(path.read_bytes()))
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"error: {path} is not a readable .npz archive" in res.output


# ---------------------------------------------------------------- train/eval


def test_train_then_eval(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    res = runner.invoke(
        main,
        [
            "train",
            "--data",
            str(data),
            "--out",
            str(ck),
            "--representation",
            "raw",
            "--epochs",
            "1",
            "--batch-size",
            "8",
            "--segment-len",
            "32",
        ],
    )
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model.npz"]

    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n_test"] == 14
    assert "18.0" in report["per_snr"] or 18.0 in {float(k) for k in report["per_snr"]}


def read_manifest(ck) -> dict:
    with np.load(ck) as z:
        return json.loads(z["manifest"].tobytes().decode())


def test_train_manifest_records_the_training_run(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    args = ["train", "--data", str(data), "--out", str(ck), "--segment-len", "32"]
    res = runner.invoke(main, args + ["--epochs", "2", "--batch-size", "8", "--learning-rate", "0.01", "--seed", "3"])
    assert res.exit_code == 0, res.output
    meta = read_manifest(ck)
    assert meta["format_version"] == 3
    assert meta["config"] == {"segment_len": 32}
    assert (meta["class_ids"], meta["representation"], meta["vmd"]) == (list(range(7)), "raw", dataclasses.asdict(VmdConfig()))
    assert (meta["epochs"], meta["learning_rate"], meta["batch_size"], meta["seed"]) == (2, 0.01, 8, 3)
    assert len(meta["history"]) == 2
    assert all(loss > 0 for loss in meta["history"])
    assert f"final epoch loss {meta['history'][-1]:.4f}" in res.output


def test_a_checkpoint_copied_alone_evaluates_the_same(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "train" / "model.npz"
    args = ["train", "--data", str(data), "--out", str(ck), "--representation", "icvmd", "--n-modes", "3"]
    res = runner.invoke(main, args + ["--epochs", "1", "--batch-size", "8", "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    assert [p.name for p in ck.parent.iterdir()] == ["model.npz"]
    moved = tmp_path / "elsewhere" / "copy.npz"
    moved.parent.mkdir()
    moved.write_bytes(ck.read_bytes())
    here = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    there = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(moved)])
    assert here.exit_code == there.exit_code == 0, here.output + there.output
    assert there.stdout == here.stdout
    assert json.loads(there.stdout)["n_test"] == 14


def test_train_writes_no_checkpoint_for_a_diverged_run(runner, tmp_path):
    # At this step size the parameters overflow to NaN within three epochs,
    # and training stops at the first non-finite loss.  The overflow raises
    # no numpy warning (the suite would fail on one), and the error line is
    # all the user sees.
    data = gen_tiny(runner, tmp_path / "data")
    ck = tmp_path / "model.npz"
    args = ["train", "--data", str(data), "--out", str(ck), "--segment-len", "32", "--epochs", "3"]
    res = runner.invoke(main, args + ["--batch-size", "8", "--learning-rate", "1e30"])
    assert res.exit_code == 2, res.output
    assert "error: non-finite training loss at epoch " in res.stderr
    assert res.stderr == "error: non-finite training loss at epoch 1, step 2; lower the learning rate\n"
    assert not ck.exists()


def test_train_refuses_a_segment_longer_than_every_capture(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data")  # 128 samples per capture
    ck = tmp_path / "model.npz"
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "500"])
    assert res.exit_code == 2, res.output
    assert "error: need at least one full segment: T=128 < segment_len=500" in res.stderr
    assert not ck.exists()


@pytest.mark.parametrize(
    "history, warns",
    [([2.5, np.log(7) - 0.04], True), ([2.5, np.log(7) - 0.06], False), ([], False)],
    ids=["within_margin", "outside_margin", "no_epochs"],
)
def test_train_warns_when_the_final_loss_sits_at_chance(runner, tmp_path, monkeypatch, history, warns):
    data = gen_tiny(runner, tmp_path / "data")  # 7 classes
    monkeypatch.setattr(cli, "train_model", lambda params, *a: TrainResult(params, history))
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(tmp_path / "m.npz"), "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    line = "warning: final epoch loss 1.906 is within 0.05 of ln(7) = 1.946; the model is at chance"
    assert res.stderr.splitlines() == ([line] if warns else [])


@pytest.mark.parametrize("fault", ["bad_sidecar", "odd_float_count", "missing_file"])
def test_train_and_eval_skip_an_unreadable_capture(runner, tmp_path, fault):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    bad = break_first_capture(data, fault)
    ck = tmp_path / "model.npz"
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(ck), "--epochs", "1", "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    skipped = [line for line in res.stderr.splitlines() if line.startswith("skipped ")]
    assert len(skipped) == 1
    assert skipped[0].startswith(f"skipped {bad}: ")
    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 0, res.output
    assert f"skipped {bad}: " in res.stderr
    assert json.loads(res.stdout)["n_test"] == 13


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_with_no_captures_exits_2(runner, tmp_path, command):
    data = gen_tiny(runner, tmp_path / "data")
    ck = tmp_path / "model.npz"
    train = ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"]
    if command == "eval":
        res = runner.invoke(main, train)
        assert res.exit_code == 0, res.output
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps(dict(manifest, files=[])))
    args = train if command == "train" else ["eval", "--data", str(data), "--checkpoint", str(ck)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"error: the manifest in {data} lists no captures" in res.stderr


def edit_manifest(ck, edit) -> None:
    """Apply ``edit`` to a checkpoint's manifest in place."""
    with np.load(ck) as z:
        files = dict(z.items())
    manifest = json.loads(bytes(files["manifest"].tobytes()).decode())
    edit(manifest)
    files["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(ck, **files)


def eval_with_edited_manifest(runner, tmp_path, edit):
    """Train an untrained checkpoint, apply ``edit`` to its manifest, then run eval on it."""
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    edit_manifest(ck, edit)
    return runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])


def test_eval_rejects_a_checkpoint_with_a_bad_config_key(runner, tmp_path):
    res = eval_with_edited_manifest(runner, tmp_path, lambda m: m["config"].update(depth=3))
    assert res.exit_code == 2
    assert "depth" in res.output


def test_eval_rejects_a_checkpoint_with_a_bad_class_count(runner, tmp_path):
    # Missing, not a list, a single id, and ids that are bool, string or float.
    for i, ids in enumerate([None, {"0": 0}, [0], [0, 1, True], [0, 1, "2"], [0, 1, 2.0]]):
        edit = (lambda m: m.pop("class_ids")) if ids is None else (lambda m: m.update(class_ids=ids))
        res = eval_with_edited_manifest(runner, tmp_path / str(i), edit)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"manifest class_ids must list at least 2 distinct integers, got {ids!r}" in res.stderr


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("class_ids"), "class_ids must list at least 2 distinct integers, got None"),
        (lambda m: m.update(representation="wavelet"), "unknown representation 'wavelet'"),
        (lambda m: m.update(class_ids=m["class_ids"][:-1]), "shape mismatch at classifier1.weights"),
        (lambda m: m.update(class_ids=m["class_ids"] + [99]), "shape mismatch at classifier1.weights"),
        (lambda m: m.update(class_ids=[str(c) for c in m["class_ids"]]), "class_ids must list at least 2 distinct integers"),
        (lambda m: m.update(class_ids=m["class_ids"][:1] + m["class_ids"][:-1]), "class_ids must list at least 2 distinct integers"),
    ],
    ids=["no_class_ids", "unknown_representation", "short_class_ids", "long_class_ids", "string_class_ids", "repeated_class_ids"],
)
def test_eval_rejects_a_bad_label_map(runner, tmp_path, edit, message):
    res = eval_with_edited_manifest(runner, tmp_path, edit)
    assert res.exit_code == 2, res.output
    assert "error: " in res.stderr and message in res.stderr


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("vmd"), "manifest vmd must be a JSON object, got None"),
        (lambda m: m.update(n_modes=m.pop("vmd")["n_modes"]), "manifest vmd must be a JSON object, got None"),
        (lambda m: m.update(vmd=[4, 200.0, 1e-6, 300]), "manifest vmd must be a JSON object, got [4, 200.0, 1e-06, 300]"),
        (lambda m: m["vmd"].pop("alpha"), "checkpoint vmd mismatch: missing ['alpha'], extra []"),
        (lambda m: m["vmd"].update(beta=1.7), "checkpoint vmd mismatch: missing [], extra ['beta']"),
        (lambda m: m["vmd"].update(alpha="200"), "alpha must be positive and finite, got '200'"),
        (lambda m: m["vmd"].update(alpha=True), "alpha must be positive and finite, got True"),
        (lambda m: m["vmd"].update(n_modes=2.5), "n_modes must be an integer, got 2.5"),
    ],
    ids=["no_vmd", "n_modes_only", "vmd_list", "missing_field", "unknown_field", "string_alpha", "bool_alpha", "float_n_modes"],
)
def test_eval_refuses_a_solver_config_it_cannot_rebuild_whole(runner, tmp_path, edit, message):
    # No field falls back to a default, so a checkpoint written before the
    # manifest carried the whole solver config (n_modes alone) is refused too.
    res = eval_with_edited_manifest(runner, tmp_path, edit)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: " in res.stderr and message in res.stderr


@pytest.mark.parametrize("config", [5, None])
def test_eval_rejects_a_manifest_config_that_is_not_an_object(runner, tmp_path, config):
    res = eval_with_edited_manifest(runner, tmp_path, lambda m: m.update(config=config))
    assert res.exit_code == 2, res.output
    assert f"error: {tmp_path / 'model.npz'} manifest config must be a JSON object, got {config!r}" in res.stderr


@pytest.mark.parametrize(
    "payload", [np.array([255, 254, 250], np.uint8), np.array([1.5, 2.5])], ids=["not_utf8", "float_array"]
)
def test_eval_rejects_a_manifest_that_is_not_utf8_bytes(runner, tmp_path, payload):
    ck, args = trained_checkpoint(runner, tmp_path)
    with np.load(ck) as z:
        files = dict(z.items())
    np.savez(ck, **dict(files, manifest=payload))
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"error: {ck} manifest is not UTF-8 bytes" in res.stderr


def test_eval_decomposes_with_the_trained_n_modes(runner, tmp_path, monkeypatch):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    res = runner.invoke(
        main,
        [
            "train",
            "--data",
            str(data),
            "--out",
            str(ck),
            "--representation",
            "icvmd",
            "--n-modes",
            "3",
            "--epochs",
            "0",
            "--segment-len",
            "32",
        ],
    )
    assert res.exit_code == 0, res.output
    assert read_manifest(ck)["vmd"] == dataclasses.asdict(VmdConfig(n_modes=3))

    used = []

    def spy(sig, cfg):
        used.append(cfg.n_modes)
        return icvmd_decompose(sig, cfg)

    monkeypatch.setattr(fewshot, "icvmd_decompose", spy)
    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["n_test"] == 14
    assert used and all(n_modes == 3 for n_modes in used)


def test_eval_decomposes_with_the_solver_config_the_checkpoint_records(runner, tmp_path, monkeypatch):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    args = ["train", "--data", str(data), "--out", str(ck), "--representation", "icvmd", "--epochs", "0", "--segment-len", "32"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert read_manifest(ck)["vmd"] == dataclasses.asdict(VmdConfig())
    edit_manifest(ck, lambda m: m["vmd"].update(alpha=50.0))

    used = []

    def spy(sig, cfg):
        used.append(cfg)
        return icvmd_decompose(sig, cfg)

    monkeypatch.setattr(fewshot, "icvmd_decompose", spy)
    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 0, res.output
    assert len(used) == 14 and set(used) == {VmdConfig(alpha=50.0)}


def test_a_near_nyquist_noise_capture_is_represented(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    # Noise on the positive bins above 0.91*pi only: every mode of that side
    # centres there, and its strongest is SIGNAL like on any other side.
    n = 128
    k = np.arange(n)
    band = (k > 0.455 * n) & (k < n // 2)
    rng = np.random.default_rng(1)
    spec = np.zeros(n, dtype=complex)
    spec[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    write_iqf32(sorted(data.glob("*.iqf32"))[0], np.fft.ifft(spec))
    ck = tmp_path / "model.npz"
    train = ["train", "--data", str(data), "--out", str(ck), "--representation", "icvmd", "--epochs", "1", "--segment-len", "32"]
    for args in (train, ["eval", "--data", str(data), "--checkpoint", str(ck)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert not [line for line in res.stderr.splitlines() if line.startswith("skipped ")]
    assert json.loads(res.stdout)["n_test"] == 14


UNCONVERGED_LINE = re.compile(r"^warning: (\d+) of (\d+) decomposed sides stopped at max_iter without converging$")


def unconverged_lines(stderr):
    return [m.groups() for m in map(UNCONVERGED_LINE.match, stderr.splitlines()) if m]


@pytest.mark.parametrize("command", ["train", "eval", "fewshot"])
def test_a_command_says_how_many_sides_did_not_converge(runner, tmp_path, monkeypatch, command):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    train = ["train", "--data", str(data), "--out", str(ck), "--representation", "icvmd", "--epochs", "0", "--segment-len", "32"]
    res = runner.invoke(main, train)
    assert res.exit_code == 0, res.output
    # Without a cap the tiny set converges everywhere, and nothing is said.
    assert unconverged_lines(res.stderr) == []

    def two_sweeps(x, cfg):
        return vmd_decompose(x, dataclasses.replace(cfg, max_iter=2))

    monkeypatch.setattr(decompose_module, "vmd_decompose", two_sweeps)
    args = {
        "train": train,
        "eval": ["eval", "--data", str(data), "--checkpoint", str(ck)],
        "fewshot": ["fewshot", "--workdir", str(tmp_path / "exp"), "--proportions", "1.0",
                    "--n-samples", "128", "--signals-per-emitter", "6", "--snr-db", "18",
                    "--modulations", "cw", "--modulations", "bpsk"],
    }[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    [(n, m)] = unconverged_lines(res.stderr)
    assert n == m and int(m) > 0
    if command != "fewshot":
        assert int(m) == 2 * 14  # both sides of every capture


# ------------------------------------------------------------------- fewshot


def test_fewshot_cli_writes_report(runner, tmp_path):
    res = runner.invoke(
        main,
        [
            "fewshot",
            "--workdir",
            str(tmp_path / "exp"),
            "--pipeline",
            "icvmd_features",
            "--proportions",
            "1.0",
            "--n-samples",
            "128",
            "--signals-per-emitter",
            "6",
            "--snr-db",
            "18",
            "--modulations",
            "cw",
            "--modulations",
            "bpsk",
        ],
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "exp" / "report.csv").exists()
    assert "report:" in res.output


def test_fewshot_cli_names_a_skipped_capture(runner, tmp_path, monkeypatch):
    calls = []

    def first_fails(result):
        calls.append(None)
        if len(calls) == 1:
            raise DegenerateInputError("no FEATURE modes were retained")
        return extract_features(result)

    monkeypatch.setattr(fewshot, "extract_features", first_fails)
    res = runner.invoke(
        main,
        [
            "fewshot",
            "--workdir",
            str(tmp_path / "exp"),
            "--proportions",
            "1.0",
            "--n-samples",
            "128",
            "--signals-per-emitter",
            "6",
            "--snr-db",
            "18",
            "--modulations",
            "cw",
            "--modulations",
            "bpsk",
        ],
    )
    assert res.exit_code == 0, res.output
    skipped = [line for line in res.output.splitlines() if line.startswith("skipped ")]
    assert len(skipped) == 1
    assert skipped[0].endswith(": no FEATURE modes were retained")


def test_fewshot_cli_skips_a_capture_with_a_bad_sidecar(runner, tmp_path, monkeypatch):
    broken = []

    def generate_then_break(spec, out_dir):
        manifest = generate_dataset(spec, out_dir)
        broken.append(break_first_capture(out_dir, "bad_sidecar"))
        return manifest

    monkeypatch.setattr(fewshot, "generate_dataset", generate_then_break)
    res = runner.invoke(
        main,
        [
            "fewshot",
            "--workdir",
            str(tmp_path / "exp"),
            "--proportions",
            "1.0",
            "--n-samples",
            "128",
            "--signals-per-emitter",
            "2",
            "--snr-db",
            "18",
            "--modulations",
            "cw",
            "--modulations",
            "bpsk",
        ],
    )
    assert res.exit_code == 0, res.output
    skipped = [line for line in res.output.splitlines() if line.startswith("skipped ")]
    assert len(skipped) == 1
    assert skipped[0].startswith(f"skipped {broken[0]}: ")
    assert skipped[0].endswith("sample_rate must be a number, got 'x'")


def test_fewshot_cli_names_a_sidecar_that_does_not_parse(runner, tmp_path, monkeypatch):
    broken = []

    def generate_then_break(spec, out_dir):
        manifest = generate_dataset(spec, out_dir)
        broken.append(break_first_capture(out_dir, "malformed_sidecar"))
        return manifest

    monkeypatch.setattr(fewshot, "generate_dataset", generate_then_break)
    args = ["fewshot", "--workdir", str(tmp_path / "exp"), "--proportions", "1.0", "--n-samples", "128"]
    args += ["--signals-per-emitter", "2", "--snr-db", "18", "--modulations", "cw", "--modulations", "bpsk"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    skipped = [line for line in res.output.splitlines() if line.startswith("skipped ")]
    sidecar = tmp_path / "exp" / "data" / Path(broken[0]).with_suffix(".json")
    assert skipped == [f"skipped {broken[0]}: malformed JSON in {sidecar}: Expecting property name "
                       "enclosed in double quotes: line 1 column 2 (char 1)"]


def test_fewshot_cli_refuses_a_repeated_proportion(runner, tmp_path):
    res = runner.invoke(main, ["fewshot", "--workdir", str(tmp_path / "exp"), "--proportions", "0.5,0.3,0.50"])
    assert res.exit_code == 2, res.output
    assert "error: each proportion may appear only once; repeated: [0.5]" in res.output
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("loss, warns", [(np.log(7) - 0.04, True), (np.log(7) - 0.06, False)],
                         ids=["within_margin", "outside_margin"])
def test_fewshot_warns_for_each_proportion_whose_loss_sits_at_chance(runner, tmp_path, monkeypatch, loss, warns):
    result = FewshotResult(rows=[], reports={}, csv_path="report.csv", final_losses={0.3: (loss, 7), 0.1: (1.2, 7)})
    monkeypatch.setattr(cli, "run_fewshot", lambda spec, pipeline, proportions, workdir: result)
    res = runner.invoke(main, ["fewshot", "--workdir", str(tmp_path / "exp")])
    assert res.exit_code == 0, res.output
    line = "warning: p=0.3: final epoch loss 1.906 is within 0.05 of ln(7) = 1.946; the model is at chance"
    assert res.stderr.splitlines() == ([line] if warns else [])


def test_fewshot_cli_rejects_bad_proportions(runner, tmp_path):
    res = runner.invoke(
        main,
        ["fewshot", "--workdir", str(tmp_path / "exp"), "--proportions", "a,b"],
    )
    assert res.exit_code == 2
