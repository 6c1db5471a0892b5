import json

import numpy as np
import pytest
from click.testing import CliRunner

from icvmd import fewshot
from icvmd.cli import main
from icvmd.decompose import icvmd_decompose
from icvmd.errors import DegenerateInputError
from icvmd.features import extract_features
from icvmd.iqfile import read_iqf32, write_iqf32


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


def test_gen_rejects_bad_parameters(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--out", str(tmp_path / "d"), "--n-samples", "4"])
    assert res.exit_code == 2
    assert "error" in res.output


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
    ],
    ids=["unknown-key", "unknown-modulation", "string-n-samples"],
)
def test_bad_config_payload_is_a_parameter_error(runner, tmp_path, command, payload):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **payload}))
    where = "--out" if command == "gen" else "--workdir"
    res = runner.invoke(main, [command, where, str(tmp_path / "d"), "--config", str(cfg_path)])
    assert res.exit_code == 2, res.output
    assert "error: bad dataset config" in res.output


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
    assert (tmp_path / "modes" / "modes.json").exists()
    assert "label=" in res.output

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
            "dc",
            "--select",
            "special",
            "--select",
            "residual",
        ],
    )
    assert res.exit_code == 0, res.output
    rebuilt = read_iqf32(out_file)
    assert np.allclose(rebuilt.samples, z, atol=1e-3)  # float32 storage


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
    assert sig.meta["selection"] == ["signal"]


def test_reconstruct_rejects_a_manifest_with_an_unknown_label(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    runner.invoke(main, ["decompose", str(src), "--out", str(tmp_path / "m"), "--n-modes", "2"])
    manifest_path = tmp_path / "m" / "modes.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["modes"][0]["label"] = "carrier"
    manifest_path.write_text(json.dumps(manifest))
    res = runner.invoke(main, ["reconstruct", str(tmp_path / "m"), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "error: bad modes.json: 'carrier'" in res.output


def test_decompose_reports_solver_state_and_warns_at_the_cap(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    out = tmp_path / "m"
    args = ["decompose", str(src), "--out", str(out), "--n-modes", "2", "--alpha", "300"]
    res = runner.invoke(main, args + ["--max-iter", "2"])
    assert res.exit_code == 0, res.output
    solver = json.loads((out / "modes.json").read_text())["solver"]
    assert set(solver) == {"pos", "neg"}
    for side in ("pos", "neg"):
        assert solver[side]["iterations"] == 2
        assert solver[side]["converged"] is False
        assert solver[side]["final_delta"] > 1e-7
        assert f"warning: {side} side stopped at 2 sweeps" in res.stderr
    assert "warning" not in res.stdout

    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    solver = json.loads((out / "modes.json").read_text())["solver"]
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


# --------------------------------------------------------------------- probe


def test_probe_prints_suggestion(runner, tmp_path):
    src = tmp_path / "tone.iqf32"
    write_tone(src)
    res = runner.invoke(main, ["probe", str(src)])
    assert res.exit_code == 0, res.output
    parsed = json.loads(res.output)
    assert {"k_low", "k_high", "alpha", "n_peaks", "mean_bandwidth_rad"} <= set(parsed)


def test_probe_rejects_short_input(runner, tmp_path):
    src = tmp_path / "short.iqf32"
    write_iqf32(src, np.ones(4, dtype=complex))
    res = runner.invoke(main, ["probe", str(src)])
    assert res.exit_code == 2


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
    assert ck.exists()
    assert (tmp_path / "model.npz.labels.json").exists()

    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n_test"] == 14
    assert "18.0" in report["per_snr"] or 18.0 in {float(k) for k in report["per_snr"]}


def test_train_sidecar_records_the_training_run(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    args = ["train", "--data", str(data), "--out", str(ck), "--segment-len", "32"]
    res = runner.invoke(main, args + ["--epochs", "2", "--batch-size", "8", "--learning-rate", "0.01", "--seed", "3"])
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "model.npz.labels.json").read_text())
    assert meta["schema_version"] == 1
    assert (meta["epochs"], meta["learning_rate"], meta["batch_size"], meta["seed"]) == (2, 0.01, 8, 3)
    assert len(meta["history"]) == 2
    assert all(loss > 0 for loss in meta["history"])
    assert f"final epoch loss {meta['history'][-1]:.4f}" in res.output


def eval_with_edited_manifest(runner, tmp_path, edit):
    """Train an untrained checkpoint, apply ``edit`` to its manifest, then run eval on it."""
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    res = runner.invoke(main, ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"])
    assert res.exit_code == 0, res.output
    with np.load(ck) as z:
        files = dict(z.items())
    manifest = json.loads(bytes(files["manifest"].tobytes()).decode())
    edit(manifest)
    files["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(ck, **files)
    return runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])


def test_eval_rejects_a_checkpoint_with_a_bad_config_key(runner, tmp_path):
    res = eval_with_edited_manifest(runner, tmp_path, lambda m: m["config"].update(depth=3))
    assert res.exit_code == 2
    assert "depth" in res.output


def test_eval_rejects_a_checkpoint_with_a_bad_class_count(runner, tmp_path):
    res = eval_with_edited_manifest(runner, tmp_path, lambda m: m.update(n_classes=2.0))
    assert res.exit_code == 2, res.output
    assert "error: checkpoint manifest n_classes must be an integer" in res.output
    assert isinstance(res.exception, SystemExit)


def test_eval_without_label_map_is_io_error(runner, tmp_path):
    data = gen_tiny(runner, tmp_path / "data", spe=2)
    ck = tmp_path / "model.npz"
    runner.invoke(
        main,
        ["train", "--data", str(data), "--out", str(ck), "--epochs", "0", "--segment-len", "32"],
    )
    (tmp_path / "model.npz.labels.json").unlink()
    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 3


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
    assert json.loads((tmp_path / "model.npz.labels.json").read_text())["n_modes"] == 3

    used = []

    def spy(sig, cfg):
        used.append(cfg.vmd.n_modes)
        return icvmd_decompose(sig, cfg)

    monkeypatch.setattr(fewshot, "icvmd_decompose", spy)
    res = runner.invoke(main, ["eval", "--data", str(data), "--checkpoint", str(ck)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["n_test"] == 14
    assert used and all(n_modes == 3 for n_modes in used)


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


def test_fewshot_cli_rejects_bad_proportions(runner, tmp_path):
    res = runner.invoke(
        main,
        ["fewshot", "--workdir", str(tmp_path / "exp"), "--proportions", "a,b"],
    )
    assert res.exit_code == 2
