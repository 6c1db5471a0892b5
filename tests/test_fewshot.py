import csv

import numpy as np
import pytest

from icvmd import fewshot
from icvmd.dataset import DatasetSpec, generate_dataset, load_entry, split_manifest
from icvmd.decompose import FULL_SELECTION, icvmd_decompose, reconstruct
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.features import extract_features
from icvmd.fewshot import (
    FewshotConfig,
    Pipeline,
    default_icvmd_config,
    run_fewshot,
    sat_inputs,
    signal_channels,
    write_report_csv,
)
from icvmd.modulation import ModulationKind
from icvmd.nn.model import ModelConfig
from icvmd.nn.train import TrainConfig
from icvmd.pa import emitter_bank
from icvmd.signals import ComplexSignal

TINY_SPEC = DatasetSpec(
    emitters=tuple(emitter_bank()[:2]),
    modulations=(ModulationKind.CW, ModulationKind.BPSK),
    snr_grid_db=(18.0,),
    n_samples=128,
    signals_per_emitter=6,
    seed=0,
)

TINY_MODEL = ModelConfig(
    channels=3,
    encoder_layers=1,
    n_blocks=1,
    branch_channels=2,
    branch_layers=1,
    segment_len=32,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- primitives


def test_config_validation():
    with pytest.raises(ParameterError):
        FewshotConfig(proportions=())
    with pytest.raises(ParameterError):
        FewshotConfig(proportions=(0.0,))
    with pytest.raises(ParameterError):
        FewshotConfig(proportions=(1.5,))
    with pytest.raises(ParameterError):
        FewshotConfig(pipeline="raw_nn")
    with pytest.raises(ParameterError):
        FewshotConfig(aux_signals_per_emitter=0)


def test_default_icvmd_config_shape():
    cfg = default_icvmd_config(n_modes=3, alpha=150.0)
    assert cfg.vmd.n_modes == 3
    assert cfg.vmd.alpha == 150.0


def test_signal_channels():
    sig = ComplexSignal(np.array([1 + 2j, 3 - 4j]))
    ch = signal_channels(sig)
    assert ch.shape == (2, 2)
    assert np.array_equal(ch[0], [1.0, 3.0])
    assert np.array_equal(ch[1], [2.0, -4.0])


def test_sat_inputs_partition_the_signal():
    t = np.arange(256)
    z = np.exp(2j * np.pi * 0.2 * t) + 0.2 * np.exp(-2j * np.pi * 0.33 * t)
    sig = ComplexSignal(z)
    res = icvmd_decompose(sig, default_icvmd_config(n_modes=2))
    main, branch = sat_inputs(res)
    assert main.shape == (2, 256)
    assert branch.shape == (2, 256)
    # The two inputs are complementary selections: together they rebuild the
    # full reconstruction.
    full = reconstruct(res, FULL_SELECTION).samples
    combined = (main[0] + branch[0]) + 1j * (main[1] + branch[1])
    assert np.allclose(combined, full, atol=1e-8)


# ------------------------------------------------------------- feature runs


def test_run_fewshot_features_with_unsupported_cell(tmp_path):
    cfg = FewshotConfig(
        pipeline=Pipeline.ICVMD_FEATURES,
        proportions=(1.0, 0.1),  # 0.1 of 4 per class floors to zero
        icvmd=default_icvmd_config(n_modes=2),
    )
    result = run_fewshot(TINY_SPEC, cfg, tmp_path)

    rows = read_csv(result.csv_path)
    assert rows == [dict(r) for r in result.rows] or len(rows) == len(result.rows)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    bad_rows = [r for r in rows if r["status"] == "unsupported"]
    assert bad_rows and bad_rows[0]["proportion"] == "0.1"
    assert bad_rows[0]["accuracy"] == ""
    # Supported cell: one per-SNR row plus the overall row.
    assert {r["snr_db"] for r in ok_rows} == {"18.0", "all"}
    for r in ok_rows:
        assert 0.0 <= float(r["accuracy"]) <= 1.0
    assert 1.0 in result.reports
    assert 0.1 not in result.reports
    report = result.reports[1.0]
    assert report.n_test == sum(1 for _ in (tmp_path / "data").glob("*.iqf32")) // 3


def test_run_fewshot_is_deterministic(tmp_path):
    cfg = FewshotConfig(
        pipeline=Pipeline.ICVMD_FEATURES,
        proportions=(1.0,),
        icvmd=default_icvmd_config(n_modes=2),
    )
    a = run_fewshot(TINY_SPEC, cfg, tmp_path / "a")
    b = run_fewshot(TINY_SPEC, cfg, tmp_path / "b")
    assert (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    assert a.reports[1.0].accuracy == b.reports[1.0].accuracy


def test_run_fewshot_skips_a_capture_it_cannot_represent(tmp_path, monkeypatch):
    cfg = FewshotConfig(
        pipeline=Pipeline.ICVMD_FEATURES,
        proportions=(1.0, 0.5),
        icvmd=default_icvmd_config(n_modes=2),
    )
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    train_m, test_m = split_manifest(manifest, cfg.test_fraction, cfg.split_seed)
    bad_entries = [test_m["files"][0], train_m["files"][0]]
    bad_samples = [load_entry(manifest, e).samples for e in bad_entries]

    def failing_extract(result):
        # The full reconstruction is the capture itself, which identifies it.
        full = reconstruct(result, FULL_SELECTION).samples
        if any(np.allclose(full, b, atol=1e-9) for b in bad_samples):
            raise DegenerateInputError("no FEATURE modes were retained")
        return extract_features(result)

    decomposed = []

    def counting_decompose(sig, icvmd_cfg):
        decomposed.append(sig)
        return icvmd_decompose(sig, icvmd_cfg)

    monkeypatch.setattr(fewshot, "extract_features", failing_extract)
    monkeypatch.setattr(fewshot, "icvmd_decompose", counting_decompose)
    result = run_fewshot(TINY_SPEC, cfg, tmp_path)

    assert sorted(path for path, _ in result.skipped) == sorted(e["path"] for e in bad_entries)
    assert all("FEATURE" in reason for _, reason in result.skipped)
    overall = [r for r in result.rows if r["snr_db"] == "all"]
    assert [r["status"] for r in overall] == ["ok", "ok"]
    assert all(r["n_test"] == len(test_m["files"]) - 1 for r in overall)
    assert result.reports[1.0].n_test == len(test_m["files"]) - 1
    # Each capture is decomposed once per run, whether it was kept or skipped.
    assert len(decomposed) == len(manifest["files"])


def test_represent_raises_when_every_capture_is_dropped(tmp_path, monkeypatch):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")

    def always_fails(result):
        raise DegenerateInputError("no FEATURE modes were retained")

    monkeypatch.setattr(fewshot, "extract_features", always_fails)
    skipped = []
    with pytest.raises(DegenerateInputError, match="none of 2 captures"):
        fewshot.represent(
            Pipeline.ICVMD_FEATURES,
            manifest,
            manifest["files"][:2],
            default_icvmd_config(n_modes=2),
            skipped=skipped,
        )
    assert [path for path, _ in skipped] == [e["path"] for e in manifest["files"][:2]]


# ------------------------------------------------------------------ NN runs


def test_run_fewshot_raw_nn(tmp_path):
    cfg = FewshotConfig(
        pipeline=Pipeline.RAW_NN,
        proportions=(1.0,),
        model=TINY_MODEL,
        train=TrainConfig(epochs=1, batch_size=8),
    )
    result = run_fewshot(TINY_SPEC, cfg, tmp_path)
    rows = read_csv(result.csv_path)
    assert all(r["pipeline"] == "raw_nn" for r in rows)
    assert any(r["snr_db"] == "all" and r["status"] == "ok" for r in rows)


def test_run_fewshot_sat(tmp_path):
    cfg = FewshotConfig(
        pipeline=Pipeline.ICVMD_SAT,
        proportions=(1.0,),
        icvmd=default_icvmd_config(n_modes=2),
        model=TINY_MODEL,
        train=TrainConfig(epochs=1, batch_size=8),
        n_aux_emitters=2,
        aux_signals_per_emitter=4,
        pretrain=TrainConfig(epochs=1, batch_size=8),
    )
    result = run_fewshot(TINY_SPEC, cfg, tmp_path)
    assert (tmp_path / "aux_data" / "manifest.json").exists()
    # The auxiliary dataset respects the reduced per-emitter count:
    # 2 emitters x 1 SNR x 4 signals.
    aux_files = list((tmp_path / "aux_data").glob("*.iqf32"))
    assert len(aux_files) == 8
    rows = read_csv(result.csv_path)
    assert any(r["status"] == "ok" for r in rows)


# ----------------------------------------------------------------------- csv


def test_write_report_csv_schema(tmp_path):
    rows = [
        {
            "pipeline": "raw_nn",
            "proportion": 0.3,
            "snr_db": 18.0,
            "accuracy": "0.5",
            "n_test": 7,
            "status": "ok",
        }
    ]
    path = tmp_path / "r.csv"
    write_report_csv(rows, path)
    back = read_csv(path)
    assert back[0]["pipeline"] == "raw_nn"
    assert list(back[0].keys()) == [
        "pipeline",
        "proportion",
        "snr_db",
        "accuracy",
        "n_test",
        "status",
    ]
