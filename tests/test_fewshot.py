import csv

import numpy as np
import pytest

from icvmd import fewshot
from icvmd.dataset import DatasetSpec, generate_dataset, load_entry, split_manifest
from icvmd.decompose import FULL_SELECTION, ModeLabel, Selection, icvmd_decompose, reconstruct
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.features import extract_features
from icvmd.iqfile import write_iqf32
from icvmd.fewshot import (
    Pipeline,
    run_fewshot,
    sat_inputs,
    signal_channels,
    write_report_csv,
)
from icvmd.modulation import ModulationKind
from icvmd.nn.layers import DTYPE
from icvmd.nn.model import ModelConfig, init_params
from icvmd.pa import emitter_bank
from icvmd.signals import ComplexSignal
from icvmd.vmd import VmdConfig

TINY_SPEC = DatasetSpec(
    emitters=tuple(emitter_bank()[:2]),
    modulations=(ModulationKind.CW, ModulationKind.BPSK),
    snr_grid_db=(18.0,),
    n_samples=128,
    signals_per_emitter=6,
    seed=0,
)

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- primitives


@pytest.mark.parametrize(
    "pipeline, proportions, message",
    [
        (Pipeline.RAW_NN, (), r"proportions must be fractions in \(0, 1\]"),
        (Pipeline.RAW_NN, (0.0,), r"proportions must be fractions in \(0, 1\]"),
        (Pipeline.RAW_NN, (1.5,), r"proportions must be fractions in \(0, 1\]"),
        ("raw_nn", (0.5,), "pipeline must be a Pipeline, got 'raw_nn'"),
        (Pipeline.ICVMD_FEATURES, (0.3, 0.5, 0.3), r"each proportion may appear only once; repeated: \[0.3\]"),
    ],
    ids=["empty", "zero", "above_one", "pipeline_string", "repeated"],
)
def test_run_fewshot_rejects_a_bad_run_before_writing(tmp_path, pipeline, proportions, message):
    with pytest.raises(ParameterError, match=message):
        run_fewshot(TINY_SPEC, pipeline, proportions, tmp_path / "exp")
    assert not (tmp_path / "exp").exists()


def test_default_icvmd_config_shape():
    # The old name survives only as the config class the pipelines use.
    assert fewshot.default_icvmd_config is VmdConfig
    cfg = VmdConfig(n_modes=3)
    assert cfg.n_modes == 3
    assert cfg.alpha == 200.0


def test_signal_channels():
    sig = ComplexSignal(np.array([1 + 2j, 3 - 4j]))
    ch = signal_channels(sig)
    assert ch.shape == (2, 2)
    assert np.array_equal(ch[0], [1.0, 3.0])
    assert np.array_equal(ch[1], [2.0, -4.0])


def test_signal_channels_builds_the_classifier_dtype():
    z = np.random.default_rng(4).normal(size=(300, 2)) @ [1.0, 1j]
    ch = signal_channels(ComplexSignal(z))
    assert DTYPE == np.float32 and ch.dtype == DTYPE
    assert np.array_equal(ch[0], z.real.astype(np.float32))
    assert np.array_equal(ch[1], z.imag.astype(np.float32))
    assert not np.array_equal(ch[0], z.real)  # rounded once, not held in float64


def test_sat_inputs_partition_the_signal():
    t = np.arange(256)
    z = np.exp(2j * np.pi * 0.2 * t) + 0.2 * np.exp(-2j * np.pi * 0.33 * t)
    sig = ComplexSignal(z)
    res = icvmd_decompose(sig, VmdConfig(n_modes=2))
    main, branch = sat_inputs(res)
    assert main.shape == (2, 256)
    assert branch.shape == (2, 256)
    assert main.dtype == branch.dtype == np.float32
    # The two inputs are complementary selections: together they rebuild the
    # full reconstruction.
    full = reconstruct(res, FULL_SELECTION).samples
    combined = (main[0] + branch[0]) + 1j * (main[1] + branch[1])
    assert np.allclose(combined, full, atol=1e-8)
    # Bit for bit, the branch is the SIGNAL selection and the main input the
    # selection of everything else.
    rest = {ModeLabel.FEATURE, Selection.RESIDUAL}
    assert np.array_equal(branch, signal_channels(reconstruct(res, {ModeLabel.SIGNAL})))
    assert np.array_equal(main, signal_channels(reconstruct(res, rest)))


# ------------------------------------------------------------- feature runs


def test_run_fewshot_features_with_unsupported_cell(tmp_path):
    # 0.1 of 4 per class floors to zero.
    result = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0, 0.1), tmp_path)

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
    a = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "a")
    b = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "b")
    assert (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    assert a.reports[1.0].accuracy == b.reports[1.0].accuracy


def test_run_fewshot_skips_a_capture_it_cannot_represent(tmp_path, monkeypatch):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    train_m, test_m = split_manifest(manifest, fewshot.TEST_FRACTION, fewshot.SPLIT_SEED)
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
    result = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0, 0.5), tmp_path)

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
            dict(manifest, files=manifest["files"][:2]),
            VmdConfig(n_modes=2),
            skipped=skipped,
        )
    assert [path for path, _ in skipped] == sorted(e["path"] for e in manifest["files"][:2])


def test_represent_rejects_a_manifest_with_no_captures(tmp_path):
    manifest = {"_dir": str(tmp_path), "files": []}
    with pytest.raises(DegenerateInputError, match="lists no captures"):
        fewshot.represent(Pipeline.RAW_NN, manifest, VmdConfig(n_modes=2))


def test_predict_rejects_zero_captures():
    params = init_params(ModelConfig(), n_classes=2, seed=0)
    empty = np.zeros((0, 2, 128), dtype=np.float32)
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 2, 128\)"):
        fewshot.predict(params, empty, empty, np.array([3, 5]))


def test_represent_reads_the_captures_in_path_order(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    in_order = sorted(manifest["files"], key=lambda e: e["path"])
    shuffled = [in_order[i] for i in np.random.default_rng(3).permutation(len(in_order))]
    assert shuffled != in_order
    cfg = VmdConfig(n_modes=2)
    kept, (mains, branches) = fewshot.represent(Pipeline.RAW_NN, dict(manifest, files=shuffled), cfg)
    assert kept == in_order
    assert np.array_equal(mains[0], signal_channels(load_entry(manifest, in_order[0])))
    assert branches is mains  # stacked once, so train() casts and gathers it once
    assert mains.dtype == np.float32  # and in the model's dtype, so the cast copies nothing


def capped(max_iter, n_modes=2):
    return VmdConfig(n_modes=n_modes, max_iter=max_iter)


def test_represent_counts_the_sides_that_stop_at_max_iter(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    three = dict(manifest, files=manifest["files"][:3])
    sides = []
    fewshot.represent(Pipeline.ICVMD_FEATURES, three, capped(max_iter=2), sides=sides)
    # Two sweeps cannot meet tol 1e-6: every solved side says so.
    assert sides == [False] * 6
    # A memo hit decomposes nothing, so it counts nothing.
    memo, again = {}, []
    fewshot.represent(Pipeline.ICVMD_SAT, three, capped(max_iter=300), memo, sides=again)
    fewshot.represent(Pipeline.ICVMD_SAT, three, capped(max_iter=300), memo, sides=again)
    assert len(again) == 6
    raw = []
    fewshot.represent(Pipeline.RAW_NN, three, capped(max_iter=2), sides=raw)
    assert raw == []


def test_represent_does_not_count_an_empty_side(tmp_path):
    # A purely positive-frequency capture leaves the negative side empty: it is
    # not solved, so only one side is counted.
    data = tmp_path / "data"
    data.mkdir()
    z = np.array([1, 1j, -1, -1j] * 32)  # exp(2j*pi*t/4), exact in float32
    write_iqf32(data / "tone.iqf32", z)
    manifest = {"_dir": str(data), "files": [{"path": "tone.iqf32", "label": 0, "snr_db": 18.0}]}
    sides = []
    fewshot.represent(Pipeline.ICVMD_SAT, manifest, capped(max_iter=2), sides=sides)
    assert sides == [False]


def test_run_fewshot_carries_the_unconverged_count(tmp_path, monkeypatch):
    monkeypatch.setattr(fewshot, "VmdConfig", lambda: capped(2))
    result = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "capped")
    n_captures = len(TINY_SPEC.resolved_emitters()) * TINY_SPEC.signals_per_emitter
    assert result.solved_sides == result.unconverged_sides == 2 * n_captures
    # Nearest centroid has no loss.
    assert result.final_losses == {}


@pytest.mark.parametrize("pipeline", [Pipeline.ICVMD_FEATURES, Pipeline.ICVMD_SAT])
def test_run_fewshot_decomposes_with_the_default_solver_config(tmp_path, monkeypatch, pipeline):
    used = []

    def spy(sig, cfg):
        used.append(cfg)
        return icvmd_decompose(sig, cfg)

    monkeypatch.setattr(fewshot, "icvmd_decompose", spy)
    run_fewshot(TINY_SPEC, pipeline, (1.0,), tmp_path)
    assert used and set(used) == {VmdConfig()}


def test_represent_propagates_a_config_error(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    skipped = []
    # More modes than a 128-sample capture can hold: a config fault, not a capture fault.
    with pytest.raises(ParameterError, match="too short for 100 modes"):
        fewshot.represent(
            Pipeline.ICVMD_FEATURES,
            dict(manifest, files=manifest["files"][:2]),
            VmdConfig(n_modes=100),
            skipped=skipped,
        )
    assert skipped == []


# ------------------------------------------------------------------ NN runs


def test_run_fewshot_raw_nn(tmp_path):
    result = run_fewshot(TINY_SPEC, Pipeline.RAW_NN, (1.0,), tmp_path)
    rows = read_csv(result.csv_path)
    assert all(r["pipeline"] == "raw_nn" for r in rows)
    assert any(r["snr_db"] == "all" and r["status"] == "ok" for r in rows)
    assert result.solved_sides == result.unconverged_sides == 0
    [(proportion, (loss, n_classes))] = result.final_losses.items()
    assert (proportion, n_classes) == (1.0, 2) and loss > 0


def test_run_fewshot_sat(tmp_path):
    result = run_fewshot(TINY_SPEC, Pipeline.ICVMD_SAT, (1.0,), tmp_path)
    assert (tmp_path / "aux_data" / "manifest.json").exists()
    # The auxiliary dataset keeps the base spec's captures per emitter:
    # 5 emitters x 1 SNR x 6 signals.
    aux_files = list((tmp_path / "aux_data").glob("*.iqf32"))
    assert len(aux_files) == fewshot.N_AUX_EMITTERS * TINY_SPEC.signals_per_emitter == 30
    rows = read_csv(result.csv_path)
    assert any(r["status"] == "ok" for r in rows)
    assert list(result.final_losses) == [1.0]


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
