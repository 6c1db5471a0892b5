import csv

import numpy as np
import pytest

from icvmd import fewshot
from icvmd.classify import evaluate
from icvmd.dataset import DatasetSpec, generate_dataset, load_entry, load_manifest, split_manifest, subsample_manifest
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
from icvmd.nn.train import TrainConfig, sat_transfer
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
        (Pipeline.RAW_NN, (0.5, "x"), r"proportions must be fractions in \(0, 1\]"),
        (Pipeline.RAW_NN, (True,), r"proportions must be fractions in \(0, 1\]"),
        ("raw_nn", (0.5,), "pipeline must be a Pipeline, got 'raw_nn'"),
        (Pipeline.ICVMD_FEATURES, (0.3, 0.5, 0.3), r"each proportion may appear only once; repeated: \[0.3\]"),
    ],
    ids=["empty", "zero", "above_one", "string", "bool", "pipeline_string", "repeated"],
)
def test_run_fewshot_rejects_a_bad_run_before_writing(tmp_path, pipeline, proportions, message):
    with pytest.raises(ParameterError, match=message):
        run_fewshot(TINY_SPEC, pipeline, proportions, tmp_path / "exp")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("pipeline", [Pipeline.RAW_NN, Pipeline.ICVMD_SAT])
def test_run_fewshot_runs_captures_shorter_than_a_segment(tmp_path, pipeline):
    # A 64-sample capture is one segment of the default 100-sample segment_len.
    spec = DatasetSpec(emitters=TINY_SPEC.emitters, modulations=TINY_SPEC.modulations, snr_grid_db=(18.0,), n_samples=64,
                       signals_per_emitter=2)
    res = run_fewshot(spec, pipeline, (1.0,), tmp_path / "exp")
    rows = read_csv(res.csv_path)
    assert [row["snr_db"] for row in rows] == ["18.0", "all"] and {row["status"] for row in rows} == {"ok"}
    assert res.skipped == [] and np.isfinite([loss for loss, _ in res.final_losses.values()]).all()


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


@pytest.mark.parametrize("k", [127, 128, 200])
def test_sat_inputs_refuse_a_capture_float32_cannot_hold(k):
    # From 2^128 a float32 stack of the rebuilds would hold inf; it is refused
    # by name instead of cast.
    t = np.arange(256)
    z = np.exp(2j * np.pi * 0.2 * t) + 0.2 * np.exp(-2j * np.pi * 0.33 * t)
    unit = sat_inputs(icvmd_decompose(ComplexSignal(z), VmdConfig(n_modes=2)))
    loud = icvmd_decompose(ComplexSignal(np.ldexp(1.0, k) * z), VmdConfig(n_modes=2))
    if k < 128:  # a power of two passes through the rebuild and the cast exactly
        for got, want in zip(sat_inputs(loud), unit):
            assert np.array_equal(got, np.ldexp(want, k))
        return
    with pytest.raises(DegenerateInputError, match=r"stack of a sequence with peak .* overflows float32"):
        sat_inputs(loud)


# ------------------------------------------------------------- feature runs


def test_run_fewshot_features_with_unsupported_cell(tmp_path):
    # 0.1 of 4 per class floors to zero.
    result = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0, 0.1), tmp_path)

    rows = read_csv(result.csv_path)
    assert rows == [{k: str(v) for k, v in r.items()} for r in result.rows]
    ok_rows = [r for r in rows if r["status"] == "ok"]
    bad_rows = [r for r in rows if r["status"] == "unsupported"]
    assert bad_rows and bad_rows[0]["proportion"] == "0.1"
    assert bad_rows[0]["accuracy"] == ""
    # Supported cell: one per-SNR row plus the overall row.
    assert {r["snr_db"] for r in ok_rows} == {"18.0", "all"}
    for r in ok_rows:
        assert 0.0 <= float(r["accuracy"]) <= 1.0
    overall = {r["proportion"]: r for r in result.rows if r["snr_db"] == "all"}
    assert overall[1.0]["status"] == "ok"
    assert overall[0.1]["status"] == "unsupported"
    assert overall[1.0]["n_test"] == sum(1 for _ in (tmp_path / "data").glob("*.iqf32")) // 3


def test_run_fewshot_reads_any_iterable_of_proportions_once(tmp_path):
    # A generator was consumed by the validation and ran no proportion.
    run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0, 0.5), tmp_path / "tuple")
    want = (tmp_path / "tuple" / "report.csv").read_bytes()
    assert want.count(b"\n") > 1
    for name, proportions in (("generator", (p for p in (1.0, 0.5))), ("ndarray", np.array([1.0, 0.5]))):
        run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, proportions, tmp_path / name)
        assert (tmp_path / name / "report.csv").read_bytes() == want, name
    with pytest.raises(ParameterError, match=r"proportions must be fractions in \(0, 1\]"):
        run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, 0.5, tmp_path / "bare")
    assert not (tmp_path / "bare").exists()


def test_run_fewshot_is_deterministic(tmp_path):
    a = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "a")
    b = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "b")
    assert (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    assert a.rows == b.rows


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
    per_snr = [r for r in result.rows if r["proportion"] == 1.0 and r["snr_db"] != "all"]
    assert sum(r["n_test"] for r in per_snr) == len(test_m["files"]) - 1
    # Each capture is decomposed once per run, whether it was kept or skipped.
    assert len(decomposed) == len(manifest["files"])


def test_represent_raises_when_every_capture_is_dropped(tmp_path, monkeypatch):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")

    def always_fails(result):
        raise DegenerateInputError("no FEATURE modes were retained")

    monkeypatch.setattr(fewshot, "extract_features", always_fails)
    memo = {}
    with pytest.raises(DegenerateInputError, match="none of 2 captures"):
        fewshot.represent(
            Pipeline.ICVMD_FEATURES,
            dict(manifest, files=manifest["files"][:2]),
            VmdConfig(n_modes=2),
            memo,
        )
    skipped, _ = fewshot.tally(memo)
    assert [path for path, _ in skipped] == sorted(e["path"] for e in manifest["files"][:2])


def test_represent_rejects_a_manifest_with_no_captures(tmp_path):
    manifest = {"_dir": str(tmp_path), "files": []}
    with pytest.raises(DegenerateInputError, match="lists no captures"):
        fewshot.represent(Pipeline.RAW_NN, manifest, VmdConfig(n_modes=2), {})


def test_predict_rejects_zero_captures():
    params = init_params(ModelConfig(), n_classes=2, seed=0)
    empty = np.zeros((0, 2, 128), dtype=np.float32)
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 2, 128\)"):
        fewshot.predict(params, empty, empty, np.array([3, 5]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_predict_refuses_a_capture_with_a_non_finite_value(value):
    # Unrefused, a NaN would give NaN logits, and argmax would label its row class_ids[0].
    params = init_params(ModelConfig(), n_classes=3, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 2, 256)).astype(np.float32)
    x[1, 0, 5] = value
    with pytest.raises(ParameterError, match=r"^main input holds a non-finite value in float32 in row 1 of 3$"):
        fewshot.predict(params, x, x, np.array([10, 20, 30]))


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e39])
@pytest.mark.parametrize("which", ["main", "branch"])
def test_predict_refuses_a_non_finite_input_before_any_layer_runs(which, value):
    # An inf reaches the first matmul, which warns (an error in this suite)
    # before any check of the logits; 1e39 is inf once cast to float32.
    params = init_params(ModelConfig(), n_classes=3, seed=0)
    inputs = {k: np.random.default_rng(0).normal(size=(3, 2, 256)) for k in ("main", "branch")}
    inputs[which][2, 1, 200] = value
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match=rf"^{which} input holds a non-finite value in float32 in row 2 of 3$"):
        fewshot.predict(params, inputs["main"], inputs["branch"], np.array([10, 20, 30]))


@pytest.mark.parametrize("n_ids", [2, 4])
def test_predict_refuses_class_ids_that_do_not_match_the_outputs(n_ids):
    # Four ids would leave one unreachable; two would label a row whose argmax
    # is the third class with an IndexError.
    params = init_params(ModelConfig(), n_classes=3, seed=0)
    x = np.random.default_rng(0).normal(size=(4, 2, 256)).astype(np.float32)
    with pytest.raises(ParameterError, match=rf"^{n_ids} class ids for a model of 3 classes$"):
        fewshot.predict(params, x, x, np.arange(n_ids) * 10)


@pytest.mark.parametrize("kind", [list, tuple])
def test_predict_takes_class_ids_as_a_list_or_tuple(kind):
    params = init_params(ModelConfig(), n_classes=3, seed=0)
    x = np.random.default_rng(0).normal(size=(4, 2, 256)).astype(np.float32)
    want = fewshot.predict(params, x, x, np.array([10, 20, 30]))
    got = fewshot.predict(params, x, x, kind([10, 20, 30]))
    assert isinstance(got, np.ndarray) and got.tolist() == want.tolist()


def test_predict_refuses_non_finite_logits_by_row():
    # Finite inputs reach non-finite logits only through the parameters: an
    # inf in one class's bias (a Python-API model; checkpoints refuse one).
    params = init_params(ModelConfig(), n_classes=3, seed=0)
    params.arrays["classifier2.bias"][2] = np.inf
    x = np.random.default_rng(0).normal(size=(3, 2, 256)).astype(np.float32)
    with pytest.raises(ParameterError, match=r"^non-finite logits for row 0 of 3$"):
        fewshot.predict(params, x, x, np.array([10, 20, 30]))


def test_represent_reads_the_captures_in_path_order(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    in_order = sorted(manifest["files"], key=lambda e: e["path"])
    shuffled = [in_order[i] for i in np.random.default_rng(3).permutation(len(in_order))]
    assert shuffled != in_order
    cfg, memo = VmdConfig(n_modes=2), {}
    labels, snrs, (mains, branches) = fewshot.represent(Pipeline.RAW_NN, dict(manifest, files=shuffled), cfg, memo)
    assert kept_paths(memo) == [e["path"] for e in in_order]
    assert labels.tolist() == [e["label"] for e in in_order]
    assert snrs.tolist() == [e["snr_db"] for e in in_order]
    assert np.array_equal(mains[0], signal_channels(load_entry(manifest, in_order[0])))
    assert branches is mains  # stacked once, so train() casts and gathers it once
    assert mains.dtype == np.float32  # and in the model's dtype, so the cast copies nothing


def kept_paths(memo):
    """The paths of the captures a memo kept, in the order they were met."""
    return [path for (*_, path), (arrays, _, _) in memo.items() if arrays is not None]


def test_represent_keys_its_memo_by_pipeline_and_solver_config(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    four = dict(manifest, files=manifest["files"][:4])
    runs = [(Pipeline.RAW_NN, VmdConfig()), (Pipeline.ICVMD_FEATURES, VmdConfig()),
            (Pipeline.ICVMD_FEATURES, VmdConfig(n_modes=2))]
    memo = {}
    shared = [fewshot.represent(pipeline, four, cfg, memo)[2][0] for pipeline, cfg in runs]
    # One memo across pipelines and configs returns what a fresh memo returns for each.
    for (pipeline, cfg), arrays in zip(runs, shared):
        assert np.array_equal(arrays, fewshot.represent(pipeline, four, cfg, {})[2][0])
    assert [a.shape for a in shared] == [(4, 2, 128), (4, 30), (4, 30)]
    assert len(memo) == 12


def capped(max_iter, n_modes=2):
    return VmdConfig(n_modes=n_modes, max_iter=max_iter)


def test_represent_counts_the_sides_that_stop_at_max_iter(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    three = dict(manifest, files=manifest["files"][:3])
    memo = {}
    fewshot.represent(Pipeline.ICVMD_FEATURES, three, capped(max_iter=2), memo)
    _, sides = fewshot.tally(memo)
    # Two sweeps cannot meet tol 1e-6: every solved side says so.
    assert sides == [False] * 6
    # A memo hit decomposes nothing, so it counts nothing.
    memo = {}
    fewshot.represent(Pipeline.ICVMD_SAT, three, capped(max_iter=300), memo)
    fewshot.represent(Pipeline.ICVMD_SAT, three, capped(max_iter=300), memo)
    _, again = fewshot.tally(memo)
    assert len(again) == 6
    memo = {}
    fewshot.represent(Pipeline.RAW_NN, three, capped(max_iter=2), memo)
    _, raw = fewshot.tally(memo)
    assert raw == []


def test_represent_does_not_count_an_empty_side(tmp_path):
    # A purely positive-frequency capture leaves the negative side empty: it is
    # not solved, so only one side is counted.
    data = tmp_path / "data"
    data.mkdir()
    z = np.array([1, 1j, -1, -1j] * 32)  # exp(2j*pi*t/4), exact in float32
    write_iqf32(data / "tone.iqf32", z)
    manifest = {"_dir": str(data), "files": [{"path": "tone.iqf32", "label": 0, "snr_db": 18.0}]}
    memo = {}
    fewshot.represent(Pipeline.ICVMD_SAT, manifest, capped(max_iter=2), memo)
    _, sides = fewshot.tally(memo)
    assert sides == [False]


def test_run_fewshot_carries_the_unconverged_count(tmp_path, monkeypatch):
    monkeypatch.setattr(fewshot, "VmdConfig", lambda: capped(2))
    result = run_fewshot(TINY_SPEC, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "capped")
    n_captures = len(TINY_SPEC.emitters) * TINY_SPEC.signals_per_emitter
    assert result.sides == [False] * (2 * n_captures)
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
    memo = {}
    # More modes than a 128-sample capture can hold: a config fault, not a capture fault.
    with pytest.raises(ParameterError, match="too short for 100 modes"):
        fewshot.represent(
            Pipeline.ICVMD_FEATURES,
            dict(manifest, files=manifest["files"][:2]),
            VmdConfig(n_modes=100),
            memo,
        )
    skipped, _ = fewshot.tally(memo)
    assert skipped == []


def test_tally_lists_each_dropped_capture_once_in_the_order_met(tmp_path, monkeypatch):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    f0, f1, f2, f3 = sorted(manifest["files"], key=lambda e: e["path"])[:4]
    unreadable = tmp_path / "data" / f1["path"]
    unreadable.write_bytes(unreadable.read_bytes()[:-4])  # an odd float32 count
    calls = []

    def second_fails(result):
        calls.append(None)
        if len(calls) == 2:
            raise DegenerateInputError("no FEATURE modes were retained")
        return extract_features(result)

    monkeypatch.setattr(fewshot, "extract_features", second_fails)
    memo, cfg = {}, VmdConfig(n_modes=2)
    fewshot.represent(Pipeline.ICVMD_FEATURES, dict(manifest, files=[f1, f0]), cfg, memo)
    assert kept_paths(memo) == [f0["path"]]
    labels, _, (features,) = fewshot.represent(Pipeline.ICVMD_FEATURES, dict(manifest, files=[f3, f2, f1]), cfg, memo)
    assert kept_paths(memo) == [f0["path"], f3["path"]]
    assert labels.tolist() == [f3["label"]]
    assert np.array_equal(features, [memo[(Pipeline.ICVMD_FEATURES, cfg, manifest["_dir"], f3["path"])][0][0]])
    skipped, sides = fewshot.tally(memo)
    assert [path for path, _ in skipped] == [f1["path"], f2["path"]]
    assert "holds 255 float32 values" in skipped[0][1]
    assert skipped[1][1] == "no FEATURE modes were retained"
    # f0, f2 and f3 were decomposed, each once; f2's sides count though it was dropped after.
    assert len(calls) == 3 and len(sides) == 6


def test_represent_drops_a_capture_whose_length_is_not_the_specs(tmp_path):
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    first, *rest = sorted(manifest["files"], key=lambda e: e["path"])
    short = load_entry(manifest, first).samples[:100]
    write_iqf32(tmp_path / "data" / first["path"], short)
    for pipeline in Pipeline:
        memo = {}
        labels, _, arrays = fewshot.represent(pipeline, manifest, VmdConfig(n_modes=2), memo)
        assert kept_paths(memo) == [e["path"] for e in rest]
        assert len(labels) == len(arrays[0]) == len(rest)
        skipped, _ = fewshot.tally(memo)
        assert skipped == [(first["path"], "it holds 100 samples; the manifest's spec has n_samples 128")]


def test_represent_drops_an_all_zero_capture_from_the_decomposition_pipelines(tmp_path):
    # The solver has nothing to decompose in a silent capture, so both
    # decomposition pipelines drop it and name it; the raw pipeline keeps it.
    manifest = generate_dataset(TINY_SPEC, tmp_path / "data")
    manifest["_dir"] = str(tmp_path / "data")
    first, *rest = sorted(manifest["files"], key=lambda e: e["path"])
    write_iqf32(tmp_path / "data" / first["path"], np.zeros(128))
    for pipeline in Pipeline:
        memo = {}
        labels, _, _ = fewshot.represent(pipeline, manifest, VmdConfig(n_modes=2), memo)
        skipped, _ = fewshot.tally(memo)
        if pipeline is Pipeline.RAW_NN:
            assert len(labels) == len(rest) + 1 and skipped == []
        else:
            assert kept_paths(memo) == [e["path"] for e in rest]
            assert skipped == [(first["path"], "cannot decompose an all-zero signal")]


@pytest.mark.parametrize("spec", [{}, {"spec": None}, {"spec": [128]}], ids=["absent", "null", "not_an_object"])
def test_represent_refuses_captures_of_two_lengths_without_a_spec(tmp_path, spec):
    data = tmp_path / "data"
    data.mkdir()
    for name, n in (("a.iqf32", 128), ("b.iqf32", 128), ("c.iqf32", 100)):
        write_iqf32(data / name, np.exp(0.4j * np.arange(n)))
    files = [{"path": name, "label": 0, "snr_db": 18.0} for name in ("c.iqf32", "b.iqf32", "a.iqf32")]
    manifest = {"_dir": str(data), "files": files} | spec
    with pytest.raises(ParameterError, match="captures a.iqf32 and c.iqf32 differ in length"):
        fewshot.represent(Pipeline.RAW_NN, manifest, VmdConfig(n_modes=2), {})
    # Of one length, the same captures are kept whatever the manifest says of its spec.
    memo = {}
    fewshot.represent(Pipeline.RAW_NN, dict(manifest, files=files[1:]), VmdConfig(n_modes=2), memo)
    assert kept_paths(memo) == ["a.iqf32", "b.iqf32"]


# ------------------------------------------------------------------ NN runs


def test_run_fewshot_raw_nn(tmp_path):
    result = run_fewshot(TINY_SPEC, Pipeline.RAW_NN, (1.0,), tmp_path)
    rows = read_csv(result.csv_path)
    assert all(r["pipeline"] == "raw_nn" for r in rows)
    assert any(r["snr_db"] == "all" and r["status"] == "ok" for r in rows)
    assert result.sides == []
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
    # Acceptance test 10 builds the transfer from the package's steps; they
    # must score what icvmd fewshot reports.
    train_m, test_m = split_manifest(load_manifest(tmp_path / "data"), fewshot.TEST_FRACTION, fewshot.SPLIT_SEED)
    few_m = subsample_manifest(train_m, 1.0, fewshot.SUBSAMPLE_SEED)
    memo = {}
    test_y, _, test_x = fewshot.represent(Pipeline.ICVMD_SAT, test_m, VmdConfig(), memo)
    few_labels, _, few_x = fewshot.represent(Pipeline.ICVMD_SAT, few_m, VmdConfig(), memo)
    class_ids = np.unique(few_labels)
    pretrained = fewshot.pretrain(TINY_SPEC, VmdConfig(), tmp_path / "again", memo)
    few_y = np.searchsorted(class_ids, few_labels)
    sat = sat_transfer(pretrained, len(class_ids), *few_x, few_y, TrainConfig(), head_seed=fewshot.MODEL_SEED)
    accuracy = evaluate(fewshot.predict(sat.params, *test_x, class_ids), test_y).accuracy
    [overall] = [r for r in rows if r["snr_db"] == "all"]
    assert overall["accuracy"] == f"{accuracy:.6f}"
    assert result.final_losses[1.0] == (sat.history[-1], len(class_ids))


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
