"""End-to-end acceptance checks.

Each test pins one externally visible guarantee of the toolkit, states its
tolerance inline, and prints a single summary line with the measured values,
so `pytest -v` reads as a checklist.  The heavyweight experiment checks sit at
the bottom of the file.
"""
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.classify import classify, evaluate, fit_nearest_centroid
from icvmd.dataset import DatasetSpec, generate_dataset, load_entry, load_manifest, split_manifest, subsample_manifest
from icvmd.decompose import FULL_SELECTION, ModeLabel, icvmd_decompose, reconstruct
from icvmd.fewshot import (
    MODEL_SEED, SPLIT_SEED, SUBSAMPLE_SEED, TEST_FRACTION, Pipeline, predict, pretrain, represent, run_fewshot, tally
)
from icvmd.modulation import ModulationKind, gen_baseband
from icvmd.nn.layers import softmax
from icvmd.nn.model import ModelConfig, features_forward, init_params, model_forward
from icvmd.nn.train import TrainConfig, sat_transfer, train
from icvmd.pa import emitter_bank
from icvmd.signals import ComplexSignal, add_awgn, normalize_power
from icvmd.vmd import VmdConfig, half_grid, vmd_decompose
from oracles import extension_phase, grad_check, impulse_probe, mirror_extend, receptive_field, wiener_mode_update


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {detail}: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1. Two well-separated tones are recovered with centers within 0.01 rad,
#    in under one second.
# ---------------------------------------------------------------------------
def test_01_two_tone_center_recovery():
    n = 1024
    t = np.arange(n)
    x = np.cos(2 * np.pi * 0.05 * t) + np.cos(2 * np.pi * 0.25 * t)
    t0 = time.perf_counter()
    res = vmd_decompose(x, VmdConfig(n_modes=2, alpha=2000.0, tol=1e-7, max_iter=500))
    dt = time.perf_counter() - t0
    want = np.array([0.05, 0.25]) * 2 * np.pi
    err = float(np.max(np.abs(res.omegas - want)))
    ok = err < 0.01 and dt < 1.0
    _report(
        "two-tone recovery",
        ok,
        f"max center error {err:.2e} rad (tol 1e-2), wall {dt:.3f}s (tol 1s)",
    )
    assert err < 0.01
    assert dt < 1.0


# ---------------------------------------------------------------------------
# 2. With one mode and no reconstruction multiplier, the returned
#    coefficients times the extension's phase are the closed-form
#    quadratic-penalty filter of the input at the returned center, to a
#    relative error of 1e-9.
# ---------------------------------------------------------------------------
def test_02_single_mode_matches_closed_form():
    rng = np.random.default_rng(7)
    n = 512
    x = np.cos(2 * np.pi * 0.13 * np.arange(n)) + 0.1 * rng.normal(size=n)
    cfg = VmdConfig(n_modes=1, alpha=700.0, tol=1e-9, max_iter=500)
    res = vmd_decompose(x, cfg)
    grid = half_grid(2 * n)
    f_hat = np.fft.rfft(mirror_extend(x))
    expect = wiener_mode_update(f_hat, np.zeros_like(f_hat), res.omegas[0], cfg.alpha, grid)
    rel = float(
        np.linalg.norm(res.mode_set.coefficients[0] * extension_phase(n) - expect) / np.linalg.norm(expect)
    )
    ok = rel <= 1e-9
    _report("closed-form filter", ok, f"relative error {rel:.2e} (tol 1e-9)")
    assert rel <= 1e-9


# ---------------------------------------------------------------------------
# 3. Decompose-then-reconstruct with every label plus the residual returns the
#    input to within 1e-9 relative L2 error, over 100 random complex signals
#    of both parities.
# ---------------------------------------------------------------------------
def test_03_roundtrip_100_signals():
    rng = np.random.default_rng(0)
    cfg = VmdConfig(n_modes=2, alpha=300.0, tol=1e-5, max_iter=30)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(64, 200))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        sig = ComplexSignal(z)
        out = reconstruct(icvmd_decompose(sig, cfg), FULL_SELECTION)
        rel = float(np.linalg.norm(out.samples - z) / np.linalg.norm(z))
        worst = max(worst, rel)
    ok = worst <= 1e-9
    _report("lossless roundtrip x100", ok, f"max relative L2 error {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 4. Selecting only the intentional-modulation modes denoises: on a 0 dB
#    constant-envelope tone the reconstruction correlates better with the
#    clean waveform than the noisy input does, for all 20 noise seeds.
# ---------------------------------------------------------------------------
def test_04_signal_selection_denoises():
    n = 1024
    clean = normalize_power(gen_baseband(ModulationKind.CW, n, 0))
    cfg = VmdConfig(n_modes=4, alpha=200.0, tol=1e-6, max_iter=300)

    def corr(a, b):
        return float(
            abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        )

    wins = 0
    margins = []
    for seed in range(20):
        noisy = add_awgn(clean, 0.0, seed)
        denoised = reconstruct(icvmd_decompose(noisy, cfg), {ModeLabel.SIGNAL})
        c_noisy = corr(noisy.samples, clean.samples)
        c_den = corr(denoised.samples, clean.samples)
        margins.append(c_den - c_noisy)
        wins += c_den > c_noisy
    ok = wins == 20
    _report(
        "mode-selection denoising",
        ok,
        f"{wins}/20 seeds improved, worst margin {min(margins):+.3f} (need 20/20)",
    )
    assert wins == 20


# ---------------------------------------------------------------------------
# 5. The analytic receptive-field formula matches an impulse measurement for
#    the classifier's dilation ladder: width 2, dilations 1,2,4,8 -> 16.
# ---------------------------------------------------------------------------
def test_05_receptive_field_formula_vs_probe():
    formula = receptive_field(2, (1, 2, 4, 8))
    probed = impulse_probe(2, (1, 2, 4, 8))
    ok = formula == probed == 16
    _report("receptive field", ok, f"formula {formula}, impulse probe {probed} (want 16)")
    assert formula == 16
    assert probed == 16


# ---------------------------------------------------------------------------
# 6. Analytic gradients match central differences to 1e-4 relative error on
#    250 random coordinates, on a fixture verified to sit away from every
#    ReLU kink (margin > 2x the probe step).
# ---------------------------------------------------------------------------
def test_06_exact_gradients():
    params = init_params(ModelConfig(), n_classes=4, seed=18)
    rng = np.random.default_rng(1018)
    main = rng.normal(size=(3, 2, 200))
    branch = rng.normal(size=(3, 2, 200))
    labels = np.array([0, 1, 3])
    out = grad_check(params, main, branch, labels, n_coords=250, step=1e-5, seed=0)
    margin_ok = out["kink_margin"] > 2e-5
    ok = margin_ok and out["max_rel_err"] <= 1e-4
    _report(
        "gradient check",
        ok,
        f"max rel err {out['max_rel_err']:.2e} over {out['n_coords']} coords "
        f"(tol 1e-4), kink margin {out['kink_margin']:.2e} (need > 2e-5)",
    )
    assert margin_ok, "fixture invalid: a ReLU pre-activation sits within the probe step"
    assert out["max_rel_err"] <= 1e-4


# ---------------------------------------------------------------------------
# 7. The conv trunk is causal: changing inputs after time t never changes
#    features at or before t, bit-exactly, for 10 random models and inputs,
#    in the models' own float32.
# ---------------------------------------------------------------------------
def test_07_trunk_causality():
    cfg = ModelConfig()
    all_equal = True
    for seed in range(10):
        params = init_params(cfg, n_classes=3, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=(1, 2, 64)).astype(params.dtype)
        cut = int(rng.integers(20, 60))
        feat, _ = features_forward(params, x, {})
        assert feat.dtype == np.float32
        x2 = x.copy()
        x2[:, :, cut:] += rng.normal(size=(1, 2, 64 - cut)) * 3.0
        feat2, _ = features_forward(params, x2, {})
        all_equal &= bool(np.array_equal(feat[:, :, :cut], feat2[:, :, :cut]))
    _report("causality", all_equal, "10/10 random models bit-exact before the edit point")
    assert all_equal


# ---------------------------------------------------------------------------
# 8. Attention weights are a valid distribution (rows sum to 1 within 1e-6,
#    entries non-negative) across >= 1000 generated score matrices.
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=1000)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 100.0),
)
def test_08_attention_rows_are_distributions(rows, cols, seed, scale):
    rng = np.random.default_rng(seed)
    w = softmax(rng.normal(size=(rows, cols)) * scale, axis=1)
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-6)


def test_08b_model_attention_rows_are_distributions():
    params = init_params(ModelConfig(segment_len=20), n_classes=3, seed=0)
    rng = np.random.default_rng(5)
    _, cache = model_forward(
        params, rng.normal(size=(8, 2, 100)), rng.normal(size=(8, 2, 100))
    )
    att = cache["attention"]
    dev = float(np.max(np.abs(att.sum(axis=1) - 1.0)))
    ok = dev <= 1e-6 and np.all(att >= 0)
    _report("attention normalization", ok, f"max row-sum deviation {dev:.2e} (tol 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 9. On the simulated seven-emitter task, decomposition features beat the
#    same classifier on raw-signal cumulant features at 18 dB, clear an
#    absolute bar, and degrade with SNR the right way:
#        acc_icvmd(18) >= 0.43, >= acc_raw(18), >= acc_icvmd(-4).
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_09_features_beat_raw_baseline(tmp_path):
    # Each block of the feature vector, scored alone for the printed ablation.
    # The input block is raw_cumulant_features of the capture, bit for bit, so
    # it is the raw-signal cumulant baseline.
    blocks = {"geometry": slice(0, 18), "feature part": slice(18, 22), "input": slice(22, 26),
              "SIGNAL part": slice(26, 30)}

    def run_snr(snr_db: float):
        spec = DatasetSpec(
            snr_grid_db=(snr_db,), signals_per_emitter=36, n_samples=2100, seed=5
        )
        data_dir = tmp_path / f"snr{snr_db:+.0f}"
        generate_dataset(spec, data_dir)
        manifest = load_manifest(data_dir)
        train_m, test_m = split_manifest(manifest, TEST_FRACTION, SPLIT_SEED)
        memo = {}
        tr_y, _, (tr,) = represent(Pipeline.ICVMD_FEATURES, train_m, VmdConfig(), memo)
        te_y, _, (te,) = represent(Pipeline.ICVMD_FEATURES, test_m, VmdConfig(), memo)
        assert tally(memo)[0] == []

        def rms(m):
            entries = sorted(m["files"], key=lambda e: e["path"])
            return np.array([[np.sqrt(np.mean(np.abs(load_entry(manifest, e).samples) ** 2))] for e in entries])

        def accuracy(tr, te):
            return evaluate(classify(fit_nearest_centroid(tr, tr_y), te), te_y).accuracy

        by_block = {name: accuracy(tr[:, cols], te[:, cols]) for name, cols in blocks.items()}
        return (accuracy(tr, te), by_block["input"], accuracy(rms(train_m), rms(test_m))), by_block

    (icv18, raw18, rms18), blocks18 = run_snr(18.0)
    (icv_m4, _, rms_m4), blocks_m4 = run_snr(-4.0)
    ablation = ", ".join(f"{name} {blocks18[name]:.3f} / {blocks_m4[name]:.3f}" for name in blocks)
    ok = icv18 >= 0.43 and icv18 >= raw18 and icv18 >= icv_m4
    # The simulated emitters differ only in gain (see README), so the RMS
    # amplitude alone is printed as a reference; it is not asserted on.
    _report(
        "feature pipeline vs raw cumulants",
        ok,
        f"decomposed 18dB {icv18:.3f} (bar 0.43) vs raw 18dB {raw18:.3f}; "
        f"decomposed -4dB {icv_m4:.3f} (must not exceed 18dB score); "
        f"RMS amplitude alone 18dB {rms18:.3f}, -4dB {rms_m4:.3f}; "
        f"each block alone 18dB / -4dB: {ablation}",
    )
    assert icv18 >= 0.43
    assert icv18 >= raw18
    assert icv18 >= icv_m4


# ---------------------------------------------------------------------------
# 10. Spatial attention transfer: pretraining the attention branch on
#     auxiliary emitters, freezing it, and fine-tuning on 3 shots per target
#     emitter beats training the same architecture from scratch; the frozen
#     branch arrays come back bit-identical.  The transfer, its pretraining
#     included, is the one `icvmd fewshot --pipeline icvmd_sat` fits, and the
#     scratch model trains with the same TrainConfig() and model seed.
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_10_attention_transfer_beats_scratch(tmp_path):
    spec = DatasetSpec(snr_grid_db=(18.0,), signals_per_emitter=150, n_samples=700, seed=11)
    generate_dataset(spec, tmp_path / "data")
    train_m, test_m = split_manifest(load_manifest(tmp_path / "data"), TEST_FRACTION, SPLIT_SEED)
    few_m = subsample_manifest(train_m, 0.03, SUBSAMPLE_SEED)  # 3 shots per emitter
    memo = {}
    test_y, _, test_x = represent(Pipeline.ICVMD_SAT, test_m, VmdConfig(), memo)
    few_labels, _, few_x = represent(Pipeline.ICVMD_SAT, few_m, VmdConfig(), memo)
    class_ids = np.unique(few_labels)
    few_y = np.searchsorted(class_ids, few_labels)
    pretrained = pretrain(spec, VmdConfig(), tmp_path, memo)
    assert tally(memo)[0] == []

    sat = sat_transfer(pretrained, len(class_ids), *few_x, few_y, TrainConfig(), head_seed=MODEL_SEED)
    scratch = train(init_params(ModelConfig(), n_classes=len(class_ids), seed=MODEL_SEED), *few_x, few_y, TrainConfig())

    def accuracy(params):
        return evaluate(predict(params, *test_x, class_ids), test_y).accuracy

    acc_sat = accuracy(sat.params)
    acc_scratch = accuracy(scratch.params)
    branch_frozen = all(
        np.array_equal(sat.params.arrays[p], pretrained.arrays[p])
        for p in pretrained.arrays
        if p.startswith("branch.")
    )
    ok = acc_sat >= acc_scratch and branch_frozen
    _report(
        "attention transfer",
        ok,
        f"transfer {acc_sat:.3f} vs scratch {acc_scratch:.3f} at 3 shots/class "
        f"(need >=), branch bit-identical: {branch_frozen}",
    )
    assert branch_frozen
    assert acc_sat >= acc_scratch


# ---------------------------------------------------------------------------
# 11. Everything is reproducible end to end: the same generation spec yields
#     byte-identical datasets, and the same experiment yields byte-identical
#     reports.
# ---------------------------------------------------------------------------
def test_11_end_to_end_reproducibility(tmp_path):
    spec = DatasetSpec(
        emitters=tuple(emitter_bank()[:2]),
        modulations=(ModulationKind.CW, ModulationKind.QPSK),
        snr_grid_db=(18.0,),
        n_samples=128,
        signals_per_emitter=6,
        seed=3,
    )

    def digest(path: Path) -> str:
        h = hashlib.sha256()
        for f in sorted(path.rglob("*")):
            if f.is_file():
                h.update(f.name.encode())
                h.update(f.read_bytes())
        return h.hexdigest()

    generate_dataset(spec, tmp_path / "gen_a")
    generate_dataset(spec, tmp_path / "gen_b")
    data_same = digest(tmp_path / "gen_a") == digest(tmp_path / "gen_b")

    run_fewshot(spec, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "exp_a")
    run_fewshot(spec, Pipeline.ICVMD_FEATURES, (1.0,), tmp_path / "exp_b")
    report_same = (tmp_path / "exp_a" / "report.csv").read_bytes() == (
        tmp_path / "exp_b" / "report.csv"
    ).read_bytes()

    ok = data_same and report_same
    _report(
        "reproducibility",
        ok,
        f"dataset bytes identical: {data_same}, report bytes identical: {report_same}",
    )
    assert data_same
    assert report_same
