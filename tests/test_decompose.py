import itertools
import json

import numpy as np
import pytest

from icvmd.decompose import (
    FULL_SELECTION,
    ModeLabel,
    Selection,
    dump_modes,
    icvmd_decompose,
    partition_modes,
    reconstruct,
    reconstruct_from_dump,
)
from icvmd.dataset import DatasetSpec, synthesize_one
from icvmd.errors import ParameterError
from icvmd.modulation import ModulationKind
from icvmd.pa import emitter_bank
from icvmd.signals import ComplexSignal
from icvmd.vmd import VmdConfig, vmd_decompose


def two_sided_tone_mix(n=512):
    """Strong tone at +0.2 cycles, weaker at -0.3: distinct content per side."""
    t = np.arange(n)
    z = np.exp(2j * np.pi * 0.2 * t) + 0.4 * np.exp(-2j * np.pi * 0.3 * t)
    return ComplexSignal(z)


def quick_cfg(n_modes=2):
    return VmdConfig(n_modes=n_modes, alpha=300.0, tol=1e-6, max_iter=200)


# -------------------------------------------------------------- partitioning


def fake_result(freqs, amps, n=256, alpha=500.0):
    t = np.arange(n)
    x = sum(a * np.cos(2 * np.pi * f * t) for f, a in zip(freqs, amps))
    return vmd_decompose(x, VmdConfig(n_modes=len(freqs), alpha=alpha, tol=1e-7, max_iter=500))


def test_partition_strongest_is_signal():
    res = fake_result([0.1, 0.3], [1.0, 0.3])
    labels = partition_modes(res)
    assert labels == (ModeLabel.SIGNAL, ModeLabel.FEATURE)


def test_partition_signal_quota_by_energy_not_frequency():
    # The stronger tone sits at the higher frequency; it must be SIGNAL.
    res = fake_result([0.1, 0.3], [0.3, 1.0])
    labels = partition_modes(res)
    assert labels == (ModeLabel.FEATURE, ModeLabel.SIGNAL)


def test_partition_near_dc_mode():
    # A DC offset draws a mode to zero frequency, which is labeled by its
    # energy like any other: SIGNAL when it is the strongest, else FEATURE.
    n = 512
    for offset, labels in ((3.0, (ModeLabel.SIGNAL, ModeLabel.FEATURE)), (0.3, (ModeLabel.FEATURE, ModeLabel.SIGNAL))):
        x = offset + np.cos(2 * np.pi * 0.2 * np.arange(n))
        res = vmd_decompose(x, VmdConfig(n_modes=2, alpha=500.0, tol=1e-7, max_iter=500))
        assert res.omegas[0] < np.pi / n
        assert partition_modes(res) == labels


def test_partition_special_needs_energy():
    # Same placement but the in-band tone is tiny: fails the energy bar and
    # falls through to the ordinary signal/feature ranking.
    res = fake_result([0.1, 0.48], [1.0, 0.05])
    assert partition_modes(res) == (ModeLabel.SIGNAL, ModeLabel.FEATURE)


def test_partition_lone_mode_of_a_constant_side_is_signal():
    res = vmd_decompose(np.full(256, 3.0), VmdConfig(n_modes=1, alpha=2000.0, tol=1e-7, max_iter=500))
    assert partition_modes(res) == (ModeLabel.SIGNAL,)


def test_near_nyquist_carrier_is_signal():
    # A CW line near Nyquist is an ordinary mode: the strongest, so SIGNAL.
    # The solver splits this line over two positive-side modes (at about
    # 2.888 and 2.892 rad), so only about half of it lands in the one SIGNAL
    # mode; labelling every mode near the strongest one's energy as SIGNAL
    # would take the rest.  The bar is for one mode holding half the line.
    cfg = VmdConfig()
    for n in (700, 2100):
        spec = DatasetSpec(carrier=0.46, modulations=(ModulationKind.CW,), n_samples=n)
        for profile in emitter_bank()[:3]:
            for seed in range(3):
                sig = synthesize_one(spec, profile, ModulationKind.CW, 18.0, symbol_seed=seed, noise_seed=100 + seed)
                part = reconstruct(icvmd_decompose(sig, cfg), {ModeLabel.SIGNAL}).samples
                share = np.sum(np.abs(part) ** 2) / np.sum(np.abs(sig.samples) ** 2)
                assert share >= 0.3, (n, profile.emitter_id, seed, share)


# ------------------------------------------------------- decompose + rebuild


def test_full_selection_roundtrip():
    sig = two_sided_tone_mix()
    res = icvmd_decompose(sig, quick_cfg())
    out = reconstruct(res, FULL_SELECTION)
    # The full selection is the input minus no mode: the input bit for bit.
    assert np.array_equal(out.samples, sig.samples)
    assert out.sample_rate == sig.sample_rate


def test_empty_selection_is_zero():
    res = icvmd_decompose(two_sided_tone_mix(), quick_cfg())
    out = reconstruct(res, set())
    assert np.all(out.samples == 0)


def test_selection_sides_split_by_sign():
    sig = two_sided_tone_mix()
    res = icvmd_decompose(sig, quick_cfg(n_modes=1))
    n = sig.samples.size
    t = np.arange(n)
    pos_only = reconstruct(res, {ModeLabel.SIGNAL})
    # Signal selection copies both sides' signal modes: +0.2 and -0.3 tones.
    spec = np.abs(np.fft.fft(pos_only.samples))
    assert spec[int(0.2 * n)] > 0.5 * n
    assert spec[int(n - 0.3 * n)] > 0.2 * n


def test_selection_additivity():
    sig = two_sided_tone_mix()
    res = icvmd_decompose(sig, quick_cfg())
    parts = [
        reconstruct(res, {label}).samples for label in ModeLabel
    ] + [reconstruct(res, {Selection.RESIDUAL}).samples]
    total = reconstruct(res, FULL_SELECTION).samples
    assert np.allclose(sum(parts), total, atol=1e-9)


def test_reconstruct_rejects_unknown_selection():
    res = icvmd_decompose(two_sided_tone_mix(), quick_cfg())
    with pytest.raises(ParameterError):
        reconstruct(res, {"signal"})


def test_one_sided_input_gives_degenerate_side():
    n = 256
    f = 51.0 / n  # bin-aligned: no leakage onto the negative side
    z = np.exp(2j * np.pi * f * np.arange(n))
    res = icvmd_decompose(ComplexSignal(z), quick_cfg(n_modes=2))
    assert all(label is ModeLabel.FEATURE for label in res.labels_neg)
    assert np.all(res.neg.modes == 0)
    assert np.all(res.neg.residual == 0)
    out = reconstruct(res, FULL_SELECTION)
    assert np.allclose(out.samples, z, atol=1e-8)


def test_empty_side_stand_in_respects_the_memory_budget():
    n = 256
    z = np.exp(-2j * np.pi * (51.0 / n) * np.arange(n))  # the positive side is empty
    side = VmdConfig(n_modes=10**6)
    with pytest.raises(ParameterError, match="budget"):
        icvmd_decompose(ComplexSignal(z), side)


# ------------------------------------------------------------ dump + reload


def test_dump_and_reconstruct_from_dump(tmp_path):
    sig = two_sided_tone_mix(n=300)
    res = icvmd_decompose(sig, quick_cfg())
    manifest = dump_modes(res, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["modes.json", "modes.npz"]
    with np.load(tmp_path / "modes.npz") as z:
        assert {key: (a.dtype, a.shape) for key, a in z.items()} == {
            "modes_pos": (np.float64, (2, 300)),
            "modes_neg": (np.float64, (2, 300)),
            "input": (np.complex128, (300,)),
        }
    assert manifest["schema_version"] == 3
    assert sorted(manifest["sides"]) == ["neg", "pos"]
    for side in manifest["sides"].values():
        assert len(side["labels"]) == len(side["omegas"]) == len(side["energy_fractions"]) == 2
        assert set(side["labels"]) <= {m.value for m in ModeLabel}
        assert all(0.0 <= e <= 1.1 for e in side["energy_fractions"])

    out = reconstruct_from_dump(tmp_path, FULL_SELECTION)
    assert np.array_equal(out.samples, reconstruct(res, FULL_SELECTION).samples)
    assert np.array_equal(out.samples, sig.samples)

    sel = reconstruct_from_dump(tmp_path, {ModeLabel.SIGNAL})
    assert np.array_equal(sel.samples, reconstruct(res, {ModeLabel.SIGNAL}).samples)


def test_a_dump_rebuilds_every_selection_exactly(tmp_path):
    spec = DatasetSpec(n_samples=700)
    qpsk = synthesize_one(spec, emitter_bank()[0], ModulationKind.QPSK, 18.0, symbol_seed=0, noise_seed=100)
    cw = synthesize_one(spec, emitter_bank()[3], ModulationKind.CW, -4.0, symbol_seed=1, noise_seed=101)
    captures = (
        ComplexSignal(qpsk.samples + 0.3, sample_rate=2.5e6),  # a DC offset draws a mode to 0
        ComplexSignal(cw.samples, sample_rate=2.5e6),
    )
    parts = sorted(FULL_SELECTION, key=lambda part: part.value)
    selections = [s for size in range(len(parts) + 1) for s in itertools.combinations(parts, size)]
    assert len(selections) == 8
    for i, sig in enumerate(captures):
        res = icvmd_decompose(sig, VmdConfig())
        assert (min(res.pos.omegas) < np.pi / 700) == (i == 0)
        dump_modes(res, tmp_path / str(i))
        for selection in selections:
            out = reconstruct_from_dump(tmp_path / str(i), selection)
            assert out.sample_rate == 2.5e6
            assert np.array_equal(out.samples, reconstruct(res, selection).samples), selection


@pytest.mark.parametrize("snr_db", [18.0, -4.0])
def test_dump_roundtrip_loss_is_bounded(tmp_path, snr_db):
    # A dump keeps the input, so its full selection rebuilds it exactly.
    spec = DatasetSpec(n_samples=700)
    errors = []
    for i, profile in enumerate(emitter_bank()[:5]):
        for kind in (ModulationKind.CW, ModulationKind.QPSK):
            sig = synthesize_one(spec, profile, kind, snr_db, symbol_seed=i, noise_seed=100 + i)
            out = tmp_path / f"{profile.emitter_id}_{kind.value}"
            dump_modes(icvmd_decompose(sig, VmdConfig()), out)
            rebuilt = reconstruct_from_dump(out, FULL_SELECTION).samples
            errors.append(np.linalg.norm(rebuilt - sig.samples) / np.linalg.norm(sig.samples))
    assert max(errors) == 0.0, max(errors)


def test_reconstruct_from_dump_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    sig = two_sided_tone_mix(n=128)
    res = icvmd_decompose(sig, quick_cfg(n_modes=1))
    dump_modes(res, tmp_path)
    with pytest.raises(ParameterError):
        reconstruct_from_dump(tmp_path, {"sig"})
    manifest_path = tmp_path / "modes.json"
    good = manifest_path.read_text()
    manifest = json.loads(good)
    manifest["sides"]["neg"]["labels"][0] = "carrier"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match="'carrier'"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    manifest = json.loads(good)
    del manifest["sides"]["pos"]["labels"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match="lacks the key 'labels'"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    manifest = json.loads(good)
    manifest["sides"]["pos"]["labels"] = []
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match=r"the pos side has 0 labels and modes of shape \(1, 128\)"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    manifest_path.write_text(good.replace('"schema_version": 3', '"schema_version": 99'))
    with pytest.raises(ParameterError, match="schema_version 99"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    (tmp_path / "modes.npz").unlink()
    manifest_path.write_text(good)
    with pytest.raises(FileNotFoundError):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda m: m["sides"]["pos"]["labels"].append(m["sides"]["pos"]["labels"][0]),
            r"the pos side has 3 labels and modes of shape \(2, 256\)",
        ),
        (lambda m: m["sides"]["neg"]["labels"].pop(), r"the neg side has 1 labels and modes of shape \(2, 256\)"),
        (lambda m: m["sides"].pop("neg"), "lacks the key 'neg'"),
    ],
    ids=["repeated", "dropped", "side_missing"],
)
def test_reconstruct_from_dump_needs_each_mode_index_once_per_side(tmp_path, edit, message):
    # One label per row of a side's modes: a label added, one dropped, or a side left out.
    res = icvmd_decompose(two_sided_tone_mix(n=256), quick_cfg())
    manifest = dump_modes(res, tmp_path)
    edit(manifest)
    (tmp_path / "modes.json").write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match=message):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m, a: m.update(schema_version=1), "unsupported modes.json schema_version 1"),
        (lambda m, a: m.update(schema_version=2), "unsupported modes.json schema_version 2, not 3"),
        (
            lambda m, a: m["sides"].update(up=m["sides"]["pos"]),
            r"sides must hold only pos and neg, got \['neg', 'pos', 'up'\]",
        ),
        (lambda m, a: a.pop("input"), "modes.npz needs a complex128 array input, found nothing"),
        (
            lambda m, a: a.update(modes_neg=a["modes_neg"][:, :-1]),
            r"the neg side has 2 labels and modes of shape \(2, 255\); the input has shape \(256,\)",
        ),
        (
            lambda m, a: a.update(input=a["input"][:-1]),
            r"the pos side has 2 labels and modes of shape \(2, 256\); the input has shape \(255,\)",
        ),
        (
            lambda m, a: a.update(modes_pos=a["modes_pos"].astype(np.float32)),
            "needs a float64 array modes_pos, found float32",
        ),
        (
            lambda m, a: a.update(input=a["input"].astype(np.complex64)),
            "needs a complex128 array input, found complex64",
        ),
        (
            lambda m, a: a.update(input=a["input"][:0], modes_pos=a["modes_pos"][:, :0], modes_neg=a["modes_neg"][:, :0]),
            "samples must be non-empty",
        ),
        # A schema-3 dump written before the dc label was deleted.
        (
            lambda m, a: m["sides"]["pos"].update(labels=["dc", *m["sides"]["pos"]["labels"][1:]]),
            "bad modes.json: 'dc' is not a valid ModeLabel",
        ),
    ],
    ids=[
        "version_1", "version_2", "unknown_side", "missing_array", "neg_length_differs", "short_input",
        "float32_modes", "complex64_input", "empty", "dc_label",
    ],
)
def test_reconstruct_from_dump_rejects_a_bad_dump(tmp_path, edit, message):
    manifest = dump_modes(icvmd_decompose(two_sided_tone_mix(n=256), quick_cfg()), tmp_path)
    with np.load(tmp_path / "modes.npz") as z:
        arrays = dict(z.items())
    edit(manifest, arrays)
    (tmp_path / "modes.json").write_text(json.dumps(manifest))
    np.savez(tmp_path / "modes.npz", **arrays)
    with pytest.raises(ParameterError, match=message):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
