import json
import math

import numpy as np
import pytest

from icvmd.decompose import (
    FULL_SELECTION,
    ModeLabel,
    ProbeSuggestion,
    Selection,
    dump_modes,
    icvmd_decompose,
    mode_energies,
    partition_modes,
    probe_parameters,
    reconstruct,
    reconstruct_from_dump,
)
from icvmd.analytic import combine_analytic
from icvmd.dataset import DatasetSpec, synthesize_one
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.fewshot import default_icvmd_config
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
    return vmd_decompose(x, VmdConfig(n_modes=len(freqs), alpha=alpha, tol=1e-7))


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
    n = 512
    x = 3.0 + np.cos(2 * np.pi * 0.2 * np.arange(n))
    res = vmd_decompose(x, VmdConfig(n_modes=2, alpha=500.0, dc_lock=True))
    assert partition_modes(res) == (ModeLabel.DC, ModeLabel.SIGNAL)


def test_selecting_signal_and_dc_sums_the_dc_mode_and_the_strongest_other():
    # Merging DC into the signal is one selection: per side, the DC mode plus
    # the strongest other mode.
    t = np.arange(512)
    z = 2.0 + np.exp(2j * np.pi * 0.2 * t) + 0.3 * np.exp(-2j * np.pi * 0.35 * t)
    res = icvmd_decompose(ComplexSignal(z), VmdConfig(n_modes=3, alpha=500.0, dc_lock=True))
    picked = []
    for side, labels in ((res.pos, res.labels_pos), (res.neg, res.labels_neg)):
        assert labels[0] is ModeLabel.DC and labels.count(ModeLabel.SIGNAL) == 1
        energies = mode_energies(side)
        strongest = max((1, 2), key=lambda i: energies[i])
        assert labels[strongest] is ModeLabel.SIGNAL
        picked.append(side.modes[0] + side.modes[strongest])
    got = reconstruct(res, {ModeLabel.SIGNAL, ModeLabel.DC}).samples
    assert np.allclose(got, combine_analytic(*picked), atol=1e-12)


def test_partition_special_window():
    # Tone inside the flagged band with plenty of energy -> SPECIAL.
    res = fake_result([0.1, 0.48], [1.0, 1.0])
    assert partition_modes(res) == (ModeLabel.SIGNAL, ModeLabel.SPECIAL)


def test_partition_special_needs_energy():
    # Same placement but the in-band tone is tiny: fails the energy bar and
    # falls through to the ordinary signal/feature ranking.
    res = fake_result([0.1, 0.48], [1.0, 0.05])
    assert partition_modes(res) == (ModeLabel.SIGNAL, ModeLabel.FEATURE)


def test_partition_quota_too_large_raises():
    # Every side gets one SIGNAL mode.  A lone dc_lock mode is DC, so the
    # quota cannot be met: that is the data's fault, not a setting's.
    x = 3.0 + np.cos(2 * np.pi * 0.2 * np.arange(256))
    res = vmd_decompose(x, VmdConfig(n_modes=1, dc_lock=True))
    with pytest.raises(DegenerateInputError, match="SIGNAL"):
        partition_modes(res)


# ------------------------------------------------------- decompose + rebuild


def test_full_selection_roundtrip():
    sig = two_sided_tone_mix()
    res = icvmd_decompose(sig, quick_cfg())
    out = reconstruct(res, FULL_SELECTION)
    assert np.allclose(out.samples, sig.samples, atol=1e-8)
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


# -------------------------------------------------------------------- probe


def test_probe_counts_two_tones():
    n = 1024
    t = np.arange(n)
    z = np.exp(2j * np.pi * 0.1 * t) + np.exp(2j * np.pi * 0.3 * t)
    s = probe_parameters(ComplexSignal(z))
    assert isinstance(s, ProbeSuggestion)
    assert s.n_peaks == 2
    assert s.k_low >= s.n_peaks
    assert s.k_high > s.k_low
    assert s.alpha > 0
    assert math.log10(s.alpha) == round(math.log10(s.alpha))  # a decade


def test_probe_bandwidth_drives_alpha():
    n = 2048
    t = np.arange(n)
    narrow = ComplexSignal(np.exp(2j * np.pi * 0.2 * t))
    # Linear chirp sweeping 40% of the band: genuinely wide occupancy.
    phase = 2 * np.pi * (0.05 * t + 0.4 / (2 * (n - 1)) * t**2)
    wide = ComplexSignal(np.exp(1j * phase))
    narrow_probe = probe_parameters(narrow)
    wide_probe = probe_parameters(wide)
    assert narrow_probe.mean_bandwidth_rad < wide_probe.mean_bandwidth_rad
    assert narrow_probe.alpha >= wide_probe.alpha


def test_probe_needs_enough_samples():
    with pytest.raises(ParameterError):
        probe_parameters(ComplexSignal(np.ones(8, dtype=complex)))


# ------------------------------------------------------------ dump + reload


def test_dump_and_reconstruct_from_dump(tmp_path):
    sig = two_sided_tone_mix(n=300)
    res = icvmd_decompose(sig, quick_cfg())
    manifest = dump_modes(res, tmp_path)
    assert (tmp_path / "modes.json").exists()
    assert (tmp_path / "mode_pos_00.iqf32").exists()
    assert (tmp_path / "residual_neg.iqf32").exists()
    assert len(manifest["modes"]) == 4  # 2 modes per side
    for entry in manifest["modes"]:
        assert entry["label"] in {m.value for m in ModeLabel}
        assert 0.0 <= entry["energy_fraction"] <= 1.1

    out = reconstruct_from_dump(tmp_path, FULL_SELECTION)
    # float32 storage costs ~7 digits of precision.
    assert np.allclose(out.samples, sig.samples, atol=1e-4)

    sel = reconstruct_from_dump(tmp_path, {ModeLabel.SIGNAL})
    ref = reconstruct(res, {ModeLabel.SIGNAL})
    assert np.allclose(sel.samples, ref.samples, atol=1e-4)


@pytest.mark.parametrize("snr_db", [18.0, -4.0])
def test_dump_roundtrip_loss_is_bounded(tmp_path, snr_db):
    # The known loss of a mode dump: float32 samples with a zero Q channel.
    spec = DatasetSpec(n_samples=700)
    errors = []
    for i, profile in enumerate(emitter_bank()[:5]):
        for kind in (ModulationKind.CW, ModulationKind.QPSK):
            sig = synthesize_one(spec, profile, kind, snr_db, symbol_seed=i, noise_seed=100 + i)
            out = tmp_path / f"{profile.emitter_id}_{kind.value}"
            dump_modes(icvmd_decompose(sig, default_icvmd_config()), out)
            rebuilt = reconstruct_from_dump(out, FULL_SELECTION).samples
            errors.append(np.linalg.norm(rebuilt - sig.samples) / np.linalg.norm(sig.samples))
    assert max(errors) <= 1e-6, max(errors)


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
    manifest["modes"][1]["label"] = "carrier"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match="'carrier'"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    manifest = json.loads(good)
    del manifest["n_samples"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match="n_samples"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    manifest = json.loads(good)
    manifest["n_samples"] = 127
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParameterError, match="holds 128 samples"):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
    manifest_path.write_text(good.replace('"schema_version": 1', '"schema_version": 99'))
    with pytest.raises(ParameterError):
        reconstruct_from_dump(tmp_path, FULL_SELECTION)
