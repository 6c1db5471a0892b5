import numpy as np
import pytest

from icvmd.decompose import (
    ModeLabel,
    icvmd_decompose,
    mode_energies,
    side_input_energy,
)
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.features import (
    MAX_MODES,
    cumulants,
    extract_features,
    raw_cumulant_features,
)
from icvmd.signals import ComplexSignal
from icvmd.vmd import VmdConfig


def decompose_demo(n=512, n_modes=3):
    t = np.arange(n)
    z = (
        np.exp(2j * np.pi * 0.2 * t)
        + 0.3 * np.exp(2j * np.pi * 0.35 * t)
        + 0.2 * np.exp(-2j * np.pi * 0.12 * t)
    )
    cfg = VmdConfig(n_modes=n_modes, alpha=300.0, tol=1e-6, max_iter=150)
    return icvmd_decompose(ComplexSignal(z), cfg)


# ----------------------------------------------------------------- cumulants


def test_cumulants_of_constant_are_zero():
    c = cumulants(np.full(100, 3.0 + 4.0j))
    assert c["C20"] == 0
    assert c["C21"] == 0
    assert c["C40"] == 0
    assert c["C42"] == 0


def test_cumulants_hand_value_binary_sequence():
    # y alternates +1/-1 after centering: E[y^2]=1, E[|y|^2]=1,
    # E[y^4]-3 = -2, E[|y|^4]-1-2 = -2.
    z = np.tile([1.0, -1.0], 50).astype(complex)
    c = cumulants(z)
    assert c["C20"] == pytest.approx(1.0)
    assert c["C21"] == pytest.approx(1.0)
    assert c["C40"] == pytest.approx(-2.0)
    assert c["C42"] == pytest.approx(-2.0)


def test_cumulants_circular_gaussian_vanish():
    rng = np.random.default_rng(0)
    n = 200_000
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    c = cumulants(z)
    # Circular Gaussian: C20 = 0, C21 = power, C40 = C42 = 0.
    assert abs(c["C20"]) < 0.01
    assert c["C21"] == pytest.approx(1.0, abs=0.01)
    assert abs(c["C40"]) < 0.05
    assert abs(c["C42"]) < 0.05


def test_cumulants_scale_law():
    rng = np.random.default_rng(1)
    z = rng.normal(size=500) + 1j * rng.normal(size=500)
    a, b = cumulants(z), cumulants(3.0 * z)
    assert b["C21"] == pytest.approx(9.0 * a["C21"])
    assert b["C42"] == pytest.approx(81.0 * a["C42"])
    assert abs(b["C20"]) == pytest.approx(9.0 * abs(a["C20"]))


def test_cumulants_validation():
    with pytest.raises(ParameterError):
        cumulants(np.ones((2, 2)))
    with pytest.raises(ParameterError):
        cumulants(np.array([1.0]))


def test_raw_cumulant_features_layout():
    rng = np.random.default_rng(2)
    z = rng.normal(size=300) + 1j * rng.normal(size=300)
    vec = raw_cumulant_features(ComplexSignal(z))
    c = cumulants(z)
    assert vec.shape == (4,)
    assert vec[0] == abs(c["C20"])
    assert vec[1] == c["C21"]
    assert vec[2] == abs(c["C40"])
    assert vec[3] == c["C42"]


# -------------------------------------------------------------- full vectors


def test_vector_layout_and_padding():
    res = decompose_demo()
    vec = extract_features(res)
    assert vec.shape == (3 * 6 + 12,)
    n_retained = sum(
        1
        for labels in (res.labels_pos, res.labels_neg)
        for l in labels
        if l is ModeLabel.FEATURE
    )
    # Trailing geometric slots beyond the retained modes stay zero-padded.
    for i in range(n_retained, 6):
        assert np.all(vec[3 * i : 3 * i + 3] == 0)
    # Retained slots are populated (bandwidth is always > 0).
    for i in range(min(n_retained, 6)):
        assert vec[3 * i + 1] > 0


def test_modes_ordered_by_energy():
    res = decompose_demo()
    vec = extract_features(res)
    fracs = [vec[3 * i + 2] for i in range(6)]
    populated = [f for f in fracs if f > 0]
    assert populated == sorted(populated, reverse=True)


def test_negative_side_omega_is_negated():
    res = decompose_demo()
    vec = extract_features(res)
    omegas = [vec[3 * i] for i in range(6) if vec[3 * i + 2] > 0]
    # The -0.12-cycle tone is a feature mode on the negative side.
    assert any(w < 0 for w in omegas)


def test_max_modes_truncates():
    # Five modes per side with one SIGNAL mode each retain eight FEATURE
    # modes; only the MAX_MODES most energetic of them get a slot.
    n = 1024
    t = np.arange(n)
    freqs = (0.04, 0.09, 0.15, 0.22, 0.31, -0.05, -0.11, -0.18, -0.26, -0.37)
    z = sum((1.0 + 0.2 * i) * np.exp(2j * np.pi * f * t) for i, f in enumerate(freqs))
    cfg = VmdConfig(n_modes=5, alpha=300.0, tol=1e-6, max_iter=300)
    res = icvmd_decompose(ComplexSignal(z), cfg)
    total = side_input_energy(res.pos) + side_input_energy(res.neg)
    retained = sorted(
        (
            (-e, sign * float(side.omegas[k]), e / total)
            for sign, side, labels in ((1.0, res.pos, res.labels_pos), (-1.0, res.neg, res.labels_neg))
            for k, (e, label) in enumerate(zip(mode_energies(side), labels))
            if label is ModeLabel.FEATURE and e > 0.0
        )
    )
    assert len(retained) > MAX_MODES
    vec = extract_features(res)
    assert vec.shape == (3 * MAX_MODES + 12,)
    for i, (_, omega, frac) in enumerate(retained[:MAX_MODES]):
        assert vec[3 * i] == omega
        assert vec[3 * i + 2] == frac
    dropped = {frac for _, _, frac in retained[MAX_MODES:]}
    assert dropped.isdisjoint(vec[2 : 3 * MAX_MODES : 3])


def test_input_block_is_the_raw_cumulants():
    # Entries 22:26 are the cumulants of the input itself, not of a rebuild.
    t = np.arange(512)
    z = 0.4 + 0.3j + np.exp(2j * np.pi * 0.2 * t) + 0.2 * np.exp(-2j * np.pi * 0.12 * t)
    sig = ComplexSignal(z)
    vec = extract_features(icvmd_decompose(sig, VmdConfig(n_modes=3, alpha=300.0, tol=1e-6, max_iter=150)))
    base = 3 * MAX_MODES + 4
    assert np.array_equal(vec[base : base + 4], raw_cumulant_features(sig))


def test_geometry_is_gain_invariant_cumulants_are_not():
    n = 512
    t = np.arange(n)
    z = np.exp(2j * np.pi * 0.2 * t) + 0.3 * np.exp(2j * np.pi * 0.35 * t)
    cfg = VmdConfig(n_modes=2, alpha=300.0, tol=1e-6, max_iter=150)
    va = extract_features(icvmd_decompose(ComplexSignal(z), cfg))
    vb = extract_features(icvmd_decompose(ComplexSignal(2.0 * z), cfg))
    geo = slice(0, 3 * MAX_MODES)
    assert np.allclose(va[geo], vb[geo], atol=1e-6)
    base = 3 * MAX_MODES
    # C21-type entries scale with power (x4); fourth-order entries with x16.
    assert vb[base + 5] == pytest.approx(4.0 * va[base + 5], rel=1e-3)


def test_degenerate_side_still_extracts():
    n = 256
    f = 51.0 / n  # bin-aligned so the negative side is empty
    z = np.exp(2j * np.pi * f * np.arange(n))
    cfg = VmdConfig(n_modes=1, alpha=300.0, tol=1e-7, max_iter=500)
    res = icvmd_decompose(ComplexSignal(z), cfg)
    # The positive side's only mode is SIGNAL; the empty negative side is all
    # FEATURE (zero energy), which keeps extraction well-defined.
    vec = extract_features(res)
    assert vec.shape == (3 * MAX_MODES + 12,)
    assert np.all(vec[0:3] == 0)  # the zero-energy feature mode contributes nothing


def test_all_signal_labels_raise_degenerate():
    res = decompose_demo(n_modes=1)
    # Force every label to SIGNAL.
    from dataclasses import replace

    forced = replace(
        res,
        labels_pos=tuple(ModeLabel.SIGNAL for _ in res.labels_pos),
        labels_neg=tuple(ModeLabel.SIGNAL for _ in res.labels_neg),
    )
    with pytest.raises(DegenerateInputError):
        extract_features(forced)
