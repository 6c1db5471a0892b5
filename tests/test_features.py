import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.analytic import analytic_split
from icvmd.dataset import DatasetSpec, synthesize_one
from icvmd.decompose import ModeLabel, icvmd_decompose, reconstruct
from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.features import (
    MAX_MODES,
    _bandwidth_3db,
    _cumulant_block,
    cumulants,
    extract_features,
    raw_cumulant_features,
)
from icvmd.modulation import ModulationKind
from icvmd.pa import emitter_bank
from icvmd.signals import ComplexSignal
from icvmd.vmd import VmdConfig
from oracles import side_input_energy


def decompose_demo(n=512, n_modes=3):
    t = np.arange(n)
    z = (
        np.exp(2j * np.pi * 0.2 * t)
        + 0.3 * np.exp(2j * np.pi * 0.35 * t)
        + 0.2 * np.exp(-2j * np.pi * 0.12 * t)
    )
    cfg = VmdConfig(n_modes=n_modes, alpha=300.0, tol=1e-6, max_iter=150)
    return icvmd_decompose(ComplexSignal(z), cfg)


# ----------------------------------------------------------------- bandwidth


def walked_bandwidth(coefficients):
    """Walk out from the peak while the power holds at least half of it."""
    p = coefficients**2
    peak = int(np.argmax(p))
    half = p[peak] / 2.0
    lo = peak
    while lo > 0 and p[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < p.size - 1 and p[hi + 1] >= half:
        hi += 1
    return float((hi - lo + 1) * (np.pi / (p.size - 1)))


@settings(deadline=None, max_examples=200)
@given(
    n_bins=st.integers(2, 300),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.float32, np.float64]),
    levels=st.integers(1, 4),
)
def test_bandwidth_is_the_half_power_run_around_the_peak(n_bins, seed, dtype, levels):
    # Few levels make ties, half-power edges and peaks at either end common.
    rng = np.random.default_rng(seed)
    row = rng.integers(-levels, levels + 1, size=n_bins).astype(dtype) * dtype(rng.random() + 0.5)
    assert _bandwidth_3db(row) == walked_bandwidth(row)
    smooth = np.convolve(rng.normal(size=n_bins), np.ones(5), mode="same").astype(dtype)
    assert _bandwidth_3db(smooth) == walked_bandwidth(smooth)


def test_bandwidth_by_hand():
    # Power 1, 4, 16, 9, 1 on 5 bins (pi/4 apart): 9 >= 16/2 and 4 < 8, so two bins.
    assert _bandwidth_3db(np.array([1.0, 2.0, 4.0, 3.0, 1.0])) == 2 * np.pi / 4
    assert _bandwidth_3db(np.zeros(3, dtype=np.float32)) == 3 * np.pi / 2  # no bin is under half of 0


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
    # Retained: labeled FEATURE with nonzero energy, so neither an empty side's
    # modes nor a retired solver mode's zero row.
    n_retained = sum(
        1
        for side in (res.pos, res.neg)
        for l, energy in zip(side.labels, side.energies)
        if l is ModeLabel.FEATURE and energy != 0.0
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
    # Energies at the capture's unit peak, where the sides are split and swept.
    scale = int(np.frexp(np.abs(z).max())[1])
    total = sum(side_input_energy(x) for x in analytic_split(ComplexSignal(np.ldexp(1.0, -scale) * z)))
    retained = sorted(
        (
            (-e, sign * float(side.omegas[k]), e / total)
            for sign, side in ((1.0, res.pos), (-1.0, res.neg))
            for k, (e, label) in enumerate(zip(np.sum(np.ldexp(side.modes, -scale) ** 2, axis=1), side.labels))
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


def test_a_decomposition_without_feature_modes_zero_pads():
    # One mode per side of a noisy capture: both are SIGNAL, so no mode is retained.
    sig = synthesize_one(DatasetSpec(n_samples=256), emitter_bank()[0], ModulationKind.CW, 18.0, 1, 2)
    res = icvmd_decompose(sig, VmdConfig(n_modes=1))
    assert res.pos.labels == res.neg.labels == (ModeLabel.SIGNAL,)
    vec = extract_features(res)
    base = 3 * MAX_MODES
    assert np.all(vec[: base + 4] == 0)  # the geometry and the feature-part cumulants
    assert np.array_equal(vec[base + 4 : base + 8], raw_cumulant_features(sig))


def _two_tone_capture(scale=1.0):
    t = np.arange(256)
    return ComplexSignal(scale * (np.exp(2j * np.pi * 0.1 * t) + 0.5 * np.exp(-2j * np.pi * 0.23 * t)))


@pytest.mark.parametrize(
    "result",
    [
        lambda: decompose_demo(),
        lambda: decompose_demo(n=301, n_modes=4),
        lambda: icvmd_decompose(synthesize_one(DatasetSpec(n_samples=700), emitter_bank()[4], ModulationKind.QPSK, -4.0, 5, 6), VmdConfig()),
    ],
    ids=["demo", "odd_length", "noisy_qpsk"],
)
def test_the_feature_and_signal_blocks_are_those_of_reconstruct_bit_for_bit(result):
    # extract_features builds both reconstructions in one pass; they must be
    # the ones reconstruct returns, to the bit.
    res = result()
    vec = extract_features(res)
    base = 3 * MAX_MODES
    assert np.array_equal(vec[base : base + 4], _cumulant_block(reconstruct(res, {ModeLabel.FEATURE}).samples))
    assert np.array_equal(vec[base + 8 :], _cumulant_block(reconstruct(res, {ModeLabel.SIGNAL}).samples))


def test_the_energy_fractions_at_a_tiny_power_of_two_scale_are_the_unit_fractions():
    # Taken at the capture's own scale, every fraction read 0 at 2^-540.
    unit, tiny = (extract_features(icvmd_decompose(_two_tone_capture(s), VmdConfig())) for s in (1.0, np.ldexp(1.0, -540)))
    assert np.any(unit[: 3 * MAX_MODES] != 0.0)
    assert np.array_equal(tiny[: 3 * MAX_MODES], unit[: 3 * MAX_MODES])


@pytest.mark.parametrize("k", [256, 520])
def test_cumulants_that_overflow_float64_are_a_degenerate_capture(k):
    # At 2^256 the fourth powers overflow; Python's OverflowError escaped from c21**2.
    res = icvmd_decompose(_two_tone_capture(np.ldexp(1.0, k)), VmdConfig())
    peak = f"{np.abs(res.input_signal.samples).max():.3g}"
    for features in (lambda: extract_features(res), lambda: raw_cumulant_features(res.input_signal)):
        with pytest.raises(DegenerateInputError, match=re.escape(f"the cumulants of a sequence with peak {peak} overflow float64")):
            features()
