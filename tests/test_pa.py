import numpy as np
import pytest

from icvmd.errors import ParameterError
from icvmd.modulation import ModulationKind, ModulationSpec, gen_baseband
from icvmd.pa import (
    DEFAULT_MEMORY_TAPS,
    EmitterProfile,
    auxiliary_bank,
    emitter_bank,
    hammerstein_apply,
)
from icvmd.signals import ComplexSignal
from oracles import VolterraKernels, hammerstein_as_volterra, volterra_apply


def test_profile_validation():
    with pytest.raises(ParameterError):
        EmitterProfile(0, [], [1.0])
    with pytest.raises(ParameterError):
        EmitterProfile(0, [1.0], [0.0, 0.0])
    with pytest.raises(ParameterError):
        EmitterProfile(0, [np.nan], [1.0])
    p = EmitterProfile(3, [1.0, 0.0, 0.2], [1.0, 0.1])
    assert p.nonlinear_order == 3
    assert p.memory_depth == 2


def test_hammerstein_unit_impulse_gain():
    # Memoryless profile: unit-magnitude input picks up the polynomial sum.
    profile = EmitterProfile(0, [1.0, 0.0, 0.1126, 0.0, 0.2937], [1.0])
    sig = ComplexSignal([1.0, 0.0 + 0j, 0.0 + 0j])
    out = hammerstein_apply(sig, profile)
    assert out.samples[0] == pytest.approx(1.0 + 0.1126 + 0.2937, abs=1e-12)
    assert np.allclose(out.samples[1:], 0.0)


def test_hammerstein_zero_in_zero_out():
    profile = emitter_bank()[0]
    # A zero signal is invalid as a ComplexSignal source for SNR work, but the
    # amplifier itself is fine with small or partly-zero input.
    sig = ComplexSignal([0.0 + 0j, 1.0, 0.0 + 0j, 0.0 + 0j])
    out = hammerstein_apply(sig, profile)
    assert out.samples[0] == 0.0


def test_hammerstein_pure_delay_taps():
    profile = EmitterProfile(0, [1.0, 0.0, 0.5], [0.0, 1.0])
    x = np.array([1.0, 0.5j, 0.25])
    sig = ComplexSignal(x)
    out = hammerstein_apply(sig, profile)
    static = x + 0.5 * x * np.abs(x) ** 2
    expected = np.concatenate([[0.0], static[:-1]])
    assert np.allclose(out.samples, expected, atol=1e-15)


def test_hammerstein_constant_envelope_is_pure_gain():
    # On a unit-envelope waveform the odd polynomial collapses to one scalar.
    profile = emitter_bank()[2]
    g = 1.0 + 0.3959 + 0.1948
    sig = gen_baseband(ModulationSpec(kind=ModulationKind.CW, carrier=0.1), 64)
    memoryless = EmitterProfile(2, profile.nonlinear_coeffs, [1.0])
    out = hammerstein_apply(sig, memoryless)
    assert np.allclose(out.samples, g * sig.samples, atol=1e-12)


def test_hammerstein_scales_cubically():
    profile = EmitterProfile(0, [1.0, 0.0, 0.3], [1.0])
    x = np.array([0.5, 1.0, 2.0], dtype=complex)
    out = hammerstein_apply(ComplexSignal(x), profile).samples
    assert np.allclose(out, x + 0.3 * x * np.abs(x) ** 2)


def test_emitter_bank_shape_and_distinct_gains():
    bank = emitter_bank()
    assert len(bank) == 7
    assert [p.emitter_id for p in bank] == list(range(7))
    gains = []
    for p in bank:
        assert np.array_equal(p.memory_taps, np.asarray(DEFAULT_MEMORY_TAPS))
        assert p.nonlinear_coeffs[1] == 0.0 and p.nonlinear_coeffs[3] == 0.0
        out = hammerstein_apply(ComplexSignal([1.0 + 0j]), p)
        gains.append(complex(out.samples[0]))
    for i in range(7):
        for j in range(i + 1, 7):
            assert abs(gains[i] - gains[j]) > 1e-3


def test_auxiliary_bank_seeded_and_disjoint_ids():
    a = auxiliary_bank(5, seed=77)
    b = auxiliary_bank(5, seed=77)
    c = auxiliary_bank(5, seed=78)
    assert [p.emitter_id for p in a] == [7, 8, 9, 10, 11]
    for pa_, pb in zip(a, b):
        assert np.array_equal(pa_.nonlinear_coeffs, pb.nonlinear_coeffs)
    assert not np.array_equal(a[0].nonlinear_coeffs, c[0].nonlinear_coeffs)
    for p in a:
        b3, b5 = p.nonlinear_coeffs[2], p.nonlinear_coeffs[4]
        assert 0.1 <= b3 <= 0.5 and 0.1 <= b5 <= 0.5
    with pytest.raises(ParameterError):
        auxiliary_bank(0, seed=1)


def test_volterra_identity_and_delay():
    x = ComplexSignal([1.0, 2.0, 3.0])
    ident = VolterraKernels((np.array([1.0]),))
    assert np.allclose(volterra_apply(x, ident).samples, x.samples)
    delay = VolterraKernels((np.array([0.0, 1.0]),))
    assert np.allclose(volterra_apply(x, delay).samples, [0.0, 1.0, 2.0])


def test_volterra_quadratic_hand_case():
    x = ComplexSignal([2.0, 3.0])
    h2 = np.zeros((1, 1))
    h2[0, 0] = 1.0
    kernels = VolterraKernels((np.zeros(1), h2))
    assert np.allclose(volterra_apply(x, kernels).samples, [4.0, 9.0])


def test_volterra_kernel_validation():
    with pytest.raises(ParameterError):
        VolterraKernels((np.zeros((2, 3)),))  # order-1 kernel must be 1-D
    with pytest.raises(ParameterError):
        VolterraKernels((np.zeros(2), np.zeros((2, 3))))  # not hypercubic
    with pytest.raises(ParameterError):
        VolterraKernels((np.array([np.inf]),))
    with pytest.raises(ParameterError):
        volterra_apply(ComplexSignal([1.0]), VolterraKernels((np.zeros(3),)))


def test_hammerstein_matches_volterra_expansion_on_real_input():
    # The cubic envelope term x|x|^2 equals x^3 only for real x, so the
    # cross-check runs on a real-valued sequence.
    profile = EmitterProfile(0, [1.0, 0.0, 0.3959], [1.0, 0.05, 0.01])
    rng = np.random.default_rng(0)
    x = ComplexSignal(rng.normal(size=32).astype(complex))
    direct = hammerstein_apply(x, profile).samples
    expanded = volterra_apply(x, hammerstein_as_volterra(profile)).samples
    assert np.allclose(direct, expanded, atol=1e-12)


def test_hammerstein_as_volterra_guards():
    with pytest.raises(ParameterError):
        hammerstein_as_volterra(EmitterProfile(0, [1.0, 0.0, 0.1, 0.0, 0.2], [1.0]))
    with pytest.raises(ParameterError):
        hammerstein_as_volterra(EmitterProfile(0, [1.0, 0.5, 0.1], [1.0]))


def test_bank_gains_order_matches_envelope_power():
    # Listed per-emitter scalar gains on a unit envelope; the classification
    # experiments rely on these being stable and distinct.
    bank = emitter_bank()
    gains = [1.0 + p.nonlinear_coeffs[2] + p.nonlinear_coeffs[4] for p in bank]
    sig = gen_baseband(ModulationSpec(kind=ModulationKind.CW, carrier=0.1), 256)
    for p, g in zip(bank, gains):
        memless = EmitterProfile(p.emitter_id, p.nonlinear_coeffs, [1.0])
        out = hammerstein_apply(sig, memless)
        assert out.power == pytest.approx(g**2, rel=1e-12)
