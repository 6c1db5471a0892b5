import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.errors import ParameterError
from icvmd.modulation import (
    ModulationKind,
    ModulationSpec,
    gen_baseband,
    occupied_halfwidth,
)

ALL_KINDS = list(ModulationKind)


def spectrum_peak_cycles(x: np.ndarray) -> float:
    """Frequency (cycles/sample) of the strongest DFT bin, sign included."""
    spec = np.fft.fft(x)
    k = int(np.argmax(np.abs(spec)))
    freqs = np.fft.fftfreq(x.size)
    return float(freqs[k])


def spectrum_centroid_cycles(x: np.ndarray) -> float:
    """Power-weighted mean frequency (cycles/sample), sign included."""
    power = np.abs(np.fft.fft(x)) ** 2
    freqs = np.fft.fftfreq(x.size)
    return float(np.sum(freqs * power) / np.sum(power))


def test_cw_is_exact_complex_exponential():
    sig = gen_baseband(ModulationSpec(kind=ModulationKind.CW, carrier=0.1), 4)
    t = np.arange(4)
    assert np.allclose(sig.samples, np.exp(2j * np.pi * 0.1 * t), atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_constant_envelope(kind):
    sig = gen_baseband(ModulationSpec(kind=kind, carrier=0.1, seed=3), 512)
    assert np.allclose(np.abs(sig.samples), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_seed_determinism(kind):
    spec = ModulationSpec(kind=kind, carrier=0.05, seed=11)
    a = gen_baseband(spec, 256).samples
    b = gen_baseband(spec, 256).samples
    assert np.array_equal(a, b)


def test_keyed_kinds_differ_across_seeds():
    for kind in (ModulationKind.BPSK, ModulationKind.QPSK, ModulationKind.PSK8, ModulationKind.MSK):
        a = gen_baseband(ModulationSpec(kind=kind, seed=0), 256).samples
        b = gen_baseband(ModulationSpec(kind=kind, seed=1), 256).samples
        assert not np.array_equal(a, b)


def test_lfm_instantaneous_frequency_sweeps_span():
    spec = ModulationSpec(kind=ModulationKind.LFM, carrier=0.15, sweep_span=0.2)
    n = 4096
    x = gen_baseband(spec, n).samples
    inst = np.angle(x[1:] * np.conj(x[:-1])) / (2.0 * np.pi)
    # Chirp starts at carrier - span/2 and ends at carrier + span/2.
    assert inst[0] == pytest.approx(0.05, abs=1e-3)
    assert inst[-1] == pytest.approx(0.25, abs=1e-3)
    assert np.all(np.diff(inst) > 0)


def test_psk_phases_live_on_the_constellation():
    for kind, m in ((ModulationKind.BPSK, 2), (ModulationKind.QPSK, 4), (ModulationKind.PSK8, 8)):
        spec = ModulationSpec(kind=kind, carrier=0.0, samples_per_symbol=4, seed=5)
        x = gen_baseband(spec, 64).samples
        phases = np.angle(x) * m / (2.0 * np.pi)
        assert np.allclose(phases, np.round(phases), atol=1e-9)
        # Constant within each symbol interval.
        sym = x.reshape(-1, 4)
        assert np.allclose(sym, sym[:, :1])


def test_msk_phase_is_continuous_and_deviation_correct():
    sps = 8
    spec = ModulationSpec(kind=ModulationKind.MSK, carrier=0.1, samples_per_symbol=sps, seed=2)
    x = gen_baseband(spec, 512).samples
    inst = np.angle(x[1:] * np.conj(x[:-1])) / (2.0 * np.pi)
    dev = 1.0 / (4.0 * sps)
    # Every per-sample frequency is carrier +- deviation, nothing else.
    assert np.all(np.isclose(inst, 0.1 + dev, atol=1e-9) | np.isclose(inst, 0.1 - dev, atol=1e-9))
    # Both bit signs show up.
    assert np.any(np.isclose(inst, 0.1 + dev, atol=1e-9))
    assert np.any(np.isclose(inst, 0.1 - dev, atol=1e-9))
    # Phase continuity: adjacent samples never jump more than the deviation step.
    dphi = np.abs(np.angle(x[1:] * np.conj(x[:-1])))
    assert dphi.max() < 2.0 * np.pi * (0.1 + dev) + 1e-9


def test_spectrum_is_centered_on_the_carrier():
    # The strongest single bin of a random keyed waveform wanders inside the
    # main lobe, so the peak is only a fair oracle for the pure tone; the
    # power centroid is the right one for the spread shapes.  BPSK sits a
    # touch low because its slow spectral tail wraps at the +-0.5 edge.
    cw = gen_baseband(ModulationSpec(kind=ModulationKind.CW, carrier=0.12, seed=1), 2048)
    assert spectrum_peak_cycles(cw.samples) == pytest.approx(0.12, abs=1.0 / 2048)
    for kind in (ModulationKind.BPSK, ModulationKind.MSK):
        sig = gen_baseband(ModulationSpec(kind=kind, carrier=0.12, seed=1), 2048)
        assert spectrum_centroid_cycles(sig.samples) == pytest.approx(0.12, abs=0.015)


def test_aliasing_guard():
    # CW occupies a line, so any carrier < 0.5 is fine.
    ModulationSpec(kind=ModulationKind.CW, carrier=0.49)
    with pytest.raises(ParameterError):
        ModulationSpec(kind=ModulationKind.CW, carrier=0.5)
    # LFM budget is half the sweep span.
    ModulationSpec(kind=ModulationKind.LFM, carrier=0.3, sweep_span=0.3)
    with pytest.raises(ParameterError):
        ModulationSpec(kind=ModulationKind.LFM, carrier=0.4, sweep_span=0.3)
    # Keyed kinds are budgeted one symbol rate.
    with pytest.raises(ParameterError):
        ModulationSpec(kind=ModulationKind.QPSK, carrier=0.45, samples_per_symbol=8)
    ModulationSpec(kind=ModulationKind.QPSK, carrier=0.3, samples_per_symbol=8)


def test_occupied_halfwidth_values():
    assert occupied_halfwidth(ModulationSpec(kind=ModulationKind.CW)) == 0.0
    assert occupied_halfwidth(
        ModulationSpec(kind=ModulationKind.LFM, sweep_span=0.2)
    ) == pytest.approx(0.1)
    assert occupied_halfwidth(
        ModulationSpec(kind=ModulationKind.BPSK, samples_per_symbol=10)
    ) == pytest.approx(0.1)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ModulationSpec(kind="cw")  # not the enum
    with pytest.raises(ParameterError):
        ModulationSpec(kind=ModulationKind.CW, carrier=-0.1)
    with pytest.raises(ParameterError, match="^samples_per_symbol must be >= 1, got 0$"):
        ModulationSpec(kind=ModulationKind.BPSK, samples_per_symbol=0)
    # A fractional symbol length would be cut to a whole one by np.repeat.
    with pytest.raises(ParameterError, match="samples_per_symbol must be an integer, got 8.5"):
        ModulationSpec(kind=ModulationKind.BPSK, samples_per_symbol=8.5)
    with pytest.raises(ParameterError):
        ModulationSpec(kind=ModulationKind.LFM, sweep_span=-0.5)
    # A carrier or span that is not a number is refused before any range test.
    for name in ("carrier", "sweep_span"):
        for value in ("0.1", None, True, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match=f"^{name} must be >= 0 and finite, got"):
                ModulationSpec(kind=ModulationKind.LFM, **{name: value})
    # Every kind builds the symbol RNG, so every kind needs a seed numpy takes.
    for seed in (-1, 2.5, True):
        with pytest.raises(ParameterError, match="^seed must be"):
            ModulationSpec(kind=ModulationKind.CW, seed=seed)
    with pytest.raises(ParameterError, match="^n_samples must be >= 1, got 0$"):
        gen_baseband(ModulationSpec(kind=ModulationKind.CW), 0)
    # A fractional count would be rounded up by arange, and True read as 1.
    for n in (2.5, True, "8", None):
        with pytest.raises(ParameterError, match=f"^n_samples must be an integer, got {n!r}$"):
            gen_baseband(ModulationSpec(kind=ModulationKind.BPSK), n)


@settings(deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_waveform_is_unit_envelope(kind, n, seed):
    sig = gen_baseband(ModulationSpec(kind=kind, carrier=0.08, seed=seed), n)
    assert len(sig) == n
    assert np.allclose(np.abs(sig.samples), 1.0, atol=1e-12)
