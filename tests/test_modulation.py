import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.errors import ParameterError
from icvmd.modulation import (
    CARRIER,
    SAMPLES_PER_SYMBOL,
    SWEEP_SPAN,
    ModulationKind,
    gen_baseband,
)

ALL_KINDS = list(ModulationKind)
PSK_KINDS = ((ModulationKind.BPSK, 2), (ModulationKind.QPSK, 4), (ModulationKind.PSK8, 8))
# One-sided width the recipe occupies: half the LFM sweep, and a keyed kind's
# first-null half-width of one symbol rate.
HALF_WIDTH = max(SWEEP_SPAN / 2.0, 1.0 / SAMPLES_PER_SYMBOL)


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


def instantaneous_cycles(x: np.ndarray) -> np.ndarray:
    """Per-sample frequency (cycles/sample) from the phase step between samples."""
    return np.angle(x[1:] * np.conj(x[:-1])) / (2.0 * np.pi)


def test_cw_is_exact_complex_exponential():
    sig = gen_baseband(ModulationKind.CW, 4, 0)
    t = np.arange(4)
    assert np.allclose(sig.samples, np.exp(2j * np.pi * 0.1 * t), atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_constant_envelope(kind):
    sig = gen_baseband(kind, 512, 3)
    assert np.allclose(np.abs(sig.samples), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_seed_determinism(kind):
    a = gen_baseband(kind, 256, 11).samples
    b = gen_baseband(kind, 256, 11).samples
    assert np.array_equal(a, b)


def test_keyed_kinds_differ_across_seeds():
    for kind in (ModulationKind.BPSK, ModulationKind.QPSK, ModulationKind.PSK8, ModulationKind.MSK):
        a = gen_baseband(kind, 256, 0).samples
        b = gen_baseband(kind, 256, 1).samples
        assert not np.array_equal(a, b)


def test_lfm_instantaneous_frequency_sweeps_span():
    inst = instantaneous_cycles(gen_baseband(ModulationKind.LFM, 4096, 0).samples)
    # Chirp starts at carrier - span/2 and ends at carrier + span/2.
    assert inst[0] == pytest.approx(0.0, abs=1e-3)
    assert inst[-1] == pytest.approx(0.2, abs=1e-3)
    assert np.all(np.diff(inst) > 0)


def test_psk_phases_live_on_the_constellation():
    n = 8 * SAMPLES_PER_SYMBOL
    carrier = np.exp(2j * np.pi * CARRIER * np.arange(n))
    for kind, m in PSK_KINDS:
        x = gen_baseband(kind, n, 5).samples / carrier  # the carrier rotated out
        phases = np.angle(x) * m / (2.0 * np.pi)
        assert np.allclose(phases, np.round(phases), atol=1e-9)
        # Constant within each symbol interval.
        sym = x.reshape(-1, SAMPLES_PER_SYMBOL)
        assert np.allclose(sym, sym[:, :1])


def test_msk_phase_is_continuous_and_deviation_correct():
    x = gen_baseband(ModulationKind.MSK, 512, 2).samples
    inst = instantaneous_cycles(x)
    dev = 1.0 / 32.0  # a quarter of the symbol rate
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
    cw = gen_baseband(ModulationKind.CW, 2048, 1)
    assert spectrum_peak_cycles(cw.samples) == pytest.approx(0.1, abs=1.0 / 2048)
    for kind in (ModulationKind.BPSK, ModulationKind.MSK):
        sig = gen_baseband(kind, 2048, 1)
        assert spectrum_centroid_cycles(sig.samples) == pytest.approx(0.1, abs=0.015)


def test_the_recipe_stays_inside_its_aliasing_budget():
    # No run-time guard checks the recipe, so this pins it: the widest kind
    # must stay clear of Nyquist.
    assert CARRIER + HALF_WIDTH < 0.5
    for kind in (ModulationKind.CW, ModulationKind.LFM, ModulationKind.MSK):
        for seed in range(5):
            inst = instantaneous_cycles(gen_baseband(kind, 4096, seed).samples)
            assert np.all(np.abs(inst - CARRIER) <= HALF_WIDTH + 1e-12), kind
    # A rectangular keyed kind's sinc tails reach every bin, so its budget is
    # the share of power within one symbol rate of the carrier (0.906 at the
    # least here).
    freqs = np.fft.fftfreq(4096)
    in_band = np.abs(freqs - CARRIER) <= 1.0 / SAMPLES_PER_SYMBOL
    for kind, _ in PSK_KINDS:
        for seed in range(5):
            power = np.abs(np.fft.fft(gen_baseband(kind, 4096, seed).samples)) ** 2
            assert power[in_band].sum() / power.sum() >= 0.85, (kind, seed)


def test_parameter_validation():
    for kind in ("cw", None):  # not the enum
        with pytest.raises(ParameterError, match="^kind must be a ModulationKind, got"):
            gen_baseband(kind, 8, 0)
    # Every kind builds the symbol RNG, so every kind needs a seed numpy takes.
    for seed in (-1, 2.5, True):
        with pytest.raises(ParameterError, match="^seed must be"):
            gen_baseband(ModulationKind.CW, 8, seed)
    with pytest.raises(ParameterError, match="^n_samples must be >= 1, got 0$"):
        gen_baseband(ModulationKind.CW, 0, 0)
    # A fractional count would be rounded up by arange, and True read as 1.
    for n in (2.5, True, "8", None):
        with pytest.raises(ParameterError, match=f"^n_samples must be an integer, got {n!r}$"):
            gen_baseband(ModulationKind.BPSK, n, 0)


@settings(deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_waveform_is_unit_envelope(kind, n, seed):
    sig = gen_baseband(kind, n, seed)
    assert len(sig) == n
    assert np.allclose(np.abs(sig.samples), 1.0, atol=1e-12)
