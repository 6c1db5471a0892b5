import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.signals import ComplexSignal, add_awgn, noise_variance, normalize_power


def test_signal_holds_complex128_readonly():
    sig = ComplexSignal([1.0, 2.0, 3.0])
    assert sig.samples.dtype == np.complex128
    with pytest.raises(ValueError):
        sig.samples[0] = 0


def test_signal_rejects_bad_shapes_and_values():
    with pytest.raises(ParameterError):
        ComplexSignal(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        ComplexSignal([])
    with pytest.raises(ParameterError):
        ComplexSignal([1.0, np.nan])
    with pytest.raises(ParameterError):
        ComplexSignal([1.0 + 1j * np.inf])


def test_power_is_mean_squared_magnitude():
    sig = ComplexSignal([3.0, 4.0j])
    assert sig.power == pytest.approx((9.0 + 16.0) / 2.0)


def test_normalize_power_gives_unit_power():
    assert normalize_power(ComplexSignal([1.0, 2.0, 3.0, 4.0])).power == pytest.approx(1.0, rel=1e-12)


def test_normalize_power_rejects_an_all_zero_signal():
    with pytest.raises(DegenerateInputError):
        normalize_power(ComplexSignal([0.0, 0.0]))


def test_awgn_matches_requested_snr_statistically():
    n = 200_000
    sig = ComplexSignal(np.exp(2j * np.pi * 0.05 * np.arange(n)))
    for snr_db in (0.0, 10.0):
        noisy = add_awgn(sig, snr_db, seed=0)
        noise = noisy.samples - sig.samples
        measured = sig.power / np.mean(np.abs(noise) ** 2)
        assert 10.0 * np.log10(measured) == pytest.approx(snr_db, abs=0.05)


def test_awgn_seed_determinism_and_independence():
    sig = ComplexSignal(np.ones(64))
    a = add_awgn(sig, 5.0, seed=7)
    b = add_awgn(sig, 5.0, seed=7)
    c = add_awgn(sig, 5.0, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_awgn_noise_is_circular():
    # Real and imaginary noise parts carry equal variance.
    sig = ComplexSignal(np.zeros(100_000) + 1.0)
    noise = add_awgn(sig, 0.0, seed=3).samples - 1.0
    assert np.var(noise.real) == pytest.approx(np.var(noise.imag), rel=0.05)


def test_awgn_rejects_zero_signal_and_bad_snr():
    with pytest.raises(DegenerateInputError):
        add_awgn(ComplexSignal([0.0]), 10.0, seed=0)
    for snr_db in (np.inf, np.nan, 10**400, True, "3", None):
        with pytest.raises(ParameterError, match="^snr_db must be a finite number"):
            add_awgn(ComplexSignal([1.0]), snr_db, seed=0)
    # No seed would draw fresh entropy on every call: same seed in, same noise out.
    for seed in (None, -1, 1.0, True, "3"):
        with pytest.raises(ParameterError, match="^seed must be"):
            add_awgn(ComplexSignal([1.0]), 3.0, seed)
    numpy_scalars = add_awgn(ComplexSignal([1.0]), np.float64(3), np.uint32(5))
    assert np.array_equal(numpy_scalars.samples, add_awgn(ComplexSignal([1.0]), 3, 5).samples)


@pytest.mark.parametrize(
    "power, snr_db",
    [(1.0, 4000.0), (1.0, -4000.0), (1.0, -3090.0), (1e-300, 300.0), (1e300, -300.0)],
    ids=["ratio_overflows", "ratio_underflows", "variance_overflows", "weak_signal", "strong_signal"],
)
def test_awgn_refuses_an_snr_without_a_finite_positive_noise_variance(power, snr_db):
    # 10**400 overflows a float and 10**-400 rounds to 0: the noise variance
    # (or the ratio behind it) must be a finite positive float64.
    with pytest.raises(ParameterError, match=f"^SNR {snr_db} dB is out of range"):
        add_awgn(ComplexSignal([power**0.5]), snr_db, seed=0)
    with pytest.raises(ParameterError, match=f"^SNR {snr_db} dB is out of range"):
        noise_variance(power, snr_db)


def test_noise_variance_is_the_power_over_the_linear_snr():
    assert noise_variance(2.0, 10.0) == 0.2
    assert noise_variance(1.0, -3000) == pytest.approx(1e300, rel=1e-15)
    noisy = add_awgn(ComplexSignal(np.ones(64)), 3000, seed=0)  # 1e-300 still draws noise
    assert 0.0 < np.max(np.abs(noisy.samples - 1.0)) < 1e-140


@settings(deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=32))
def test_normalize_power_scales_only(values):
    arr = np.asarray(values) + 1.0j  # offset keeps the signal nonzero
    sig = ComplexSignal(arr)
    out = normalize_power(sig)
    assert out.power == pytest.approx(1.0, rel=1e-9)
    # Pure rescale: the direction of every sample is unchanged.
    ratio = out.samples / sig.samples
    assert np.allclose(ratio, ratio[0])
