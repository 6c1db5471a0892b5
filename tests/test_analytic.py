import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import icvmd
from icvmd.analytic import analytic_split, boundary_correction, combine_analytic
from icvmd.errors import ParameterError
from icvmd.signals import ComplexSignal


def make_sig(z):
    return ComplexSignal(samples=np.asarray(z, dtype=complex))


def roundtrip(sig):
    pair = analytic_split(sig)
    z = combine_analytic(pair.x_plus, pair.x_minus)
    z = z + boundary_correction(pair.x_plus.size, pair.dc_imag, pair.nyquist_imag)
    return z, pair


finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=50.0, allow_nan=False, allow_infinity=False
)


@settings(deadline=None, max_examples=80)
@given(z=arrays(np.complex128, st.integers(4, 257), elements=finite_complex))
def test_roundtrip_is_lossless(z):
    z = z + (1 + 1j)  # keep the signal away from identically zero
    out, _ = roundtrip(make_sig(z))
    assert np.allclose(out, z, atol=1e-9)


@pytest.mark.parametrize("n", [4, 5, 64, 65])
def test_roundtrip_fixed_cases(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    out, pair = roundtrip(make_sig(z))
    assert np.allclose(out, z, atol=1e-10)
    assert pair.x_plus.dtype == np.float64
    assert pair.x_minus.dtype == np.float64


def test_halves_are_one_sided():
    rng = np.random.default_rng(3)
    n = 128
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    pair = analytic_split(make_sig(z))
    # The analytic signal of x_plus must only contain the original positive
    # interior bins; x_minus likewise carries the reflected negative bins.
    spec = np.fft.fft(z)
    plus_spec = np.fft.fft(scipy.signal.hilbert(pair.x_plus))
    assert np.allclose(plus_spec[1 : n // 2], spec[1 : n // 2], atol=1e-9)
    minus_spec = np.fft.fft(scipy.signal.hilbert(pair.x_minus))
    assert np.allclose(
        minus_spec[1 : n // 2], np.conj(spec[n - 1 : n // 2 : -1]), atol=1e-9
    )


def test_dc_to_positive_routes_all_mean():
    z = np.full(16, 5.0 + 0j) + np.exp(2j * np.pi * 0.25 * np.arange(16))
    pair = analytic_split(make_sig(z))
    assert np.mean(pair.x_plus) == pytest.approx(5.0)
    assert np.mean(pair.x_minus) == pytest.approx(0.0, abs=1e-12)


def test_boundary_amplitudes():
    n = 32
    z = (1.0 + 2.0j) * np.ones(n)  # imaginary mean of 2
    alternating = np.ones(n)
    alternating[1::2] = -1.0
    z = z + 3j * alternating  # imaginary Nyquist content
    pair = analytic_split(make_sig(z))
    assert pair.dc_imag == pytest.approx(2.0)
    assert pair.nyquist_imag == pytest.approx(3.0)
    out, _ = roundtrip(make_sig(z))
    assert np.allclose(out, z, atol=1e-10)


def test_odd_length_has_no_nyquist_term():
    rng = np.random.default_rng(8)
    z = rng.normal(size=33) + 1j * rng.normal(size=33)
    pair = analytic_split(make_sig(z))
    assert pair.nyquist_imag == 0.0
    corr = boundary_correction(33, pair.dc_imag, pair.nyquist_imag)
    assert np.allclose(corr, 1j * pair.dc_imag)


def test_pure_positive_tone_stays_in_plus():
    n = 100
    z = np.exp(2j * np.pi * 0.2 * np.arange(n))
    pair = analytic_split(make_sig(z))
    assert np.linalg.norm(pair.x_minus) < 1e-9 * np.linalg.norm(pair.x_plus)
    z_neg = np.exp(-2j * np.pi * 0.2 * np.arange(n))
    pair = analytic_split(make_sig(z_neg))
    assert np.linalg.norm(pair.x_plus) < 1e-9 * np.linalg.norm(pair.x_minus)


def hilbert_oracle(a, b):
    return scipy.signal.hilbert(a) + np.conj(scipy.signal.hilbert(b))


@pytest.mark.parametrize("n", [*range(1, 10), 700, 2100])
def test_combine_matches_the_hilbert_oracle(n):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=n), rng.normal(size=n)
    ref = hilbert_oracle(a, b)
    assert np.linalg.norm(combine_analytic(a, b) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_combine_routes_dc_and_nyquist_as_real_content():
    # The boundary bins have no one-sided counterpart: each half passes them
    # through once, so a DC-only or Nyquist-only pair sums to a real sequence.
    n = 16
    alternating = np.ones(n)
    alternating[1::2] = -1.0
    for a, b in ((2.0 * np.ones(n), 0.5 * np.ones(n)), (3.0 * alternating, -1.0 * alternating)):
        out = combine_analytic(a, b)
        assert np.allclose(out, a + b, atol=1e-14)
        assert np.allclose(out, hilbert_oracle(a, b), atol=1e-14)


def test_no_module_loads_scipy():
    # scipy.signal alone adds ~70 MB of peak RSS to every command; only the tests use it.
    code = (
        "import pkgutil, sys, importlib, icvmd\n"
        "for m in pkgutil.walk_packages(icvmd.__path__, 'icvmd.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(icvmd.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_split_rejects_short_signals():
    with pytest.raises(ParameterError):
        analytic_split(make_sig([1.0, 2.0, 3.0]))
