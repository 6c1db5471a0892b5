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
from icvmd.analytic import analytic_split, combine_analytic
from icvmd.errors import ParameterError
from icvmd.signals import ComplexSignal
from oracles import halves_combine, halves_split


def make_sig(z):
    return ComplexSignal(samples=np.asarray(z, dtype=complex))


def alternating(n):
    out = np.ones(n)
    out[1::2] = -1.0
    return out


def boundary_amplitudes(z):
    """The imaginary DC mean and the imaginary Nyquist amplitude of z (0 for odd n)."""
    n = z.size
    return float(np.mean(z.imag)), float(np.mean(z.imag * alternating(n))) if n % 2 == 0 else 0.0


def boundary_content(z):
    """The purely imaginary series the split cannot carry: the imaginary DC
    mean plus the imaginary Nyquist alternation."""
    dc_imag, nyquist_imag = boundary_amplitudes(z)
    return 1j * dc_imag + 1j * nyquist_imag * alternating(z.size)


def roundtrip(sig):
    """Split and combine, then add back what the split drops."""
    x_plus, x_minus = analytic_split(sig)
    z = combine_analytic(x_plus, x_minus)
    return z + boundary_content(sig.samples), (x_plus, x_minus)


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
    out, (x_plus, x_minus) = roundtrip(make_sig(z))
    assert np.allclose(out, z, atol=1e-10)
    assert x_plus.dtype == np.float64
    assert x_minus.dtype == np.float64


def test_halves_are_one_sided():
    rng = np.random.default_rng(3)
    n = 128
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    x_plus, x_minus = analytic_split(make_sig(z))
    # The analytic signal of x_plus must only contain the original positive
    # interior bins; x_minus likewise carries the reflected negative bins.
    spec = np.fft.fft(z)
    plus_spec = np.fft.fft(scipy.signal.hilbert(x_plus))
    assert np.allclose(plus_spec[1 : n // 2], spec[1 : n // 2], atol=1e-9)
    minus_spec = np.fft.fft(scipy.signal.hilbert(x_minus))
    assert np.allclose(
        minus_spec[1 : n // 2], np.conj(spec[n - 1 : n // 2 : -1]), atol=1e-9
    )


def test_dc_to_positive_routes_all_mean():
    z = np.full(16, 5.0 + 0j) + np.exp(2j * np.pi * 0.25 * np.arange(16))
    x_plus, x_minus = analytic_split(make_sig(z))
    assert np.mean(x_plus) == pytest.approx(5.0)
    assert np.mean(x_minus) == pytest.approx(0.0, abs=1e-12)


def test_boundary_amplitudes():
    n = 32
    z = (1.0 + 2.0j) * np.ones(n)  # imaginary mean of 2
    z = z + 3j * alternating(n)  # imaginary Nyquist content
    assert boundary_amplitudes(z) == pytest.approx((2.0, 3.0))
    x_plus, x_minus = analytic_split(make_sig(z))
    # The split drops exactly the imaginary DC mean and Nyquist alternation.
    dropped = z - combine_analytic(x_plus, x_minus)
    assert np.allclose(dropped, 2j + 3j * alternating(n), atol=1e-10)
    out, _ = roundtrip(make_sig(z))
    assert np.allclose(out, z, atol=1e-10)


def test_odd_length_has_no_nyquist_term():
    rng = np.random.default_rng(8)
    z = rng.normal(size=33) + 1j * rng.normal(size=33)
    dc_imag, nyquist_imag = boundary_amplitudes(z)
    assert nyquist_imag == 0.0
    x_plus, x_minus = analytic_split(make_sig(z))
    dropped = z - combine_analytic(x_plus, x_minus)
    assert np.allclose(dropped, 1j * dc_imag, atol=1e-12)


def test_pure_positive_tone_stays_in_plus():
    n = 100
    z = np.exp(2j * np.pi * 0.2 * np.arange(n))
    x_plus, x_minus = analytic_split(make_sig(z))
    assert np.linalg.norm(x_minus) < 1e-9 * np.linalg.norm(x_plus)
    z_neg = np.exp(-2j * np.pi * 0.2 * np.arange(n))
    x_plus, x_minus = analytic_split(make_sig(z_neg))
    assert np.linalg.norm(x_plus) < 1e-9 * np.linalg.norm(x_minus)


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
    for a, b in ((2.0 * np.ones(n), 0.5 * np.ones(n)), (3.0 * alternating(n), -1.0 * alternating(n))):
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


def oracle_inputs(n):
    """Captures of length n on which the split is checked against the oracle:
    random, one-sided (positive interior bins only), DC-only and, for even n,
    Nyquist-only."""
    rng = np.random.default_rng(n)
    spec = np.zeros(n, dtype=complex)
    spec[1 : (n + 1) // 2] = rng.normal(size=(n - 1) // 2) + 1j * rng.normal(size=(n - 1) // 2)
    yield rng.normal(size=n) + 1j * rng.normal(size=n)
    yield np.fft.ifft(spec)
    yield (1.5 - 0.5j) * np.ones(n)
    if n % 2 == 0:
        yield (-0.7 + 2.0j) * alternating(n)


@pytest.mark.parametrize("n", [*range(4, 10), 64, 65, 700, 2100, 2101])
def test_split_and_combine_match_the_spectrum_halves_oracle(n):
    for z in oracle_inputs(n):
        scale = np.linalg.norm(z)
        got, want = analytic_split(make_sig(z)), halves_split(make_sig(z))
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-14 * scale
        ref = halves_combine(*want)
        assert np.linalg.norm(combine_analytic(*want) - ref) <= 1e-14 * np.linalg.norm(ref)
    stack = np.random.default_rng(n + 1).normal(size=(2, 3, n))
    ref = halves_combine(*stack)
    assert np.linalg.norm(combine_analytic(*stack) - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("shapes", [(8, 9), ((2, 8), 8)])
def test_combine_refuses_parts_of_unequal_shape(shapes):
    with pytest.raises(ParameterError, match="differ in shape"):
        combine_analytic(np.ones(shapes[0]), np.ones(shapes[1]))
