"""Splitting a complex signal into two real sequences via the Hilbert transform.

A complex sequence z is written as the sum of a positive-frequency analytic
part and the conjugate of a negative-frequency analytic part:

    z = (s_plus + j*H[s_plus]) + conj(s_minus + j*H[s_minus])
      = s_plus + s_minus + j*H[s_plus - s_minus]

where s_plus / s_minus are REAL sequences (each one the real part of the
corresponding analytic signal) and H is the discrete Hilbert transform
(Marple 1999).  Each real sequence can then be decomposed independently by
the real-signal machinery.

H passes neither the DC bin nor (for even lengths) the Nyquist bin, which
sit on the boundary between the halves.  So the split keeps three rules: the
real mean goes to s_plus; the real Nyquist alternation is split half/half;
and the imaginary mean and imaginary Nyquist alternation, which no pair of
real sequences can represent, are dropped.  A reconstruction that includes
the residual returns them, since it is built as the input minus the
unselected modes (see ``decompose.reconstruct``).
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .signals import ComplexSignal

_MIN_LEN = 4


def _hilbert(x: np.ndarray) -> np.ndarray:
    """The discrete Hilbert transform of real x along its last axis: every
    interior bin times -j, the DC and even-length Nyquist bins zeroed.  It is
    taken on x / 2^e, with e from the frexp of x's peak, and scaled back by
    2^e, so no bin sum overflows at any finite scale and a power of two passes
    through exactly."""
    n, e = np.shape(x)[-1], int(np.frexp(np.abs(x).max())[1])
    spec = np.fft.rfft(np.ldexp(x, -e))
    spec[..., 0] = 0.0
    if n % 2 == 0:
        spec[..., -1] = 0.0
    return np.ldexp(np.fft.irfft(-1j * spec, n), e)


def analytic_split(sig: ComplexSignal) -> tuple:
    """Split a complex signal into the real pair (x_plus, x_minus) described in
    the module docstring: real sequences whose analytic signals carry the
    positive / negative frequency halves of the input.

    x_plus + x_minus is Re z, and x_plus - x_minus is mean(Re z) - H[Im z].
    """
    z = sig.samples
    if z.size < _MIN_LEN:
        raise ParameterError(f"signal must have at least {_MIN_LEN} samples")
    d = np.mean(z.real) - _hilbert(z.imag)
    return (z.real + d) / 2.0, (z.real - d) / 2.0


def combine_analytic(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """Rebuild a complex sequence, or a stack of them along the last axis,
    from the two real parts: s_plus + s_minus + j*H[s_plus - s_minus].

    The boundary bins come back real, so combining the split of z misses the
    imaginary DC and Nyquist content of z (module docstring).
    """
    if np.shape(s_plus) != np.shape(s_minus):
        raise ParameterError(f"the two parts differ in shape: {np.shape(s_plus)} and {np.shape(s_minus)}")
    p, m = np.asarray(s_plus, dtype=float), np.asarray(s_minus, dtype=float)
    return p + m + 1j * _hilbert(p - m)
