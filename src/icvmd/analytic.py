"""Splitting a complex signal into two real sequences via its spectrum halves.

A complex sequence z is written as the sum of a positive-frequency analytic
part and the conjugate of a negative-frequency analytic part:

    z = (s_plus + j*H[s_plus]) + conj(s_minus + j*H[s_minus])

where s_plus / s_minus are REAL sequences (each one the real part of the
corresponding analytic signal) and H is the Hilbert transform.  Each real
sequence can then be decomposed independently by the real-signal machinery.

The DC bin and (for even lengths) the Nyquist bin sit on the boundary between
the halves.  The real part of the DC bin goes to the positive side and that
of the Nyquist bin is split half/half; their imaginary parts cannot be
represented by any pair of real sequences, so the split drops them: the
imaginary mean and the imaginary Nyquist alternation.  A reconstruction that
includes the residual returns them, since it is built as the input minus the
unselected modes (see ``decompose.reconstruct``).
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .signals import ComplexSignal

_MIN_LEN = 4


def analytic_split(sig: ComplexSignal) -> tuple:
    """Split a complex signal into the real pair (x_plus, x_minus) described in
    the module docstring: real sequences whose analytic signals carry the
    positive / negative frequency halves of the input.

    Interior positive bins go to x_plus, interior negative bins (conjugated and
    index-reflected) to x_minus; the real DC bin goes to x_plus and Nyquist is
    split half/half.
    """
    z = sig.samples
    n = z.size
    if n < _MIN_LEN:
        raise ParameterError(f"signal must have at least {_MIN_LEN} samples")
    spec = np.fft.fft(z)
    top = (n + 1) // 2  # first index past the positive interior

    plus = np.zeros(n, dtype=complex)
    minus = np.zeros(n, dtype=complex)
    plus[1:top] = spec[1:top]
    # Negative bin at -m lives at index n-m; reflect it to +m and conjugate so
    # the resulting analytic signal is conj(that half of z).
    minus[1:top] = np.conj(spec[n - 1 : n - top : -1])
    plus[0] = spec[0].real
    if n % 2 == 0:
        plus[n // 2] = minus[n // 2] = spec[n // 2].real / 2.0
    return np.fft.ifft(plus).real, np.fft.ifft(minus).real


def combine_analytic(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """Rebuild a complex sequence, or a stack of them along the last axis,
    from the two real parts.

    The boundary bins come back real, so combining the split of z misses the
    imaginary DC and Nyquist content of z (module docstring).

    Returns a_plus + conj(a_minus) for the analytic signals of the inputs, as
    one inverse FFT of a one-sided spectrum (Marple 1999): with P = rfft(s_plus)
    and M = rfft(s_minus), bin 0 is P[0] + M[0], positive interior bin m is
    2*P[m], negative interior bin n-m is 2*conj(M[m]), and for even n the
    Nyquist bin n/2 is P[n/2] + M[n/2].
    """
    p, m = np.fft.rfft(np.array([s_plus, s_minus], dtype=float))
    n = np.shape(s_plus)[-1]
    top = (n + 1) // 2  # first index past the positive interior
    spec = np.empty(p.shape[:-1] + (n,), dtype=complex)
    spec[..., 0] = p[..., 0] + m[..., 0]
    spec[..., 1:top] = 2.0 * p[..., 1:top]
    spec[..., n - 1 : n - top : -1] = 2.0 * np.conj(m[..., 1:top])
    if n % 2 == 0:
        spec[..., n // 2] = p[..., n // 2] + m[..., n // 2]
    return np.fft.ifft(spec)
