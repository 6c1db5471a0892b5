"""Splitting a complex signal into two real sequences via its spectrum halves.

A complex sequence z is written as the sum of a positive-frequency analytic
part and the conjugate of a negative-frequency analytic part:

    z = (s_plus + j*H[s_plus]) + conj(s_minus + j*H[s_minus])

where s_plus / s_minus are REAL sequences (each one the real part of the
corresponding analytic signal) and H is the Hilbert transform.  Each real
sequence can then be decomposed independently by the real-signal machinery.

The DC bin and (for even lengths) the Nyquist bin sit on the boundary between
the halves.  Their real parts are routed according to ``DcConvention``; their
imaginary parts cannot be represented by any pair of real sequences and are
therefore carried alongside as two scalar correction amplitudes, restored at
reconstruction time.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .signals import ComplexSignal

_MIN_LEN = 4


class DcConvention(enum.Enum):
    DC_TO_POSITIVE = "dc_to_positive"
    DC_SPLIT = "dc_split"


@dataclass(frozen=True)
class AnalyticPair:
    """The two real sequences plus the boundary-bin bookkeeping.

    x_plus / x_minus   -- real sequences whose analytic signals carry the
                          positive / negative frequency halves of the input
    dc_imag            -- imaginary part of the input mean (time-domain amplitude)
    nyquist_imag       -- imaginary amplitude of the Nyquist bin (0 for odd lengths)
    """

    x_plus: np.ndarray
    x_minus: np.ndarray
    dc_imag: float
    nyquist_imag: float


def analytic_split(
    sig: ComplexSignal, dc_convention: DcConvention = DcConvention.DC_TO_POSITIVE
) -> AnalyticPair:
    """Split a complex signal into the real pair described in the module docstring.

    Interior positive bins go to x_plus, interior negative bins (conjugated and
    index-reflected) to x_minus; DC follows ``dc_convention`` and Nyquist is
    always split half/half.  A real input with DC_SPLIT yields x_plus == x_minus.
    """
    z = sig.samples
    n = z.size
    if n < _MIN_LEN:
        raise ParameterError(f"signal must have at least {_MIN_LEN} samples")
    spec = np.fft.fft(z)

    nyq = n // 2 if n % 2 == 0 else None
    top = nyq if nyq is not None else (n + 1) // 2  # first index past the positive interior

    plus = np.zeros(n, dtype=complex)
    minus = np.zeros(n, dtype=complex)
    plus[1:top] = spec[1:top]
    # Negative bin at -m lives at index n-m; reflect it to +m and conjugate so
    # the resulting analytic signal is conj(that half of z).
    minus[1:top] = np.conj(spec[n - 1 : n - top : -1])

    if dc_convention is DcConvention.DC_TO_POSITIVE:
        plus[0] = spec[0].real
    elif dc_convention is DcConvention.DC_SPLIT:
        plus[0] = spec[0].real / 2.0
        minus[0] = spec[0].real / 2.0
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unsupported dc convention {dc_convention!r}")

    nyquist_imag = 0.0
    if nyq is not None:
        plus[nyq] = spec[nyq].real / 2.0
        minus[nyq] = spec[nyq].real / 2.0
        nyquist_imag = float(spec[nyq].imag) / n

    x_plus = np.fft.ifft(plus).real
    x_minus = np.fft.ifft(minus).real
    return AnalyticPair(
        x_plus=x_plus,
        x_minus=x_minus,
        dc_imag=float(spec[0].imag) / n,
        nyquist_imag=nyquist_imag,
    )


def boundary_correction(n: int, dc_imag: float, nyquist_imag: float) -> np.ndarray:
    """Purely imaginary time series restoring the split's lost boundary content."""
    out = np.full(n, 1j * dc_imag)
    if n % 2 == 0:
        alternating = np.ones(n)
        alternating[1::2] = -1.0
        out = out + 1j * nyquist_imag * alternating
    return out


def combine_analytic(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """Rebuild a complex sequence from the two real parts (no boundary correction).

    Returns a_plus + conj(a_minus) for the analytic signals of the inputs, as
    one inverse FFT of a one-sided spectrum (Marple 1999): with P = rfft(s_plus)
    and M = rfft(s_minus), bin 0 is P[0] + M[0], positive interior bin m is
    2*P[m], negative interior bin n-m is 2*conj(M[m]), and for even n the
    Nyquist bin n/2 is P[n/2] + M[n/2].
    """
    n = len(s_plus)
    p = np.fft.rfft(np.asarray(s_plus, dtype=float))
    m = np.fft.rfft(np.asarray(s_minus, dtype=float))
    top = (n + 1) // 2  # first index past the positive interior
    spec = np.empty(n, dtype=complex)
    spec[0] = p[0] + m[0]
    spec[1:top] = 2.0 * p[1:top]
    spec[n - 1 : n - top : -1] = 2.0 * np.conj(m[1:top])
    if n % 2 == 0:
        spec[n // 2] = p[n // 2] + m[n // 2]
    return np.fft.ifft(spec)
