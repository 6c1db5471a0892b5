"""Host speed, sampled with a fixed reference kernel while a workload runs.

The benchmark runs on a shared host whose speed drifts: the same fixed
decomposition loop ran at speeds up to ~1.5x apart, each held for tens of
seconds to minutes, with steal time near zero and CPU time tracking wall
time.  A run of half a minute sits inside one such state, so raw wall times
of ten runs spread by the gap between states whenever the host changes state
during a set.

``HostSampler`` runs ``ReferenceKernel`` -- code of this benchmark only,
never icvmd, so no change to the package moves it -- from a SIGALRM handler
every ``INTERVAL_S`` of wall time, on the thread that runs the workload, and
records how long it took.  A duration divided by the reference time at that
moment is in ``ref`` units: how many reference kernels would have run in that
time.  ``now`` is a clock that leaves out the time spent in the handler, so
timings taken with it do not include the sampling (about 0.6% of a run).
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25
# Samples on each side of a moment whose median gives the reference time there.
NEIGHBOURS = 4


class ReferenceKernel:
    """About 1.5 ms of the three kinds of work the workloads do: FFTs and
    elementwise complex arithmetic on one capture's spectrum (as in the
    decomposition), a channel contraction (as in the convolutions), and
    interpreter-bound Python (as in the training loop)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal(4200)
        self.grid = np.linspace(0.0, np.pi, 2101)
        self.weights = rng.standard_normal((16, 16))
        self.block = rng.standard_normal((4, 16, 350))

    def __call__(self) -> None:
        spec = np.fft.rfft(self.signal)
        modes = np.zeros((4, spec.size), complex)
        centers = np.array([0.1, 0.5, 1.0, 2.0])
        for _ in range(3):
            for k in range(4):
                modes[k] = (spec - modes.sum(0) + modes[k]) / (
                    1.0 + 200.0 * (self.grid - centers[k]) ** 2)
                power = np.abs(modes[k]) ** 2
                centers[k] = (self.grid @ power) / power.sum()
        np.fft.irfft(modes[0], self.signal.size)
        np.einsum("oi,bit->bot", self.weights, self.block)
        acc = 0
        for i in range(2000):
            acc += i * i % 7


class HostSampler:
    """Times the reference kernel every ``INTERVAL_S`` while installed."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.at: list = []  # perf_counter() at each sample
        self.ref_s: list = []  # reference kernel duration of each sample
        self.spent = 0.0  # seconds spent inside the handler

    def now(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ref_s.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(5):  # warm the kernel's code paths and buffers
            self.kernel()
        self._tick(None, None)  # every window has a sample at each end
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def reference_at(self, moments) -> np.ndarray:
        """Reference time at each perf_counter() moment: the median of the
        samples nearest to it."""
        at, ref = np.asarray(self.at), np.asarray(self.ref_s)
        idx = np.searchsorted(at, np.asarray(moments, dtype=float))
        lo = np.clip(idx - NEIGHBOURS, 0, max(len(at) - 2 * NEIGHBOURS, 0))
        return np.array([np.median(ref[i : i + 2 * NEIGHBOURS]) for i in lo])

    def in_refs(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` of work done between perf_counter() moments ``start``
        and ``end``, in reference units: the host speed is averaged over the
        samples taken in that window (or the nearest ones, for a short one)."""
        at = np.asarray(self.at)
        inside = np.flatnonzero((at >= start) & (at <= end))
        if len(inside) >= 2 * NEIGHBOURS:
            rate = float(np.mean(1.0 / self.reference_at(at[inside])))
        else:
            rate = float(1.0 / self.reference_at([(start + end) / 2])[0])
        return seconds * rate
