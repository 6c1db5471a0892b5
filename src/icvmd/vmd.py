"""Variational mode decomposition of real signals via frequency-domain ADMM.

The signal is mirror-extended to suppress boundary artifacts (half of it is
reflected onto each end) and decomposed on the non-negative frequency
half-grid ``w[m] = pi*m / n`` of the 2n-sample extension (radians/sample,
m = 0..n, inclusive of 0 and pi).  Each mode spectrum is refreshed with a
Wiener-style update, its center frequency tracked as the spectral power
centroid.  There is no dual step: the modes need not sum to the signal, and
the residual of a rebuild (``decompose.reconstruct``) closes the sum.

The centers start at the side's own spectral peaks, since each is drawn only
to spectral mass within about 1/sqrt(alpha) of where it starts: the highest
local maxima of the coefficient power smoothed over (n + 1) // _PEAK_WINDOW_DIV bins
that hold at least _PEAK_FLOOR of its maximum, at least
pi / (_PEAK_SEP_DIV * K) apart, then midpoints of the widest gaps between 0,
the chosen centers and pi until there are K.

The extension is half-sample symmetric about n//2 - 1/2, so its rfft is real
coefficients c (a DCT-II) times the fixed phase exp(-1j*w*(n//2 - 1/2)), and
neither the extension nor the phase is formed (Makhoul 1980): with v the even
samples followed by the odd ones reversed and W = rfft(v) * 2*exp(-1j*w/2),
one length-n transform, c[m] = Re W[m] and c[n-m] = -Im W[m], and c[n] = 0.
A mode's n samples, the middle of its extension, come back the same way: one
length-n irfft of (c[m] - 1j*c[n-m]) * exp(1j*w/2)/2 is its v.  The Wiener
filters are real and the centroids read only |u_k|^2, so the sweep runs on
real [K, n + 1] coefficient rows: the modes u_k and one residual
r = f - sum_k u_k, in which the update of mode k reads

    u_k <- (r + u_k) / (1 + 2*alpha*(w - w_k)^2),    then  r <- r - du_k.

The centers move only after all K updates, so each sweep first builds the K
filters, as 1 + (s*w - s*w_k)^2 with s = sqrt(2*alpha), in one block, and
each mode writes its step du_k over its spent filter row, so one np.vecdot
of the block gives every ||du_k||^2 of the metric
sum_k ||du_k||^2 / ||u_k_prev||^2 (the bytes of one dot per row).  The block
then takes |u|^2, whose one product with the columns (1, w) gives every
mode's energy and first moment, hence its centroid; each energy is the
mode's previous norm in the next sweep's metric, so no copy of the modes is
kept between sweeps.  The rows s*w and (1, w) are built once per length,
alpha and dtype.  The rows are returned as they are.

The solve runs on x / 2^e, with e from the frexp of the peak: a power of two passes
through every step exactly, so at any finite scale the modes and rows are 2^e times
those of the unit-peak solve.  The sweep runs in the precision of its input (float32
rows for a float32 signal, float64 otherwise); at unit peak no float32 square over- or
underflows.  The transforms, the start, the centers, the metric and the modes stay float64.

The sweep is over-relaxed (Boyd et al. 2011, sec. 3.4.3): each mode takes
its plain step du_k, moves by beta*du_k, and re-centers with
w_k <- w_k + beta*(w~_k - w_k), clipped to [0, pi], where w~_k is the power
centroid of the moved spectrum.  beta is _RELAX after a sweep that has a
metric (every sweep after the first), moves every center by less than
_SETTLE_RAD and is not under tol, and 1 otherwise.  The metric is always
taken on the unrelaxed du_k, and only a plain (beta = 1) sweep may declare
convergence: a relaxed sweep under tol is followed by a plain sweep, which
keeps the centers about 1.6x nearer the fixed point than stopping there.

Two live modes whose centers lie within one Wiener half-width 1/sqrt(2*alpha)
share one band.  After each sweep's centroid step the weaker of the first such
pair in center order (the later index on a tie) is added into the stronger,
which keeps its center and takes its merged norm as its previous one, so r does
not change; the weaker is not updated again and returns a zero row at its last
center.  Below alpha 13 two of the K = 4 start centers may lie within one width.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, check_int, check_real

# Mode energies under this share of the side's are zero in ratio guards (scale-free).
_ENERGY_GUARD = 1e-30

# Most memory one vmd_decompose call may hold (see check_memory_budget).  Four
# modes of a 2100-sample side need under 1 MiB; the budget stops a request
# such as n_modes = n/2 on a long capture before any spectrum is allocated.
_MEMORY_BUDGET_BYTES = 2**30

# Over-relaxation factor, and the largest center shift (in radians) of a
# sweep after which the next sweep may be relaxed.
_RELAX = 1.7
_SETTLE_RAD = 1e-2

# Smoothing-window and peak-separation divisors of the start, and the share of
# the peak power under which a maximum is FFT rounding (module docstring).
_PEAK_WINDOW_DIV = 128
_PEAK_SEP_DIV = 4
_PEAK_FLOOR = 1e-12


@dataclass(frozen=True)
class VmdConfig:
    """Solver knobs; the defaults are the config every experiment decomposes
    both sides of a capture with.

    n_modes      -- number of modes extracted
    alpha        -- bandwidth penalty; larger alpha gives narrower modes
    tol          -- convergence threshold on sum_k ||du_k||^2 / ||u_k_prev||^2,
                    the squared per-mode relative change of an unrelaxed step
    max_iter     -- iteration cap

    The default bandwidth weight is deliberately lower than the generic VMD
    one: each center-frequency update only attracts a mode toward spectral
    mass inside a basin of width ~1/sqrt(alpha).  The solver starts the
    centers at the side's strongest spectral peaks, but weaker bands (the
    distortion the features describe) lie between them, and a loose prior
    lets a mode reach the band nearest its start.
    """

    n_modes: int = 4
    alpha: float = 200.0
    tol: float = 1e-6
    max_iter: int = 300

    def __post_init__(self):
        check_int("n_modes", self.n_modes, 1)
        check_int("max_iter", self.max_iter, 1)
        for name in ("alpha", "tol"):  # a checkpoint's manifest reaches both through `icvmd eval`
            check_real(name, getattr(self, name))


@dataclass(frozen=True)
class ModeSet:
    """Converged frequency-domain state on the half grid.

    coefficients    -- real array [n_modes, n + 1], each mode's DCT-II
                       coefficients on the half grid (the rfft of its mirror
                       extension over the extension's phase, module
                       docstring), the last 0, and a retired mode's all 0; float32 for a float32 input,
                       float64 otherwise (an icvmd_decompose side keeps its
                       float32 rows at the capture's unit peak)
    omegas          -- center frequencies in radians, ascending, within [0, pi]
    iterations      -- sweeps actually run
    converged       -- True when the relative-change metric of a plain sweep
                       dropped below tol
    final_delta     -- last value of the convergence metric
    """

    coefficients: np.ndarray
    omegas: np.ndarray
    iterations: int
    converged: bool
    final_delta: float


@dataclass(frozen=True)
class VmdResult:
    """Time-domain modes for the original (un-extended) support plus the spectral state."""

    modes: np.ndarray  # real, [n_modes, n]
    mode_set: ModeSet

    @property
    def omegas(self) -> np.ndarray:
        return self.mode_set.omegas


def half_grid(n_ext: int) -> np.ndarray:
    """Non-negative rfft frequency grid in radians: 2*pi*m/n_ext, m = 0..n_ext//2."""
    return 2.0 * np.pi * np.arange(n_ext // 2 + 1) / n_ext


def _read_only(*tables) -> tuple:
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=4)
def _tables(n: int) -> tuple:
    """The tables of an n-sample solve, built once per length and read-only: the half
    grid of the extension, and on its first n//2 + 1 bins the twiddles
    2*exp(-1j*w/2) and exp(1j*w/2)/2 of the length-n transforms (module docstring)."""
    grid = half_grid(2 * n)
    turn = np.exp(-0.5j * grid[: n // 2 + 1])
    return _read_only(grid, 2.0 * turn, 0.5 * turn.conj())


@functools.lru_cache(maxsize=4)
def _sweep_tables(n: int, root: float, real) -> tuple:
    """What every sweep of an n-sample solve at s = ``root`` reads, built once and
    read-only, in the sweep's dtype ``real``: s times the half grid w, and the columns
    (1, w) of the centroid product (module docstring)."""
    grid = _tables(n)[0]
    return _read_only((root * grid).astype(real), np.stack([np.ones_like(grid), grid], axis=1).astype(real))


def _dct(x: np.ndarray) -> np.ndarray:
    """The n + 1 real coefficients of x's extension, from one length-n rfft (module docstring)."""
    n, h = x.size, x.size // 2
    w = np.fft.rfft(np.concatenate([x[::2], x[1::2][::-1]]))
    w *= _tables(n)[1]
    c = np.empty(n + 1)
    c[: h + 1], c[n] = w.real, 0.0
    np.negative(w.imag[n - h - 1 : 0 : -1], out=c[h + 1 : n])
    return c


def _idct(rows: np.ndarray, out: np.ndarray) -> None:
    """Each row's n samples, the middle of its extension, into ``out`` [K, n], with one
    length-n irfft for up to four rows and one per block of two beyond that, so no
    spectrum of more than four rows is held (module docstring); each row's last
    coefficient is 0, as every row of a solve's is."""
    n, h = out.shape[1], out.shape[1] // 2
    step = len(rows) if len(rows) <= 4 else 2
    spectra = np.empty((step, h + 1), dtype=complex)
    for i in range(0, len(rows), step):
        c, z = rows[i : i + step], spectra[: len(rows) - i]
        z.real = c[:, : h + 1]
        np.subtract(0.0, c[:, n : n - h - 1 : -1], out=z.imag)  # 0 - c, as the complex c[m] - 1j*c[n-m] has it
        z *= _tables(n)[2]
        v = np.fft.irfft(z, n)
        out[i : i + step, ::2] = v[:, : n - h]
        out[i : i + step, 1::2] = v[:, n - 1 : n - h - 1 : -1]


def smoothed_power(spectrum: np.ndarray, width: int) -> np.ndarray:
    """|spectrum|^2 under a centered moving average ``width`` bins wide."""
    return np.convolve(np.abs(spectrum) ** 2, np.ones(width) / width, mode="same")


def _widest_gap_midpoint(centers) -> float:
    """Midpoint of the widest gap between 0, the given centers and pi."""
    anchors = np.sort(np.concatenate([[0.0], centers, [np.pi]]))
    g = int(np.argmax(np.diff(anchors)))
    return (anchors[g] + anchors[g + 1]) / 2.0


def _init_omegas(cfg: VmdConfig, spectrum: np.ndarray) -> np.ndarray:
    """Ascending start centers at the peaks of ``spectrum``, the rfft of the
    extension or its real coefficients (see the module docstring)."""
    k = cfg.n_modes
    n_bins = spectrum.size
    power = smoothed_power(spectrum, max(1, n_bins // _PEAK_WINDOW_DIV))
    inner = power[1:-1]
    peaks = 1 + np.flatnonzero((inner > power[:-2]) & (inner >= power[2:]))
    peaks = peaks[power[peaks] >= _PEAK_FLOOR * power.max()]
    sep = np.pi / (_PEAK_SEP_DIV * k)
    # Greedy in power order: take the strongest peak still free (the first on a
    # tie), then mark those nearer than sep to it taken, with a power of -1.
    cand, p = _tables(n_bins - 1)[0][peaks], power[peaks]
    chosen = []
    while len(chosen) < k and cand.size:
        i = p.argmax()
        if p[i] < 0.0:
            break
        chosen.append(cand[i])
        p[np.abs(cand - cand[i]) < sep] = -1.0
    while len(chosen) < k:
        chosen.append(_widest_gap_midpoint(chosen))
    return np.sort(np.array(chosen))


def check_memory_budget(n: int, n_modes: int, dtype=np.float64) -> None:
    """Raise ParameterError when decomposing an n-sample signal into n_modes
    modes, sweeping rows of ``dtype``, would hold more than
    _MEMORY_BUDGET_BYTES at its peak.  Per coefficient (n + 1 of them), each
    mode holds at most one sweep row beside another (its filter or its sorted
    copy) or its float64 time-domain mode, and the shared buffers, the
    per-length tables and a block of up to four rows of the inverse about
    twelve float64 rows, counted as sixteen."""
    need = (n + 1) * ((np.dtype(dtype).itemsize + 8) * n_modes + 8 * 16)
    if need > _MEMORY_BUDGET_BYTES:
        raise ParameterError(f"{n_modes} modes of a {n}-sample signal need about {need / 2**20:.0f} MiB, "
                             f"over the {_MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget")


def vmd_decompose(x: np.ndarray, cfg: VmdConfig) -> VmdResult:
    """Decompose a real 1-D signal into ``cfg.n_modes`` band-limited modes.

    The ADMM loop sweeps the live modes in index order, refreshing each spectrum
    with the Wiener update (using the freshest other-mode sum), then re-centers
    every mode on its refreshed spectrum and retires one of two that share a band.
    Once the centers settle, sweeps over-relax both steps by _RELAX; convergence
    is declared only on a plain sweep (see the module docstring).  After the loop
    one plain mode-update sweep is run at the final centers so the returned
    coefficients satisfy the Wiener fixed-point form exactly.

    Modes are returned sorted by ascending center frequency.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ParameterError(f"signal must be real, got dtype {x.dtype}")
    real = np.float32 if x.dtype == np.float32 else np.float64  # the sweep's precision
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ParameterError(f"signal must be 1-D, got shape {x.shape}")
    if x.size < 2 * cfg.n_modes:
        raise ParameterError(f"signal of length {x.size} is too short for {cfg.n_modes} modes")
    check_memory_budget(x.size, cfg.n_modes, real)
    root = math.sqrt(2.0 * cfg.alpha)  # a Python float, so it promotes no float32 ufunc
    if not 1.0 + (root * np.pi) ** 2 <= float(np.finfo(real).max):
        raise ParameterError(f"alpha {cfg.alpha} overflows the {np.dtype(real).name} Wiener filter 1 + 2*alpha*pi^2")
    peak = float(np.abs(x).max())  # NaN or inf for a non-finite signal
    if not math.isfinite(peak):
        raise ParameterError("signal must be finite")
    if peak == 0.0:
        raise DegenerateInputError("cannot decompose an all-zero signal")
    e = math.frexp(peak)[1]  # x / 2^e has its peak in [1/2, 1) (module docstring)

    n, k_modes = x.size, cfg.n_modes
    r = _dct(np.ldexp(x, -e))  # the coefficients of x / 2^e
    guard = _ENERGY_GUARD * float(r.dot(r))
    omegas = _init_omegas(cfg, r).tolist()
    r = r.astype(real)  # the residual: those coefficients less sum(u), with u = 0
    u = np.zeros((k_modes, n + 1), dtype=real)
    rows = list(u)
    scaled, basis = _sweep_tables(n, root, real)
    centers = np.empty((k_modes, 1), dtype=real)
    den = np.empty((k_modes, n + 1), dtype=real)
    d = np.empty(n + 1, dtype=real)
    prev_norms = [0.0] * k_modes
    live = list(range(k_modes))  # the modes not retired, in index order
    # Each live mode's row and, in the first len(live) rows of den, its filter.
    spent, slots = den, list(zip(rows, den))

    # One flat loop of sweeps (module docstring).  After the last, the centers
    # freeze and one more plain pass refreshes every row at them, so the output
    # is an exact Wiener fixed point of its own reported state.
    add, subtract, multiply, divide, square, vecdot = np.add, np.subtract, np.multiply, np.divide, np.square, np.vecdot
    tol, max_iter, pi, width = cfg.tol, cfg.max_iter, math.pi, 1.0 / root  # width: the Wiener half-width
    iterations, beta, final_delta, converged, last = 0, 1.0, float("inf"), False, False
    while True:
        centers[:, 0] = [root * omegas[k] for k in live]  # every Wiener denominator 1 + (s*w - s*w_k)^2
        spent[...] = scaled  # a copy and an in-place subtraction beat one broadcast subtraction
        subtract(spent, centers, spent)
        square(spent, spent)
        add(spent, 1.0, spent)
        for uk, dk in slots:  # mode k moves by beta times its Wiener step du_k, left over its filter
            add(r, uk, d)
            divide(d, dk, dk)
            subtract(dk, uk, dk)
            step = dk if beta == 1.0 else multiply(dk, beta, d)
            add(uk, step, uk)
            subtract(r, step, r)
        if last:
            break
        iterations += 1
        delta = 0.0
        for k, norm in zip(live, vecdot(spent, spent).tolist()):  # on the unrelaxed du_k
            delta += norm / max(prev_norms[k], guard)
        square(u, den)  # the steps are spent; den holds |u|^2
        sums = den.dot(basis).tolist()
        shift = 0.0
        for k, (energy, moment) in enumerate(sums):
            if energy > guard:
                move = moment / energy - omegas[k]
                shift = abs(move) if abs(move) > shift else shift
                w = omegas[k] + beta * move
                omegas[k] = 0.0 if w < 0.0 else pi if w > pi else w  # clipped to [0, pi]
        # Out of an all-zero start the first sweep has nothing to compare to.
        if max(prev_norms) > guard:
            final_delta = delta
            converged = delta < tol and beta == 1.0
            # A settled sweep not under tol relaxes the next (module docstring).
            beta = _RELAX if shift < _SETTLE_RAD and delta >= tol else 1.0
        prev_norms = [energy for energy, _ in sums]  # the next sweep's previous norms
        ordered = sorted(live, key=omegas.__getitem__)
        for a, b in zip(ordered, ordered[1:]):
            if omegas[b] - omegas[a] < width:  # retire the weaker of the first such pair (module docstring)
                weak, strong = sorted((a, b), key=lambda k: (prev_norms[k], -k))
                add(rows[strong], rows[weak], rows[strong])
                rows[weak].fill(0.0)
                prev_norms[strong] = float(rows[strong].dot(rows[strong]))
                live.remove(weak)
                spent, centers = den[: len(live)], centers[: len(live)]
                slots = list(zip([rows[k] for k in live], spent))
                break
        if converged or iterations == max_iter:
            last, beta = True, 1.0

    order = sorted(range(k_modes), key=omegas.__getitem__)  # stable: the lower index first on a tie
    omegas = np.array([omegas[k] for k in order])
    del den, spent, slots, dk, step, d, r  # so the work buffers do not outlive the sweeps
    coefficients = u if order == list(range(k_modes)) else u[order]
    del u, rows, uk  # so the unsorted rows do not outlive the sort

    modes = np.empty((k_modes, n))
    _idct(coefficients, modes)
    if e:  # back to the input's scale, where only a scale-up can overflow
        with np.errstate(over="ignore"):  # a row its dtype cannot hold at the input's scale is inf
            np.ldexp(coefficients, e, out=coefficients)
        if e > 0 and not (np.isfinite(coefficients.max()) and np.isfinite(coefficients.min())):  # no [K, n + 1] mask
            raise ParameterError(f"the {coefficients.dtype} coefficient rows of a signal with peak {peak:.3g} overflow at its scale")
        np.ldexp(modes, e, out=modes)
    return VmdResult(modes, ModeSet(coefficients, omegas, iterations, converged, final_delta))
