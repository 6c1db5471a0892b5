"""Variational mode decomposition of real signals via frequency-domain ADMM.

The signal is mirror-extended to suppress boundary artifacts, transformed with
an rfft, and decomposed on the non-negative frequency half-grid
``w[m] = 2*pi*m / n_ext`` (radians/sample, inclusive of 0 and pi).  Each mode
spectrum is refreshed with a Wiener-style update, its center frequency tracked
as the spectral power centroid.  There is no dual step: the modes need not
sum to the signal, since the residual returned beside them closes the sum.

The centers start at the side's own spectral peaks, since each is drawn only
to spectral mass within about 1/sqrt(alpha) of where it starts: the highest
local maxima of the rfft power smoothed over n_bins // _PEAK_WINDOW_DIV bins
that hold at least _PEAK_FLOOR of its maximum, at least
pi / (_PEAK_SEP_DIV * K) apart, then midpoints of the widest gaps between 0,
the chosen centers and pi until there are K.

The sweep carries one residual spectrum ``r = f - sum_k u_k``, so the
Wiener update of mode k with the others held fixed reads

    u_k <- (r + u_k) / (1 + 2*alpha*(w - w_k)^2),    then  r <- r - du_k,

and runs in place on interleaved (re, im) float views of preallocated
buffers.  No center moves before its own mode's update, so each sweep first
builds all K filter denominators as one [K, 2 * n_bins] block at the centers
it starts from.  The update yields ||du_k||^2, and one product of the fixed
rows (1, w) with |u_k|^2 gives the mode's energy and first moment, hence its
centroid.  That energy is carried into the next sweep as the mode's previous
norm in the convergence metric sum_k ||du_k||^2 / ||u_k_prev||^2, so no copy
of the spectra is kept between sweeps; the centers are Python floats.

The sweep runs in the precision of its input: a float32 signal is solved
with complex64 mode and residual spectra and float32 grid and work buffers,
any other dtype in float64.  The start (read off the float64 rfft), the
centers, the convergence metric, the final irfft, the time-domain modes and
the residual stay float64 either way.

The sweep is over-relaxed (Boyd et al. 2011, sec. 3.4.3): each mode takes
its plain step du_k, moves by beta*du_k, and re-centers with
w_k <- w_k + beta*(w~_k - w_k), clipped to [0, pi], where w~_k is the power
centroid of the moved spectrum.  beta is _RELAX after a sweep that has a
metric (every sweep after the first), moves every center by less than
_SETTLE_RAD and is not under tol, and 1 otherwise.  The metric is always
taken on the unrelaxed du_k, and only a plain (beta = 1) sweep may declare
convergence: a relaxed sweep under tol is followed by a plain sweep, which
keeps the centers about 1.6x nearer the fixed point than stopping there.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, check_int

# Mode energies below this are treated as numerically zero in ratio guards.
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
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value > 0 and np.isfinite(value)):
                raise ParameterError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ModeSet:
    """Converged frequency-domain state on the half grid.

    mode_spectra    -- complex array [n_modes, n_bins] on the rfft grid of the
                       mirror-extended signal; complex64 for a float32 input,
                       complex128 otherwise (the centers stay float64)
    omegas          -- center frequencies in radians, ascending, within [0, pi]
    iterations      -- sweeps actually run
    converged       -- True when the relative-change metric of a plain sweep
                       dropped below tol
    final_delta     -- last value of the convergence metric
    """

    mode_spectra: np.ndarray
    omegas: np.ndarray
    iterations: int
    converged: bool
    final_delta: float


@dataclass(frozen=True)
class VmdResult:
    """Time-domain modes for the original (un-extended) support plus the spectral state."""

    modes: np.ndarray  # real, [n_modes, n]
    mode_set: ModeSet
    residual: np.ndarray  # input minus the sum of modes

    @property
    def omegas(self) -> np.ndarray:
        return self.mode_set.omegas


def mirror_extend(x: np.ndarray) -> np.ndarray:
    """Reflect half of the signal onto each end, doubling the length."""
    n = x.size
    left = x[: n // 2][::-1]
    right = x[n // 2 :][::-1]
    return np.concatenate([left, x, right])


def half_grid(n_ext: int) -> np.ndarray:
    """Non-negative rfft frequency grid in radians: 2*pi*m/n_ext, m = 0..n_ext//2."""
    return 2.0 * np.pi * np.arange(n_ext // 2 + 1) / n_ext


def smoothed_power(spectrum: np.ndarray, width: int) -> np.ndarray:
    """|spectrum|^2 under a centered moving average ``width`` bins wide."""
    return np.convolve(np.abs(spectrum) ** 2, np.ones(width) / width, mode="same")


def _widest_gap_midpoint(centers) -> float:
    """Midpoint of the widest gap between 0, the given centers and pi."""
    anchors = np.sort(np.concatenate([[0.0], centers, [np.pi]]))
    g = int(np.argmax(np.diff(anchors)))
    return (anchors[g] + anchors[g + 1]) / 2.0


def _init_omegas(cfg: VmdConfig, spectrum: np.ndarray) -> np.ndarray:
    """Ascending start centers at the peaks of the rfft ``spectrum`` (see the
    module docstring)."""
    k = cfg.n_modes
    n_bins = spectrum.size
    grid = half_grid(2 * (n_bins - 1))  # the spectrum is of an even-length extension
    power = smoothed_power(spectrum, max(1, n_bins // _PEAK_WINDOW_DIV))
    inner = power[1:-1]
    peaks = 1 + np.flatnonzero((inner > power[:-2]) & (inner >= power[2:]))
    peaks = peaks[power[peaks] >= _PEAK_FLOOR * power.max()]
    sep = np.pi / (_PEAK_SEP_DIV * k)
    # Greedy in power order: take the strongest peak still free, then free
    # only the peaks at least sep from it.
    cand = grid[peaks[np.argsort(-power[peaks], kind="stable")]]
    chosen = []
    free = np.ones(cand.size, dtype=bool)
    while len(chosen) < k and free.any():
        c = cand[np.argmax(free)]
        chosen.append(c)
        free &= np.abs(cand - c) >= sep
    while len(chosen) < k:
        chosen.append(_widest_gap_midpoint(chosen))
    return np.sort(np.array(chosen))


def _reseed_collisions(omegas: list | np.ndarray, min_gap: float) -> None:
    """Move the later of any colliding pair of centers (a list or array,
    changed in place) to the widest free band.

    Two modes chasing the same spectral line never separate on their own; the
    deterministic reseed breaks the tie in favor of empty spectrum.  Mode 0 is
    never moved.
    """
    for j in range(1, len(omegas)):
        if any(abs(omegas[j] - omegas[i]) < min_gap for i in range(j)):
            omegas[j] = float(_widest_gap_midpoint(np.delete(omegas, j)))


def check_memory_budget(n: int, n_modes: int) -> None:
    """Raise ParameterError when decomposing an n-sample signal into n_modes
    modes would hold more than _MEMORY_BUDGET_BYTES at its peak.  Per rfft
    bin of the 2n-sample extension, each mode holds at most 32 bytes at a
    time: its spectrum and filter row during the sweeps, its spectrum before
    and after sorting, then its sorted spectrum and time-domain output.
    Twelve 16-byte buffers per bin come on top: the extension, grid,
    spectrum, residual, work buffers, the (1, g2) basis and transient copies."""
    need = 16 * (n + 1) * (2 * n_modes + 12)
    if need > _MEMORY_BUDGET_BYTES:
        raise ParameterError(
            f"{n_modes} modes of a {n}-sample signal need about {need / 2**20:.0f} MiB, "
            f"over the {_MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget"
        )


def vmd_decompose(x: np.ndarray, cfg: VmdConfig) -> VmdResult:
    """Decompose a real 1-D signal into ``cfg.n_modes`` band-limited modes.

    The ADMM loop sweeps modes in index order, refreshing each spectrum with
    the Wiener update (using the freshest other-mode sum) and immediately
    re-centering it.  Once the centers settle, sweeps over-relax both steps by
    _RELAX; convergence is declared only on a plain sweep (see the module
    docstring).
    After the loop one plain mode-update sweep is run at the final centers so
    the returned spectra satisfy the Wiener fixed-point form exactly.

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
        raise ParameterError(
            f"signal of length {x.size} is too short for {cfg.n_modes} modes"
        )
    check_memory_budget(x.size, cfg.n_modes)
    if not np.all(np.isfinite(x)):
        raise ParameterError("signal must be finite")
    if not np.any(x != 0.0):
        raise DegenerateInputError("cannot decompose an all-zero signal")

    n = x.size
    ext = mirror_extend(x)
    n_ext = ext.size
    grid = half_grid(n_ext)
    n_bins = grid.size
    min_gap = 2.0 * np.pi / n_ext

    k_modes = cfg.n_modes
    # Python floats throughout, so no scalar promotes a float32 ufunc.
    two_alpha = 2.0 * float(cfg.alpha)
    u = np.zeros((k_modes, n_bins), dtype=np.result_type(real, 1j))
    f_hat = np.fft.rfft(ext)
    omegas = _init_omegas(cfg, f_hat).tolist()
    r = f_hat.astype(u.dtype, copy=False)  # the residual f_hat - sum(u), with u = 0
    # Interleaved (re, im) float views: the Wiener filter is real, so every
    # update runs as real arithmetic against the grid repeated per component.
    uv = list(u.view(real))
    rv = r.view(real)
    g2 = np.repeat(grid, 2).astype(real)
    # One product of the rows (1, g2) with |u_k|^2 gives energy and first moment.
    basis = np.stack([np.ones_like(g2), g2])
    centers = np.empty((k_modes, 1), dtype=real)
    den = np.empty((k_modes, g2.size), dtype=real)
    dens = list(den)
    d = np.empty_like(g2)
    p = np.empty_like(g2)
    energies = [0.0] * k_modes
    prev_norms = [0.0] * k_modes
    diffs = [0.0] * k_modes

    def filters():
        """Every mode's Wiener denominator 1 + 2*alpha*(w - w_k)^2 into den."""
        centers[:, 0] = omegas
        np.subtract(g2, centers, den)
        np.multiply(den, den, den)
        np.multiply(den, two_alpha, den)
        np.add(den, 1.0, den)

    def update(k, beta=1.0):
        """Move mode k by beta times its Wiener step du_k from the residual;
        returns ||du_k||^2 of the unrelaxed step and leaves |u_k|^2 per
        component in p."""
        uk = uv[k]
        np.add(rv, uk, d)
        np.divide(d, dens[k], d)
        np.subtract(d, uk, d)
        diff = float(d.dot(d))
        if beta != 1.0:
            np.multiply(d, beta, d)
        np.add(uk, d, uk)
        np.subtract(rv, d, rv)
        np.multiply(uk, uk, p)
        return diff

    converged = False
    final_delta = float("inf")
    iterations = 0
    beta = 1.0
    for iterations in range(1, cfg.max_iter + 1):
        filters()  # one block serves the sweep (module docstring)
        shift = 0.0
        for k in range(k_modes):
            diffs[k] = update(k, beta)
            energy, moment = basis.dot(p).tolist()
            energies[k] = energy
            if energy > _ENERGY_GUARD:
                move = moment / energy - omegas[k]
                shift = max(shift, abs(move))
                omegas[k] = min(max(omegas[k] + beta * move, 0.0), np.pi)
        _reseed_collisions(omegas, min_gap)
        # Out of an all-zero start the first sweep has nothing to compare to.
        if not all(v <= _ENERGY_GUARD for v in prev_norms):
            delta = final_delta = sum(dk / max(v, _ENERGY_GUARD) for dk, v in zip(diffs, prev_norms))
            converged = delta < cfg.tol and beta == 1.0
            # A settled sweep not under tol relaxes the next (module docstring).
            beta = _RELAX if shift < _SETTLE_RAD and delta >= cfg.tol else 1.0
        # This sweep's energies are the next sweep's previous norms.
        prev_norms, energies = energies, prev_norms
        if converged:
            break

    # Freeze the centers, then refresh every spectrum once so the output
    # is an exact Wiener fixed point of its own reported state.
    filters()
    for k in range(k_modes):
        update(k)

    omegas = np.array(omegas)
    order = np.argsort(omegas, kind="stable")
    omegas = omegas[order]
    del den, dens, uv  # so neither the filters nor the unsorted spectra outlive the sort
    u = u[order]

    start = n // 2
    modes = np.empty((k_modes, n))
    for row, spectrum in zip(modes, u):  # only the kept half outlives each irfft
        row[:] = np.fft.irfft(spectrum.astype(complex, copy=False), n_ext)[start : start + n]
    residual = x - modes.sum(axis=0)

    mode_set = ModeSet(
        mode_spectra=u,
        omegas=omegas,
        iterations=iterations,
        converged=converged,
        final_delta=final_delta,
    )
    return VmdResult(modes=modes, mode_set=mode_set, residual=residual)
