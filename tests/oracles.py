"""Reference helpers that only the tests use."""
import time
from dataclasses import dataclass, field

import numpy as np

from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.nn import model
from icvmd.nn.attention import softmax
from icvmd.nn.layers import ConvLayer, conv_forward
from icvmd.nn.model import NetParams, _conv, _residual_forward, cross_entropy, model_backward, model_forward
from icvmd.pa import EmitterProfile
from icvmd.signals import ComplexSignal
from icvmd.vmd import (
    _ENERGY_GUARD,
    _PEAK_FLOOR,
    _PEAK_SEP_DIV,
    _PEAK_WINDOW_DIV,
    _RELAX,
    _SETTLE_RAD,
    ModeSet,
    VmdConfig,
    VmdResult,
    _reseed_collisions,
    _widest_gap_midpoint,
    half_grid,
    mirror_extend,
    smoothed_power,
)


def causal_dilated_conv(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Single-sequence convenience wrapper: x [C, T] -> [C_out, T]."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ParameterError(f"expected [channels, T], got shape {x.shape}")
    y, _ = conv_forward(x[None], layer)
    return y[0]


def receptive_field(width: int, dilations) -> int:
    """Number of past-inclusive input samples one output sample can see after a
    chain of causal convs with the given shared width and per-layer dilations:
    1 + (width-1) * sum(dilations)."""
    if width < 1:
        raise ParameterError("width must be >= 1")
    dil = list(dilations)
    if not dil or any(d < 1 for d in dil):
        raise ParameterError("dilations must be a non-empty list of ints >= 1")
    return 1 + (width - 1) * sum(dil)


def impulse_probe(width: int, dilations, t_len: int | None = None) -> int:
    """Measure the receptive field empirically.

    Builds a chain of single-channel causal convs with all-ones weights, feeds
    a unit impulse, and returns the length of the nonzero output span.  With
    exact arithmetic on an all-ones kernel the span equals receptive_field().
    """
    field_ = receptive_field(width, dilations)
    if t_len is None:
        t_len = 2 * field_ + 8
    pos = field_ + 4
    x = np.zeros((1, 1, t_len))
    x[0, 0, pos] = 1.0
    h = x
    for d in dilations:
        layer = ConvLayer(np.ones((1, 1, width)), np.zeros(1), dilation=d)
        h, _ = conv_forward(h, layer)
    nz = np.flatnonzero(h[0, 0] != 0.0)
    if nz.size == 0:
        return 0
    if nz[0] != pos:
        raise AssertionError("causal chain produced output before the impulse")
    return int(nz[-1] - nz[0] + 1)


def wiener_mode_update(
    signal_spectrum: np.ndarray,
    other_modes_sum: np.ndarray,
    omega_k: float,
    alpha: float,
    grid: np.ndarray,
) -> np.ndarray:
    """Closed-form minimizer for one mode with the others held fixed:

        u_k(w) = (f(w) - sum_others(w)) / (1 + 2*alpha*(w - w_k)^2)
    """
    if not (signal_spectrum.shape == other_modes_sum.shape == grid.shape):
        raise ParameterError("spectrum, others-sum, and grid must share one shape")
    if not (alpha > 0):
        raise ParameterError("alpha must be positive")
    denom = 1.0 + 2.0 * alpha * (grid - omega_k) ** 2
    return (signal_spectrum - other_modes_sum) / denom


def center_frequency(mode_spectrum: np.ndarray, grid: np.ndarray) -> float:
    """Power-weighted centroid of a half-spectrum, in radians."""
    if mode_spectrum.shape != grid.shape:
        raise ParameterError("mode spectrum and grid must share one shape")
    w = np.abs(mode_spectrum) ** 2
    total = float(np.sum(w))
    if total <= _ENERGY_GUARD:
        raise DegenerateInputError("center frequency of an (almost) all-zero mode is undefined")
    return float(np.sum(grid * w) / total)


def convergence_metric(prev_spectra: np.ndarray, curr_spectra: np.ndarray) -> float:
    """Sum over modes of ||u_new - u_old||^2 / ||u_old||^2 with a tiny-energy guard."""
    prev = np.asarray(prev_spectra)
    curr = np.asarray(curr_spectra)
    if prev.shape != curr.shape:
        raise ParameterError("previous and current spectra must share one shape")
    prev_norms = np.sum(np.abs(prev) ** 2, axis=-1)
    if np.all(prev_norms <= _ENERGY_GUARD):
        raise DegenerateInputError("metric undefined while every previous mode is all-zero")
    diff = np.sum(np.abs(curr - prev) ** 2, axis=-1)
    return float(np.sum(diff / np.maximum(prev_norms, _ENERGY_GUARD)))


def uniform_spread(cfg: VmdConfig) -> np.ndarray:
    """Centers spread uniformly on (0, pi): (k + 0.5)*pi/K."""
    k = cfg.n_modes
    return (np.arange(k) + 0.5) * np.pi / k


def reference_init_omegas(cfg: VmdConfig, spectrum: np.ndarray) -> np.ndarray:
    """The per-peak loop that the solver's masked peak pick replaces, kept as
    its oracle: walk the peaks in power order and keep each one at least
    pi / (_PEAK_SEP_DIV * K) from every center already chosen."""
    k = cfg.n_modes
    n_bins = spectrum.size
    grid = half_grid(2 * (n_bins - 1))
    power = smoothed_power(spectrum, max(1, n_bins // _PEAK_WINDOW_DIV))
    inner = power[1:-1]
    peaks = 1 + np.flatnonzero((inner > power[:-2]) & (inner >= power[2:]))
    peaks = peaks[power[peaks] >= _PEAK_FLOOR * power.max()]
    sep = np.pi / (_PEAK_SEP_DIV * k)
    chosen = []
    for i in peaks[np.argsort(-power[peaks], kind="stable")]:
        if len(chosen) == k:
            break
        if all(abs(grid[i] - c) >= sep for c in chosen):
            chosen.append(grid[i])
    while len(chosen) < k:
        chosen.append(_widest_gap_midpoint(chosen))
    return np.sort(np.array(chosen))


def reference_vmd_decompose(x: np.ndarray, cfg: VmdConfig, relax: float = _RELAX) -> VmdResult:
    """The unfused Gauss-Seidel loop that vmd_decompose fuses, kept as its oracle.

    Decompose a real 1-D signal into ``cfg.n_modes`` band-limited modes.

    The ADMM loop sweeps modes in index order, refreshing each spectrum with
    the Wiener update (using the freshest other-mode sum) and immediately
    re-centering it.  After a sweep that has a metric not under tol and
    moves no center by _SETTLE_RAD or more, the next sweep moves each
    spectrum ``relax`` times its plain step and each center ``relax`` times
    its step to the new spectrum's centroid.  The metric is taken on the
    plain steps, and only a plain sweep may stop the loop.  ``relax=1.0``
    is the plain loop of Dragomiretskiy & Zosso.
    After the loop one plain mode-update sweep is run at the final centers so
    the returned spectra satisfy the Wiener fixed-point form exactly.

    Modes are returned sorted by ascending center frequency.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ParameterError(f"signal must be 1-D, got shape {x.shape}")
    if x.size < 2 * cfg.n_modes:
        raise ParameterError(
            f"signal of length {x.size} is too short for {cfg.n_modes} modes"
        )
    if not np.all(np.isfinite(x)):
        raise ParameterError("signal must be finite")
    if not np.any(x != 0.0):
        raise DegenerateInputError("cannot decompose an all-zero signal")

    n = x.size
    ext = mirror_extend(x)
    n_ext = ext.size
    grid = half_grid(n_ext)
    n_bins = grid.size
    f_hat = np.fft.rfft(ext)
    min_gap = 2.0 * np.pi / n_ext

    k_modes = cfg.n_modes
    omegas = reference_init_omegas(cfg, f_hat)
    u = np.zeros((k_modes, n_bins), dtype=complex)

    def sweep(beta):
        """Returns the plain spectra and the largest plain center shift."""
        plain = u.copy()
        shift = 0.0
        sum_u = u.sum(axis=0)
        for k in range(k_modes):
            others = sum_u - u[k]
            plain[k] = wiener_mode_update(f_hat, others, omegas[k], cfg.alpha, grid)
            u[k] = u[k] + beta * (plain[k] - u[k])
            sum_u = others + u[k]
            energy = float(np.sum(np.abs(u[k]) ** 2))
            if energy > _ENERGY_GUARD:
                target = center_frequency(u[k], grid)
                shift = max(shift, abs(target - omegas[k]))
                omegas[k] = min(max(omegas[k] + beta * (target - omegas[k]), 0.0), np.pi)
        return plain, shift

    converged = False
    final_delta = float("inf")
    iterations = 0
    beta = 1.0
    for iterations in range(1, cfg.max_iter + 1):
        u_prev = u.copy()
        plain, shift = sweep(beta)
        _reseed_collisions(omegas, min_gap)
        prev_norms = np.sum(np.abs(u_prev) ** 2, axis=-1)
        if np.all(prev_norms <= _ENERGY_GUARD):
            # First sweeps out of an all-zero start: nothing to compare yet.
            continue
        final_delta = delta = convergence_metric(u_prev, plain)
        if delta < cfg.tol:
            if beta == 1.0:
                converged = True
                break
            beta = 1.0  # a relaxed sweep under tol is confirmed by a plain one
        elif shift >= _SETTLE_RAD:
            beta = 1.0
        else:
            beta = relax

    # Freeze the centers, then refresh every spectrum once so the output
    # is an exact Wiener fixed point of its own reported state.
    sum_u = u.sum(axis=0)
    for k in range(k_modes):
        others = sum_u - u[k]
        u[k] = wiener_mode_update(f_hat, others, omegas[k], cfg.alpha, grid)
        sum_u = others + u[k]

    order = np.argsort(omegas, kind="stable")
    omegas = omegas[order]
    u = u[order]

    modes_ext = np.array([np.fft.irfft(u[k], n_ext) for k in range(k_modes)])
    start = n // 2
    modes = modes_ext[:, start : start + n]
    residual = x - modes.sum(axis=0)

    mode_set = ModeSet(
        mode_spectra=u,
        omegas=omegas,
        iterations=iterations,
        converged=converged,
        final_delta=final_delta,
    )
    return VmdResult(modes=modes, mode_set=mode_set, residual=residual)


class Stopwatch:
    """Context manager for the report's wall-clock field."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def scaled_softmax_attention(queries: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """Classic attention:

        scores[i, j] = q_i . k_j / sqrt(d)
        weights = softmax over j
        out_i = sum_j weights[i, j] * v_j

    queries [n_q, d], keys [n_k, d], values [n_k, d_v] -> (out [n_q, d_v],
    weights [n_q, n_k]).  Every weight row sums to 1.
    """
    q = np.asarray(queries, dtype=float)
    k = np.asarray(keys, dtype=float)
    v = np.asarray(values, dtype=float)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ParameterError("queries, keys, values must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ParameterError("queries and keys must share the feature dimension")
    if v.shape[0] != k.shape[0]:
        raise ParameterError("values must have one row per key")
    d = q.shape[1]
    if d == 0:
        raise ParameterError("feature dimension must be positive")
    scores = q @ k.T / np.sqrt(d)
    weights = softmax(scores, axis=1)
    return weights @ v, weights


def residual_block(x: np.ndarray, params: NetParams, i: int) -> np.ndarray:
    """Single-sequence TCN block ``i`` of the model: x [C, T] -> [C, T]."""
    x = np.asarray(x, dtype=params.dtype)
    if x.ndim != 2:
        raise ParameterError(f"expected [channels, T], got shape {x.shape}")
    w1 = params.arrays[f"tcn.blocks.{i}.conv1.weights"]
    w2 = params.arrays[f"tcn.blocks.{i}.conv2.weights"]
    if w1.shape[1] != x.shape[0] or w2.shape[0] != x.shape[0]:
        raise ParameterError("residual block must preserve the channel count")
    y, _ = _residual_forward(x[None], params, i)
    return y[0]


def reference_features_forward(params: NetParams, x: np.ndarray):
    """The model's trunk forward as it was before its cache was trimmed: each
    ReLU returns a fresh output and caches a bool mask, and the merge conv's
    input is a concatenated copy of the block outputs.  Returns (feat, cache)
    in the layout ``features_backward`` reads."""

    def relu(y):
        return np.maximum(y, 0.0), y > 0.0

    h, enc_caches = x, []
    for i in range(model.ENCODER_LAYERS):
        y, cc = conv_forward(h, _conv(params, f"encoder.{i}"))
        h, rc = relu(y)
        enc_caches.append((cc, rc))
    block_caches, block_outs = [], []
    for i, d in enumerate(model.DILATIONS):
        y1, c1 = conv_forward(h, _conv(params, f"tcn.blocks.{i}.conv1", d))
        a1, r1 = relu(y1)
        y2, c2 = conv_forward(a1, _conv(params, f"tcn.blocks.{i}.conv2", d))
        h = h + y2
        block_caches.append((c1, r1, c2))
        block_outs.append(h)
    stacked = np.concatenate(block_outs, axis=1)
    feat, merge_cache = conv_forward(stacked, _conv(params, "tcn.merge"))
    return feat, (enc_caches, block_caches, merge_cache)


def training_cache_bytes(b: int, t: int, itemsize: int = 4) -> int:
    """Bytes of the activations a training forward keeps for b inputs of length
    t: the ten trunk conv inputs past the first, each CHANNELS wide, the
    branch's folded input and its conv outputs."""
    rows = (model.ENCODER_LAYERS + 2 * model.N_BLOCKS) * model.CHANNELS
    rows += model.IN_CHANNELS + model.BRANCH_LAYERS * model.BRANCH_CHANNELS
    return rows * b * t * itemsize


def as_float64(params: NetParams) -> NetParams:
    """A float64 copy of ``params``: the model then runs in float64 throughout."""
    return NetParams(params.config, {k: a.astype(np.float64) for k, a in params.arrays.items()})


def batch_loss(params: NetParams, main, branch, labels) -> float:
    logits, _ = model_forward(params, main, branch)
    loss, _ = cross_entropy(logits, labels)
    return loss


def kink_margin(params: NetParams, main, branch) -> float:
    """Smallest |pre-activation| over every ReLU of one forward pass.

    Wraps the model's ``relu_forward`` for the pass, so it sees exactly the
    ReLUs the model runs: encoder, each block's conv1 and the branch convs.
    """
    seen = []
    relu = model.relu_forward

    def recording(x):
        seen.append(float(np.abs(x).min()))
        return relu(x)

    model.relu_forward = recording
    try:
        model_forward(params, main, branch)
    finally:
        model.relu_forward = relu
    return min(seen)


def grad_check(
    params: NetParams,
    main,
    branch,
    labels,
    n_coords: int = 200,
    step: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Compare analytic gradients against central differences on random coordinates.

    Returns {"max_rel_err", "n_coords", "worst_path", "kink_margin"}.  The
    relative error for each coordinate is |a - n| / max(|a|, |n|, 1e-6); the
    floor keeps tiny near-zero gradients from inflating the ratio with pure
    roundoff.

    Central differences are only a valid oracle away from ReLU kinks: if some
    pre-activation lies within ~|d pre / d theta| * step of zero, perturbing
    that coordinate changes the active set and the two oracles legitimately
    disagree.  ``kink_margin`` reports the smallest |pre-activation| seen in
    the forward pass so callers can verify the fixture is clean (margin well
    above ``step``) before trusting the comparison.

    A float32 loss cannot resolve a 1e-5 step, so the check runs the same
    model code on a float64 copy of the parameters and inputs; the caller's
    parameters are never touched.
    """
    if n_coords < 1:
        raise ParameterError("n_coords must be >= 1")
    params = as_float64(params)
    main = np.asarray(main, dtype=np.float64)
    branch = np.asarray(branch, dtype=np.float64)
    labels = np.asarray(labels)

    logits, cache = model_forward(params, main, branch, {})
    _, dlogits = cross_entropy(logits, labels)
    grads = model_backward(params, dlogits, cache)

    paths = list(params.arrays)
    sizes = np.array([a.size for a in params.arrays.values()])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    flat_idx = rng.choice(total, size=min(n_coords, total), replace=False)
    bounds = np.cumsum(sizes)

    margin = kink_margin(params, main, branch)
    worst = 0.0
    worst_path = None
    for fi in flat_idx:
        which = int(np.searchsorted(bounds, fi, side="right"))
        local = int(fi - (bounds[which - 1] if which > 0 else 0))
        path = paths[which]
        arr = params.arrays[path]
        multi = np.unravel_index(local, arr.shape)

        orig = arr[multi]
        arr[multi] = orig + step
        loss_plus = batch_loss(params, main, branch, labels)
        arr[multi] = orig - step
        loss_minus = batch_loss(params, main, branch, labels)
        arr[multi] = orig

        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = float(grads[path][multi])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        if rel > worst:
            worst = rel
            worst_path = path
    return {
        "max_rel_err": float(worst),
        "n_coords": int(len(flat_idx)),
        "worst_path": worst_path,
        "kink_margin": float(margin),
    }


@dataclass(frozen=True)
class VolterraKernels:
    """Triangular-free Volterra kernels: ``kernels[k]`` has order k+1 and shape (Q,)*(k+1)."""

    kernels: tuple = field(default_factory=tuple)

    def __post_init__(self):
        kerns = []
        for order0, h in enumerate(self.kernels):
            h = np.asarray(h, dtype=complex)
            expect_ndim = order0 + 1
            if h.ndim != expect_ndim:
                raise ParameterError(
                    f"kernel of order {expect_ndim} must have {expect_ndim} axes, got {h.ndim}"
                )
            if len(set(h.shape)) > 1:
                raise ParameterError("each kernel must be hypercubic (same depth on all axes)")
            if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
                raise ParameterError("kernels must be finite")
            kerns.append(h)
        object.__setattr__(self, "kernels", tuple(kerns))


def volterra_apply(sig: ComplexSignal, kernels: VolterraKernels) -> ComplexSignal:
    """Brute-force finite Volterra series:

        y[n] = sum_k sum_{q1..qk} h_k[q1..qk] * prod_j x[n-q_j]

    Exponential in kernel order; intended for small reference kernels only.
    """
    x = sig.samples
    n = x.size
    y = np.zeros(n, dtype=complex)
    for h in kernels.kernels:
        if h.size == 0:
            continue
        depth = h.shape[0]
        if depth > n:
            raise ParameterError(
                f"kernel depth {depth} exceeds signal length {n}"
            )
        shifted = np.zeros((depth, n), dtype=complex)
        for q in range(depth):
            shifted[q, q:] = x[: n - q]
        for idx in np.ndindex(h.shape):
            coeff = h[idx]
            if coeff == 0:
                continue
            term = np.ones(n, dtype=complex)
            for q in idx:
                term = term * shifted[q]
            y += coeff * term
    return sig.with_samples(y)


def hammerstein_as_volterra(profile: EmitterProfile) -> VolterraKernels:
    """Expand a Hammerstein profile with b = [b1, 0, b3] into explicit kernels.

    Only orders 1 and 3 are expanded (enough for cross-checking); for a real
    input x the cubic envelope term x|x|^2 equals x^3, so the order-3 kernel is
    the separable product c[q] * b3 placed on the diagonal.
    """
    b = profile.nonlinear_coeffs
    if b.size > 3 and np.any(b[3:] != 0):
        raise ParameterError("expansion helper only covers orders up to 3")
    if b.size > 1 and b[1] != 0:
        raise ParameterError("expansion helper expects zero even-order coefficients")
    c = profile.memory_taps
    q = c.size
    h1 = b[0] * c.astype(complex)
    kernels = [h1]
    if b.size >= 3 and b[2] != 0:
        h3 = np.zeros((q, q, q), dtype=complex)
        for i in range(q):
            h3[i, i, i] = b[2] * c[i]
        kernels.append(np.zeros((q, q), dtype=complex))
        kernels.append(h3)
    return VolterraKernels(tuple(kernels))
