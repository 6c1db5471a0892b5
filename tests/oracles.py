"""Reference helpers that only the tests use."""
import math
import time
from dataclasses import dataclass, field

import numpy as np

from icvmd.analytic import _MIN_LEN
from icvmd.dataset import _FLOOR_SLACK
from icvmd.errors import DegenerateInputError, ParameterError, is_real
from icvmd.modulation import ModulationKind
from icvmd.nn import model
from icvmd.nn.layers import softmax
from icvmd.nn.layers import ConvLayer, conv_backward, conv_forward, relu_backward
from icvmd.nn.model import NetParams, _conv, _residual_forward, cross_entropy, model_backward, model_forward
from icvmd.pa import EmitterProfile
from icvmd.signals import ComplexSignal
from icvmd.vmd import (
    _ENERGY_GUARD,
    _PEAK_FLOOR,
    _PEAK_SEP_DIV,
    _PEAK_WINDOW_DIV,
    _RELAX,
    ModeSet,
    VmdConfig,
    VmdResult,
    _widest_gap_midpoint,
    half_grid,
    smoothed_power,
)


def mirror_extend(x: np.ndarray) -> np.ndarray:
    """Reflect half of the signal onto each end, doubling the length."""
    n = x.size
    left = x[: n // 2][::-1]
    right = x[n // 2 :][::-1]
    return np.concatenate([left, x, right])


def extension_phase(n: int) -> np.ndarray:
    """exp(-1j*w*(n//2 - 1/2)) on the half grid w = pi*m/n of the 2n-sample extension,
    with each angle cut to a multiple of pi/(2n) below 2*pi; m = b*q + s makes it
    an outer product of two exps about sqrt(n) long.  The extension's rfft is the
    solver's real coefficients times this phase."""
    b = math.isqrt(n) + 1
    turn = lambda m: np.exp(-0.5j * np.pi / n * (m * (2 * (n // 2) - 1) % (4 * n)))
    return np.multiply.outer(turn(b * np.arange(b)), turn(np.arange(b))).ravel()[: n + 1]


def halves_split(sig: ComplexSignal) -> tuple:
    """The analytic split built from the spectrum halves by hand, as the package
    computed it before its Hilbert-transform form: the reference that form is
    checked against, and the builder of fixtures whose bytes must not move.

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


def halves_combine(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """The inverse of ``halves_split`` as the package computed it before its
    Hilbert-transform form, on a sequence or a stack along the last axis.

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


def side_input_energy(x: np.ndarray) -> float:
    """Energy of a side sequence, one of analytic_split's pair."""
    return float(np.sum(x**2))


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


def reference_vmd_decompose(x: np.ndarray, cfg: VmdConfig, relax: float = _RELAX) -> tuple:
    """The unfused Gauss-Seidel loop that vmd_decompose fuses, kept as its oracle.
    Returns ``(VmdResult, spectra)``: the complex rfft spectra it sweeps, and
    a result whose real coefficients are those spectra over the phase.

    Decompose a real 1-D signal into ``cfg.n_modes`` band-limited modes.

    The ADMM loop sweeps modes in index order, refreshing each spectrum with
    the Wiener update (using the freshest other-mode sum) and immediately
    re-centering it.  After a sweep that has a metric not under tol, the
    next sweep moves each spectrum ``relax`` times its plain step and each
    center ``relax`` times its step to the new spectrum's centroid.  The
    metric is taken on the plain steps, and only a plain sweep may stop the
    loop.  ``relax=1.0`` is the plain loop of Dragomiretskiy & Zosso.
    After the loop one plain mode-update sweep is run at the final centers so
    the returned spectra satisfy the Wiener fixed-point form exactly.
    After each sweep, of two live modes with centers within one Wiener
    half-width 1/sqrt(2*alpha), the weaker is retired into the stronger.

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
    width = 1.0 / math.sqrt(2.0 * cfg.alpha)

    k_modes = cfg.n_modes
    omegas = reference_init_omegas(cfg, f_hat)
    u = np.zeros((k_modes, n_bins), dtype=complex)
    live = list(range(k_modes))

    def sweep(beta):
        """Returns the plain spectra."""
        plain = u.copy()
        sum_u = u.sum(axis=0)
        for k in live:
            others = sum_u - u[k]
            plain[k] = wiener_mode_update(f_hat, others, omegas[k], cfg.alpha, grid)
            u[k] = u[k] + beta * (plain[k] - u[k])
            sum_u = others + u[k]
            energy = float(np.sum(np.abs(u[k]) ** 2))
            if energy > _ENERGY_GUARD:
                target = center_frequency(u[k], grid)
                omegas[k] = min(max(omegas[k] + beta * (target - omegas[k]), 0.0), np.pi)
        return plain

    converged = False
    final_delta = float("inf")
    iterations = 0
    beta = 1.0
    for iterations in range(1, cfg.max_iter + 1):
        u_prev = u.copy()
        plain = sweep(beta)
        # Of the first two live modes in center order whose centers lie
        # within one Wiener half-width, the weaker (the later on a tie) is
        # merged into the other and never updated again.
        by_center = sorted(live, key=lambda k: omegas[k])
        close = [(a, b) for a, b in zip(by_center, by_center[1:]) if omegas[b] - omegas[a] < width]
        if close:
            a, b = close[0]
            energy = np.sum(np.abs(u) ** 2, axis=-1)
            weak, strong = (b, a) if energy[b] < energy[a] or (energy[b] == energy[a] and b > a) else (a, b)
            u[strong] += u[weak]
            u[weak] = 0.0
            live.remove(weak)
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
        else:
            beta = relax

    # Freeze the centers, then refresh every spectrum once so the output
    # is an exact Wiener fixed point of its own reported state.
    sum_u = u.sum(axis=0)
    for k in live:
        others = sum_u - u[k]
        u[k] = wiener_mode_update(f_hat, others, omegas[k], cfg.alpha, grid)
        sum_u = others + u[k]

    order = np.argsort(omegas, kind="stable")
    omegas = omegas[order]
    u = u[order]

    modes_ext = np.array([np.fft.irfft(u[k], n_ext) for k in range(k_modes)])
    start = n // 2
    modes = modes_ext[:, start : start + n]

    mode_set = ModeSet(
        coefficients=(u * extension_phase(n).conj()).real,
        omegas=omegas,
        iterations=iterations,
        converged=converged,
        final_delta=final_delta,
    )
    return VmdResult(modes=modes, mode_set=mode_set), u


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
    y, _ = _residual_forward(x[None], params, i, None, {})
    return y[0]


def reference_features_forward(params: NetParams, x: np.ndarray):
    """The model's trunk forward as it was before its cache was trimmed: each
    ReLU returns a fresh output and caches a bool mask, and the merge conv's
    input is a concatenated copy of the block outputs.  Returns (feat, cache)
    in the layout ``_features_backward`` reads."""

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


def reference_features_backward(dfeat: np.ndarray, cache, grads: dict) -> None:
    """The trunk's backward as it was before it formed only what it reads:
    one conv_backward over the merge conv makes the whole [B, 4*CHANNELS, T]
    gradient of its input, each block reads its slice of it, and every
    encoder conv, the first too, forms its input gradient.  Fills ``grads``
    for one chunk, from a cache in the layout ``_features_backward`` reads."""
    enc_caches, block_caches, merge_cache = cache

    def conv(dy, cc, name):
        dx, grads[f"{name}.weights"], grads[f"{name}.bias"] = conv_backward(dy, cc)
        return dx

    dstacked = conv(dfeat, merge_cache, "tcn.merge")
    c, dh = model.CHANNELS, 0.0
    for i in range(model.N_BLOCKS - 1, -1, -1):
        c1, r1, c2 = block_caches[i]
        dout = dstacked[:, i * c : (i + 1) * c] + dh
        da1 = conv(dout, c2, f"tcn.blocks.{i}.conv2")
        dh = dout + conv(relu_backward(da1, r1), c1, f"tcn.blocks.{i}.conv1")
    for i in range(model.ENCODER_LAYERS - 1, -1, -1):
        cc, rc = enc_caches[i]
        dh = conv(relu_backward(dh, rc), cc, f"encoder.{i}")


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
    losses, _ = cross_entropy(logits, labels)
    return float(np.mean(losses))


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
    grads = model_backward(params, dlogits, cache, {})

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
    return ComplexSignal(y)


def hammerstein_as_volterra(profile: EmitterProfile) -> VolterraKernels:
    """Expand a Hammerstein profile with b = [b1, 0, b3] into explicit kernels.

    Only orders 1 and 3 are expanded (enough for cross-checking); for a real
    input x the cubic envelope term x|x|^2 equals x^3, so the order-3 kernel is
    the separable product c[q] * b3 placed on the diagonal.
    """
    b = np.asarray(profile.nonlinear_coeffs)
    if b.size > 3 and np.any(b[3:] != 0):
        raise ParameterError("expansion helper only covers orders up to 3")
    if b.size > 1 and b[1] != 0:
        raise ParameterError("expansion helper expects zero even-order coefficients")
    c = np.asarray(profile.memory_taps)
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


def reference_baseband(kind: ModulationKind, n: int, seed: int, carrier: float, samples_per_symbol: int,
                       sweep_span: float) -> np.ndarray:
    """The waveform generator as it was when the carrier, symbol length and
    sweep span were dataset fields, in its float order: pins that the recipe's
    constants key every capture as those fields' defaults did."""
    t = np.arange(n)
    rng = np.random.default_rng(seed)
    n_sym = math.ceil(n / samples_per_symbol)
    if kind is ModulationKind.CW:
        return np.exp(2j * np.pi * carrier * t)
    if kind is ModulationKind.LFM:
        f0, rate = carrier - sweep_span / 2.0, sweep_span / max(n - 1, 1)
        return np.exp(1j * (2.0 * np.pi * (f0 * t + 0.5 * rate * t**2)))
    if kind is ModulationKind.MSK:
        bits = 2 * rng.integers(0, 2, n_sym) - 1
        freq = carrier + 1.0 / (4.0 * samples_per_symbol) * np.repeat(bits, samples_per_symbol)[:n]
        phase = np.zeros(n)
        phase[1:] = 2.0 * np.pi * np.cumsum(freq[:-1])
        return np.exp(1j * phase)
    m = {ModulationKind.BPSK: 2, ModulationKind.QPSK: 4, ModulationKind.PSK8: 8}[kind]
    per_sample = np.repeat(2.0 * np.pi * rng.integers(0, m, n_sym) / m, samples_per_symbol)[:n]
    return np.exp(1j * (2.0 * np.pi * carrier * t + per_sample))


def reference_split_manifest(manifest: dict, test_fraction: float, seed: int) -> tuple:
    """split_manifest as its own loop: strata by (label, snr_db) in sorted
    order, each sorted by path, one permutation per stratum."""
    if not (is_real(test_fraction) and 0.0 < test_fraction < 1.0):
        raise ParameterError("test_fraction must lie in (0, 1)")
    paths = [entry["path"] for entry in manifest["files"]]
    dupes = sorted({p for p in paths if paths.count(p) > 1})
    if dupes:
        raise ParameterError(f"manifest lists these paths more than once: {dupes}")
    rng = np.random.default_rng(seed)
    strata: dict = {}
    for entry in manifest["files"]:
        strata.setdefault((entry["label"], entry["snr_db"]), []).append(entry)
    train, test = [], []
    for key in sorted(strata):
        group = sorted(strata[key], key=lambda e: e["path"])
        k = int(round(test_fraction * len(group)))
        k = min(max(k, 1), len(group) - 1) if len(group) > 1 else 0
        order = rng.permutation(len(group))
        chosen = set(order[:k].tolist())
        for i, entry in enumerate(group):
            (test if i in chosen else train).append(entry)
    return dict(manifest, files=train), dict(manifest, files=test)


def reference_subsample_manifest(manifest: dict, proportion: float, seed: int) -> dict:
    """subsample_manifest as its own loop: classes in sorted order, each
    sorted by path, one permutation per class, floor(proportion * n) kept."""
    if not (is_real(proportion) and 0.0 < proportion <= 1.0):
        raise ParameterError("proportion must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    by_label: dict = {}
    for entry in manifest["files"]:
        by_label.setdefault(entry["label"], []).append(entry)
    kept = []
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda e: e["path"])
        k = int(np.floor(proportion * len(group) + _FLOOR_SLACK))
        if k < 1:
            raise DegenerateInputError(f"class {label} would keep 0 of {len(group)} entries at proportion {proportion}")
        order = rng.permutation(len(group))
        kept.extend(group[i] for i in sorted(order[:k].tolist()))
    return dict(manifest, files=kept)
