"""Causal dilated convolutions, dense layers, softmax, and their exact backward passes.

Every function computes in the dtype of its arrays and casts nothing; the
model draws its layers in DTYPE (model.draw_params).  Forward functions
return (output, cache); the matching backward consumes (upstream_grad,
cache) and returns input and parameter gradients.  conv_param_grads returns
a conv's parameter gradients alone, for a layer whose input gradient nothing
reads (the first of a stack, or a 1x1 conv whose input gradient the caller
forms a slice at a time).  Batched tensors are [batch, channels, time].

A convolution runs one BLAS matmul per kernel tap against a lag-shifted view
of the unpadded input, and its cache holds the caller's input by reference,
not a copy: do not modify that input in place before the backward pass.
The ReLU overwrites the array it is given (a conv output the caller owns)
and its cache is that output, which the next conv caches anyway; so a
training forward keeps each conv input once and nothing beside it.
conv_param_grads, conv_backward and dense_backward can continue the
parameter gradients of an earlier call, so a batch split into consecutive
chunks of samples gets the same bytes as one call over the whole batch.
The dense products are a broadcast product summed over the contracted
axis, so each output row depends on its own input row alone; BLAS
``x @ W.T`` picks another kernel for fewer rows and rounds a row block
differently from the whole batch.
The conv passes and relu_backward write into ``out`` when given.  A tap's
product goes into ``scratch``, wrap columns zeroed, and is added over one
contiguous row per sample or per batch, not B*C strided rows (NumPy pays per
row); reusing both allocates no activation; the bytes are the same either way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, check_int

DTYPE = np.float32  # the classifier's: its drawn layers, loaded checkpoints and input stacks


@dataclass
class ConvLayer:
    """1-D causal dilated convolution parameters.

    weights[o, i, j] multiplies input channel i at lag (width-1-j)*dilation;
    j = width-1 is the current sample, j = 0 the oldest.  Output at time t
    therefore never sees input later than t.
    """

    weights: np.ndarray  # [out_ch, in_ch, width]
    bias: np.ndarray  # [out_ch]
    dilation: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        if self.weights.ndim != 3:
            raise ParameterError("conv weights must be [out_ch, in_ch, width]")
        if self.bias.shape != (self.weights.shape[0],):
            raise ParameterError("conv bias must match out_ch")
        if self.weights.shape[2] < 1:
            raise ParameterError("conv width must be >= 1")
        check_int("dilation", self.dilation, 1)

    @property
    def width(self) -> int:
        return self.weights.shape[2]


@dataclass
class Dense:
    weights: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ParameterError("dense layer needs weights [out, in] and bias [out]")


def conv_forward(x: np.ndarray, layer: ConvLayer, out=None, scratch=None):
    """Batched causal dilated conv: x [B, C_in, T] -> y [B, C_out, T].

    Tap j is one matmul at lag (width-1-j)*dilation against a view of x; a
    lag of T or more reaches no output and is skipped.  Its product fills
    ``scratch[:, :, :T-lag]``, the last lag columns are zeroed, and the rows
    _tap_rows views get it shifted by lag: a channel's first lag outputs get
    +0.0, a no-op unless a matmul sum underflowed to -0.0.  The cache holds
    x by reference (no copy), so x must not be modified in place before
    conv_backward.  ``out`` and ``scratch`` [B, C_out, T] overlap nothing and,
    at width > 1, hold each sample's block contiguously (else ParameterError).
    """
    if x.ndim != 3:
        raise ParameterError(f"conv input must be [B, C, T], got shape {x.shape}")
    if x.shape[1] != layer.weights.shape[1]:
        raise ParameterError(
            f"conv expects {layer.weights.shape[1]} input channels, got {x.shape[1]}"
        )
    t = x.shape[2]
    w, width, d = layer.weights, layer.width, layer.dilation
    y = np.matmul(w[:, :, width - 1], x, out=out)
    tap, rows, tap_rows = _tap_rows(y, scratch) if width > 1 else (None,) * 3
    for j in range(width - 1):
        lag = (width - 1 - j) * d
        if lag < t:
            np.matmul(w[:, :, j], x[:, :, : t - lag], out=tap[:, :, : t - lag])
            tap[:, :, t - lag :] = 0.0
            rows[:, lag:] += tap_rows[:, :-lag]
    y += np.repeat(layer.bias[:, None], t, axis=1)
    return y, (x, layer)


def _tap_rows(y: np.ndarray, scratch) -> tuple:
    """(tap, y's rows, tap's rows), the tap being ``scratch`` or a new buffer
    like y: one row for the batch if both are contiguous, else one per sample,
    whose [C, T] block must be contiguous (ParameterError naming the buffer)."""
    tap = np.empty(y.shape, y.dtype) if scratch is None else scratch
    for a, name in ((y, "out"), (tap, "scratch")):
        if len(a) and not a[0].flags.c_contiguous:
            raise ParameterError(f"conv {name} must hold each sample's [C, T] block contiguously")
    n = 1 if y.flags.c_contiguous and tap.flags.c_contiguous else len(y)
    return tap, *(a.reshape(n, a.size // n, copy=False) for a in (y, tap))


def _summed(parts: np.ndarray, prior) -> np.ndarray:
    """parts summed over axis 0, continued from ``prior`` (the sum over earlier
    samples, added into parts[0]) when given.  np.add.accumulate adds one row
    after another whatever the shape (sum() pairs up an [N, 1] array's rows),
    so this is bit-identical to one sum over the earlier rows and these."""
    if prior is not None:
        parts[0] += prior
    return np.add.accumulate(parts, axis=0)[-1]


def conv_param_grads(dy: np.ndarray, cache, total=None):
    """Returns (dweights [C_out, C_in, W], dbias [C_out]) and no input gradient.

    ``total``, the (dweights, dbias) of an earlier call over the preceding
    samples, is continued: the parameter gradients then sum over those samples
    and these, bit-identical to one call over the concatenated batch.
    """
    x, layer = cache
    t = x.shape[2]
    width, d = layer.width, layer.dilation
    prior_w, prior_b = (None, None) if total is None else total
    dw = np.zeros_like(layer.weights)
    for j in range(width):
        lag = (width - 1 - j) * d
        if lag < t:
            parts = dy[:, :, lag:] @ x[:, :, : t - lag].transpose(0, 2, 1)
            dw[:, :, j] = _summed(parts, None if prior_w is None else prior_w[:, :, j])
    return dw, _summed(dy.sum(axis=2), prior_b)


def conv_backward(dy: np.ndarray, cache, total=None, out=None, scratch=None):
    """Returns (dx [B, C_in, T], dweights [C_out, C_in, W], dbias [C_out]),
    the parameter gradients continuing ``total`` as in conv_param_grads.  Tap
    j's product fills ``scratch[:, :, lag:]``, its first lag columns zeroed,
    and dx's rows get it shifted back by lag; ``out`` and ``scratch`` are
    [B, C_in, T], as in conv_forward with dy for x.
    """
    x, layer = cache
    t = x.shape[2]
    w, width, d = layer.weights, layer.width, layer.dilation
    dx = np.matmul(w[:, :, width - 1].T, dy, out=out)
    tap, rows, tap_rows = _tap_rows(dx, scratch) if width > 1 else (None,) * 3
    for j in range(width - 1):
        lag = (width - 1 - j) * d
        if lag < t:
            np.matmul(w[:, :, j].T, dy[:, :, lag:], out=tap[:, :, lag:])
            tap[:, :, :lag] = 0.0
            rows[:, :-lag] += tap_rows[:, lag:]
    return (dx, *conv_param_grads(dy, cache, total))


def relu_forward(x: np.ndarray):
    """max(x, 0) written over x, which the caller must own; returns (x, x).

    The cache is the output: y > 0 exactly where x > 0 (NaN and -0.0 included).
    The zeros are one block of x's trailing shape, so the pass runs over
    contiguous rows.
    """
    np.maximum(x, np.zeros(x.shape[1:], x.dtype), out=x)
    return x, x


def relu_backward(dy: np.ndarray, cache, out=None):
    """dy where the cached ReLU output is positive, zero elsewhere, into ``out``
    when given; ``out`` may be the cache, as the mask is formed before the write."""
    return np.multiply(dy, cache > 0.0, out=out)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a [N, k] times b [m, k] (or each row's own [N, m, k]) over k: [N, m],
    each output row from its own row of a.  The product is made in C order, so
    the sum runs over contiguous k whatever the layout of b."""
    return np.multiply(a[:, None, :], b, order="C").sum(axis=2)


def dense_forward(x: np.ndarray, layer: Dense):
    """x [N, in] -> [N, out]."""
    if x.ndim != 2 or x.shape[1] != layer.weights.shape[1]:
        raise ParameterError(
            f"dense expects [N, {layer.weights.shape[1]}], got shape {x.shape}"
        )
    return rowdot(x, layer.weights) + layer.bias, x


def dense_backward(dy: np.ndarray, cache, layer: Dense, total=None):
    """Returns (dx [N, in], dweights [out, in], dbias [out]), continuing
    ``total`` as conv_backward does."""
    x = cache
    prior_w, prior_b = (None, None) if total is None else total
    dw = _summed(dy[:, :, None] * x[:, None, :], prior_w)
    db = _summed(dy.copy(), prior_b)
    return rowdot(dy, layer.weights.T), dw, db


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax in the input's dtype; rows sum to one for any finite input."""
    x = np.asarray(x)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Jacobian-vector product given the forward output y = softmax(x)."""
    inner = (dy * y).sum(axis=axis, keepdims=True)
    return y * (dy - inner)

