"""Causal dilated convolutions, dense layers, and their exact backward passes.

Every function computes in the dtype of its arrays and casts nothing; fresh
layers are in DTYPE.  Forward functions return (output, cache); the matching
backward consumes (upstream_grad, cache) and returns input and parameter
gradients.  Batched tensors are [batch, channels, time].

A convolution runs one BLAS matmul per kernel tap against a lag-shifted view
of the unpadded input, and its cache holds the caller's input by reference,
not a copy: do not modify that input in place before the backward pass.
The ReLU overwrites the array it is given (a conv output the caller owns)
and its cache is that output, which the next conv caches anyway; so a
training forward keeps each conv input once and nothing beside it.
conv_backward can continue the parameter gradients of an earlier call, so a
batch split into consecutive chunks of samples gets the same bytes as one
call over the whole batch.
The conv passes and relu_backward write into ``out`` when given, and each
lagged tap's product goes into ``scratch`` (shaped like the result) before
it is added, so a caller that reuses both allocates no activation; the bytes
are the same either way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, check_int

DTYPE = np.float32  # the classifier's: its fresh layers, loaded checkpoints and input stacks


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
    lag of T or more reaches no output and is skipped.  The bias is added as
    one [C_out, T] block, so the add runs over contiguous rows.  The cache
    holds x by reference (no copy), so x must not be modified in place
    before conv_backward.  ``out`` and ``scratch`` are [B, C_out, T] and
    must not overlap x.
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
    for j in range(width - 1):
        lag = (width - 1 - j) * d
        if lag < t:
            tap = None if scratch is None else scratch[:, :, : t - lag]
            y[:, :, lag:] += np.matmul(w[:, :, j], x[:, :, : t - lag], out=tap)
    y += np.repeat(layer.bias[:, None], t, axis=1)
    return y, (x, layer)


def _summed(parts: np.ndarray, prior) -> np.ndarray:
    """parts.sum(axis=0), continued from ``prior`` (the sum over earlier samples)
    when given.  NumPy sums a leading axis one row after another, so the result
    is bit-identical to one sum over the earlier samples' rows and these."""
    if prior is not None:
        parts[0] += prior
    return parts.sum(axis=0)


def conv_backward(dy: np.ndarray, cache, total=None, out=None, scratch=None):
    """Returns (dx [B, C_in, T], dweights [C_out, C_in, W], dbias [C_out]).

    ``total``, the (dweights, dbias) of an earlier call over the preceding
    samples, is continued: the parameter gradients then sum over those samples
    and these, bit-identical to one call over the concatenated batch.
    ``out`` and ``scratch`` are [B, C_in, T] and must not overlap dy.
    """
    x, layer = cache
    t = x.shape[2]
    w, width, d = layer.weights, layer.width, layer.dilation
    prior_w, prior_b = (None, None) if total is None else total
    dw = np.zeros_like(w)
    dx = np.matmul(w[:, :, width - 1].T, dy, out=out)
    for j in range(width):
        lag = (width - 1 - j) * d
        if lag < t:
            if lag:
                tap = None if scratch is None else scratch[:, :, : t - lag]
                dx[:, :, : t - lag] += np.matmul(w[:, :, j].T, dy[:, :, lag:], out=tap)
            parts = dy[:, :, lag:] @ x[:, :, : t - lag].transpose(0, 2, 1)
            dw[:, :, j] = _summed(parts, None if prior_w is None else prior_w[:, :, j])
    db = _summed(dy.sum(axis=2), prior_b)
    return dx, dw, db


def relu_forward(x: np.ndarray):
    """max(x, 0) written over x, which the caller must own; returns (x, x).

    The cache is the output: y > 0 exactly where x > 0 (NaN and -0.0 included).
    The zeros are one block of x's trailing shape, so the pass runs over
    contiguous rows.
    """
    np.maximum(x, np.zeros(x.shape[1:], x.dtype), out=x)
    return x, x


def relu_backward(dy: np.ndarray, cache, out=None):
    """dy where the cached ReLU output is positive, zero elsewhere (into ``out`` when given)."""
    return np.multiply(dy, cache > 0.0, out=out)


def dense_forward(x: np.ndarray, layer: Dense):
    """x [N, in] -> [N, out]."""
    if x.ndim != 2 or x.shape[1] != layer.weights.shape[1]:
        raise ParameterError(
            f"dense expects [N, {layer.weights.shape[1]}], got shape {x.shape}"
        )
    return x @ layer.weights.T + layer.bias, x


def dense_backward(dy: np.ndarray, cache, layer: Dense):
    x = cache
    dw = dy.T @ x
    db = dy.sum(axis=0)
    dx = dy @ layer.weights
    return dx, dw, db


def init_conv(rng: np.random.Generator, out_ch: int, in_ch: int, width: int, dilation: int) -> ConvLayer:
    """Uniform(+-sqrt(1/fan_in)) weights and biases, drawn in float64 and
    rounded once to DTYPE: this and init_dense fix every model's dtype.

    Biases are drawn (not zeroed) so no pre-activation sits exactly on the
    ReLU kink at init, which would poison finite-difference verification.
    """
    bound = np.sqrt(1.0 / (in_ch * width))
    w = rng.uniform(-bound, bound, (out_ch, in_ch, width)).astype(DTYPE)
    return ConvLayer(w, rng.uniform(-bound, bound, out_ch).astype(DTYPE), dilation)


def init_dense(rng: np.random.Generator, out_dim: int, in_dim: int) -> Dense:
    bound = np.sqrt(1.0 / in_dim)
    w = rng.uniform(-bound, bound, (out_dim, in_dim)).astype(DTYPE)
    return Dense(w, rng.uniform(-bound, bound, out_dim).astype(DTYPE))
