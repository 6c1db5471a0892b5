"""The two-input temporal-convolutional classifier.

Main path: encoder convs -> residual dilated blocks -> 1x1 merge of the
stacked block outputs -> per-segment mean pooling -> per-segment class logits.

Branch path: a small conv stack applied to each segment independently produces
one scalar score per segment; a softmax over segments turns the scores into
spatial attention weights.

Head: the attention-weighted sum of per-segment logit columns is mapped by one
affine layer to the final logits.  Every layer runs in the parameters' dtype
(float32 from init_params); the entry points cast their inputs to it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ParameterError
from .attention import softmax, softmax_backward
from .layers import (
    ConvLayer,
    Dense,
    conv_backward,
    conv_forward,
    dense_backward,
    dense_forward,
    init_conv,
    init_dense,
    relu_backward,
    relu_forward,
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters (toy scale on purpose)."""

    in_channels: int = 2
    channels: int = 8
    encoder_layers: int = 2
    encoder_width: int = 3
    n_blocks: int = 4
    block_width: int = 2
    branch_channels: int = 4
    branch_width: int = 3
    branch_layers: int = 2
    segment_len: int = 100

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{f.name} must be an integer, got {value!r}")
            if value < 1:
                raise ParameterError(f"{f.name} must be >= 1")

    @property
    def dilations(self) -> list:
        return [2**i for i in range(self.n_blocks)]


@dataclass
class NetParams:
    """Every trainable array under its layer path (``encoder.0.weights``,
    ``tcn.blocks.1.conv2.bias``, ...), in one fixed order: encoder, TCN blocks,
    merge, classifier1, branch convs, branch head, classifier2."""

    config: ModelConfig
    arrays: dict

    @property
    def n_classes(self) -> int:
        return self.arrays["classifier1.weights"].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.arrays["classifier2.weights"].dtype


def layer_arrays(name: str, layer) -> dict:
    """The weights and bias of a ConvLayer or Dense under their parameter keys."""
    return {f"{name}.weights": layer.weights, f"{name}.bias": layer.bias}


def _conv(params: NetParams, name: str, dilation: int = 1) -> ConvLayer:
    a = params.arrays
    return ConvLayer(a[f"{name}.weights"], a[f"{name}.bias"], dilation)


def _dense(params: NetParams, name: str) -> Dense:
    return Dense(params.arrays[f"{name}.weights"], params.arrays[f"{name}.bias"])


def _store(grads: dict, name: str, dw: np.ndarray, db: np.ndarray) -> None:
    grads[f"{name}.weights"] = dw
    grads[f"{name}.bias"] = db


def init_params(config: ModelConfig, n_classes: int, seed: int) -> NetParams:
    """Seeded uniform(+-sqrt(1/fan_in)) initialization; layers draw in key order."""
    if n_classes < 2:
        raise ParameterError("n_classes must be >= 2")
    rng = np.random.default_rng(seed)
    c = config.channels
    arrays: dict = {}
    in_ch = config.in_channels
    for i in range(config.encoder_layers):
        arrays |= layer_arrays(f"encoder.{i}", init_conv(rng, c, in_ch, config.encoder_width, 1))
        in_ch = c
    for i, d in enumerate(config.dilations):
        for sub in ("conv1", "conv2"):
            arrays |= layer_arrays(f"tcn.blocks.{i}.{sub}", init_conv(rng, c, c, config.block_width, d))
    arrays |= layer_arrays("tcn.merge", init_conv(rng, c, c * config.n_blocks, 1, 1))
    arrays |= layer_arrays("classifier1", init_dense(rng, n_classes, c))
    in_ch = config.in_channels
    for i in range(config.branch_layers):
        conv = init_conv(rng, config.branch_channels, in_ch, config.branch_width, 1)
        arrays |= layer_arrays(f"branch.convs.{i}", conv)
        in_ch = config.branch_channels
    arrays |= layer_arrays("branch.head", init_dense(rng, 1, config.branch_channels))
    arrays |= layer_arrays("classifier2", init_dense(rng, n_classes, n_classes))
    return NetParams(config=config, arrays=arrays)


def _residual_forward(h: np.ndarray, params: NetParams, i: int):
    """TCN block i: o = h + conv2(relu(conv1(h))) at the block's dilation."""
    d = params.config.dilations[i]
    y1, c1 = conv_forward(h, _conv(params, f"tcn.blocks.{i}.conv1", d))
    a1, r1 = relu_forward(y1)
    y2, c2 = conv_forward(a1, _conv(params, f"tcn.blocks.{i}.conv2", d))
    return h + y2, (c1, r1, c2)


def _residual_backward(dout: np.ndarray, cache, grads, prefix):
    c1, r1, c2 = cache
    da1, dw2, db2 = conv_backward(dout, c2)
    dy1 = relu_backward(da1, r1)
    dh, dw1, db1 = conv_backward(dy1, c1)
    _store(grads, f"{prefix}.conv1", dw1, db1)
    _store(grads, f"{prefix}.conv2", dw2, db2)
    return dout + dh  # skip connection plus the conv path


def _stack_forward(params: NetParams, prefix: str, n_layers: int, h: np.ndarray):
    """Layers ``{prefix}.0`` .. ``{prefix}.{n_layers-1}``, each conv then ReLU."""
    caches = []
    for i in range(n_layers):
        y, cc = conv_forward(h, _conv(params, f"{prefix}.{i}"))
        h, rc = relu_forward(y)
        caches.append((cc, rc))
    return h, caches


def _stack_backward(dh: np.ndarray, caches, grads, prefix: str) -> np.ndarray:
    for i in range(len(caches) - 1, -1, -1):
        cc, rc = caches[i]
        dh, dw, db = conv_backward(relu_backward(dh, rc), cc)
        _store(grads, f"{prefix}.{i}", dw, db)
    return dh


def features_forward(params: NetParams, x: np.ndarray):
    """Encoder + TCN + merge: x [B, C_in, T] -> feat [B, channels, T], cache."""
    h, enc_caches = _stack_forward(params, "encoder", params.config.encoder_layers, x)
    block_caches = []
    block_outs = []
    for i in range(params.config.n_blocks):
        h, cache = _residual_forward(h, params, i)
        block_caches.append(cache)
        block_outs.append(h)
    stacked = np.concatenate(block_outs, axis=1)
    feat, merge_cache = conv_forward(stacked, _conv(params, "tcn.merge"))
    return feat, (enc_caches, block_caches, merge_cache)


def features_backward(params: NetParams, dfeat: np.ndarray, cache, grads) -> np.ndarray:
    enc_caches, block_caches, merge_cache = cache
    dstacked, dw, db = conv_backward(dfeat, merge_cache)
    _store(grads, "tcn.merge", dw, db)
    c = params.config.channels
    chunks = [dstacked[:, i * c : (i + 1) * c, :] for i in range(params.config.n_blocks)]
    dh = np.zeros_like(chunks[-1])
    for i in range(params.config.n_blocks - 1, -1, -1):
        dout = chunks[i] + dh
        dh = _residual_backward(dout, block_caches[i], grads, f"tcn.blocks.{i}")
    return _stack_backward(dh, enc_caches, grads, "encoder")


def _segment_count(params: NetParams, t: int) -> int:
    s = t // params.config.segment_len
    if s < 1:
        raise ParameterError(
            f"need at least one full segment: T={t} < segment_len={params.config.segment_len}"
        )
    return s


def _branch_forward(params: NetParams, xb: np.ndarray, s: int):
    """Per-segment scores: xb [B, C_in, T] -> scores [B, S], cache.

    Segments are processed independently (folded into the batch axis), so the
    score of segment s depends only on the samples inside segment s.
    """
    length = params.config.segment_len
    b = xb.shape[0]
    xs = xb[:, :, : s * length]
    folded = xs.reshape(b, xb.shape[1], s, length).transpose(0, 2, 1, 3)
    folded = folded.reshape(b * s, xb.shape[1], length)
    h, caches = _stack_forward(params, "branch.convs", params.config.branch_layers, folded)
    pooled = h.mean(axis=2)  # [B*S, branch_channels]
    scores, dcache = dense_forward(pooled, _dense(params, "branch.head"))
    return scores.reshape(b, s), (caches, dcache, h.shape, b, s)


def _branch_backward(params: NetParams, dscores: np.ndarray, cache, grads, t_full: int):
    caches, dcache, h_shape, b, s = cache
    length = params.config.segment_len
    dy = dscores.reshape(b * s, 1)
    dpooled, dw, db = dense_backward(dy, dcache, _dense(params, "branch.head"))
    _store(grads, "branch.head", dw, db)
    dh = np.broadcast_to(dpooled[:, :, None] / h_shape[2], h_shape)
    dh = _stack_backward(dh, caches, grads, "branch.convs")
    dxs = dh.reshape(b, s, -1, length).transpose(0, 2, 1, 3).reshape(b, -1, s * length)
    if s * length < t_full:
        dxs = np.pad(dxs, ((0, 0), (0, 0), (0, t_full - s * length)))
    return dxs


def spatial_attention_weights(params: NetParams, branch_x: np.ndarray) -> np.ndarray:
    """Softmax-normalized per-segment weights from the branch path: [B, C, T] -> [B, S]."""
    xb = np.asarray(branch_x, dtype=params.dtype)
    if xb.ndim != 3:
        raise ParameterError(f"expected [B, C, T], got shape {xb.shape}")
    scores, _ = _branch_forward(params, xb, _segment_count(params, xb.shape[2]))
    return softmax(scores, axis=1)


def model_forward(params: NetParams, main_x: np.ndarray, branch_x: np.ndarray):
    """Full forward pass in the parameters' dtype.

    main_x and branch_x are [B, C_in, T] over the same time grid.  Returns
    (logits [B, n_classes], cache); the cache holds the attention weights
    under key 'attention'.
    """
    xm = np.asarray(main_x, dtype=params.dtype)
    xb = np.asarray(branch_x, dtype=params.dtype)
    if xm.ndim != 3 or xb.ndim != 3:
        raise ParameterError(f"inputs must be [B, C, T], got {xm.shape} and {xb.shape}")
    if xm.shape[0] != xb.shape[0] or xm.shape[2] != xb.shape[2]:
        raise ParameterError(
            f"main {xm.shape} and branch {xb.shape} must share batch size and length"
        )
    b, _, t = xm.shape
    s = _segment_count(params, t)
    length = params.config.segment_len

    feat, feat_cache = features_forward(params, xm)
    trimmed = feat[:, :, : s * length]
    pool = trimmed.reshape(b, feat.shape[1], s, length).mean(axis=3)  # [B, C, S]

    flat = pool.transpose(0, 2, 1).reshape(b * s, -1)
    seg_logits_flat, cls1_cache = dense_forward(flat, _dense(params, "classifier1"))
    seg_logits = seg_logits_flat.reshape(b, s, -1).transpose(0, 2, 1)  # [B, n_classes, S]

    scores, branch_cache = _branch_forward(params, xb, s)
    att = softmax(scores, axis=1)  # [B, S]

    z = np.einsum("bs,bos->bo", att, seg_logits)  # [B, n_classes]
    logits, cls2_cache = dense_forward(z, _dense(params, "classifier2"))

    cache = {
        "feat_cache": feat_cache,
        "cls1_cache": cls1_cache,
        "seg_logits": seg_logits,
        "branch_cache": branch_cache,
        "attention": att,
        "cls2_cache": cls2_cache,
        "dims": (b, s, t),
    }
    return logits, cache


def model_backward(params: NetParams, dlogits: np.ndarray, cache) -> dict:
    """Exact gradients of every parameter for the cached forward pass."""
    b, s, t = cache["dims"]
    length = params.config.segment_len
    dlogits = np.asarray(dlogits, dtype=params.dtype)

    grads: dict = {}
    dz, dw, db = dense_backward(dlogits, cache["cls2_cache"], _dense(params, "classifier2"))
    _store(grads, "classifier2", dw, db)

    att = cache["attention"]
    seg_logits = cache["seg_logits"]
    datt = np.einsum("bo,bos->bs", dz, seg_logits)
    dseg_logits = np.einsum("bo,bs->bos", dz, att)

    dscores = softmax_backward(datt, att, axis=1)
    dxb = _branch_backward(params, dscores, cache["branch_cache"], grads, t)

    dflat = dseg_logits.transpose(0, 2, 1).reshape(b * s, -1)
    dpool_flat, dw, db = dense_backward(dflat, cache["cls1_cache"], _dense(params, "classifier1"))
    _store(grads, "classifier1", dw, db)
    dpool = dpool_flat.reshape(b, s, -1).transpose(0, 2, 1)  # [B, C, S]

    c = params.config.channels
    dfeat = np.zeros((b, c, t), dtype=params.dtype)
    dfeat[:, :, : s * length] = np.broadcast_to(
        dpool[:, :, :, None] / length, (b, c, s, length)
    ).reshape(b, c, s * length)
    dxm = features_backward(params, dfeat, cache["feat_cache"], grads)

    grads["_input_main"] = dxm
    grads["_input_branch"] = dxb
    return grads


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, dlogits in the logits' dtype)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ParameterError(f"logits must be [batch, classes], got shape {logits.shape}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ParameterError("labels must be [batch]")
    if labels.min() < 0 or labels.max() >= k:
        raise ParameterError(f"labels must lie in [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = float(-np.mean(logp[np.arange(b), labels]))
    p = np.exp(logp)
    onehot = np.zeros_like(p)
    onehot[np.arange(b), labels] = 1.0
    dlogits = (p - onehot) / b
    return loss, dlogits

