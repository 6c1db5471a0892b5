"""The two-input temporal-convolutional classifier.

The architecture is fixed, at toy scale on purpose: on the 2 I/Q channels, a
trunk 8 channels wide of 2 width-3 encoder convs and 4 residual blocks of two
width-2 convs at dilations 1, 2, 4 and 8, and a branch of 2 width-3 convs 4
channels wide.  ``ModelConfig`` holds the one setting, the segment length.

Main path: encoder convs -> residual dilated blocks -> 1x1 merge of the
stacked block outputs -> per-segment mean pooling -> per-segment class logits.

Branch path: a small conv stack applied to each segment independently produces
one scalar score per segment; a softmax over segments turns the scores into
spatial attention weights.

Head: the attention-weighted sum of per-segment logit columns is mapped by one
affine layer to the final logits.  Every layer runs in the parameters' dtype
(float32 from init_params); the entry points cast their inputs to it.

The conv trunk and the branch conv stack run over consecutive chunks of
samples, each small enough that its activations stay in a core's L2 cache;
the dense heads, the softmax and the loss see the whole batch.  Backward
continues each conv's weight and bias sums from chunk to chunk in sample
order, so every result is bit-identical to one pass over the whole batch.

The forward cache keeps each conv input once and nothing beside it: a ReLU
runs in place and its backward reads the output the next conv caches, and
the residual blocks write straight into the merge conv's input.
"""
from __future__ import annotations

from dataclasses import dataclass

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


# The fixed architecture: channel counts, then each conv stack's depth and width.
IN_CHANNELS, CHANNELS, BRANCH_CHANNELS = 2, 8, 4
ENCODER_LAYERS, ENCODER_WIDTH = 2, 3
N_BLOCKS, BLOCK_WIDTH = 4, 2
BRANCH_LAYERS, BRANCH_WIDTH = 2, 3
DILATIONS = tuple(2**i for i in range(N_BLOCKS))


@dataclass(frozen=True)
class ModelConfig:
    """Samples per attention segment, the one setting of the model."""

    segment_len: int = 100

    def __post_init__(self):
        value = self.segment_len
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterError(f"segment_len must be an integer, got {value!r}")
        if value < 1:
            raise ParameterError("segment_len must be >= 1")


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
    c = CHANNELS
    arrays: dict = {}
    in_ch = IN_CHANNELS
    for i in range(ENCODER_LAYERS):
        arrays |= layer_arrays(f"encoder.{i}", init_conv(rng, c, in_ch, ENCODER_WIDTH, 1))
        in_ch = c
    for i, d in enumerate(DILATIONS):
        for sub in ("conv1", "conv2"):
            arrays |= layer_arrays(f"tcn.blocks.{i}.{sub}", init_conv(rng, c, c, BLOCK_WIDTH, d))
    arrays |= layer_arrays("tcn.merge", init_conv(rng, c, c * N_BLOCKS, 1, 1))
    arrays |= layer_arrays("classifier1", init_dense(rng, n_classes, c))
    in_ch = IN_CHANNELS
    for i in range(BRANCH_LAYERS):
        arrays |= layer_arrays(f"branch.convs.{i}", init_conv(rng, BRANCH_CHANNELS, in_ch, BRANCH_WIDTH, 1))
        in_ch = BRANCH_CHANNELS
    arrays |= layer_arrays("branch.head", init_dense(rng, 1, BRANCH_CHANNELS))
    arrays |= layer_arrays("classifier2", init_dense(rng, n_classes, n_classes))
    return NetParams(config=config, arrays=arrays)


# Samples per chunk of the conv trunk: a chunk's [channels, T] activation holds
# at most this many floats (512 KiB in float32), so the activations a layer
# reads and writes stay in a 2 MB L2 instead of streaming through memory.
_CHUNK_ELEMS = 1 << 17


def _chunks(b: int, t: int) -> list:
    """Consecutive sample slices of a batch of b inputs of length t, in order."""
    step = max(1, _CHUNK_ELEMS // (CHANNELS * t))
    return [slice(lo, min(lo + step, b)) for lo in range(0, b, step)]


def _conv_grads(dy: np.ndarray, cache, grads: dict, name: str) -> np.ndarray:
    """conv_backward for layer ``name``, continuing the weight and bias sums an
    earlier chunk left in ``grads``; returns the input gradient."""
    w_key, b_key = f"{name}.weights", f"{name}.bias"
    total = (grads[w_key], grads[b_key]) if w_key in grads else None
    dx, grads[w_key], grads[b_key] = conv_backward(dy, cache, total)
    return dx


def _residual_forward(h: np.ndarray, params: NetParams, i: int, out=None):
    """TCN block i: o = h + conv2(relu(conv1(h))) at the block's dilation,
    written into ``out`` when given."""
    d = DILATIONS[i]
    y1, c1 = conv_forward(h, _conv(params, f"tcn.blocks.{i}.conv1", d))
    a1, r1 = relu_forward(y1)
    y2, c2 = conv_forward(a1, _conv(params, f"tcn.blocks.{i}.conv2", d))
    return np.add(h, y2, out=out), (c1, r1, c2)


def _residual_backward(dout: np.ndarray, cache, grads, prefix):
    c1, r1, c2 = cache
    da1 = _conv_grads(dout, c2, grads, f"{prefix}.conv2")
    dh = _conv_grads(relu_backward(da1, r1), c1, grads, f"{prefix}.conv1")
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
        dh = _conv_grads(relu_backward(dh, rc), cc, grads, f"{prefix}.{i}")
    return dh


def features_forward(params: NetParams, x: np.ndarray):
    """Encoder + TCN + merge: x [B, C_in, T] -> feat [B, channels, T], cache.

    Block i writes its output into channel slice i of the merge input, and
    block i+1 reads that slice: each block output is held once.
    """
    h, enc_caches = _stack_forward(params, "encoder", ENCODER_LAYERS, x)
    c = CHANNELS
    stacked = np.empty((h.shape[0], c * N_BLOCKS, h.shape[2]), dtype=h.dtype)
    block_caches = []
    for i in range(N_BLOCKS):
        h, cache = _residual_forward(h, params, i, stacked[:, i * c : (i + 1) * c])
        block_caches.append(cache)
    feat, merge_cache = conv_forward(stacked, _conv(params, "tcn.merge"))
    return feat, (enc_caches, block_caches, merge_cache)


def features_backward(params: NetParams, dfeat: np.ndarray, cache, grads) -> np.ndarray:
    """Input gradient of features_forward; adds the trunk's parameter gradients
    to any that an earlier chunk of samples left in ``grads``."""
    enc_caches, block_caches, merge_cache = cache
    dstacked = _conv_grads(dfeat, merge_cache, grads, "tcn.merge")
    c = CHANNELS
    douts = [dstacked[:, i * c : (i + 1) * c, :] for i in range(N_BLOCKS)]
    dh = np.zeros_like(douts[-1])
    for i in range(N_BLOCKS - 1, -1, -1):
        dh = _residual_backward(douts[i] + dh, block_caches[i], grads, f"tcn.blocks.{i}")
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
    score of segment s depends only on the samples inside segment s.  The conv
    stack runs chunk by chunk; the scoring head sees the whole batch.
    """
    length = params.config.segment_len
    b, c_in, t = xb.shape
    pooled = np.empty((b * s, BRANCH_CHANNELS), dtype=params.dtype)
    chunks = []
    for rows in _chunks(b, t):
        n = rows.stop - rows.start
        xs = xb[rows, :, : s * length].reshape(n, c_in, s, length)
        folded = xs.transpose(0, 2, 1, 3).reshape(n * s, c_in, length)
        h, caches = _stack_forward(params, "branch.convs", BRANCH_LAYERS, folded)
        pooled[rows.start * s : rows.stop * s] = h.mean(axis=2)
        chunks.append((rows, caches))
    scores, dcache = dense_forward(pooled, _dense(params, "branch.head"))
    return scores.reshape(b, s), (chunks, dcache)


def _branch_backward(params: NetParams, dscores: np.ndarray, cache, grads) -> None:
    chunks, dcache = cache
    length = params.config.segment_len
    b, s = dscores.shape
    dy = dscores.reshape(b * s, 1)
    dpooled, dw, db = dense_backward(dy, dcache, _dense(params, "branch.head"))
    _store(grads, "branch.head", dw, db)
    for rows, caches in chunks:
        n = rows.stop - rows.start
        dp = dpooled[rows.start * s : rows.stop * s, :, None] / length
        dh = np.broadcast_to(dp, (n * s, dp.shape[1], length))
        _stack_backward(dh, caches, grads, "branch.convs")


def spatial_attention_weights(params: NetParams, branch_x: np.ndarray) -> np.ndarray:
    """Softmax-normalized per-segment weights from the branch path: [B, C, T] -> [B, S]."""
    xb = np.asarray(branch_x, dtype=params.dtype)
    if xb.ndim != 3:
        raise ParameterError(f"expected [B, C, T], got shape {xb.shape}")
    if xb.shape[0] == 0:
        raise ParameterError(f"empty batch: input of shape {xb.shape}")
    scores, _ = _branch_forward(params, xb, _segment_count(params, xb.shape[2]))
    return softmax(scores, axis=1)


def model_forward(params: NetParams, main_x: np.ndarray, branch_x: np.ndarray):
    """Full forward pass in the parameters' dtype.

    main_x and branch_x are [B, C_in, T] over the same time grid, B >= 1.
    Returns (logits [B, n_classes], cache); the cache holds the attention
    weights under key 'attention'.  The conv trunk and the branch conv stack
    run over consecutive chunks of samples sized to stay in cache, and the
    heads over the whole batch; every result is bit-identical to one pass
    over the whole batch.
    """
    xm = np.asarray(main_x, dtype=params.dtype)
    xb = np.asarray(branch_x, dtype=params.dtype)
    if xm.ndim != 3 or xb.ndim != 3:
        raise ParameterError(f"inputs must be [B, C, T], got {xm.shape} and {xb.shape}")
    if xm.shape[0] != xb.shape[0] or xm.shape[2] != xb.shape[2]:
        raise ParameterError(
            f"main {xm.shape} and branch {xb.shape} must share batch size and length"
        )
    if xm.shape[0] == 0:
        raise ParameterError(f"empty batch: inputs of shape {xm.shape} and {xb.shape}")
    b, _, t = xm.shape
    s = _segment_count(params, t)
    length = params.config.segment_len
    c = CHANNELS

    pool = np.empty((b, c, s), dtype=params.dtype)
    trunk = []
    for rows in _chunks(b, t):
        feat, feat_cache = features_forward(params, xm[rows])
        pool[rows] = feat[:, :, : s * length].reshape(-1, c, s, length).mean(axis=3)
        trunk.append((rows, feat_cache))

    flat = pool.transpose(0, 2, 1).reshape(b * s, -1)
    seg_logits_flat, cls1_cache = dense_forward(flat, _dense(params, "classifier1"))
    seg_logits = seg_logits_flat.reshape(b, s, -1).transpose(0, 2, 1)  # [B, n_classes, S]

    scores, branch_cache = _branch_forward(params, xb, s)
    att = softmax(scores, axis=1)  # [B, S]

    z = np.einsum("bs,bos->bo", att, seg_logits)  # [B, n_classes]
    logits, cls2_cache = dense_forward(z, _dense(params, "classifier2"))

    cache = {
        "trunk": trunk,
        "cls1_cache": cls1_cache,
        "seg_logits": seg_logits,
        "branch_cache": branch_cache,
        "attention": att,
        "cls2_cache": cls2_cache,
        "dims": (b, s, t),
    }
    return logits, cache


def model_backward(params: NetParams, dlogits: np.ndarray, cache) -> dict:
    """Exact gradients of every parameter for the cached forward pass.

    The trunk runs backward chunk by chunk in sample order, each conv's weight
    and bias sums continuing from the chunk before, so every gradient is
    bit-identical to one backward pass over the whole batch.
    """
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
    _branch_backward(params, dscores, cache["branch_cache"], grads)

    dflat = dseg_logits.transpose(0, 2, 1).reshape(b * s, -1)
    dpool_flat, dw, db = dense_backward(dflat, cache["cls1_cache"], _dense(params, "classifier1"))
    _store(grads, "classifier1", dw, db)
    dpool = dpool_flat.reshape(b, s, -1).transpose(0, 2, 1)  # [B, C, S]

    c = CHANNELS
    for rows, feat_cache in cache["trunk"]:
        n = rows.stop - rows.start
        dfeat = np.zeros((n, c, t), dtype=params.dtype)
        dfeat[:, :, : s * length] = np.broadcast_to(
            dpool[rows, :, :, None] / length, (n, c, s, length)
        ).reshape(n, c, s * length)
        features_backward(params, dfeat, feat_cache, grads)
    return grads


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, dlogits in the logits' dtype)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ParameterError(f"logits must be [batch, classes], got shape {logits.shape}")
    b, k = logits.shape
    if b == 0:
        raise ParameterError(f"empty batch: logits of shape {logits.shape}")
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

