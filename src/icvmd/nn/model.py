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
affine layer to the final logits.  Every layer runs in the parameters' dtype,
layers.DTYPE, which signal_channels builds its stacks in; the entry points
cast an input of any other dtype to it.

A batch runs in consecutive chunks of samples, each small enough that its
activations stay in a core's L2 cache, through a workspace: a dict of
buffers, one per activation.  train() runs each chunk's forward, loss and
backward before the next chunk's forward, so its workspace holds one chunk's
set whatever the batch size, and no step after the first allocates an
activation; backward keeps its chunk-sized gradients there too, and the next
forward borrows them as tap scratch.  model_forward without a workspace runs
the chunks through one local to the call and keeps only logits and attention.

Every step after the conv stacks is row by row: the dense heads are
row-invariant products (see nn/layers.py), and the softmax, the attention sum
and the loss reduce within a row, so a sample's logits do not depend on the
rest of its batch.  Backward continues each conv's and dense layer's weight
and bias sums from chunk to chunk in sample order, so every result is
bit-identical to one pass over the whole batch.

The forward cache keeps each conv input once and nothing beside it: a ReLU
runs in place and its backward reads the output the next conv caches, and
the residual blocks write straight into the merge conv's input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, check_int
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
    rowdot,
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
        check_int("segment_len", self.segment_len, 1)


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


def init_params(config: ModelConfig, n_classes: int, seed: int) -> NetParams:
    """Seeded uniform(+-sqrt(1/fan_in)) initialization; layers draw in key order."""
    check_int("n_classes", n_classes, 2)
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


def _buf(ws: dict, key, shape: tuple, dtype) -> np.ndarray:
    """The first shape[0] rows of buffer ``key`` in ``ws``; made on first use,
    and made again if its row shape or dtype differs or it has too few rows."""
    a = ws.get(key)
    if a is None or a.shape[0] < shape[0] or a.shape[1:] != shape[1:] or a.dtype != dtype:
        a = ws[key] = np.empty(shape, dtype)
    return a[: shape[0]]


def _scratch(ws: dict, shape: tuple, dtype):
    """The tap scratch keyed by its row shape, if backward has made it."""
    return _buf(ws, shape[1:], shape, dtype) if shape[1:] in ws else None


def _conv_out(x: np.ndarray, layer: ConvLayer, ws: dict, key, out=None):
    """conv_forward into buffer ``key`` of ``ws`` (or into ``out``)."""
    shape = (x.shape[0], layer.weights.shape[0], x.shape[2])
    out = _buf(ws, key, shape, x.dtype) if out is None else out
    return conv_forward(x, layer, out, _scratch(ws, shape, x.dtype))


def _total(grads: dict, name: str):
    """The weight and bias sums an earlier chunk left in ``grads``, if any."""
    return (grads[f"{name}.weights"], grads[f"{name}.bias"]) if f"{name}.weights" in grads else None


def _conv_grads(dy: np.ndarray, cache, grads: dict, name: str, ws: dict) -> np.ndarray:
    """conv_backward for layer ``name``, continuing the weight and bias sums an
    earlier chunk left in ``grads``; returns the input gradient, in ``ws``."""
    x, layer = cache
    out = _buf(ws, ("d", *x.shape[1:]), x.shape, x.dtype)
    tap = _buf(ws, x.shape[1:], x.shape, x.dtype) if layer.width > 1 else None
    dx, grads[f"{name}.weights"], grads[f"{name}.bias"] = conv_backward(dy, cache, _total(grads, name), out, tap)
    return dx


def _dense_grads(params: NetParams, dy: np.ndarray, cache, grads: dict, name: str) -> np.ndarray:
    """dense_backward for layer ``name``, continuing as _conv_grads does."""
    layer = _dense(params, name)
    dx, grads[f"{name}.weights"], grads[f"{name}.bias"] = dense_backward(dy, cache, layer, _total(grads, name))
    return dx


def _relu_grads(dy: np.ndarray, cache, ws: dict) -> np.ndarray:
    return relu_backward(dy, cache, _buf(ws, ("r", *dy.shape[1:]), dy.shape, dy.dtype))


def _residual_forward(h: np.ndarray, params: NetParams, i: int, out=None, ws=None):
    """TCN block i: o = h + conv2(relu(conv1(h))) at the block's dilation,
    written into ``out`` when given (conv2 writes there, then h is added)."""
    d, ws = DILATIONS[i], {} if ws is None else ws
    name = f"tcn.blocks.{i}.conv1"
    y1, c1 = _conv_out(h, _conv(params, name, d), ws, name)
    a1, r1 = relu_forward(y1)
    y2, c2 = _conv_out(a1, _conv(params, f"tcn.blocks.{i}.conv2", d), ws, "y", out)
    return np.add(h, y2, out=y2), (c1, r1, c2)


def _residual_backward(dout: np.ndarray, cache, grads, prefix, ws):
    c1, r1, c2 = cache
    da1 = _conv_grads(dout, c2, grads, f"{prefix}.conv2", ws)
    dh = _conv_grads(_relu_grads(da1, r1, ws), c1, grads, f"{prefix}.conv1", ws)
    return np.add(dout, dh, out=dh)  # skip connection plus the conv path


def _stack_forward(params: NetParams, prefix: str, n_layers: int, h: np.ndarray, ws: dict):
    """Layers ``{prefix}.0`` .. ``{prefix}.{n_layers-1}``, each conv then ReLU."""
    caches = []
    for i in range(n_layers):
        y, cc = _conv_out(h, _conv(params, f"{prefix}.{i}"), ws, f"{prefix}.{i}")
        h, rc = relu_forward(y)
        caches.append((cc, rc))
    return h, caches


def _stack_backward(dh: np.ndarray, caches, grads, prefix: str, ws: dict) -> np.ndarray:
    for i in range(len(caches) - 1, -1, -1):
        cc, rc = caches[i]
        dh = _conv_grads(_relu_grads(dh, rc, ws), cc, grads, f"{prefix}.{i}", ws)
    return dh


def features_forward(params: NetParams, x: np.ndarray, ws=None):
    """Encoder + TCN + merge: x [B, C_in, T] -> feat [B, channels, T], cache.

    Block i writes its output into channel slice i of the merge input, and
    block i+1 reads that slice: each block output is held once.  Activations
    go into buffers of ``ws``, feat into its tap scratch if any.
    """
    ws = {} if ws is None else ws
    h, enc_caches = _stack_forward(params, "encoder", ENCODER_LAYERS, x, ws)
    c = CHANNELS
    stacked = _buf(ws, "tcn.merge", (h.shape[0], c * N_BLOCKS, h.shape[2]), h.dtype)
    block_caches = []
    for i in range(N_BLOCKS):
        h, cache = _residual_forward(h, params, i, stacked[:, i * c : (i + 1) * c], ws)
        block_caches.append(cache)
    feat, merge_cache = conv_forward(stacked, _conv(params, "tcn.merge"), _scratch(ws, h.shape, h.dtype))
    return feat, (enc_caches, block_caches, merge_cache)


def features_backward(params: NetParams, dfeat: np.ndarray, cache, grads, ws=None) -> np.ndarray:
    """Input gradient of features_forward; adds the trunk's parameter gradients
    to any that an earlier chunk of samples left in ``grads``.  Each input
    gradient goes into a buffer of ``ws``, valid until the next backward."""
    ws = {} if ws is None else ws
    enc_caches, block_caches, merge_cache = cache
    dstacked = _conv_grads(dfeat, merge_cache, grads, "tcn.merge", ws)
    c = CHANNELS
    dh = 0.0
    for i in range(N_BLOCKS - 1, -1, -1):
        dout = dstacked[:, i * c : (i + 1) * c, :]
        dout += dh  # adds +0.0 above the top block, as a zero array would
        dh = _residual_backward(dout, block_caches[i], grads, f"tcn.blocks.{i}", ws)
    return _stack_backward(dh, enc_caches, grads, "encoder", ws)


def _segment_count(params: NetParams, t: int) -> int:
    s = t // params.config.segment_len
    if s < 1:
        raise ParameterError(
            f"need at least one full segment: T={t} < segment_len={params.config.segment_len}"
        )
    return s


def _branch_forward(params: NetParams, xb: np.ndarray, s: int, ws: dict):
    """Per-segment scores: xb [B, C_in, T] -> scores [B, S], cache.

    Segments are processed independently (folded into the batch axis), so the
    score of segment s depends only on the samples inside segment s.
    """
    length = params.config.segment_len
    b, c_in, _ = xb.shape
    folded = _buf(ws, "branch.in", (b * s, c_in, length), params.dtype)
    xs = xb[:, :, : s * length].reshape(b, c_in, s, length)
    np.copyto(folded.reshape(b, s, c_in, length), xs.transpose(0, 2, 1, 3))
    h, caches = _stack_forward(params, "branch.convs", BRANCH_LAYERS, folded, ws)
    scores, dcache = dense_forward(h.mean(axis=2), _dense(params, "branch.head"))
    return scores.reshape(b, s), (caches, dcache)


def _branch_backward(params: NetParams, dscores: np.ndarray, cache, grads, ws: dict) -> None:
    caches, dcache = cache
    length = params.config.segment_len
    b, s = dscores.shape
    dpooled = _dense_grads(params, dscores.reshape(b * s, 1), dcache, grads, "branch.head")
    dh = np.broadcast_to(dpooled[:, :, None] / length, (b * s, dpooled.shape[1], length))
    _stack_backward(dh, caches, grads, "branch.convs", ws)


def _inputs(params: NetParams, *inputs) -> tuple:
    """The inputs in the parameters' dtype, [B, C, T] with one B >= 1 and one T,
    then their segment count."""
    xs = [np.asarray(x, dtype=params.dtype) for x in inputs]
    shapes = " and ".join(str(x.shape) for x in xs)
    if any(x.ndim != 3 for x in xs) or len({(x.shape[0], x.shape[2]) for x in xs}) > 1:
        raise ParameterError(f"inputs must be [B, C, T] with one batch size and length, got {shapes}")
    if xs[0].shape[0] == 0:
        raise ParameterError(f"empty batch: inputs of shape {shapes}")
    return (*xs, _segment_count(params, xs[0].shape[2]))


def _by_chunk(params: NetParams, run, *inputs) -> list:
    """``run(*rows, s, ws)`` on each _chunks slice of the checked inputs through
    one workspace local to the call; each of run's outputs for the whole batch."""
    *xs, s = _inputs(params, *inputs)
    b, _, t = xs[0].shape
    ws: dict = {}
    outs = [run(*(x[rows] for x in xs), s, ws) for rows in _chunks(b, t)]
    return [np.concatenate(parts) for parts in zip(*outs)]


def spatial_attention_weights(params: NetParams, branch_x: np.ndarray) -> np.ndarray:
    """Softmax-normalized per-segment weights from the branch path: [B, C, T] -> [B, S]."""
    return _by_chunk(params, lambda xb, s, ws: (softmax(_branch_forward(params, xb, s, ws)[0], axis=1),), branch_x)[0]


def _forward(params: NetParams, xm: np.ndarray, xb: np.ndarray, s: int, ws: dict):
    """Both paths over one block of rows, activations in ``ws``:
    returns ((logits, attention), cache)."""
    b, _, t = xm.shape
    length = params.config.segment_len
    # The branch first, so the trunk's output is not held while the branch runs.
    scores, branch_cache = _branch_forward(params, xb, s, ws)
    att = softmax(scores, axis=1)  # [B, S]

    feat, feat_cache = features_forward(params, xm, ws)
    pool = feat[:, :, : s * length].reshape(b, CHANNELS, s, length).mean(axis=3)
    flat = pool.transpose(0, 2, 1).reshape(b * s, -1)
    seg_logits_flat, cls1_cache = dense_forward(flat, _dense(params, "classifier1"))
    seg_logits = seg_logits_flat.reshape(b, s, -1)  # [B, S, n_classes]

    z = rowdot(att, seg_logits.transpose(0, 2, 1))  # [B, n_classes]
    logits, cls2_cache = dense_forward(z, _dense(params, "classifier2"))
    cache = {
        "workspace": ws,
        "feat_cache": feat_cache,
        "cls1_cache": cls1_cache,
        "seg_logits": seg_logits,
        "branch_cache": branch_cache,
        "attention": att,
        "cls2_cache": cls2_cache,
        "dims": (b, s, t),
    }
    return (logits, att), cache


def model_forward(params: NetParams, main_x: np.ndarray, branch_x: np.ndarray, workspace=None):
    """Full forward pass in the parameters' dtype.

    main_x and branch_x are [B, C_in, T] over the same time grid, B >= 1.
    Returns (logits [B, n_classes], cache); the cache holds the attention
    weights under key 'attention'.  Each row's logits are bit-identical to
    those of the row run alone.

    With a ``workspace`` (a dict, ``{}`` at first) the batch runs as one
    block, as train() hands it one chunk, and the cache refers to the
    workspace's buffers and to the inputs, valid until the next forward that
    uses the same workspace.  Without one the batch runs chunk by chunk
    through buffers local to the call; the cache holds only the attention,
    and model_backward refuses it.
    """
    if workspace is None:
        logits, att = _by_chunk(params, lambda xm, xb, s, ws: _forward(params, xm, xb, s, ws)[0], main_x, branch_x)
        return logits, {"attention": att}
    (logits, _), cache = _forward(params, *_inputs(params, main_x, branch_x), workspace)
    return logits, cache


def model_backward(params: NetParams, dlogits: np.ndarray, cache, grads=None) -> dict:
    """Exact gradients of every parameter for the cached forward pass.

    The cache must come from a model_forward given a workspace, and its
    input gradients stay in that workspace.  Every conv's and dense layer's
    weight and bias sums continue, in sample order, from those an earlier
    chunk of samples left in ``grads`` (a dict, filled and returned); so a
    minibatch run as consecutive chunks, each chunk's forward and backward in
    turn with one ``grads``, gets the gradients of one pass over all of it.
    """
    if "workspace" not in cache:
        raise ParameterError("this cache keeps no activations: pass a workspace (a dict) to model_forward to train")
    ws = cache["workspace"]
    b, s, t = cache["dims"]
    length = params.config.segment_len
    dlogits = np.asarray(dlogits, dtype=params.dtype)

    grads = {} if grads is None else grads
    dz = _dense_grads(params, dlogits, cache["cls2_cache"], grads, "classifier2")

    att = cache["attention"]
    datt = rowdot(dz, cache["seg_logits"])  # [B, S]
    dseg_logits = dz[:, None, :] * att[:, :, None]  # [B, S, n_classes]

    dscores = softmax_backward(datt, att, axis=1)
    _branch_backward(params, dscores, cache["branch_cache"], grads, ws)

    dpool_flat = _dense_grads(params, dseg_logits.reshape(b * s, -1), cache["cls1_cache"], grads, "classifier1")
    dpool = dpool_flat.reshape(b, s, -1).transpose(0, 2, 1)  # [B, C, S]

    dfeat = _buf(ws, "dfeat", (b, CHANNELS, t), params.dtype)
    dfeat[:, :, s * length :] = 0.0
    dfeat[:, :, : s * length].reshape(b, CHANNELS, s, length)[...] = dpool[:, :, :, None] / length
    features_backward(params, dfeat, cache["feat_cache"], grads, ws)
    return grads


def check_labels(labels: np.ndarray, k: int) -> None:
    """Raise ParameterError unless labels are integers in [0, k)."""
    if not np.issubdtype(labels.dtype, np.integer):  # rejects float and bool labels
        raise ParameterError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise ParameterError(f"labels must lie in [0, {k})")


def cross_entropy(logits: np.ndarray, labels: np.ndarray, batch_size=None):
    """Per-row cross-entropy; returns (losses [batch], dlogits), both in the
    logits' dtype.  dlogits is the gradient of the losses' sum divided by
    ``batch_size`` (default: the rows given, the gradient of their mean), so
    the chunks of a minibatch, each given the minibatch's size, get its rows."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ParameterError(f"logits must be [batch, classes], got shape {logits.shape}")
    b, k = logits.shape
    if b == 0:
        raise ParameterError(f"empty batch: logits of shape {logits.shape}")
    if labels.shape != (b,):
        raise ParameterError("labels must be [batch]")
    check_labels(labels, k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    p = np.exp(logp)
    onehot = np.zeros_like(p)
    onehot[np.arange(b), labels] = 1.0
    return -logp[np.arange(b), labels], (p - onehot) / (b if batch_size is None else batch_size)

