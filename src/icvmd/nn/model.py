"""The two-input temporal-convolutional classifier.

The architecture is fixed, at toy scale on purpose: on the 2 I/Q channels, a
trunk 8 channels wide of 2 width-3 encoder convs and 4 residual blocks of two
width-2 convs at dilations 1, 2, 4 and 8, and a branch of 2 width-3 convs 4
channels wide.  ``ModelConfig.segments`` cuts every input into attention segments.

Main path: encoder convs -> residual dilated blocks -> 1x1 merge of the
stacked block outputs -> per-segment mean pooling -> per-segment class logits.

Branch path: a small conv stack applied to each segment independently produces
one scalar score per segment; a softmax over segments turns the scores into
spatial attention weights.

Head: the attention-weighted sum of per-segment logit columns is mapped by one
affine layer to the final logits.  Every layer runs in the parameters' dtype,
layers.DTYPE, which signal_channels builds its stacks in.  Every entry point
checks its inputs by _inputs, which casts them once, before any layer runs.

A batch runs in consecutive chunks of samples, each small enough that its
activations stay in a core's L2 cache, through a workspace: a dict of
buffers, one per activation.  minibatch_grads, a training step, runs each
chunk's gather, forward, loss and backward before the next chunk's, so its
workspace holds one chunk's set whatever the batch size, and no step after
the first allocates an activation; backward keeps its chunk-sized gradients
there too, and the next forward borrows them as tap scratch.  model_forward
without a workspace runs the chunks through one local to the call.

Backward forms only the gradients something reads.  The first encoder conv
and the first branch conv get their parameter gradients alone
(layers.conv_param_grads), as no caller reads an input gradient of the
model.  The 1x1 merge conv gets its parameter gradients alone too: each
residual block's upstream gradient is that block's 8 columns of the merge
weights times the merge's output gradient, formed just before the block's
backward, so the merge input's [chunk, 32, T] gradient is never held whole.

Every step after the conv stacks is row by row: the dense heads are
row-invariant products (see nn/layers.py), and the softmax, the attention sum
and the loss reduce within a row, so a sample's logits do not depend on the
rest of its batch.  Backward continues each conv's and dense layer's weight
and bias sums from chunk to chunk in sample order, so every result is
bit-identical to one pass over the whole batch.

The forward cache keeps each conv input once and nothing beside it: a ReLU
runs in place and its backward reads the output the next conv caches, and
the residual blocks write straight into the merge conv's input.  Backward
writes each gradient over an activation it has finished reading (a ReLU's
output, a block's slice of the merge input), so a cache serves one backward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, ParameterError, check_int
from .layers import (
    DTYPE,
    ConvLayer,
    Dense,
    conv_backward,
    conv_forward,
    conv_param_grads,
    dense_backward,
    dense_forward,
    relu_backward,
    relu_forward,
    rowdot,
    softmax,
    softmax_backward,
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

    def segments(self, t: int) -> tuple:
        """(count, length) of t >= 1 samples' segments: t // segment_len full ones, or one of all t below one."""
        check_int("t", t, 1)
        return (t // self.segment_len, self.segment_len) if t >= self.segment_len else (1, t)


@dataclass
class NetParams:
    """Every trainable array under its layer path (``encoder.0.weights``,
    ``tcn.blocks.1.conv2.bias``, ...), in param_shapes order."""

    config: ModelConfig
    arrays: dict

    @property
    def n_classes(self) -> int:
        return self.arrays["classifier1.weights"].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.arrays["classifier2.weights"].dtype


def _conv(params: NetParams, name: str, dilation: int = 1) -> ConvLayer:
    a = params.arrays
    return ConvLayer(a[f"{name}.weights"], a[f"{name}.bias"], dilation)


def _dense(params: NetParams, name: str) -> Dense:
    return Dense(params.arrays[f"{name}.weights"], params.arrays[f"{name}.bias"])


def param_shapes(n_classes: int) -> dict:
    """Every parameter key of an n_classes model with its shape, in NetParams
    order: each layer's weights [out, in] or [out, in, width], then its bias."""
    check_int("n_classes", n_classes, 2)
    c, b = CHANNELS, BRANCH_CHANNELS
    layers = [(f"encoder.{i}", (c, c if i else IN_CHANNELS, ENCODER_WIDTH)) for i in range(ENCODER_LAYERS)]
    layers += [(f"tcn.blocks.{i}.{sub}", (c, c, BLOCK_WIDTH)) for i in range(N_BLOCKS) for sub in ("conv1", "conv2")]
    layers += [("tcn.merge", (c, c * N_BLOCKS, 1)), ("classifier1", (n_classes, c))]
    layers += [(f"branch.convs.{i}", (b, b if i else IN_CHANNELS, BRANCH_WIDTH)) for i in range(BRANCH_LAYERS)]
    layers += [("branch.head", (1, b)), ("classifier2", (n_classes, n_classes))]
    return {key: shape for name, w in layers for key, shape in ((f"{name}.weights", w), (f"{name}.bias", w[:1]))}


def draw_params(rng: np.random.Generator, shapes: dict) -> dict:
    """Uniform(+-sqrt(1/fan_in)) arrays for a param_shapes table, drawn in its
    order in float64 and rounded once to DTYPE, every model's dtype.  A bias
    takes its weights' bound and is drawn, not zeroed, so no pre-activation
    sits on the ReLU kink at init, which would poison finite differences."""
    arrays = {}
    for key, shape in shapes.items():
        if key.endswith(".weights"):
            bound = np.sqrt(1.0 / np.prod(shape[1:]))
        arrays[key] = rng.uniform(-bound, bound, shape).astype(DTYPE)
    return arrays


def init_params(config: ModelConfig, n_classes: int, seed: int) -> NetParams:
    """Seeded draw_params over param_shapes(n_classes)."""
    return NetParams(config, draw_params(np.random.default_rng(seed), param_shapes(n_classes)))


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


def _grads(grads: dict, name: str, backward, *args, **kw):
    """``backward(*args, total=..., **kw)`` for layer ``name``, continuing the
    weight and bias sums an earlier chunk left in ``grads``: stores the new
    sums there and returns the input gradient, if ``backward`` forms one."""
    w, b = f"{name}.weights", f"{name}.bias"
    *dx, grads[w], grads[b] = backward(*args, total=(grads[w], grads[b]) if w in grads else None, **kw)
    return dx[0] if dx else None


def _conv_grads(dy: np.ndarray, cache, grads: dict, name: str, ws: dict) -> np.ndarray:
    """conv_backward for layer ``name`` through _grads; the input gradient goes into ``ws``."""
    x, layer = cache
    out = _buf(ws, ("d", *x.shape[1:]), x.shape, x.dtype)
    tap = _buf(ws, x.shape[1:], x.shape, x.dtype) if layer.width > 1 else None
    return _grads(grads, name, conv_backward, dy, cache, out=out, scratch=tap)


def _residual_forward(h: np.ndarray, params: NetParams, i: int, out, ws: dict):
    """TCN block i: o = h + conv2(relu(conv1(h))) at the block's dilation,
    written into ``out`` unless it is None (conv2 writes there, then h is added)."""
    d = DILATIONS[i]
    name = f"tcn.blocks.{i}.conv1"
    y1, c1 = _conv_out(h, _conv(params, name, d), ws, name)
    a1, r1 = relu_forward(y1)
    y2, c2 = _conv_out(a1, _conv(params, f"tcn.blocks.{i}.conv2", d), ws, "y", out)
    return np.add(h, y2, out=y2), (c1, r1, c2)


def _residual_backward(dout: np.ndarray, cache, grads, prefix, ws):
    c1, r1, c2 = cache
    da1 = _conv_grads(dout, c2, grads, f"{prefix}.conv2", ws)
    dh = _conv_grads(relu_backward(da1, r1, out=r1), c1, grads, f"{prefix}.conv1", ws)
    return np.add(dout, dh, out=dh)  # skip connection plus the conv path


def _stack_forward(params: NetParams, prefix: str, n_layers: int, h: np.ndarray, ws: dict):
    """Layers ``{prefix}.0`` .. ``{prefix}.{n_layers-1}``, each conv then ReLU."""
    caches = []
    for i in range(n_layers):
        y, cc = _conv_out(h, _conv(params, f"{prefix}.{i}"), ws, f"{prefix}.{i}")
        h, rc = relu_forward(y)
        caches.append((cc, rc))
    return h, caches


def _stack_backward(dh: np.ndarray, caches, grads, prefix: str, ws: dict) -> None:
    """The stack's parameter gradients; the input gradient of ``{prefix}.0``
    is not formed, as no caller reads it."""
    for i in range(len(caches) - 1, 0, -1):
        cc, rc = caches[i]
        dh = _conv_grads(relu_backward(dh, rc, out=rc), cc, grads, f"{prefix}.{i}", ws)
    cc, rc = caches[0]
    _grads(grads, f"{prefix}.0", conv_param_grads, relu_backward(dh, rc, out=rc), cc)


def features_forward(params: NetParams, x: np.ndarray, ws: dict):
    """Encoder + TCN + merge: x [B, C_in, T] -> feat [B, channels, T], cache.

    Block i writes its output into channel slice i of the merge input, and
    block i+1 reads that slice: each block output is held once.  Activations
    go into buffers of ``ws``, feat into its tap scratch if any.
    """
    h, enc_caches = _stack_forward(params, "encoder", ENCODER_LAYERS, x, ws)
    c = CHANNELS
    stacked = _buf(ws, "tcn.merge", (h.shape[0], c * N_BLOCKS, h.shape[2]), h.dtype)
    block_caches = []
    for i in range(N_BLOCKS):
        h, cache = _residual_forward(h, params, i, stacked[:, i * c : (i + 1) * c], ws)
        block_caches.append(cache)
    feat, merge_cache = conv_forward(stacked, _conv(params, "tcn.merge"), _scratch(ws, h.shape, h.dtype))
    return feat, (enc_caches, block_caches, merge_cache)


def _features_backward(params: NetParams, dfeat: np.ndarray, cache, grads, ws: dict) -> None:
    """Adds the trunk's parameter gradients to any that an earlier chunk of
    samples left in ``grads``, and returns nothing: no caller reads the
    trunk's input gradient, so it is not formed.  The merge input's gradient
    is formed one block at a time, block i's 8 channels of it being its
    columns of the 1x1 merge weights times dfeat, written over block i's
    slice of the merge input, which nothing reads by then; the other
    gradients go into buffers of ``ws`` or over the ReLU outputs they mask."""
    enc_caches, block_caches, merge_cache = cache
    _grads(grads, "tcn.merge", conv_param_grads, dfeat, merge_cache)
    stacked, w, c = merge_cache[0], merge_cache[1].weights[:, :, 0], CHANNELS
    dh = 0.0
    for i in range(N_BLOCKS - 1, -1, -1):
        dout = np.matmul(w[:, i * c : (i + 1) * c].T, dfeat, out=stacked[:, i * c : (i + 1) * c])
        dout += dh  # adds +0.0 above the top block, as a zero array would
        dh = _residual_backward(dout, block_caches[i], grads, f"tcn.blocks.{i}", ws)
    _stack_backward(dh, enc_caches, grads, "encoder", ws)


def _branch_forward(params: NetParams, xb: np.ndarray, seg: tuple, ws: dict):
    """Per-segment scores: xb [B, C_in, T] cut into seg = (S, length) -> scores [B, S], cache.

    Segments are processed independently (folded into the batch axis), so the
    score of segment s depends only on the samples inside segment s.
    """
    s, length = seg
    b, c_in, _ = xb.shape
    folded = _buf(ws, "branch.in", (b * s, c_in, length), params.dtype)
    xs = xb[:, :, : s * length].reshape(b, c_in, s, length)
    np.copyto(folded.reshape(b, s, c_in, length), xs.transpose(0, 2, 1, 3))
    h, caches = _stack_forward(params, "branch.convs", BRANCH_LAYERS, folded, ws)
    scores, dcache = dense_forward(h.mean(axis=2), _dense(params, "branch.head"))
    return scores.reshape(b, s), (caches, dcache)


def _branch_backward(params: NetParams, dscores: np.ndarray, length: int, cache, grads, ws: dict) -> None:
    caches, dcache = cache
    b, s = dscores.shape
    dpooled = _grads(grads, "branch.head", dense_backward, dscores.reshape(b * s, 1), dcache, _dense(params, "branch.head"))
    dh = np.broadcast_to(dpooled[:, :, None] / length, (b * s, dpooled.shape[1], length))
    _stack_backward(dh, caches, grads, "branch.convs", ws)


def _inputs(params: NetParams, **inputs) -> tuple:
    """The named inputs (main, branch or both) in the parameters' dtype, each
    distinct array cast and checked once, then ModelConfig.segments of their T.
    Refuses complex input and all but [B, IN_CHANNELS, T] with one B >= 1 and
    one T >= 1, finite after the cast (a float64 1e39 is not), naming the input and row."""
    cast: dict = {}  # id of each distinct array given -> its first name, its cast
    for name, x in inputs.items():
        if np.iscomplexobj(x):  # before the cast, which would drop the imaginary part
            raise ParameterError(f"{name} input must be real, got dtype {np.asarray(x).dtype}")
        if id(x) not in cast:
            cast[id(x)] = name, np.asarray(x, dtype=params.dtype)
    xs = [cast[id(x)][1] for x in inputs.values()]
    shapes = " and ".join(str(x.shape) for x in xs)
    if any(x.ndim != 3 or x.shape[1] != IN_CHANNELS for x in xs) or len({(x.shape[0], x.shape[2]) for x in xs}) > 1:
        raise ParameterError(f"inputs must be [B, C, T] with C = {IN_CHANNELS}, one batch size and one length, got {shapes}")
    b, _, t = xs[0].shape
    if b == 0 or t == 0:
        raise ParameterError(f"{'empty batch' if b == 0 else 'no samples'}: {' and '.join(inputs)} inputs of shape {shapes}")
    for name, x in cast.values():
        if not np.isfinite([x.min(), x.max()]).all():  # NaN propagates: a pass over rows only on failure
            row = int(np.isfinite(x.reshape(b, -1)).all(axis=1).argmin())
            raise ParameterError(f"{name} input holds a non-finite value in {params.dtype} in row {row} of {b}")
    return (*xs, params.config.segments(t))


def _by_chunk(params: NetParams, run, **inputs) -> list:
    """``run(*rows, seg, ws)`` on each _chunks slice of the checked inputs through
    one workspace local to the call; each of run's outputs for the whole batch."""
    *xs, seg = _inputs(params, **inputs)
    b, _, t = xs[0].shape
    ws: dict = {}
    outs = [run(*(x[rows] for x in xs), seg, ws) for rows in _chunks(b, t)]
    return [np.concatenate(parts) for parts in zip(*outs)]


def spatial_attention_weights(params: NetParams, branch_x: np.ndarray) -> np.ndarray:
    """Softmax-normalized per-segment weights from the branch path: [B, C, T] -> [B, S]."""
    return _by_chunk(params, lambda xb, seg, ws: (softmax(_branch_forward(params, xb, seg, ws)[0], axis=1),), branch=branch_x)[0]


def _forward(params: NetParams, xm: np.ndarray, xb: np.ndarray, seg: tuple, ws: dict):
    """Both paths over one block of rows cut into seg = (S, length), activations
    in ``ws``: returns ((logits, attention), cache)."""
    b, _, t = xm.shape
    s, length = seg
    # The branch first, so the trunk's output is not held while the branch runs.
    scores, branch_cache = _branch_forward(params, xb, seg, ws)
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
        "dims": (b, s, length, t),
    }
    return (logits, att), cache


def model_forward(params: NetParams, main_x: np.ndarray, branch_x: np.ndarray, workspace=None):
    """Full forward pass in the parameters' dtype.

    main_x and branch_x pass _inputs: [B, C_in, T] on one time grid, finite.
    Returns (logits [B, n_classes], cache); the cache holds the attention
    weights under key 'attention'.  Each row's logits are bit-identical to
    those of the row run alone.

    With a ``workspace`` (a dict, ``{}`` at first) the batch runs as one
    block, as minibatch_grads hands it one chunk, and the cache refers to the
    workspace's buffers and to the inputs, valid until the next forward that
    uses the same workspace and serves one backward.  Without one the batch
    runs chunk by chunk through buffers local to the call; the cache holds
    only the attention, and model_backward refuses it.
    """
    if workspace is None:
        logits, att = _by_chunk(params, lambda xm, xb, seg, ws: _forward(params, xm, xb, seg, ws)[0], main=main_x, branch=branch_x)
        return logits, {"attention": att}
    (logits, _), cache = _forward(params, *_inputs(params, main=main_x, branch=branch_x), workspace)
    return logits, cache


def model_backward(params: NetParams, dlogits: np.ndarray, cache, grads: dict, frozen_branch: bool = False) -> dict:
    """Exact gradients of every parameter for the cached forward pass, or with
    ``frozen_branch`` of every parameter but the branch's: the attention's
    gradient, which only the branch reads, and the branch backward are skipped.

    The cache must come from a model_forward given a workspace and serves
    one call, as the layers' gradients go into that workspace or over the
    activations (a second call raises ParameterError).  Every conv's and
    dense layer's weight and bias sums continue, in sample order, from those
    an earlier chunk of samples left in ``grads`` (a dict, ``{}`` at first,
    filled and returned); so a minibatch run as consecutive chunks, each
    chunk's forward and backward in turn with one ``grads``, gets the
    gradients of one pass.
    """
    if cache.get("workspace") is None:  # backward marks the cache it consumes with None
        raise ParameterError("this cache was already used by a backward, which overwrote its activations: run model_forward again"
                             if "workspace" in cache else "this cache keeps no activations: pass a workspace (a dict) to model_forward to train")
    ws, cache["workspace"] = cache["workspace"], None
    b, s, length, t = cache["dims"]
    dlogits = np.asarray(dlogits, dtype=params.dtype)

    dz = _grads(grads, "classifier2", dense_backward, dlogits, cache["cls2_cache"], _dense(params, "classifier2"))

    att = cache["attention"]
    if not frozen_branch:
        dscores = softmax_backward(rowdot(dz, cache["seg_logits"]), att, axis=1)  # through datt [B, S]
        _branch_backward(params, dscores, length, cache["branch_cache"], grads, ws)
    dseg = (dz[:, None, :] * att[:, :, None]).reshape(b * s, -1)  # [B*S, n_classes]

    dpool_flat = _grads(grads, "classifier1", dense_backward, dseg, cache["cls1_cache"], _dense(params, "classifier1"))
    dpool = dpool_flat.reshape(b, s, -1).transpose(0, 2, 1)  # [B, C, S]

    dfeat = _buf(ws, "dfeat", (b, CHANNELS, t), params.dtype)
    dfeat[:, :, s * length :] = 0.0
    dfeat[:, :, : s * length].reshape(b, CHANNELS, s, length)[...] = dpool[:, :, :, None] / length
    _features_backward(params, dfeat, cache["feat_cache"], grads, ws)
    return grads


def check_labels(labels: np.ndarray, n: int, k: int) -> None:
    """Raise ParameterError unless labels are [n] integers in [0, k)."""
    if labels.shape != (n,):
        raise ParameterError(f"labels must be [{n}], got shape {labels.shape}")
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
    check_labels(labels, b, k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    p = np.exp(logp)
    onehot = np.zeros_like(p)
    onehot[np.arange(b), labels] = 1.0
    return -logp[np.arange(b), labels], (p - onehot) / (b if batch_size is None else batch_size)


def check_dataset(params: NetParams, main, branch, labels) -> tuple:
    """(main, branch, labels) checked as a non-empty training set, the inputs
    by _inputs (one array when branch is main), the labels as [N] classes."""
    if np.shape(main)[:1] == (0,):
        raise DegenerateInputError("empty training set")
    main, branch, _ = _inputs(params, main=main, branch=branch)
    labels = np.asarray(labels)
    check_labels(labels, len(main), params.n_classes)
    return main, branch, labels


def _gather(ws: dict, key: str, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[idx] in buffer ``key`` of ``ws``; mode "clip" writes straight into it
    (idx is in range), where "raise" would gather into a copy first."""
    return np.take(x, idx, axis=0, out=_buf(ws, key, (len(idx), *x.shape[1:]), x.dtype), mode="clip")


def minibatch_grads(params: NetParams, main, branch, labels, idx, ws: dict, frozen_branch: bool = False) -> tuple:
    """(each row's loss, the gradients) of the mean cross-entropy over rows
    ``idx`` of a check_dataset training set, those of the branch left out with
    ``frozen_branch`` (see model_backward).  Each _chunks slice of idx runs
    its gather into ``ws`` (a dict, ``{}`` at first), forward, loss and backward
    before the next slice's, bit-identical to one whole-batch pass."""
    y, losses, grads = labels[idx], np.empty(len(idx), params.dtype), {}
    for rows in _chunks(len(idx), main.shape[2]):
        xm = _gather(ws, "main", main, idx[rows])
        xb = xm if branch is main else _gather(ws, "branch", branch, idx[rows])
        logits, cache = model_forward(params, xm, xb, ws)
        losses[rows], dlogits = cross_entropy(logits, y[rows], len(idx))
        grads = model_backward(params, dlogits, cache, grads, frozen_branch)
    return losses, grads
