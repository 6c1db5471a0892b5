"""Adam training loop and attention transfer."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, ParameterError, check_int, check_real
from .layers import init_dense
from .model import (NetParams, _buf, _chunks, _segment_count, check_labels, cross_entropy, layer_arrays,
                    model_backward, model_forward)

# Adam moment decays and denominator guard (Kingma & Ba's defaults).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Adam step size, epoch count, minibatch size and the shuffling seed;
    the defaults are the recipe each few-shot classifier fits with."""

    learning_rate: float = 2e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)
        check_real("learning_rate", self.learning_rate, zero=True)


@dataclass
class TrainResult:
    params: NetParams
    history: list  # mean loss per epoch


def _check_dataset(main, branch, labels, params: NetParams):
    """The inputs cast to the parameters' dtype (one array when branch is main)."""
    same = branch is main
    main = np.asarray(main, dtype=params.dtype)
    branch = main if same else np.asarray(branch, dtype=params.dtype)
    labels = np.asarray(labels)
    if main.ndim != 3 or branch.shape != main.shape:
        raise ParameterError("main and branch inputs must both be [N, C, T]")
    if labels.shape != (main.shape[0],):
        raise ParameterError("labels must be [N]")
    if main.shape[0] == 0:
        raise DegenerateInputError("empty training set")
    check_labels(labels, params.n_classes)
    _segment_count(params, main.shape[2])  # also at epochs=0, so no model that no input can run comes back
    for name, x in (("main", main), ("branch", branch))[: 1 if same else 2]:
        if not np.isfinite([x.min(), x.max()]).all():  # NaN propagates, no mask; after the cast, so 1e39 counts
            raise ParameterError(f"{name} input holds a non-finite value in {params.dtype}")
    return main, branch, labels


def _gather(ws: dict, key: str, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[idx] in buffer ``key`` of ``ws``; mode "clip" writes straight into it
    (idx is in range), where "raise" would gather into a copy first."""
    return np.take(x, idx, axis=0, out=_buf(ws, key, (len(idx), *x.shape[1:]), x.dtype), mode="clip")


def train(
    params: NetParams,
    main,
    branch,
    labels,
    cfg: TrainConfig,
    freeze_prefixes: tuple = (),
) -> TrainResult:
    """Run Adam on a copy of ``params``; the input object is never mutated.

    The inputs are cast to the parameters' dtype, which every result keeps,
    unless already in it, and must be finite; one array passed as both
    ``main`` and ``branch`` is cast and gathered once.  A minibatch runs in
    model._chunks order, each chunk's forward, loss (scaled by the minibatch
    size) and backward before the next chunk's forward, through one workspace
    (see nn/model.py) that this call frees on return; every result, and the
    recorded loss (the mean of its rows'), is that of one whole-batch pass.
    Arrays whose key starts with any of ``freeze_prefixes`` receive no
    updates, so they come back bit-identical; a prefix that matches no key is
    an error.  learning_rate == 0 leaves every parameter bit-identical.  A
    non-finite minibatch loss or updated parameter raises ParameterError
    naming its epoch and step (both counted from 1), and no numpy warning.
    """
    main, branch, labels = _check_dataset(main, branch, labels, params)
    prefixes = tuple(freeze_prefixes)
    unmatched = [f for f in prefixes if not any(k.startswith(f) for k in params.arrays)]
    if unmatched:
        raise ParameterError(f"freeze_prefixes {unmatched} match no parameter key")
    out = NetParams(params.config, {k: a.copy() for k, a in params.arrays.items()})
    live = {k: a for k, a in out.arrays.items() if not k.startswith(prefixes)}

    m = {k: np.zeros_like(a) for k, a in live.items()}
    v = {k: np.zeros_like(a) for k, a in live.items()}
    step = 0
    rng = np.random.default_rng(cfg.seed)
    history = []
    ws: dict = {}
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(main))
        losses = []
        for start in range(0, len(main), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xm = _gather(ws, "main", main, idx)
            xb = xm if branch is main else _gather(ws, "branch", branch, idx)
            y, row_losses, grads = labels[idx], np.empty(len(idx), out.dtype), {}
            step += 1
            with np.errstate(over="ignore", invalid="ignore"):  # the checks below name any overflow
                for rows in _chunks(len(idx), main.shape[2]):
                    logits, cache = model_forward(out, xm[rows], xb[rows], ws)
                    row_losses[rows], dlogits = cross_entropy(logits, y[rows], len(idx))
                    grads = model_backward(out, dlogits, cache, grads)
                loss = float(np.mean(row_losses))
                if not np.isfinite(loss):
                    raise ParameterError(f"non-finite training loss at epoch {epoch}, step {step}; lower the learning rate")
                losses.append(loss)
                bc1, bc2 = 1.0 - _BETA1**step, 1.0 - _BETA2**step
                for k, a in live.items():
                    g = grads[k]
                    m[k] = _BETA1 * m[k] + (1.0 - _BETA1) * g
                    v[k] = _BETA2 * v[k] + (1.0 - _BETA2) * g * g
                    a -= cfg.learning_rate * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + _EPS)
                    if not np.isfinite(a).all():
                        raise ParameterError(f"non-finite {k} updated at epoch {epoch}, step {step}; lower the learning rate")
        history.append(float(np.mean(losses)))
    return TrainResult(params=out, history=history)


def sat_transfer(
    pretrained: NetParams,
    n_classes_new: int,
    main,
    branch,
    labels,
    cfg: TrainConfig,
    head_seed: int = 0,
) -> TrainResult:
    """Spatial-attention transfer: keep the attention branch frozen, swap the heads.

    The branch conv stack and its scoring head are reused bit-identically from
    the pretrained model, and the conv trunk fine-tunes from its pretrained
    weights.  Both classification heads are re-initialized for the new label
    set: keeping the old per-segment head would funnel the new classes through
    score directions tuned to the pretraining label set, which is exactly the
    specialization transfer is meant to discard.
    """
    check_int("n_classes_new", n_classes_new, 2)
    rng = np.random.default_rng(head_seed)
    start = NetParams(pretrained.config, dict(pretrained.arrays))  # train() copies the arrays
    trunk_channels = start.arrays["classifier1.weights"].shape[1]
    heads = layer_arrays("classifier1", init_dense(rng, n_classes_new, trunk_channels))
    heads |= layer_arrays("classifier2", init_dense(rng, n_classes_new, n_classes_new))
    start.arrays |= {k: a.astype(start.dtype, copy=False) for k, a in heads.items()}
    return train(start, main, branch, labels, cfg, freeze_prefixes=("branch.",))
