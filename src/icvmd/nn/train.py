"""Adam training loop and attention transfer."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, ParameterError
from .layers import init_dense
from .model import NetParams, cross_entropy, layer_arrays, model_backward, model_forward


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-3
    epochs: int = 20
    batch_size: int = 128
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise ParameterError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ParameterError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ParameterError("eps must be positive")


@dataclass
class TrainResult:
    params: NetParams
    history: list  # mean loss per epoch
    frozen: tuple = ()


def _check_dataset(main, branch, labels, params: NetParams):
    main = np.asarray(main, dtype=params.dtype)
    branch = np.asarray(branch, dtype=params.dtype)
    labels = np.asarray(labels)
    if main.ndim != 3 or branch.shape != main.shape:
        raise ParameterError("main and branch inputs must both be [N, C, T]")
    if labels.shape != (main.shape[0],):
        raise ParameterError("labels must be [N]")
    if main.shape[0] == 0:
        raise DegenerateInputError("empty training set")
    if not np.issubdtype(labels.dtype, np.integer):  # rejects float and bool labels
        raise ParameterError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= params.n_out:
        raise ParameterError(f"labels must lie in [0, {params.n_out})")
    return main, branch, labels


def train(
    params: NetParams,
    main,
    branch,
    labels,
    cfg: TrainConfig,
    freeze_prefixes: tuple = (),
) -> TrainResult:
    """Run Adam on a copy of ``params``; the input object is never mutated.

    The inputs are cast once to the parameters' dtype, which every result
    keeps.  Arrays whose key starts with any of ``freeze_prefixes`` receive no
    updates at all, so they come back bit-identical; a prefix that matches no
    key is an error.  learning_rate == 0 leaves every parameter bit-identical
    (useful as a determinism probe).
    """
    main, branch, labels = _check_dataset(main, branch, labels, params)
    prefixes = tuple(freeze_prefixes)
    unmatched = [f for f in prefixes if not any(k.startswith(f) for k in params.arrays)]
    if unmatched:
        raise ParameterError(f"freeze_prefixes {unmatched} match no parameter key")
    out = NetParams(params.config, {k: a.copy() for k, a in params.arrays.items()})
    frozen = tuple(k for k in out.arrays if k.startswith(prefixes))
    live = {k: a for k, a in out.arrays.items() if k not in frozen}

    m = {k: np.zeros_like(a) for k, a in live.items()}
    v = {k: np.zeros_like(a) for k, a in live.items()}
    step = 0
    rng = np.random.default_rng(cfg.seed)
    n = main.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits, cache = model_forward(out, main[idx], branch[idx])
            loss, dlogits = cross_entropy(logits, labels[idx])
            grads = model_backward(out, dlogits, cache)
            losses.append(loss)
            step += 1
            bc1 = 1.0 - cfg.beta1**step
            bc2 = 1.0 - cfg.beta2**step
            for k, a in live.items():
                g = grads[k]
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
                a -= cfg.learning_rate * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + cfg.eps)
        history.append(float(np.mean(losses)))
    return TrainResult(params=out, history=history, frozen=frozen)


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
    if n_classes_new < 2:
        raise ParameterError("n_classes_new must be >= 2")
    rng = np.random.default_rng(head_seed)
    start = NetParams(pretrained.config, dict(pretrained.arrays))  # train() copies the arrays
    trunk_channels = start.arrays["classifier1.weights"].shape[1]
    heads = layer_arrays("classifier1", init_dense(rng, n_classes_new, trunk_channels))
    heads |= layer_arrays("classifier2", init_dense(rng, n_classes_new, n_classes_new))
    start.arrays |= {k: a.astype(start.dtype, copy=False) for k, a in heads.items()}
    return train(start, main, branch, labels, cfg, freeze_prefixes=("branch.",))
