"""Adam training loop and attention transfer."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, check_int, check_real
from .model import NetParams, check_dataset, draw_params, minibatch_grads, param_shapes

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


def train(
    params: NetParams,
    main,
    branch,
    labels,
    cfg: TrainConfig,
    freeze_prefixes: tuple = (),
) -> TrainResult:
    """Run Adam on a copy of ``params``; the input object is never mutated.

    The inputs pass model.check_dataset even at epochs=0, so no model comes
    back from inputs no model can run (another channel count, shorter than a
    segment, not finite), and every result keeps the parameters' dtype.
    Each minibatch is one model.minibatch_grads step, all through one
    workspace (see nn/model.py) freed on return; every result, and the
    recorded loss (the mean of its rows'), is that of one whole-batch pass.
    Arrays whose key starts with any of ``freeze_prefixes`` receive no
    updates, so they come back bit-identical (when they hold every branch key,
    no branch gradient is formed); a prefix that matches no key is an error.
    learning_rate == 0 leaves every parameter bit-identical.  A non-finite
    minibatch loss or updated parameter raises ParameterError naming its
    epoch and step (both counted from 1), and no numpy warning.
    """
    main, branch, labels = check_dataset(params, main, branch, labels)
    prefixes = tuple(freeze_prefixes)
    unmatched = [f for f in prefixes if not any(k.startswith(f) for k in params.arrays)]
    if unmatched:
        raise ParameterError(f"freeze_prefixes {unmatched} match no parameter key")
    out = NetParams(params.config, {k: a.copy() for k, a in params.arrays.items()})
    live = {k: a for k, a in out.arrays.items() if not k.startswith(prefixes)}
    frozen_branch = not any(k.startswith("branch.") for k in live)  # then no branch gradient is formed

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
            step += 1
            with np.errstate(over="ignore", invalid="ignore"):  # the checks below name any overflow
                row_losses, grads = minibatch_grads(out, main, branch, labels, idx, ws, frozen_branch)
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
                del grads  # every key's, frozen ones too, so the next step never holds two sets
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
    heads = {k: shape for k, shape in param_shapes(n_classes_new).items() if k.startswith("classifier")}
    start = NetParams(pretrained.config, dict(pretrained.arrays))  # train() copies the arrays
    start.arrays |= {k: a.astype(start.dtype, copy=False) for k, a in draw_params(np.random.default_rng(head_seed), heads).items()}
    return train(start, main, branch, labels, cfg, freeze_prefixes=("branch.",))
