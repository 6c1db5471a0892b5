"""Numerically stable softmax and its backward pass."""
from __future__ import annotations

import numpy as np


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

