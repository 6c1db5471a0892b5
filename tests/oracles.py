"""Reference helpers that only the tests use."""
import numpy as np

from icvmd.errors import ParameterError
from icvmd.nn.layers import ConvLayer, conv_forward, receptive_field


def causal_dilated_conv(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Single-sequence convenience wrapper: x [C, T] -> [C_out, T]."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ParameterError(f"expected [channels, T], got shape {x.shape}")
    y, _ = conv_forward(x[None], layer)
    return y[0]


def impulse_probe(width: int, dilations, t_len: int | None = None) -> int:
    """Measure the receptive field empirically.

    Builds a chain of single-channel causal convs with all-ones weights, feeds
    a unit impulse, and returns the length of the nonzero output span.  With
    exact arithmetic on an all-ones kernel the span equals receptive_field().
    """
    field_ = receptive_field(width, dilations)
    if t_len is None:
        t_len = 2 * field_ + 8
    pos = field_ + 4
    x = np.zeros((1, 1, t_len))
    x[0, 0, pos] = 1.0
    h = x
    for d in dilations:
        layer = ConvLayer(np.ones((1, 1, width)), np.zeros(1), dilation=d)
        h, _ = conv_forward(h, layer)
    nz = np.flatnonzero(h[0, 0] != 0.0)
    if nz.size == 0:
        return 0
    if nz[0] != pos:
        raise AssertionError("causal chain produced output before the impulse")
    return int(nz[-1] - nz[0] + 1)
