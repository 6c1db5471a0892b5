import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icvmd.errors import ParameterError
from icvmd.nn.attention import softmax, softmax_backward
from icvmd.nn.layers import (
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
from oracles import causal_dilated_conv, impulse_probe, receptive_field, scaled_softmax_attention


# ------------------------------------------------------------------- conv


def test_conv_hand_case_width3():
    # Kernel taps: oldest lag gets weight 1, middle 0, current 1:
    # y_t = x_{t-2} + x_t.
    layer = ConvLayer(np.array([[[1.0, 0.0, 1.0]]]), np.zeros(1))
    y = causal_dilated_conv(np.array([[1.0, 2.0, 3.0, 4.0]]), layer)
    assert np.array_equal(y, [[1.0, 2.0, 4.0, 6.0]])


def test_conv_hand_case_dilation2():
    # Width 2, dilation 2: y_t = 2*x_{t-2} + x_t.
    layer = ConvLayer(np.array([[[2.0, 1.0]]]), np.zeros(1), dilation=2)
    y = causal_dilated_conv(np.array([[1.0, 2.0, 3.0, 4.0]]), layer)
    assert np.array_equal(y, [[1.0, 2.0, 5.0, 8.0]])


def test_conv_bias_and_channels():
    w = np.zeros((2, 2, 1))
    w[0, 0, 0] = 1.0  # out0 = in0
    w[1, 1, 0] = -1.0  # out1 = -in1
    layer = ConvLayer(w, np.array([10.0, 20.0]))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = causal_dilated_conv(x, layer)
    assert np.array_equal(y, [[11.0, 12.0], [17.0, 16.0]])


def test_conv_causality():
    rng = np.random.default_rng(0)
    layer = ConvLayer(rng.normal(size=(3, 2, 4)), rng.normal(size=3), dilation=3)
    x = rng.normal(size=(1, 2, 50))
    y, _ = conv_forward(x, layer)
    x2 = x.copy()
    x2[:, :, 30:] += 5.0  # future change
    y2, _ = conv_forward(x2, layer)
    assert np.array_equal(y[:, :, :30], y2[:, :, :30])
    assert not np.allclose(y[:, :, 30:], y2[:, :, 30:])


def test_conv_backward_matches_finite_difference():
    rng = np.random.default_rng(1)
    layer = ConvLayer(rng.normal(size=(2, 3, 3)), rng.normal(size=2), dilation=2)
    x = rng.normal(size=(2, 3, 12))
    y, cache = conv_forward(x, layer)
    g = rng.normal(size=y.shape)  # arbitrary upstream gradient

    dx, dw, db = conv_backward(g, cache)
    loss = lambda out: float(np.sum(out * g))

    eps = 1e-6
    for arr, grad in ((x, dx), (layer.weights, dw), (layer.bias, db)):
        it = np.ndindex(*arr.shape)
        for idx in list(it)[:: max(1, arr.size // 20)]:  # sample coordinates
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss(conv_forward(x, layer)[0])
            arr[idx] = orig - eps
            lm = loss(conv_forward(x, layer)[0])
            arr[idx] = orig
            num = (lp - lm) / (2 * eps)
            assert grad[idx] == pytest.approx(num, abs=1e-5, rel=1e-5)


def _direct_conv(x, layer):
    """y[b, o, t] = bias[o] + sum_{i, j} w[o, i, j] x[b, i, t - (width-1-j) d]."""
    b_n, c_in, t_n = x.shape
    c_out, _, width = layer.weights.shape
    y = np.empty((b_n, c_out, t_n))
    y[:] = layer.bias[None, :, None]
    for b in range(b_n):
        for o in range(c_out):
            for i in range(c_in):
                for j in range(width):
                    lag = (width - 1 - j) * layer.dilation
                    for t in range(lag, t_n):
                        y[b, o, t] += layer.weights[o, i, j] * x[b, i, t - lag]
    return y


def _direct_conv_backward(dy, x, layer):
    b_n, c_in, t_n = x.shape
    c_out, _, width = layer.weights.shape
    dx = np.zeros(x.shape)
    dw = np.zeros(layer.weights.shape)
    for b in range(b_n):
        for o in range(c_out):
            for i in range(c_in):
                for j in range(width):
                    lag = (width - 1 - j) * layer.dilation
                    for t in range(lag, t_n):
                        dx[b, i, t - lag] += layer.weights[o, i, j] * dy[b, o, t]
                        dw[o, i, j] += dy[b, o, t] * x[b, i, t - lag]
    return dx, dw, dy.sum(axis=(0, 2))


def _assert_rel_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _check_against_direct_sum(x, dy, layer):
    x_before, dy_before = x.copy(), dy.copy()
    y, cache = conv_forward(x, layer)
    dx, dw, db = conv_backward(dy, cache)
    _assert_rel_close(y, _direct_conv(x, layer))
    for got, ref in zip((dx, dw, db), _direct_conv_backward(dy, x, layer)):
        _assert_rel_close(got, ref)
    # Neither pass writes into its inputs (the cache holds x by reference).
    assert np.array_equal(x, x_before)
    assert np.array_equal(dy, dy_before)


@pytest.mark.parametrize(
    "width,dilation,t",
    [(w, d, 20) for w in (1, 2, 3) for d in (1, 2, 8)]
    # Taps whose lag is >= T reach no output: zero weight gradient, no input gradient.
    + [(2, 8, 5), (3, 2, 3), (3, 8, 1)],
)
def test_conv_matches_direct_sum(width, dilation, t):
    rng = np.random.default_rng(100 * width + 10 * dilation + t)
    layer = ConvLayer(rng.normal(size=(3, 2, width)), rng.normal(size=3), dilation=dilation)
    x = rng.normal(size=(2, 2, t))
    _check_against_direct_sum(x, rng.normal(size=(2, 3, t)), layer)


def test_conv_matches_direct_sum_on_strided_views():
    rng = np.random.default_rng(7)
    layer = ConvLayer(rng.normal(size=(4, 3, 3)), rng.normal(size=4), dilation=2)
    x = rng.normal(size=(2, 25, 3)).transpose(0, 2, 1)[:, :, 3:21]  # [2, 3, 18], time stride 3
    dy = rng.normal(size=(2, 18, 4)).transpose(0, 2, 1)
    assert not x.flags.c_contiguous and not dy.flags.c_contiguous
    _check_against_direct_sum(x, dy, layer)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width,dilation,t", [(3, 1, 40), (2, 8, 40), (2, 8, 5)])
def test_conv_backward_continues_a_running_total(dtype, width, dilation, t):
    # Chunks of 3, 1 and 2 samples, each continuing the last one's (dw, db),
    # give the bytes of one call over all 6.  The return shapes stay
    # [B, C_in, T], [C_out, C_in, W] and [C_out]: the benchmark's tracer
    # (perfbench/spans.py) unpacks them to count each call's FLOPs.
    rng = np.random.default_rng(width + dilation + t)
    layer = ConvLayer(
        rng.normal(size=(4, 3, width)).astype(dtype), rng.normal(size=4).astype(dtype), dilation
    )
    x = rng.normal(size=(6, 3, t)).astype(dtype)
    dy = rng.normal(size=(6, 4, t)).astype(dtype)
    want = conv_backward(dy, conv_forward(x, layer)[1])
    assert [a.shape for a in want] == [(6, 3, t), (4, 3, width), (4,)]
    total, dxs = None, []
    for rows in (slice(0, 3), slice(3, 4), slice(4, 6)):
        dx, dw, db = conv_backward(dy[rows], conv_forward(x[rows], layer)[1], total)
        n = rows.stop - rows.start
        assert [a.shape for a in (dx, dw, db)] == [(n, 3, t), (4, 3, width), (4,)]
        total = (dw, db)
        dxs.append(dx)
    for got, ref in zip((np.concatenate(dxs), *total), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_conv_validation():
    with pytest.raises(ParameterError):
        ConvLayer(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ParameterError):
        ConvLayer(np.zeros((2, 2, 3)), np.zeros(3))
    with pytest.raises(ParameterError, match="^dilation must be >= 1, got 0$"):
        ConvLayer(np.zeros((2, 2, 3)), np.zeros(2), dilation=0)
    with pytest.raises(ParameterError):
        ConvLayer(np.zeros((2, 2, 0)), np.zeros(2))  # width 0
    for dilation in (2.5, 2.0, True, "2"):
        with pytest.raises(ParameterError, match="dilation must be an integer"):
            ConvLayer(np.zeros((2, 2, 3)), np.zeros(2), dilation=dilation)
    assert ConvLayer(np.zeros((2, 2, 3)), np.zeros(2), dilation=np.int64(2)).dilation == 2
    layer = ConvLayer(np.zeros((2, 3, 1)), np.zeros(2))
    with pytest.raises(ParameterError):
        conv_forward(np.zeros((1, 2, 5)), layer)  # wrong channel count
    with pytest.raises(ParameterError):
        causal_dilated_conv(np.zeros((1, 2, 5)), layer)  # 3-D to 2-D wrapper


# ---------------------------------------------------------------- dense/relu


def test_dense_hand_case():
    layer = Dense(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([10.0, 0.0]))
    y, _ = dense_forward(np.array([[3.0, 4.0]]), layer)
    assert np.array_equal(y, [[3 + 8 + 10, -4]])


def test_dense_backward_hand_case():
    layer = Dense(np.array([[1.0, 2.0]]), np.array([0.0]))
    x = np.array([[3.0, 4.0]])
    _, cache = dense_forward(x, layer)
    dy = np.array([[2.0]])
    dx, dw, db = dense_backward(dy, cache, layer)
    assert np.array_equal(dx, [[2.0, 4.0]])
    assert np.array_equal(dw, [[6.0, 8.0]])
    assert np.array_equal(db, [2.0])


def test_dense_validation():
    layer = Dense(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ParameterError):
        dense_forward(np.zeros((1, 4)), layer)
    with pytest.raises(ParameterError):
        Dense(np.zeros((2, 3)), np.zeros(3))


def test_relu_forward_backward():
    x = np.array([-2.0, 0.0, 3.0])
    y, cache = relu_forward(x)
    assert np.array_equal(y, [0.0, 0.0, 3.0])
    dy = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(relu_backward(dy, cache), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_from_the_output_matches_the_input_mask(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.array([[-0.0, 0.0, tiny, -tiny, np.nan, np.inf, -np.inf, 2.0, -3.0]], dtype=dtype)
    dy = np.arange(1, x.size + 1, dtype=dtype).reshape(x.shape)
    want = dy * (x > 0)
    y, cache = relu_forward(x.copy())
    assert cache is y
    assert relu_backward(dy, cache).tobytes() == want.tobytes()
    assert y.tobytes() == np.maximum(x, 0.0).tobytes()


# ----------------------------------------------------------- receptive field


def test_receptive_field_formula():
    assert receptive_field(2, (1, 2, 4, 8)) == 16
    assert receptive_field(3, (1,)) == 3
    assert receptive_field(1, (5, 9)) == 1
    with pytest.raises(ParameterError):
        receptive_field(0, (1,))
    with pytest.raises(ParameterError):
        receptive_field(2, ())
    with pytest.raises(ParameterError):
        receptive_field(2, (1, 0))


@pytest.mark.parametrize(
    "width,dilations",
    [(2, (1, 2, 4, 8)), (3, (1, 2)), (2, (1,)), (4, (1, 3)), (1, (2, 2))],
)
def test_impulse_probe_agrees_with_formula(width, dilations):
    assert impulse_probe(width, dilations) == receptive_field(width, dilations)


# ------------------------------------------------------------------ attention


def test_softmax_rows_sum_to_one():
    x = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    y = softmax(x, axis=1)
    assert np.allclose(y.sum(axis=1), 1.0)
    assert np.all(y > 0)


def test_softmax_is_shift_invariant_and_stable():
    x = np.array([1.0, 2.0])
    assert np.allclose(softmax(x), softmax(x + 1000.0))
    y = softmax(np.array([0.0, 10000.0]))
    assert np.all(np.isfinite(y))
    assert y[1] == pytest.approx(1.0)


def test_softmax_backward_matches_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    dy = rng.normal(size=(3, 5))
    y = softmax(x, axis=1)
    dx = softmax_backward(dy, y, axis=1)
    eps = 1e-6
    for idx in np.ndindex(3, 5):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        num = np.sum((softmax(xp, axis=1) - softmax(xm, axis=1)) * dy) / (2 * eps)
        assert dx[idx] == pytest.approx(num, abs=1e-6)


def test_attention_uniform_when_scores_equal():
    q = np.zeros((2, 4))
    k = np.ones((3, 4))
    v = np.arange(6.0).reshape(3, 2)
    out, w = scaled_softmax_attention(q, k, v)
    assert np.allclose(w, 1.0 / 3.0)
    assert np.allclose(out, v.mean(axis=0))


def test_attention_picks_matching_key():
    q = np.array([[10.0, 0.0]])
    k = np.array([[10.0, 0.0], [0.0, 10.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    out, w = scaled_softmax_attention(q, k, v)
    assert w[0, 0] > 0.999
    assert out[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_attention_validation():
    with pytest.raises(ParameterError):
        scaled_softmax_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        scaled_softmax_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        scaled_softmax_attention(np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        scaled_softmax_attention(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 2)))


@settings(deadline=None, max_examples=60)
@given(
    n_q=st.integers(1, 6),
    n_k=st.integers(1, 6),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_attention_weights_always_normalized(n_q, n_k, d, seed):
    rng = np.random.default_rng(seed)
    out, w = scaled_softmax_attention(
        rng.normal(size=(n_q, d)) * 10,
        rng.normal(size=(n_k, d)) * 10,
        rng.normal(size=(n_k, 3)),
    )
    assert w.shape == (n_q, n_k)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w >= 0)
    assert out.shape == (n_q, 3)


# ---------------------------------------------------------------------- init


def test_init_is_seeded_and_bounded():
    a = init_conv(np.random.default_rng(5), 4, 3, 2, 1)
    b = init_conv(np.random.default_rng(5), 4, 3, 2, 1)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    bound = np.sqrt(1.0 / (3 * 2))
    assert np.all(np.abs(a.weights) <= bound)
    d = init_dense(np.random.default_rng(5), 4, 9)
    assert np.all(np.abs(d.weights) <= np.sqrt(1.0 / 9))
    assert d.weights.shape == (4, 9)
    # Biases are drawn, not zeroed (keeps ReLU pre-activations off the kink).
    assert np.any(a.bias != 0)
    assert np.any(d.bias != 0)
