import tracemalloc

import numpy as np
import pytest

from icvmd import fewshot
from icvmd.errors import ParameterError
from icvmd.nn import model
from icvmd.nn.model import (
    BRANCH_CHANNELS,
    BRANCH_LAYERS,
    CHANNELS,
    ENCODER_LAYERS,
    IN_CHANNELS,
    N_BLOCKS,
    ModelConfig,
    _branch_forward,
    cross_entropy,
    features_backward,
    features_forward,
    init_params,
    model_backward,
    model_forward,
    spatial_attention_weights,
)
from icvmd.nn.train import TrainConfig, train
from oracles import as_float64, kink_margin, reference_features_forward, residual_block, training_cache_bytes


TINY = ModelConfig(segment_len=10)


def tiny_model(n_classes=3, seed=0):
    return init_params(TINY, n_classes, seed=seed)


def tiny_batch(b=2, t=30, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(b, 2, t)), rng.normal(size=(b, 2, t))


# -------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ParameterError, match="^segment_len must be >= 1, got 0$"):
        ModelConfig(segment_len=0)
    with pytest.raises(ParameterError, match="integer"):
        ModelConfig(segment_len=2.5)
    with pytest.raises(ParameterError, match="integer"):
        ModelConfig(segment_len=True)
    assert ModelConfig(segment_len=np.int64(3)).segment_len == 3
    assert model.DILATIONS == (1, 2, 4, 8)


def test_param_count_default_architecture():
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    # Hand total: encoder 56+200, blocks 4*272, merge 264, cls1 36,
    # branch 28+52+5, cls2 20.
    assert sum(a.size for a in params.arrays.values()) == 1749


def test_init_rejects_single_class():
    with pytest.raises(ParameterError):
        init_params(TINY, n_classes=1, seed=0)
    for n_classes in (2.0, 2.5, "3", True, None):
        with pytest.raises(ParameterError, match="^n_classes must be an integer"):
            init_params(TINY, n_classes=n_classes, seed=0)


# ------------------------------------------------------------------- forward


def test_forward_shapes_batched_and_single():
    params = tiny_model()
    xm, xb = tiny_batch(b=4, t=35)
    logits, cache = model_forward(params, xm, xb)
    assert logits.shape == (4, 3)
    assert cache["attention"].shape == (4, 3)  # 35 // 10 = 3 segments
    one, _ = model_forward(params, xm[:1], xb[:1])
    assert one.shape == (1, 3)
    assert np.allclose(one, logits[:1])
    with pytest.raises(ParameterError, match=r"\[B, C, T\]"):
        model_forward(params, xm[0], xb[0])
    with pytest.raises(ParameterError, match=r"\[B, C, T\]"):
        spatial_attention_weights(params, xb[0])


def test_attention_rows_sum_to_one():
    params = tiny_model()
    xm, xb = tiny_batch(b=5, t=50)
    _, cache = model_forward(params, xm, xb)
    assert np.allclose(cache["attention"].sum(axis=1), 1.0, atol=1e-12)
    w = spatial_attention_weights(params, xb[:1])
    assert w.shape == (1, 5)
    assert w.sum() == pytest.approx(1.0)


def test_forward_validation():
    params = tiny_model()
    xm, xb = tiny_batch()
    with pytest.raises(ParameterError):
        model_forward(params, xm, xb[:1])  # batch mismatch
    with pytest.raises(ParameterError):
        model_forward(params, xm[:, :, :20], xb)  # length mismatch
    with pytest.raises(ParameterError):
        model_forward(params, xm[:, :, :5], xb[:, :, :5])  # below one segment
    with pytest.raises(ParameterError):
        spatial_attention_weights(params, np.zeros((1, 1, 2, 30)))


def test_forward_rejects_an_empty_batch():
    params = tiny_model()
    empty = np.zeros((0, 2, 30))
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 2, 30\)"):
        model_forward(params, empty, empty)
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 2, 30\)"):
        spatial_attention_weights(params, empty)


def test_trunk_is_causal():
    params = tiny_model()
    xm, _ = tiny_batch(b=1, t=40)
    feat, _ = features_forward(params, xm)
    xm2 = xm.copy()
    xm2[:, :, 25:] = 9.0
    feat2, _ = features_forward(params, xm2)
    assert np.array_equal(feat[:, :, :25], feat2[:, :, :25])


def test_branch_scores_are_segment_local():
    # Changing branch samples inside one segment may re-normalize every
    # attention weight, but the other segments' scores are untouched, so
    # their weight ratios stay fixed to float64 rounding, and in the model's
    # own float32 the raw scores stay bit-identical.
    _, xb = tiny_batch(b=1, t=30)
    xb2 = xb.copy()
    xb2[0, :, 10:20] += 2.0  # second segment only
    params = as_float64(tiny_model())
    w1 = spatial_attention_weights(params, xb)[0]
    w2 = spatial_attention_weights(params, xb2)[0]
    assert w1[0] / w1[2] == pytest.approx(w2[0] / w2[2], rel=1e-12)
    assert not np.isclose(w1[1], w2[1])
    params = tiny_model()
    s1, _ = _branch_forward(params, xb.astype(np.float32), 3, {})
    s2, _ = _branch_forward(params, xb2.astype(np.float32), 3, {})
    assert np.array_equal(s1[:, [0, 2]], s2[:, [0, 2]])
    assert s1[0, 1] != s2[0, 1]


def test_residual_block_wrapper():
    params = tiny_model()
    x = np.random.default_rng(3).normal(size=(CHANNELS, 20))
    y = residual_block(x, params, 0)
    assert y.shape == x.shape
    with pytest.raises(ParameterError):
        residual_block(np.zeros((3, 20)), params, 0)  # wrong channels
    with pytest.raises(ParameterError):
        residual_block(np.zeros(20), params, 0)


def test_zero_weight_blocks_pass_input_through():
    params = tiny_model()
    for key in ("tcn.blocks.0.conv2.weights", "tcn.blocks.0.conv2.bias"):
        params.arrays[key] = np.zeros_like(params.arrays[key])
    x = np.random.default_rng(4).normal(size=(CHANNELS, 15))
    assert np.allclose(residual_block(x, params, 0), x)


# --------------------------------------------------------------------- dtype


@pytest.mark.parametrize("cast", [False, True])
def test_forward_and_backward_run_in_the_parameters_dtype(cast):
    # float64 inputs into a float32 model must not upcast anything; a
    # float64-cast model runs in float64 throughout.
    params = as_float64(tiny_model()) if cast else tiny_model()
    dtype = np.float64 if cast else np.float32
    assert {a.dtype for a in params.arrays.values()} == {np.dtype(dtype)}
    xm, xb = tiny_batch(b=2, t=35)
    logits, cache = model_forward(params, xm, xb, {})
    assert logits.dtype == cache["attention"].dtype == dtype
    _, dlogits = cross_entropy(logits, np.array([0, 2]))
    assert dlogits.dtype == dtype
    grads = model_backward(params, dlogits.astype(np.float64), cache)
    assert {k: g.dtype for k, g in grads.items()} == {k: np.dtype(dtype) for k in grads}
    assert spatial_attention_weights(params, xb).dtype == dtype
    assert residual_block(np.ones((CHANNELS, 20)), params, 0).dtype == dtype


# ------------------------------------------------------------- cross-entropy


def test_cross_entropy_hand_case():
    loss, dlogits = cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0))
    assert np.allclose(dlogits, [[-0.5, 0.5]])


def test_cross_entropy_batch_mean_and_stability():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    loss, d = cross_entropy(logits, np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(d))
    with pytest.raises(ParameterError):
        cross_entropy(logits, np.array([0]))
    with pytest.raises(ParameterError):
        cross_entropy(logits, np.array([0, 2]))


def test_cross_entropy_rejects_logits_that_are_not_batch_by_class():
    with pytest.raises(ParameterError, match=r"\[batch, classes\]"):
        cross_entropy(np.array([0.0, 0.0]), np.array([0]))
    with pytest.raises(ParameterError, match=r"\[batch, classes\]"):
        cross_entropy(np.zeros((1, 2, 1)), np.array([0]))


@pytest.mark.parametrize("labels", [[0.0, 1.0], [1.5, 0.0], [True, False]], ids=["whole_floats", "floats", "bools"])
def test_cross_entropy_rejects_labels_that_are_not_integers(labels):
    with pytest.raises(ParameterError, match="^labels must be integers, got dtype (float64|bool)$"):
        cross_entropy(np.zeros((2, 3)), np.array(labels))


def test_cross_entropy_scales_each_row_by_the_batch_size_given():
    logits = np.random.default_rng(3).normal(size=(5, 3)).astype(np.float32)
    labels = np.array([0, 2, 1, 1, 0])
    losses, dlogits = cross_entropy(logits, labels)
    assert losses.shape == (5,) and losses.dtype == dlogits.dtype == np.float32
    for rows in (slice(0, 2), slice(2, 5)):
        part, dpart = cross_entropy(logits[rows], labels[rows], 5)
        assert part.tobytes() == losses[rows].tobytes()
        assert dpart.tobytes() == dlogits[rows].tobytes()


def test_cross_entropy_rejects_an_empty_batch():
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 3\)"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))


# ----------------------------------------------------------------- gradients


def test_backward_produces_gradient_for_every_array():
    params = tiny_model()
    xm, xb = tiny_batch(b=2, t=30)
    logits, cache = model_forward(params, xm, xb, {})
    _, dlogits = cross_entropy(logits, np.array([0, 1]))
    grads = model_backward(params, dlogits, cache)
    assert grads.keys() == params.arrays.keys()
    for path, arr in params.arrays.items():
        assert grads[path].shape == arr.shape


@pytest.mark.parametrize("edit", ["main", "branch"])
def test_samples_past_the_last_full_segment_feed_nothing(edit):
    # With T=35 and segments of 10, samples 30..34 reach neither path.
    params = tiny_model()
    xm, xb = tiny_batch(b=2, t=35)
    logits, cache = model_forward(params, xm, xb)
    inputs = {"main": xm.copy(), "branch": xb.copy()}
    inputs[edit][:, :, 30:] += 5.0 * np.random.default_rng(9).normal(size=(2, 2, 5))
    got, got_cache = model_forward(params, inputs["main"], inputs["branch"])
    assert np.array_equal(got, logits)
    assert np.array_equal(got_cache["attention"], cache["attention"])


# ------------------------------------------------------------- chunked trunk


def _forward_backward_train(params, xm, xb, labels):
    # As train() runs a minibatch: each chunk's forward, loss (scaled by the
    # whole batch's size) and backward in turn, one workspace and one grads.
    ws, grads, logits, attention = {}, {}, [], []
    for rows in model._chunks(len(labels), xm.shape[2]):
        chunk_logits, cache = model_forward(params, xm[rows], xb[rows], ws)
        _, dlogits = cross_entropy(chunk_logits, labels[rows], len(labels))
        grads = model_backward(params, dlogits, cache, grads)
        logits.append(chunk_logits)
        attention.append(cache["attention"])
    fit = train(params, xm, xb, labels, TrainConfig(epochs=2, batch_size=5))
    return np.concatenate(logits), np.concatenate(attention), grads, fit


@pytest.mark.parametrize("cast", [False, True])
def test_chunked_trunk_is_bit_identical_to_one_chunk(monkeypatch, cast):
    # Every conv's weight and bias sums continue across chunks in sample
    # order, so chunks of 2, 2 and 1 round exactly as one chunk of 5, in the
    # model's float32 and in the float64 copy the gradient check runs on.
    params = as_float64(tiny_model()) if cast else tiny_model()
    xm, xb = tiny_batch(b=5, t=30)
    labels = np.array([0, 1, 2, 0, 1])
    assert len(model._chunks(5, 30)) == 1
    whole = _forward_backward_train(params, xm, xb, labels)
    monkeypatch.setattr(model, "_CHUNK_ELEMS", 2 * CHANNELS * 30)
    assert [r.stop - r.start for r in model._chunks(5, 30)] == [2, 2, 1]
    chunked = _forward_backward_train(params, xm, xb, labels)

    for got, want in zip(chunked[:2], whole[:2]):  # logits, attention
        assert np.array_equal(got, want)
    grads, want_grads = chunked[2], whole[2]
    assert grads.keys() == want_grads.keys() == params.arrays.keys()
    for key, want in want_grads.items():
        assert np.array_equal(grads[key], want), key
    fit, want_fit = chunked[3], whole[3]
    assert fit.history == want_fit.history
    for key, want in want_fit.params.arrays.items():
        assert np.array_equal(fit.params.arrays[key], want), key


def test_each_row_gets_the_logits_it_gets_alone():
    # The heads are row-invariant products, so no batch, and no batch of 64
    # in predict, changes a row's logits or attention by one bit.
    params = init_params(ModelConfig(segment_len=20), n_classes=4, seed=1)
    rng = np.random.default_rng(8)
    xm, xb = rng.normal(size=(2, 64, IN_CHANNELS, 200)).astype(np.float32)
    logits, cache = model_forward(params, xm, xb)
    for i in range(64):
        alone, alone_cache = model_forward(params, xm[i : i + 1], xb[i : i + 1])
        assert alone.tobytes() == logits[i : i + 1].tobytes(), i
        assert alone_cache["attention"].tobytes() == cache["attention"][i : i + 1].tobytes(), i


# ------------------------------------------------------------- trunk cache


@pytest.mark.parametrize("cast", [False, True])
def test_trunk_matches_the_concatenating_reference(cast):
    # Blocks that write into the merge input and ReLUs that cache their output
    # give the bytes of the old trunk: concatenated block outputs, mask caches.
    params = init_params(ModelConfig(), n_classes=3, seed=5)
    params = as_float64(params) if cast else params
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 2, 250)).astype(params.dtype)
    dfeat = rng.normal(size=(3, CHANNELS, 250)).astype(params.dtype)
    feat, cache = features_forward(params, x)
    want_feat, want_cache = reference_features_forward(params, x)
    assert feat.tobytes() == want_feat.tobytes()
    assert cache[2][0].tobytes() == want_cache[2][0].tobytes()  # the merge input
    grads, want_grads = {}, {}
    dx = features_backward(params, dfeat, cache, grads)
    want_dx = features_backward(params, dfeat, want_cache, want_grads)
    assert dx.dtype == params.dtype and dx.tobytes() == want_dx.tobytes()
    assert grads.keys() == want_grads.keys()
    for key, want in want_grads.items():
        assert grads[key].tobytes() == want.tobytes(), key


def test_training_forward_keeps_each_conv_input_once():
    # What model_forward leaves allocated is its cache: the encoder outputs,
    # each block's conv1 output and block output (in the merge input), plus
    # the branch stack's outputs and its folded input copy, and one more
    # input-sized array for the heads' small arrays.  A second copy of the
    # block outputs or the ReLU masks would exceed it.
    b, t = 16, 2100
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    rng = np.random.default_rng(1)
    xm = rng.normal(size=(b, IN_CHANNELS, t)).astype(np.float32)
    xb = rng.normal(size=(b, IN_CHANNELS, t)).astype(np.float32)
    f32 = np.dtype(np.float32).itemsize
    trunk = (ENCODER_LAYERS + 2 * N_BLOCKS) * b * CHANNELS * t * f32
    allowance = (BRANCH_LAYERS * BRANCH_CHANNELS + 2 * IN_CHANNELS) * b * t * f32
    tracemalloc.start()
    try:
        _, cache = model_forward(params, xm, xb, {})
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trunk <= held <= trunk + allowance


def test_inference_without_a_workspace_keeps_one_chunk_at_a_time():
    # Every chunk runs through the same buffers and none is kept, so the peak
    # is one chunk's activations plus a tap product and the merge output,
    # where a forward that keeps them all holds the whole batch's (4.5x here).
    b, t = 32, 2100
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    rng = np.random.default_rng(2)
    xm = rng.normal(size=(b, IN_CHANNELS, t)).astype(np.float32)
    xb = rng.normal(size=(b, IN_CHANNELS, t)).astype(np.float32)
    rows = model._chunks(b, t)[0].stop
    tracemalloc.start()
    try:
        logits, cache = model_forward(params, xm, xb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= training_cache_bytes(rows, t) + 2 * rows * CHANNELS * t * 4
    assert cache.keys() == {"attention"}
    want, want_cache = model_forward(params, xm, xb, {})
    assert logits.tobytes() == want.tobytes()
    assert cache["attention"].tobytes() == want_cache["attention"].tobytes()
    with pytest.raises(ParameterError, match="pass a workspace"):
        model_backward(params, np.zeros_like(logits), cache)


@pytest.mark.parametrize("infer", ["predict", "spatial_attention_weights"])
def test_inference_on_many_captures_peaks_at_one_chunk(infer):
    # 96 captures are 13 chunks of 7 and one of 5; each runs through the
    # buffers of the one before, and only its logits or attention are kept.
    b, t = 96, 2100
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    rng = np.random.default_rng(5)
    xm = rng.normal(size=(b, IN_CHANNELS, t)).astype(np.float32)
    xb = rng.normal(size=(b, IN_CHANNELS, t)).astype(np.float32)
    run = {
        "predict": lambda: fewshot.predict(params, xm, xb, np.arange(10, 14)),
        "spatial_attention_weights": lambda: spatial_attention_weights(params, xb),
    }[infer]
    rows = model._chunks(b, t)[0].stop
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= training_cache_bytes(rows, t) + 2 * rows * CHANNELS * t * 4 + out.nbytes
    logits, cache = model_forward(params, xm, xb, {})
    want = np.arange(10, 14)[np.argmax(logits, axis=1)] if infer == "predict" else cache["attention"]
    assert out.tobytes() == want.tobytes()


def test_a_reused_workspace_gives_the_bytes_of_a_fresh_one():
    # The batch of 12 runs as one block in the leading rows of the buffers
    # the batch of 32 made; backward's buffers are reused the same way.
    params = init_params(ModelConfig(), n_classes=4, seed=3)
    rng = np.random.default_rng(4)

    def step(b, ws):
        xm, xb = rng.normal(size=(2, b, IN_CHANNELS, 2100)).astype(np.float32)
        logits, cache = model_forward(params, xm, xb, ws)
        _, dlogits = cross_entropy(logits, np.arange(b) % 4)
        return [logits, cache["attention"], *model_backward(params, dlogits, cache).values()]

    ws: dict = {}
    step(32, ws)
    state = rng.bit_generator.state
    got = step(12, ws)
    rng.bit_generator.state = state
    want = step(12, {})
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ------------------------------------------------------------ parameter dict


def test_train_clone_is_independent_and_shapes_are_checked():
    params = tiny_model()
    xm, xb = tiny_batch(b=3, t=30)
    labels = np.array([0, 1, 2])
    w = params.arrays["tcn.blocks.1.conv2.weights"].copy()
    copy = train(params, xm, xb, labels, TrainConfig(epochs=0)).params
    params.arrays["tcn.blocks.1.conv2.weights"] += 1.0
    assert np.allclose(params.arrays["tcn.blocks.1.conv2.weights"], w + 1.0)
    # The clone is unaffected.
    assert np.allclose(copy.arrays["tcn.blocks.1.conv2.weights"], w)
    params.arrays["classifier1.weights"] = np.zeros((1, 1))
    with pytest.raises(ParameterError):
        model_forward(params, xm, xb)


def test_array_keys_are_unique_and_in_layer_order():
    params = tiny_model()
    keys = list(params.arrays)
    assert len(keys) == len(set(keys))
    blocks = [f"tcn.blocks.{i}.{sub}" for i in range(N_BLOCKS) for sub in ("conv1", "conv2")]
    layers = ["encoder.0", "encoder.1", *blocks, "tcn.merge", "classifier1"]
    layers += ["branch.convs.0", "branch.convs.1", "branch.head", "classifier2"]
    assert keys == [f"{layer}.{leaf}" for layer in layers for leaf in ("weights", "bias")]


def test_kink_margin_positive_at_init():
    params = tiny_model()
    xm, xb = tiny_batch(b=2, t=30)
    m = kink_margin(params, xm, xb)
    assert m > 0.0
    assert np.isfinite(m)
