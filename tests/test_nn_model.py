import tracemalloc
import warnings

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
    _features_backward,
    cross_entropy,
    features_forward,
    init_params,
    model_backward,
    model_forward,
    spatial_attention_weights,
)
from icvmd.nn.train import TrainConfig, train
from oracles import (as_float64, kink_margin, reference_features_backward, reference_features_forward, residual_block,
                     training_cache_bytes)


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


@pytest.mark.parametrize("length", [10, 100])
def test_segments_cut_full_segments_or_one_of_the_whole_input(length):
    config = ModelConfig(segment_len=length)
    table = {1: (1, 1), length - 1: (1, length - 1), length: (1, length), length + 1: (1, length),
             2 * length - 1: (1, length), 2100: (2100 // length, length)}
    for t, want in table.items():
        assert config.segments(t) == want, t
        if t >= length:
            assert want == (t // length, length)
    assert config.segments(np.int64(length + 1)) == (1, length)
    for t, why in ((0, ">= 1, got 0"), (-1, ">= 1, got -1"), (2.5, "an integer, got 2.5"), (True, "an integer, got True")):
        with pytest.raises(ParameterError, match=f"^t must be {why}$"):
            config.segments(t)


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
    with pytest.raises(ParameterError, match=r"^no samples: main and branch inputs of shape \(2, 2, 0\) and \(2, 2, 0\)$"):
        model_forward(params, xm[:, :, :0], xb[:, :, :0])
    with pytest.raises(ParameterError, match=r"^no samples: branch inputs of shape \(2, 2, 0\)$"):
        spatial_attention_weights(params, xb[:, :, :0])
    with pytest.raises(ParameterError):
        spatial_attention_weights(params, np.zeros((1, 1, 2, 30)))


def test_forward_rejects_an_empty_batch():
    params = tiny_model()
    empty = np.zeros((0, 2, 30))
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 2, 30\)"):
        model_forward(params, empty, empty)
    with pytest.raises(ParameterError, match=r"empty batch.*\(0, 2, 30\)"):
        spatial_attention_weights(params, empty)


ENTRY_POINTS = {
    "model_forward": lambda params, main, branch: model_forward(params, main, branch),
    "spatial_attention_weights": lambda params, main, branch: spatial_attention_weights(params, branch),
    "predict": lambda params, main, branch: fewshot.predict(params, main, branch, np.array([10, 20, 30])),
    "train": lambda params, main, branch: train(params, main, branch, np.arange(3), TrainConfig(epochs=0)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "1e39"])
@pytest.mark.parametrize("entry, which", [(e, w) for e in ENTRY_POINTS for w in ("main", "branch", "shared")
                                          if e != "spatial_attention_weights" or w == "branch"])
def test_every_entry_point_refuses_a_non_finite_input_by_name_and_row(entry, which, value):
    # One check for all: a NaN would otherwise pass a forward silently, and an
    # inf warn in the first matmul.  1e39 is finite in float64 and inf once
    # cast to the model's float32.  One array given as both inputs is checked
    # once, under the name main.
    params = tiny_model()
    main, branch = tiny_batch(b=3)
    if which == "shared":
        branch = main
    (branch if which == "branch" else main)[1, 0, 17] = value
    name = "branch" if which == "branch" else "main"
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match=rf"^{name} input holds a non-finite value in float32 in row 1 of 3$"):
        ENTRY_POINTS[entry](params, main, branch)


@pytest.mark.parametrize("entry, which", [(e, w) for e in ENTRY_POINTS for w in ("main", "branch", "shared")
                                          if e != "spatial_attention_weights" or w == "branch"])
def test_every_entry_point_refuses_a_complex_input_by_name(entry, which):
    # The float32 cast would keep only the real part, with no more than a
    # ComplexWarning; the refusal comes first, so none is raised either.
    params = tiny_model()
    main, branch = tiny_batch(b=3)
    name = "branch" if which == "branch" else "main"
    if name == "main":
        main = main.astype(np.complex64)
    else:
        branch = branch.astype(np.complex64)
    if which == "shared":
        branch = main
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=rf"^{name} input must be real, got dtype complex64$"):
            ENTRY_POINTS[entry](params, main, branch)


def test_training_refuses_inputs_of_another_channel_count_even_at_epochs_0():
    # No 3-channel input can run the model, so no model may come back from one.
    main, branch = tiny_batch(b=6)
    wide = np.concatenate([main, branch[:, :1]], axis=1)
    with pytest.raises(ParameterError, match=r"^inputs must be \[B, C, T\] with C = 2, .*\(6, 3, 30\)"):
        train(tiny_model(), wide, wide, np.arange(6) % 3, TrainConfig(epochs=0))


def test_trunk_is_causal():
    params = tiny_model()
    xm, _ = tiny_batch(b=1, t=40)
    feat, _ = features_forward(params, xm, {})
    xm2 = xm.copy()
    xm2[:, :, 25:] = 9.0
    feat2, _ = features_forward(params, xm2, {})
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
    s1, _ = _branch_forward(params, xb.astype(np.float32), (3, 10), {})
    s2, _ = _branch_forward(params, xb2.astype(np.float32), (3, 10), {})
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
    grads = model_backward(params, dlogits.astype(np.float64), cache, {})
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
    grads = model_backward(params, dlogits, cache, {})
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


@pytest.mark.parametrize("t", [1, 7, 9])
def test_an_input_shorter_than_a_segment_is_one_segment_of_weight_one(t):
    # Below segment_len the whole input is one segment: the softmax over one
    # score is exactly 1, so the logits are classifier2 of the mean-pooled
    # segment logits, and the branch input changes nothing.
    params = tiny_model()
    xm, xb = tiny_batch(b=3, t=t)
    logits, cache = model_forward(params, xm, xb)
    assert cache["attention"].shape == (3, 1)
    assert np.array_equal(cache["attention"], np.ones((3, 1), np.float32))
    assert np.array_equal(spatial_attention_weights(params, xb), np.ones((3, 1), np.float32))
    assert np.array_equal(model_forward(params, xm, -5.0 * xb)[0], logits)
    p64 = as_float64(params)
    feat, _ = features_forward(p64, xm, {})
    a = p64.arrays
    seg = feat.mean(axis=2) @ a["classifier1.weights"].T + a["classifier1.bias"]
    want = seg @ a["classifier2.weights"].T + a["classifier2.bias"]
    assert np.allclose(model_forward(p64, xm, xb)[0], want, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------- chunked trunk


def _chunk_loop(params, xm, xb, labels):
    # As a training step runs a minibatch: each chunk's forward, loss (scaled
    # by the whole batch's size) and backward in turn, one workspace and one grads.
    ws, grads, logits, attention, losses = {}, {}, [], [], []
    for rows in model._chunks(len(labels), xm.shape[2]):
        chunk_logits, cache = model_forward(params, xm[rows], xb[rows], ws)
        chunk_losses, dlogits = cross_entropy(chunk_logits, labels[rows], len(labels))
        grads = model_backward(params, dlogits, cache, grads)
        logits.append(chunk_logits)
        attention.append(cache["attention"])
        losses.append(chunk_losses)
    return np.concatenate(logits), np.concatenate(attention), np.concatenate(losses), grads


def _forward_backward_train(params, xm, xb, labels):
    # minibatch_grads is that loop, over the rows in order and over a
    # permutation of them as the loop over the permuted rows.
    checked = model.check_dataset(params, xm, xb, labels)
    for idx in (np.arange(len(labels)), np.array([3, 0, 4, 1, 2])):
        *_, want_losses, want_grads = _chunk_loop(params, xm[idx], xb[idx], labels[idx])
        losses, grads = model.minibatch_grads(params, *checked, idx, {})
        assert losses.tobytes() == want_losses.tobytes()
        assert grads.keys() == want_grads.keys()
        assert all(grads[k].tobytes() == want.tobytes() for k, want in want_grads.items())
    fit = train(params, xm, xb, labels, TrainConfig(epochs=2, batch_size=5))
    return (*_chunk_loop(params, xm, xb, labels), fit)


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

    for got, want in zip(chunked[:3], whole[:3]):  # logits, attention, losses
        assert np.array_equal(got, want)
    grads, want_grads = chunked[3], whole[3]
    assert grads.keys() == want_grads.keys() == params.arrays.keys()
    for key, want in want_grads.items():
        assert np.array_equal(grads[key], want), key
    fit, want_fit = chunked[4], whole[4]
    assert fit.history == want_fit.history
    for key, want in want_fit.params.arrays.items():
        assert np.array_equal(fit.params.arrays[key], want), key


@pytest.mark.parametrize("chunk", [None, 2])
def test_a_frozen_branch_step_forms_every_other_gradient_bit_for_bit(monkeypatch, chunk):
    # The attention gradient feeds only the branch, so skipping both leaves
    # every loss and every other gradient as the full step forms it.
    params = tiny_model()
    xm, xb = tiny_batch(b=5, t=30)
    checked = model.check_dataset(params, xm, xb, np.array([0, 1, 2, 0, 1]))
    if chunk:
        monkeypatch.setattr(model, "_CHUNK_ELEMS", chunk * CHANNELS * 30)
    idx = np.array([3, 0, 4, 1, 2])
    losses, grads = model.minibatch_grads(params, *checked, idx, {})
    frozen_losses, frozen = model.minibatch_grads(params, *checked, idx, {}, frozen_branch=True)
    assert frozen_losses.tobytes() == losses.tobytes()
    assert list(frozen) == [k for k in grads if not k.startswith("branch.")] and len(frozen) < len(grads)
    assert all(frozen[k].tobytes() == grads[k].tobytes() for k in frozen)


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
    # A backward that forms the merge input's gradient a block at a time, and
    # no input gradient of the first encoder conv, gives the old one's grads.
    params = init_params(ModelConfig(), n_classes=3, seed=5)
    params = as_float64(params) if cast else params
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 2, 250)).astype(params.dtype)
    dfeat = rng.normal(size=(3, CHANNELS, 250)).astype(params.dtype)
    feat, cache = features_forward(params, x, {})
    want_feat, want_cache = reference_features_forward(params, x)
    assert feat.tobytes() == want_feat.tobytes()
    assert cache[2][0].tobytes() == want_cache[2][0].tobytes()  # the merge input
    grads, want_grads = {}, {}
    _features_backward(params, dfeat, cache, grads, {})
    reference_features_backward(dfeat, want_cache, want_grads)
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


def test_training_backward_writes_over_the_activations_it_has_read():
    # Backward adds to one chunk's forward cache only dfeat and, per row
    # shape (the trunk's [CHANNELS, T] and the branch's folded segments), one
    # input gradient and one tap buffer: each ReLU's gradient goes over that
    # ReLU's output and each block's upstream gradient over its slice of the
    # merge input.  A buffer of their own for either would exceed the bound.
    t = 2100
    b = model._chunks(32, t)[0].stop  # one chunk of a train() step
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    rng = np.random.default_rng(1)
    xm, xb = rng.normal(size=(2, b, IN_CHANNELS, t)).astype(np.float32)
    f32 = np.dtype(np.float32).itemsize
    trunk = (ENCODER_LAYERS + 2 * N_BLOCKS) * b * CHANNELS * t * f32
    allowance = (BRANCH_LAYERS * BRANCH_CHANNELS + 2 * IN_CHANNELS) * b * t * f32
    gradients = (3 * CHANNELS + 2 * BRANCH_CHANNELS) * b * t * f32
    tracemalloc.start()
    try:
        logits, cache = model_forward(params, xm, xb, {})
        _, dlogits = cross_entropy(logits, np.arange(b) % 4)
        model_backward(params, dlogits, cache, {})
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trunk <= held <= trunk + allowance + gradients


def test_a_second_backward_on_one_cache_raises():
    # The first backward wrote gradients over the cached activations; a new
    # forward through the same workspace serves one backward again.
    params = tiny_model()
    xm, xb = tiny_batch(b=2, t=30)
    ws: dict = {}
    logits, cache = model_forward(params, xm, xb, ws)
    _, dlogits = cross_entropy(logits, np.array([0, 1]))
    want = model_backward(params, dlogits, cache, {})
    with pytest.raises(ParameterError, match="^this cache was already used by a backward"):
        model_backward(params, dlogits, cache, {})
    _, cache = model_forward(params, xm, xb, ws)
    got = model_backward(params, dlogits, cache, {})
    assert [g.tobytes() for g in got.values()] == [g.tobytes() for g in want.values()]


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
        model_backward(params, np.zeros_like(logits), cache, {})


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
    # the batch of 32 made; backward's buffers are reused the same way.  Each
    # buffer is filled with NaN in between, so a step that reads a value it
    # did not write (a tap's wrap columns) does not match.
    params = init_params(ModelConfig(), n_classes=4, seed=3)
    rng = np.random.default_rng(4)

    def step(b, ws):
        xm, xb = rng.normal(size=(2, b, IN_CHANNELS, 2100)).astype(np.float32)
        logits, cache = model_forward(params, xm, xb, ws)
        _, dlogits = cross_entropy(logits, np.arange(b) % 4)
        return [logits, cache["attention"], *model_backward(params, dlogits, cache, {}).values()]

    ws: dict = {}
    step(32, ws)
    for buf in ws.values():
        buf.fill(np.nan)
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
