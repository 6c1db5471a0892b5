import re
import tracemalloc

import numpy as np
import pytest

from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.nn import model
from icvmd.nn import train as train_module
from icvmd.nn.model import CHANNELS, IN_CHANNELS, ModelConfig, init_params, minibatch_grads, model_forward
from icvmd.nn.train import TrainConfig, sat_transfer, train
from oracles import as_float64, batch_loss, grad_check, training_cache_bytes

TINY = ModelConfig(segment_len=10)


def toy_problem(n=24, t=30, n_classes=3, seed=0):
    """Classes differ by a strong constant offset: linearly separable."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    main = rng.normal(size=(n, 2, t)) * 0.1 + labels[:, None, None]
    branch = rng.normal(size=(n, 2, t)) * 0.1
    return main, branch, labels


def arrays_equal(a, b):
    return all(np.array_equal(a.arrays[p], b.arrays[p]) for p in a.arrays)


# ------------------------------------------------------------------ training


def test_zero_learning_rate_is_identity():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    res = train(params, main, branch, labels, TrainConfig(learning_rate=0.0, epochs=2, batch_size=128))
    assert arrays_equal(res.params, params)
    assert len(res.history) == 2


def test_training_does_not_mutate_input_params():
    params = init_params(TINY, 3, seed=0)
    before = {p: a.copy() for p, a in params.arrays.items()}
    main, branch, labels = toy_problem()
    train(params, main, branch, labels, TrainConfig(epochs=1, batch_size=8))
    for p, a in params.arrays.items():
        assert np.array_equal(a, before[p])


def test_loss_decreases_on_separable_problem():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    cfg = TrainConfig(learning_rate=1e-2, epochs=25, batch_size=8)
    res = train(params, main, branch, labels, cfg)
    assert res.history[-1] < 0.5 * res.history[0]
    # Training accuracy reflects the drop.
    logits, _ = model_forward(res.params, main, branch)
    assert np.mean(np.argmax(logits, axis=1) == labels) > 0.9


def test_training_is_deterministic():
    main, branch, labels = toy_problem()
    cfg = TrainConfig(epochs=3, batch_size=8, seed=5)
    a = train(init_params(TINY, 3, seed=1), main, branch, labels, cfg)
    b = train(init_params(TINY, 3, seed=1), main, branch, labels, cfg)
    assert arrays_equal(a.params, b.params)
    assert a.history == b.history


def test_freeze_prefixes_pin_arrays():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    cfg = TrainConfig(epochs=2, batch_size=8)
    res = train(params, main, branch, labels, cfg, freeze_prefixes=("branch.",))
    for p in params.arrays:
        same = np.array_equal(res.params.arrays[p], params.arrays[p])
        if p.startswith("branch."):
            assert same, p
        else:
            assert not same, p


@pytest.mark.parametrize("prefixes, frozen", [((), False), (("branch.head",), False), (("branch.",), True),
                                              (("branch.convs", "branch.head", "classifier1"), True)])
def test_training_skips_the_branch_backward_only_when_every_branch_key_is_frozen(monkeypatch, prefixes, frozen):
    flags = []

    def record(*args):
        flags.append(args[-1])
        return minibatch_grads(*args)

    monkeypatch.setattr(train_module, "minibatch_grads", record)
    main, branch, labels = toy_problem()
    train(init_params(TINY, 3, seed=0), main, branch, labels, TrainConfig(epochs=1, batch_size=8), freeze_prefixes=prefixes)
    assert flags == [frozen] * 3


def test_freeze_prefix_matching_no_key_is_rejected():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    with pytest.raises(ParameterError, match="brnch"):
        train(params, main, branch, labels, TrainConfig(epochs=1), freeze_prefixes=("branch.", "brnch."))


@pytest.mark.parametrize("cast", [False, True])
def test_train_and_transfer_keep_the_parameters_dtype(cast):
    # float64 inputs and NumPy float64 hyperparameters (strong scalars under
    # NumPy 2 promotion) must not upcast a float32 model.
    params = as_float64(init_params(TINY, 3, seed=0)) if cast else init_params(TINY, 3, seed=0)
    dtype = np.dtype(np.float64 if cast else np.float32)
    main, branch, labels = toy_problem(n=12)
    cfg = TrainConfig(learning_rate=np.float64(1e-2), epochs=2, batch_size=4)
    res = train(params, main, branch, labels, cfg)
    sat = sat_transfer(params, 4, main, branch, labels, cfg, head_seed=1)
    for out in (res, sat):
        assert {k: a.dtype for k, a in out.params.arrays.items()} == {k: dtype for k in params.arrays}
        assert all(type(loss) is float for loss in out.history)
    assert sat.params.arrays["classifier1.weights"].shape == (4, CHANNELS)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(seed=-1)
    for name, value in [("epochs", 2.0), ("epochs", True), ("batch_size", 8.5), ("batch_size", False),
                        ("seed", 1.0), ("seed", "0")]:
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})
    for name, low in [("epochs", 0), ("batch_size", 1), ("seed", 0)]:
        with pytest.raises(ParameterError, match=f"^{name} must be >= {low}, got {low - 1}$"):
            TrainConfig(**{name: low - 1})
    assert TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(1)).epochs == 2


@pytest.mark.parametrize("value", [True, False, "0.1", None, np.nan, np.inf, -1e-3])
def test_a_learning_rate_that_is_not_a_finite_real_at_or_above_zero_is_refused(value):
    # True would otherwise train at 1.0, and a string or None fail on `<` with a bare TypeError.
    with pytest.raises(ParameterError, match=rf"^learning_rate must be >= 0 and finite, got {re.escape(repr(value))}$"):
        TrainConfig(learning_rate=value)


def test_a_learning_rate_of_any_real_type_is_accepted():
    for value in (0, 0.0, 1, np.float32(2e-3), np.int64(1)):
        assert TrainConfig(learning_rate=value).learning_rate == value


def test_dataset_validation():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ParameterError):
        train(params, main[:, 0], branch[:, 0], labels, cfg)
    with pytest.raises(ParameterError):
        train(params, main, branch[:3], labels, cfg)
    with pytest.raises(ParameterError):
        train(params, main, branch, labels[:3], cfg)
    with pytest.raises(ParameterError):
        train(params, main, branch, labels + 5, cfg)  # out-of-range classes
    with pytest.raises(DegenerateInputError):
        train(params, main[:0], branch[:0], labels[:0], cfg)


def test_float_labels_are_rejected():
    params = init_params(TINY, 3, seed=0)
    main, branch, _ = toy_problem(n=6)
    with pytest.raises(ParameterError, match="integers"):
        train(params, main, branch, np.array([0, 1, 2, 0, 1, 1.5]), TrainConfig(epochs=1))


def test_bool_labels_are_rejected():
    params = init_params(TINY, 3, seed=0)
    main, branch, _ = toy_problem(n=6)
    labels = np.array([False, True, True, False, True, False])
    with pytest.raises(ParameterError, match="integers"):
        train(params, main, branch, labels, TrainConfig(epochs=1))


@pytest.mark.parametrize("which", ["main", "branch"])
def test_a_non_finite_input_is_rejected(which):
    # One NaN would otherwise train every parameter to NaN.
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    inputs = {"main": main, "branch": branch}
    inputs[which][4, 1, 7] = np.nan
    with pytest.raises(ParameterError, match=f"^{which} input holds a non-finite value in float32 in row 4 of 24$"):
        train(params, main, branch, labels, TrainConfig(epochs=1))


def test_an_input_past_the_parameters_range_is_rejected_after_the_cast():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    branch[0, 0, 0] = 1e39  # finite in float64, inf once cast to the model's float32
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match="^branch input holds a non-finite"):
        train(params, main, branch, labels, TrainConfig(epochs=0))
    # A float64 model holds the same value, so it trains.
    assert train(as_float64(params), main, branch, labels, TrainConfig(epochs=0)).params.dtype == np.float64


def test_training_stops_at_the_first_non_finite_loss():
    # At this step size the parameters overflow within a few steps; the run
    # stops there rather than stepping on through all 50 epochs.
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    with np.errstate(all="ignore"), pytest.raises(ParameterError) as err:
        train(params, main, branch, labels, TrainConfig(learning_rate=1e30, epochs=50, batch_size=8))
    match = re.fullmatch(r"non-finite training loss at epoch (\d+), step (\d+); lower the learning rate", str(err.value))
    assert match, str(err.value)
    epoch, step = map(int, match.groups())
    assert 1 <= epoch < 50
    assert 3 * (epoch - 1) < step <= 3 * epoch  # 24 samples at batch 8: three steps per epoch


def test_a_non_finite_parameter_after_an_update_stops_the_run():
    # A step size past float32's range makes the first update infinite while
    # that step's loss is finite, so only the parameter check can stop it.
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    message = r"^non-finite encoder\.0\.weights updated at epoch 1, step 1; lower the learning rate$"
    with pytest.raises(ParameterError, match=message):
        train(params, main, branch, labels, TrainConfig(learning_rate=1e39, epochs=3, batch_size=8))


def test_a_backward_overflow_on_the_last_step_is_not_returned(monkeypatch):
    # One step in all: no later loss would see the NaN the overflow leaves.
    backward = model.model_backward

    def overflowing(*a):
        grads = backward(*a)
        grads["classifier2.bias"][0] = np.inf
        return grads

    monkeypatch.setattr(model, "model_backward", overflowing)
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    with pytest.raises(ParameterError, match=r"^non-finite classifier2\.bias updated at epoch 1, step 1; "):
        train(params, main, branch, labels, TrainConfig(epochs=1, batch_size=24))


@pytest.mark.parametrize("shared", [False, True], ids=["two_arrays", "one_array"])
def test_float32_inputs_train_to_the_bytes_of_their_float64_source(shared):
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem()
    branch = main if shared else branch
    narrow = main.astype(np.float32)
    cfg = TrainConfig(epochs=3, batch_size=8)
    wide = train(params, main, branch, labels, cfg)
    cast = train(params, narrow, narrow if shared else branch.astype(np.float32), labels, cfg)
    assert wide.history == cast.history
    assert all(wide.params.arrays[k].tobytes() == cast.params.arrays[k].tobytes() for k in params.arrays)


def test_one_array_as_both_inputs_is_cast_and_gathered_once(monkeypatch):
    params = init_params(TINY, 3, seed=0)
    main, _, labels = toy_problem()
    cast, branch, _ = model.check_dataset(params, main, main, labels)
    assert branch is cast and cast.dtype == np.float32
    keys = []
    gather = model._gather
    monkeypatch.setattr(model, "_gather", lambda ws, key, *a: keys.append(key) or gather(ws, key, *a))
    cfg = TrainConfig(epochs=2, batch_size=10)
    shared = train(params, main, main, labels, cfg)
    assert keys == ["main"] * 6  # 24 samples: steps of 10, 10 and 4, twice
    copied = train(params, main, main.copy(), labels, cfg)
    assert keys[6:] == ["main", "branch"] * 6
    assert shared.history == copied.history
    assert arrays_equal(shared.params, copied.params)


@pytest.mark.parametrize("epochs", [0, 1])
def test_inputs_shorter_than_one_segment_are_rejected(epochs):
    # With no epoch to run, train() would otherwise return a model that no input this short can run.
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem(n=6, t=TINY.segment_len - 1)
    with pytest.raises(ParameterError, match="need at least one full segment: T=9 < segment_len=10"):
        train(params, main, branch, labels, TrainConfig(epochs=epochs))


# -------------------------------------------------------------------- memory


def traced_steps(monkeypatch, *args) -> list:
    """Run train(*args) under tracemalloc; returns the traced (current, peak)
    bytes at the start of each step (its first chunk's gather) and at the
    end, each peak since the mark before it."""
    marks, stepping = [], []
    gather, chunks = model._gather, model._chunks

    def splitting(*a):  # once per step, before the step's first gather
        stepping.append(True)
        return chunks(*a)

    def marking(ws, key, *a):
        if key == "main" and stepping:
            stepping.clear()
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return gather(ws, key, *a)

    monkeypatch.setattr(model, "_chunks", splitting)
    monkeypatch.setattr(model, "_gather", marking)
    tracemalloc.start()
    try:
        train(*args)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return marks


def raw_problem(n, t=2100, dtype=np.float64):
    return np.random.default_rng(5).normal(size=(n, IN_CHANNELS, t)).astype(dtype), np.arange(n) % 4


def traced_peak(*args) -> int:
    tracemalloc.start()
    try:
        train(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_copies_an_input_only_to_cast_it():
    # At epochs=0 train() runs every input check and no step.  An input in
    # the model's float32 is used as it is; a float64 one is cast to a copy.
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    x, labels = raw_problem(70, dtype=np.float32)
    assert traced_peak(params, x, x, labels, TrainConfig(epochs=0)) < x.nbytes / 10
    wide = x.astype(np.float64)
    assert traced_peak(params, wide, wide, labels, TrainConfig(epochs=0)) >= x.nbytes


def one_batch_cache_bound(x: np.ndarray, b: int, t: int) -> int:
    """A bound on what one epoch of train() over the float64 x at batch size
    b holds: x cast, a whole minibatch gathered, a chunk's activations,
    backward's chunk-sized gradient buffers (less than a second chunk set:
    84 channel rows against 90), and one conv output more for the tap
    products the first forward makes before backward has made their
    scratch."""
    rows = model._chunks(b, t)[0].stop
    chunk, cast, batch = training_cache_bytes(rows, t), x.size * 4, b * IN_CHANNELS * t * 4
    return cast + batch + 2 * chunk + rows * CHANNELS * t * 4


def test_training_peaks_at_one_batch_cache(monkeypatch):
    # Steps of 32, 32 and 6 share one workspace, and each step runs its chunks
    # of 7 samples one after another: it holds one chunk's activations, where
    # a step that kept every chunk's until the loss would hold five.
    b, t = 32, 2100
    x, labels = raw_problem(70)
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    marks = traced_steps(monkeypatch, params, x, x, labels, TrainConfig(epochs=1, batch_size=b))
    assert max(peak for _, peak in marks) <= one_batch_cache_bound(x, b, t)


def test_backward_holds_no_merge_input_or_input_gradient():
    # Backward forms the merge input's gradient one block's [rows, CHANNELS, T]
    # share at a time, never the [rows, 4*CHANNELS, T] whole, and no input
    # gradient of the first encoder or branch conv; and each chunk gathers
    # only its own rows.  The first saving alone is three conv outputs.
    b, t = 32, 2100
    x, labels = raw_problem(70)
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    rows = model._chunks(b, t)[0].stop
    peak = traced_peak(params, x, x, labels, TrainConfig(epochs=1, batch_size=b))
    assert peak <= one_batch_cache_bound(x, b, t) - 3 * CHANNELS * rows * t * 4


def test_the_training_peak_does_not_grow_with_the_batch_size():
    # Each chunk gathers its own rows, so twice the batch holds what the
    # batch of 32 does, give or take a few of the heads' small arrays; a
    # workspace that held every chunk's activations would add 5 MB.  The
    # first train() in a process makes a few KB of one-time objects (their
    # size varies from run to run), so an untraced run goes first.
    x, labels = raw_problem(64, dtype=np.float32)
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    train(params, x, x, labels, TrainConfig(epochs=1))
    peaks = [traced_peak(params, x, x, labels, TrainConfig(epochs=1, batch_size=b)) for b in (32, 64)]
    assert abs(peaks[1] - peaks[0]) <= 1024


def test_a_training_step_after_the_first_allocates_no_activation(monkeypatch):
    # The first step makes the workspace; every later one reuses it, so it
    # allocates less than one conv output of one chunk and holds no more after.
    b, t = 32, 2100
    x, labels = raw_problem(64, dtype=np.float32)
    params = init_params(ModelConfig(), n_classes=4, seed=0)
    marks = traced_steps(monkeypatch, params, x, x, labels, TrainConfig(epochs=2, batch_size=b))
    bound = model._chunks(b, t)[0].stop * CHANNELS * t * 4
    starts = [current for current, _ in marks[1:-1]]
    assert len(starts) == 3
    for start, (_, peak) in zip(starts, marks[2:]):
        assert peak - start <= bound
    assert max(starts) - min(starts) <= bound


# --------------------------------------------------------------- grad check


def test_grad_check_on_clean_fixture():
    params = init_params(TINY, 3, seed=2)
    rng = np.random.default_rng(1002)
    main = rng.normal(size=(2, 2, 30))
    branch = rng.normal(size=(2, 2, 30))
    labels = np.array([0, 2])
    out = grad_check(params, main, branch, labels, n_coords=80, step=1e-5, seed=0)
    # Only trust the comparison when no ReLU input sits near the kink.
    assert out["kink_margin"] > 2e-5
    assert out["max_rel_err"] < 1e-4
    assert out["n_coords"] == 80
    assert out["worst_path"] is not None


def test_grad_check_covers_all_coordinates_when_asked():
    params = init_params(TINY, 2, seed=3)
    rng = np.random.default_rng(7)
    main = rng.normal(size=(1, 2, 20))
    branch = rng.normal(size=(1, 2, 20))
    total = sum(a.size for a in params.arrays.values())
    out = grad_check(params, main, branch, np.array([1]), n_coords=10 * total)
    assert out["n_coords"] == total


def test_grad_check_validation():
    params = init_params(TINY, 2, seed=0)
    with pytest.raises(ParameterError):
        grad_check(params, np.zeros((1, 2, 20)), np.zeros((1, 2, 20)), np.array([0]), n_coords=0)


def test_batch_loss_matches_forward():
    params = init_params(TINY, 3, seed=0)
    main, branch, labels = toy_problem(n=6)
    loss = batch_loss(params, main, branch, labels)
    assert np.isfinite(loss)
    assert loss > 0


# ------------------------------------------------------------------ transfer


def test_sat_transfer_freezes_branch_and_swaps_heads():
    pre = init_params(TINY, 5, seed=0)
    main, branch, labels = toy_problem(n=12, n_classes=4)
    cfg = TrainConfig(epochs=1, batch_size=4)
    res = sat_transfer(pre, 4, main, branch, labels, cfg, head_seed=3)
    # The attention branch transfers bit-identically.
    for p in pre.arrays:
        if p.startswith("branch."):
            assert np.array_equal(res.params.arrays[p], pre.arrays[p]), p
    # Both heads now size for the new label set.
    assert res.params.n_classes == 4
    assert res.params.arrays["classifier2.weights"].shape == (4, 4)
    assert res.params.arrays["classifier1.weights"].shape == (4, CHANNELS)


def test_sat_transfer_head_seed_is_deterministic():
    pre = init_params(TINY, 5, seed=0)
    main, branch, labels = toy_problem(n=12, n_classes=4)
    cfg = TrainConfig(learning_rate=0.0, epochs=0)
    a = sat_transfer(pre, 4, main, branch, labels, cfg, head_seed=3)
    b = sat_transfer(pre, 4, main, branch, labels, cfg, head_seed=3)
    c = sat_transfer(pre, 4, main, branch, labels, cfg, head_seed=4)
    assert np.array_equal(a.params.arrays["classifier1.weights"], b.params.arrays["classifier1.weights"])
    assert not np.array_equal(a.params.arrays["classifier1.weights"], c.params.arrays["classifier1.weights"])


def test_sat_transfer_validation():
    pre = init_params(TINY, 5, seed=0)
    main, branch, labels = toy_problem(n=12, n_classes=4)
    for n_classes_new in (1, 2.0, 2.5, "3", True):
        with pytest.raises(ParameterError, match="^n_classes_new must be"):
            sat_transfer(pre, n_classes_new, main, branch, labels, TrainConfig(epochs=0))
