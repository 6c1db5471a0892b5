import numpy as np
import pytest

from icvmd.errors import DegenerateInputError, ParameterError
from icvmd.nn.model import ModelConfig, init_params, model_forward
from icvmd.nn.train import TrainConfig, sat_transfer, train
from oracles import as_float64, batch_loss, grad_check

TINY = ModelConfig(
    channels=4,
    encoder_layers=1,
    n_blocks=2,
    branch_channels=3,
    branch_layers=1,
    segment_len=10,
)


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
    res = train(params, main, branch, labels, TrainConfig(learning_rate=0.0, epochs=2))
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
    assert set(res.frozen) == {p for p in params.arrays if p.startswith("branch.")}
    for p in params.arrays:
        same = np.array_equal(res.params.arrays[p], params.arrays[p])
        if p.startswith("branch."):
            assert same, p
        else:
            assert not same, p


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
    cfg = TrainConfig(learning_rate=np.float64(1e-2), beta1=np.float64(0.9), epochs=2, batch_size=4)
    res = train(params, main, branch, labels, cfg)
    sat = sat_transfer(params, 4, main, branch, labels, cfg, head_seed=1)
    for out in (res, sat):
        assert {k: a.dtype for k, a in out.params.arrays.items()} == {k: dtype for k in params.arrays}
        assert all(type(loss) is float for loss in out.history)
    assert sat.params.arrays["classifier1.weights"].shape == (4, TINY.channels)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(eps=0.0)


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
    assert res.params.n_out == 4
    assert res.params.arrays["classifier1.weights"].shape == (4, TINY.channels)


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
    with pytest.raises(ParameterError):
        sat_transfer(pre, 1, main, branch, labels, TrainConfig(epochs=0))
