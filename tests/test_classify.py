import warnings

import numpy as np
import pytest

from icvmd.classify import (
    classify,
    evaluate,
    fit_nearest_centroid,
)
from icvmd.errors import DegenerateInputError, ParameterError
from oracles import Stopwatch


def two_blob_data():
    x = np.array([[0.0], [1.0], [9.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    return x, y


# ----------------------------------------------------------------- centroids


def test_hand_built_two_class_problem():
    x, y = two_blob_data()
    model = fit_nearest_centroid(x, y)
    assert np.array_equal(model.classes, [0, 1])
    pred = classify(model, np.array([[4.0], [6.0], [-3.0], [20.0]]))
    assert np.array_equal(pred, [0, 1, 0, 1])


def test_tie_goes_to_lowest_class():
    # Perfectly mirror-symmetric classes: a query at the origin is exactly
    # equidistant in floating point, so the tie rule decides.
    x = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    y = np.array([3, 3, 7, 7])
    model = fit_nearest_centroid(x, y)
    pred = classify(model, np.array([[0.0]]))
    assert pred[0] == 3


def test_single_sample_classes_fall_back_to_global_scale():
    x = np.array([[0.0, 5.0], [10.0, 6.0]])
    y = np.array([0, 1])
    model = fit_nearest_centroid(x, y)  # n == c: no within-class estimate
    assert np.all(model.scale > 0)
    pred = classify(model, np.array([[1.0, 5.1], [9.0, 5.9]]))
    assert np.array_equal(pred, [0, 1])


def test_constant_dimension_gets_unit_scale():
    x = np.array([[0.0, 7.0], [1.0, 7.0], [9.0, 7.0], [10.0, 7.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_nearest_centroid(x, y)
    assert model.scale[1] == 1.0
    pred = classify(model, np.array([[0.5, 7.0]]))
    assert pred[0] == 0


def test_within_class_scaling_downweights_noisy_dimension():
    # Dimension 0 separates the classes cleanly; dimension 1 has huge
    # within-class spread and a slightly misleading between-class offset.
    rng = np.random.default_rng(0)
    n = 40
    x = np.zeros((2 * n, 2))
    y = np.array([0] * n + [1] * n)
    x[:n, 0] = rng.normal(0.0, 0.05, n)
    x[n:, 0] = rng.normal(1.0, 0.05, n)
    x[:n, 1] = rng.normal(0.0, 20.0, n)
    x[n:, 1] = rng.normal(5.0, 20.0, n)
    model = fit_nearest_centroid(x, y)
    # A query with a wildly wrong dim-1 value but clean dim-0 still classifies.
    pred = classify(model, np.array([[0.02, 60.0], [0.98, -60.0]]))
    assert np.array_equal(pred, [0, 1])


def test_string_labels_work():
    x, y = two_blob_data()
    labels = np.array(["ant", "ant", "bee", "bee"])
    model = fit_nearest_centroid(x, labels)
    pred = classify(model, np.array([[0.5], [9.5]]))
    assert pred.tolist() == ["ant", "bee"]


def test_fit_validation():
    x, y = two_blob_data()
    with pytest.raises(ParameterError):
        fit_nearest_centroid(x[:, 0], y)
    with pytest.raises(ParameterError):
        fit_nearest_centroid(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ParameterError):
        fit_nearest_centroid(x, y[:2])
    with pytest.raises(ParameterError):
        fit_nearest_centroid(np.array([[np.nan], [1.0]]), np.array([0, 1]))
    with pytest.raises(DegenerateInputError):
        fit_nearest_centroid(x, np.zeros(4))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_classify_refuses_a_non_finite_row(value):
    # Every distance to a NaN or inf row is NaN or inf, which argmin would
    # read as the lowest class.
    x, y = two_blob_data()
    model = fit_nearest_centroid(x, y)
    with pytest.raises(ParameterError, match="^features must be finite$"):
        classify(model, np.array([[4.0], [value]]))


@pytest.mark.parametrize("shape", [(2, 2), (3,), (2, 1, 1)])
def test_classify_refuses_rows_not_as_wide_as_the_centroids(shape):
    x, y = two_blob_data()
    model = fit_nearest_centroid(x, y)
    with pytest.raises(ParameterError, match=r"^features must be rows of 1 values, got shape "):
        classify(model, np.zeros(shape))


def test_transform_standardizes_training_data():
    x, y = two_blob_data()
    model = fit_nearest_centroid(x, y)
    z = model.transform(x)
    assert z.mean() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- evaluation


def test_evaluate_hand_arithmetic():
    pred = np.array([0, 0, 1, 1, 2])
    truth = np.array([0, 1, 1, 1, 2])
    rep = evaluate(pred, truth)
    assert rep.accuracy == pytest.approx(4 / 5)
    assert rep.n_test == 5
    assert np.array_equal(rep.label_set, [0, 1, 2])
    # Rows are truth: row 1 = [1, 2, 0].
    assert np.array_equal(rep.confusion, [[1, 0, 0], [1, 2, 0], [0, 0, 1]])
    assert rep.confusion.sum() == 5


def test_evaluate_per_snr_buckets():
    pred = np.array([0, 1, 0, 1])
    truth = np.array([0, 0, 0, 1])
    snrs = np.array([-4.0, -4.0, 18.0, 18.0])
    rep = evaluate(pred, truth, snrs_db=snrs)
    assert rep.per_snr[-4.0] == pytest.approx(0.5)
    assert rep.per_snr[18.0] == pytest.approx(1.0)
    assert rep.accuracy == pytest.approx(0.75)


def test_evaluate_unseen_true_label_counts_as_error():
    pred = np.array([0, 0])
    truth = np.array([0, 9])  # the model never saw class 9
    rep = evaluate(pred, truth, known_labels=np.array([0, 1]))
    assert rep.accuracy == pytest.approx(0.5)
    assert np.array_equal(rep.label_set, [0, 1, 9])
    i9 = rep.label_set.tolist().index(9)
    assert rep.confusion[i9, 0] == 1
    assert rep.confusion[1].sum() == 0  # class 1 has no support


def test_evaluate_validation():
    with pytest.raises(ParameterError):
        evaluate(np.array([0]), np.array([0, 1]))
    with pytest.raises(ParameterError):
        evaluate(np.array([]), np.array([]))
    with pytest.raises(ParameterError):
        evaluate(np.array([0, 1]), np.array([0, 1]), snrs_db=np.array([0.0]))


def test_fit_refuses_a_nan_label_before_any_numpy_warning():
    x, _ = two_blob_data()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="^labels must be 1-D, match the feature rows and hold no NaN$"):
            fit_nearest_centroid(x, [np.nan, 1, 2, 1])


@pytest.mark.parametrize(
    "pred, truth, known, dtypes",
    [
        ([1, 2], ["a", "b"], None, "<U1 and int64"),
        ([1, 2], [1, 2], ["a", "b"], "int64 and int64 and <U1"),
        (["a", "b"], ["a", "b"], [1, 2], "<U1 and <U1 and int64"),
    ],
    ids=["truth", "known_int_labels", "known_str_labels"],
)
def test_evaluate_refuses_labels_of_types_that_cannot_be_compared(pred, truth, known, dtypes):
    known = None if known is None else np.array(known)
    with pytest.raises(ParameterError, match=f"^labels of dtypes {dtypes} cannot be compared$"):
        evaluate(np.array(pred), np.array(truth), known_labels=known)


def test_evaluate_refuses_object_labels_that_do_not_order_against_the_others():
    # Neither dtype is a string kind, so only sorting the pooled labels finds the clash.
    with pytest.raises(ParameterError, match=r"^labels 'b' \(str\) and 2 \(int\) do not order together$"):
        evaluate(np.array([1, 2]), np.array(["a", "b"], dtype=object))


def test_fit_refuses_object_labels_that_do_not_order_against_each_other():
    x = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ParameterError, match=r"^labels None \(NoneType\) and 1 \(int\) do not order together$"):
        fit_nearest_centroid(x, np.array([None, 1, None, 1], dtype=object))


def test_accuracy_is_shuffle_invariant():
    rng = np.random.default_rng(3)
    pred = rng.integers(0, 3, 60)
    truth = rng.integers(0, 3, 60)
    base = evaluate(pred, truth).accuracy
    perm = rng.permutation(60)
    assert evaluate(pred[perm], truth[perm]).accuracy == pytest.approx(base)


def test_stopwatch_measures_time():
    with Stopwatch() as sw:
        sum(range(1000))
    assert sw.elapsed >= 0.0
