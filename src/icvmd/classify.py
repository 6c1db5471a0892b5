"""Nearest-centroid classification on standardized features, plus evaluation.

Deliberately simple: the experiments compare feature pipelines, so the
classifier is a fixed, fully deterministic reference point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class NearestCentroid:
    """Per-class centroids in a within-class-whitened feature space.

    Each dimension is scaled by the pooled within-class standard deviation, so
    a centroid decision is a shared-diagonal-covariance Gaussian classifier:
    dimensions that vary a lot inside a class (nuisance variation) are
    downweighted automatically, dimensions that only vary between classes
    dominate the distance.  classes are sorted ascending; distance ties
    resolve to the lowest class label.
    """

    classes: np.ndarray
    centroids: np.ndarray  # [n_classes, n_features], whitened space
    mean: np.ndarray
    scale: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(features) - self.mean) / self.scale


def fit_nearest_centroid(features: np.ndarray, labels) -> NearestCentroid:
    """Fit centroids with pooled within-class scaling.

    The pooled within-class variance of dimension d is
    sum_c sum_{i in c} (x[i,d] - mu[c,d])^2 / (N - C).  When that is not
    estimable (fewer samples than classes, i.e. one shot per class) or
    collapses to ~0, the global standard deviation of the dimension is used
    instead; all-constant dimensions get unit scale.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ParameterError("features must be a non-empty 2-D array")
    if y.shape != (x.shape[0],):
        raise ParameterError("labels must be 1-D and match the feature rows")
    if not np.all(np.isfinite(x)):
        raise ParameterError("features must be finite")

    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateInputError("need at least two classes to fit a classifier")
    mean = x.mean(axis=0)
    global_std = x.std(axis=0)

    n, c = x.shape[0], classes.size
    class_means = {cl: x[y == cl].mean(axis=0) for cl in classes}
    if n > c:
        ss = np.zeros(x.shape[1])
        for cl in classes:
            resid = x[y == cl] - class_means[cl]
            ss += np.sum(resid**2, axis=0)
        within_std = np.sqrt(ss / (n - c))
    else:
        within_std = np.zeros(x.shape[1])

    # Guard rails: dead within-class estimate -> global spread -> unit.
    floor = 1e-3 * global_std
    scale = np.where(within_std > floor, within_std, global_std)
    scale = np.where(scale > 0, scale, 1.0)

    z = (x - mean) / scale
    centroids = np.stack([z[y == cl].mean(axis=0) for cl in classes])
    return NearestCentroid(classes=classes, centroids=centroids, mean=mean, scale=scale)


def classify(model: NearestCentroid, features: np.ndarray) -> np.ndarray:
    """Predict the class of each row (finite, as wide as the centroids); ties go to the lowest class label."""
    x = np.atleast_2d(features)
    if x.ndim != 2 or x.shape[1] != model.centroids.shape[1]:
        raise ParameterError(f"features must be rows of {model.centroids.shape[1]} values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("features must be finite")
    z = model.transform(x)
    d = np.linalg.norm(z[:, None, :] - model.centroids[None, :, :], axis=2)
    idx = np.argmin(d, axis=1)  # argmin returns the first (lowest-class) minimum
    return model.classes[idx]


@dataclass
class ExperimentReport:
    """Evaluation summary: overall and per-SNR accuracy plus a confusion matrix.

    The confusion matrix covers the union of training and test labels (rows =
    true, columns = predicted); test samples whose label the model never saw
    are counted as errors, never dropped.
    """

    accuracy: float
    per_snr: dict
    label_set: np.ndarray
    confusion: np.ndarray
    n_test: int


def evaluate(predictions, true_labels, snrs_db=None, known_labels=None) -> ExperimentReport:
    """Score predictions against truth, bucketed by SNR when provided."""
    pred = np.asarray(predictions)
    truth = np.asarray(true_labels)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise ParameterError("predictions and true labels must be matching non-empty 1-D arrays")

    pool = [truth, pred]
    if known_labels is not None:
        pool.append(np.asarray(known_labels))
    label_set = np.unique(np.concatenate(pool))
    index = {c: i for i, c in enumerate(label_set.tolist())}
    confusion = np.zeros((label_set.size, label_set.size), dtype=int)
    for t, p in zip(truth.tolist(), pred.tolist()):
        confusion[index[t], index[p]] += 1

    correct = pred == truth
    accuracy = float(np.mean(correct))
    per_snr = {}
    if snrs_db is not None:
        snrs = np.asarray(snrs_db)
        if snrs.shape != truth.shape:
            raise ParameterError("snrs_db must match the label shape")
        for s in np.unique(snrs):
            per_snr[float(s)] = float(np.mean(correct[snrs == s]))

    return ExperimentReport(
        accuracy=accuracy,
        per_snr=per_snr,
        label_set=label_set,
        confusion=confusion,
        n_test=int(truth.size),
    )

