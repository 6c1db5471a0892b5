"""Few-shot emitter-identification experiments.

Three pipelines over the same generated dataset and the same train/test split:

* RAW_NN        -- the toy temporal-conv classifier on raw I/Q (proxy baseline)
* ICVMD_FEATURES-- two-sided decomposition, fixed-layout features, nearest centroid
* ICVMD_SAT     -- decomposition-separated inputs into the classifier, with the
                  attention branch pretrained on auxiliary emitters, frozen, and
                  the rest fine-tuned (spatial attention transfer)

``represent`` stacks a manifest's captures, in path order, into their labels,
SNRs and the arrays a pipeline fits on, decomposing each capture at most once
per run and dropping (and naming) any capture that cannot be represented;
``predict`` is one classifier forward over all the captures, which
model_forward runs chunk by chunk.  ``run_fewshot`` and the ``icvmd train``
and ``eval`` commands share both.

For each training proportion the train set is subsampled per class; cells where
a class would get zero samples are reported as unsupported rather than crashed.
Every capture is decomposed with ``VmdConfig()`` and each classifier fits with
``TrainConfig()``; the architecture, the seeds and the SAT pretraining are the
fixed ones below.  ``icvmd fewshot`` chooses only the pipeline and the proportions.
"""
from __future__ import annotations

import csv
import enum
import functools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classify import classify, evaluate, fit_nearest_centroid
from .dataset import (
    DatasetSpec,
    generate_dataset,
    load_entry,
    load_manifest,
    split_manifest,
    subsample_manifest,
)
from .decompose import ModeLabel, icvmd_decompose, reconstruct
from .errors import DegenerateInputError, ParameterError, is_real
from .features import extract_features
from .nn.layers import DTYPE
from .nn.model import ModelConfig, init_params, model_forward
from .nn.train import TrainConfig, sat_transfer, train
from .pa import auxiliary_bank
from .signals import ComplexSignal
from .vmd import VmdConfig


# The experiment's fixed split and seeds: test split, per-proportion subsample,
# classifier initialisation (also the SAT head), auxiliary bank and its dataset.
TEST_FRACTION = 1.0 / 3.0
SPLIT_SEED = 0
SUBSAMPLE_SEED = 1
MODEL_SEED = 0
AUX_EMITTER_SEED = 77
AUX_DATASET_SEED = 7700
# The SAT pretraining on auxiliary emitters, which get the base spec's captures per emitter.
PRETRAIN = TrainConfig(epochs=40, batch_size=32, learning_rate=5e-3)
N_AUX_EMITTERS = 5
# The columns of report.csv, in order.
REPORT_FIELDS = ("pipeline", "proportion", "snr_db", "accuracy", "n_test", "status")


class Pipeline(enum.Enum):
    RAW_NN = "raw_nn"
    ICVMD_FEATURES = "icvmd_features"
    ICVMD_SAT = "icvmd_sat"


# perfbench/workloads.py imports this name; nothing in the package calls it.
default_icvmd_config = VmdConfig


@dataclass
class FewshotResult:
    rows: list  # report.csv's rows as dicts, each cell's accuracy and test count
    csv_path: str
    skipped: list = field(default_factory=list)  # (path, reason) per dropped capture
    sides: list = field(default_factory=list)  # the converged flag of each side the solver ran on
    final_losses: dict = field(default_factory=dict)  # proportion -> (last-epoch loss, n_classes)


def signal_channels(sig: ComplexSignal) -> np.ndarray:
    """Complex sequence -> the [2, T] I/Q stack the classifier eats, built in its DTYPE, which must hold it."""
    with np.errstate(over="ignore"):  # a value DTYPE cannot hold becomes inf, refused below
        stack = np.stack([sig.samples.real, sig.samples.imag], dtype=DTYPE)
    if not np.isfinite(stack).all():
        raise DegenerateInputError(f"the I/Q stack of a sequence with peak {np.abs(sig.samples).max():.3g} overflows float32")
    return stack


def sat_inputs(result) -> tuple:
    """Input pair for the SAT pipeline, two ``signal_channels`` stacks.

    Main path: everything EXCEPT the intentional-modulation modes (the
    fingerprint lives in the distortion and noise-floor structure): the input
    minus the branch, which is what ``reconstruct`` returns for every other
    label plus the residual.
    Branch path: the intentional-modulation reconstruction, which tells the
    attention where the waveform actually carries structure.
    """
    signal_side = reconstruct(result, {ModeLabel.SIGNAL})
    feature_side = ComplexSignal(result.input_signal.samples - signal_side.samples)
    return signal_channels(feature_side), signal_channels(signal_side)


def _represent_one(pipeline: Pipeline, manifest: dict, entry: dict, icvmd_cfg: VmdConfig) -> tuple:
    """One capture's memo record: ``(arrays or None, reason or None, converged flags of its solved sides)``."""
    spec = manifest.get("spec")  # a manifest that is not gen's may lack one
    n_samples = spec.get("n_samples") if isinstance(spec, dict) else None
    try:
        sig = load_entry(manifest, entry)
    except (OSError, ValueError) as exc:
        return None, str(exc), ()
    if n_samples is not None and len(sig) != n_samples:
        return None, f"it holds {len(sig)} samples; the manifest's spec has n_samples {n_samples}", ()
    if pipeline is Pipeline.RAW_NN:
        return (signal_channels(sig),), None, ()
    flags = ()
    try:
        result = icvmd_decompose(sig, icvmd_cfg)
        flags = tuple(s.mode_set.converged for s in (result.pos, result.neg) if s.mode_set.iterations)
        return ((extract_features(result),) if pipeline is Pipeline.ICVMD_FEATURES else sat_inputs(result)), None, flags
    except DegenerateInputError as exc:
        return None, str(exc), flags


def represent(pipeline: Pipeline, manifest: dict, icvmd_cfg: VmdConfig, memo: dict) -> tuple:
    """Represent the manifest's captures in path order; returns ``(labels, snrs, arrays)``.

    ``labels`` and ``snrs`` are the kept captures' manifest ``label`` and
    ``snr_db`` arrays, and ``arrays`` is what the pipeline's fit consumes,
    stacked over the same captures: ``(features,)`` for ICVMD_FEATURES,
    ``(mains, branches)`` in the classifier's float32 for the classifier
    pipelines, where RAW_NN's two are one array.  A capture that cannot be
    loaded (missing file, bad length, a non-finite sample, or a sample count
    other than the manifest spec's ``n_samples``) or whose representation
    raises DegenerateInputError (for example an all-zero capture) is
    dropped; a ParameterError from the solver config propagates.  Pass one
    ``memo`` dict for a whole run: keyed by (pipeline, solver config, manifest
    directory, entry path), it records each capture's outcome once, so each
    capture is decomposed at most once per pipeline and config and ``tally``
    reads the run's dropped captures and solved sides off it.  Raises
    DegenerateInputError when the manifest lists no capture or every capture
    was dropped, and ParameterError when the kept arrays differ in shape
    (captures of two lengths in a manifest without a spec).
    """
    entries = sorted(manifest["files"], key=lambda e: e["path"])
    if not entries:
        raise DegenerateInputError(f"the manifest in {manifest['_dir']} lists no captures")
    kept, first_of_shape = [], {}  # (label, snr_db, *arrays) per kept capture
    for entry in entries:
        key = (pipeline, icvmd_cfg, manifest["_dir"], entry["path"])
        if key not in memo:
            memo[key] = _represent_one(pipeline, manifest, entry, icvmd_cfg)
        if memo[key][0] is not None:
            kept.append((entry["label"], entry["snr_db"], *memo[key][0]))
            first_of_shape.setdefault(kept[-1][2].shape, entry["path"])
    if not kept:
        raise DegenerateInputError(f"none of {len(entries)} captures could be represented")
    if len(first_of_shape) > 1:
        a, b, *_ = first_of_shape.values()
        raise ParameterError(f"captures {a} and {b} differ in length, and the manifest has no spec to say which to keep")
    labels, snrs, *arrays = (np.stack(column) for column in zip(*kept))
    return labels, snrs, tuple(arrays * 2 if pipeline is Pipeline.RAW_NN else arrays)


def tally(memo: dict) -> tuple:
    """A run's ``(skipped, sides)`` off its memo, in the order its captures were
    met: ``(path, reason)`` per dropped capture, and the ``converged`` flag of
    every side the solver ran on."""
    skipped = [(path, reason) for (*_, path), (_, reason, _) in memo.items() if reason is not None]
    return skipped, [flag for _, _, flags in memo.values() for flag in flags]


def predict(params, mains, branches, class_ids) -> np.ndarray:
    """Classifier inference (model_forward checks the inputs and chunks the batch); the predicted class ids,
    one per output of the model, as a list, tuple or array.  A logit not finite in the parameters' dtype raises ParameterError naming its row."""
    class_ids = np.asarray(class_ids)
    if len(class_ids) != params.n_classes:
        raise ParameterError(f"{len(class_ids)} class ids for a model of {params.n_classes} classes")
    logits, _ = model_forward(params, mains, branches)
    if not np.isfinite(logits).all():
        raise ParameterError(f"non-finite logits for row {int(np.isfinite(logits).all(axis=1).argmin())} of {len(logits)}")
    return class_ids[np.argmax(logits, axis=1)]


def pretrain(spec: DatasetSpec, icvmd_cfg: VmdConfig, workdir: Path, memo: dict):
    """The classifier trained with PRETRAIN on auxiliary emitters, which get the base
    spec's captures per emitter in ``workdir/aux_data``; SAT transfers from it."""
    emitters = tuple(auxiliary_bank(N_AUX_EMITTERS, AUX_EMITTER_SEED))
    generate_dataset(replace(spec, emitters=emitters, seed=AUX_DATASET_SEED), workdir / "aux_data")
    aux_manifest = load_manifest(workdir / "aux_data")
    aux_labels, _, aux_x = represent(Pipeline.ICVMD_SAT, aux_manifest, icvmd_cfg, memo)
    aux_ids, aux_y = np.unique(aux_labels, return_inverse=True)
    base = init_params(ModelConfig(), n_classes=len(aux_ids), seed=MODEL_SEED)
    return train(base, *aux_x, aux_y, PRETRAIN).params


def _fit_predict(pipeline: Pipeline, pretrained, train_x, truth, class_ids, test_x) -> tuple:
    """Fit the pipeline's classifier on one training subset and label the test set.

    Returns the predicted labels and the classifier's last-epoch loss (None
    for nearest centroid).

    ``pretrained`` is called only by the SAT fit, so the auxiliary set is
    generated and pretrained on only when the pipeline needs it.
    """
    if pipeline is Pipeline.ICVMD_FEATURES:
        return classify(fit_nearest_centroid(*train_x, truth), *test_x), None
    y = np.searchsorted(class_ids, truth)
    if pipeline is Pipeline.RAW_NN:
        fresh = init_params(ModelConfig(), n_classes=len(class_ids), seed=MODEL_SEED)
        fitted = train(fresh, *train_x, y, TrainConfig())
    else:
        fitted = sat_transfer(pretrained(), len(class_ids), *train_x, y, TrainConfig(), head_seed=MODEL_SEED)
    return predict(fitted.params, *test_x, class_ids), fitted.history[-1]


def run_fewshot(spec: DatasetSpec, pipeline: Pipeline, proportions, workdir) -> FewshotResult:
    """Generate, split, and score one pipeline across the training proportions,
    each a distinct fraction in (0, 1].

    Writes ``report.csv`` in the workdir: one row per (pipeline, proportion,
    snr_db) plus an overall row per proportion (snr_db = 'all'); unsupported
    cells carry an empty accuracy and status 'unsupported'.  Captures that
    cannot be represented are left out of every set and listed in
    ``FewshotResult.skipped``; it also holds the converged flag of every
    decomposed side and each trained classifier's last-epoch loss.  A
    classifier runs any n_samples, as ModelConfig.segments cuts it.
    """
    proportions = tuple(proportions) if np.iterable(proportions) else ()  # read a generator once
    if not isinstance(pipeline, Pipeline):
        raise ParameterError(f"pipeline must be a Pipeline, got {pipeline!r}")
    if not proportions or not all(is_real(p) and 0 < p <= 1 for p in proportions):
        raise ParameterError("proportions must be fractions in (0, 1]")
    dupes = sorted({p for p in proportions if proportions.count(p) > 1})
    if dupes:
        raise ParameterError(f"each proportion may appear only once; repeated: {dupes}")
    icvmd_cfg = VmdConfig()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    generate_dataset(spec, workdir / "data")
    manifest = load_manifest(workdir / "data")
    train_m, test_m = split_manifest(manifest, TEST_FRACTION, SPLIT_SEED)

    memo: dict = {}
    rows: list = []
    final_losses: dict = {}

    def row(proportion, snr_db, accuracy, n_test, status="ok") -> dict:
        return dict(zip(REPORT_FIELDS, (pipeline.value, proportion, snr_db, accuracy, n_test, status)))

    # The test set is represented once and shared across proportions.
    test_truth, test_snrs, test_x = represent(pipeline, test_m, icvmd_cfg, memo)
    pretrained = functools.cache(lambda: pretrain(spec, icvmd_cfg, workdir, memo))

    for proportion in proportions:
        try:
            sub_m = subsample_manifest(train_m, proportion, SUBSAMPLE_SEED)
            sub_truth, _, train_x = represent(pipeline, sub_m, icvmd_cfg, memo)
        except DegenerateInputError:
            rows.append(row(proportion, "all", "", len(test_truth), "unsupported"))
            continue
        class_ids = np.unique(sub_truth)
        preds, loss = _fit_predict(pipeline, pretrained, train_x, sub_truth, class_ids, test_x)
        if loss is not None:
            final_losses[proportion] = (loss, len(class_ids))

        report = evaluate(preds, test_truth, snrs_db=test_snrs, known_labels=class_ids)
        for snr, acc in sorted(report.per_snr.items()):
            rows.append(row(proportion, snr, f"{acc:.6f}", int(np.sum(test_snrs == snr))))
        rows.append(row(proportion, "all", f"{report.accuracy:.6f}", len(test_truth)))

    csv_path = workdir / "report.csv"
    write_report_csv(rows, csv_path)
    return FewshotResult(rows, str(csv_path), *tally(memo), final_losses)


def write_report_csv(rows, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
