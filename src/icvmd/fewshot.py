"""Few-shot emitter-identification experiments.

Three pipelines over the same generated dataset and the same train/test split:

* RAW_NN        -- the toy temporal-conv classifier on raw I/Q (proxy baseline)
* ICVMD_FEATURES-- two-sided decomposition, fixed-layout features, nearest centroid
* ICVMD_SAT     -- decomposition-separated inputs into the classifier, with the
                  attention branch pretrained on auxiliary emitters, frozen, and
                  the rest fine-tuned (spatial attention transfer)

``represent`` stacks a manifest's captures, in path order, into the arrays a
pipeline fits on, decomposing each capture at most once per run and dropping
(and naming) any capture that cannot be represented; ``predict`` is the
batched classifier inference.  ``run_fewshot`` and the ``icvmd train``/``eval``
commands share both.

For each training proportion the train set is subsampled per class; cells where
a class would get zero samples are reported as unsupported rather than crashed.
The solver config, the architecture and the training sizes are the fixed ones
below; ``icvmd fewshot`` chooses only the pipeline and the proportions.
"""
from __future__ import annotations

import csv
import enum
import functools
import time
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
from .errors import DegenerateInputError, ParameterError
from .features import extract_features
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
# Captures per classifier forward pass in predict.
PREDICT_BATCH = 64
# The experiment's fixed training sizes: each classifier's fit, and the SAT
# pretraining on auxiliary emitters, which get the base spec's captures per emitter.
FIT = TrainConfig(epochs=30, batch_size=32)
PRETRAIN = TrainConfig(epochs=40, batch_size=32, learning_rate=5e-3)
N_AUX_EMITTERS = 5


class Pipeline(enum.Enum):
    RAW_NN = "raw_nn"
    ICVMD_FEATURES = "icvmd_features"
    ICVMD_SAT = "icvmd_sat"


def default_icvmd_config(n_modes: int = 4) -> VmdConfig:
    """Experiment-default solver config for both sides of the decomposition.

    The bandwidth weight is deliberately lower than the generic VMD default:
    each center-frequency update only attracts a mode toward spectral mass
    inside a basin of width ~1/sqrt(alpha).  The solver starts the centers at
    the side's strongest spectral peaks, but weaker bands (the distortion the
    features describe) lie between them, and a loose prior lets a mode reach
    the band nearest its start.
    """
    return VmdConfig(n_modes=n_modes, alpha=200.0, tol=1e-6, max_iter=300)


@dataclass
class FewshotResult:
    rows: list  # CSV rows as dicts
    reports: dict  # proportion -> ExperimentReport (supported cells only)
    csv_path: str
    skipped: list = field(default_factory=list)  # (path, reason) per dropped capture
    solved_sides: int = 0  # sides the solver ran on
    unconverged_sides: int = 0  # of those, sides that stopped at max_iter
    final_losses: dict = field(default_factory=dict)  # proportion -> (last-epoch loss, n_classes)


def signal_channels(sig: ComplexSignal) -> np.ndarray:
    """Complex sequence -> the [2, T] real I/Q stack the classifier eats."""
    return np.stack([sig.samples.real, sig.samples.imag])


def sat_inputs(result) -> tuple:
    """Input pair for the SAT pipeline.

    Main path: everything EXCEPT the intentional-modulation modes (the
    fingerprint lives in the distortion and noise-floor structure): the input
    minus the branch, which is what ``reconstruct`` returns for every other
    label plus the residual.
    Branch path: the intentional-modulation reconstruction, which tells the
    attention where the waveform actually carries structure.
    """
    signal_side = reconstruct(result, {ModeLabel.SIGNAL})
    feature_side = result.input_signal.with_samples(result.input_signal.samples - signal_side.samples)
    return signal_channels(feature_side), signal_channels(signal_side)


def _represent_one(pipeline: Pipeline, sig: ComplexSignal, icvmd_cfg: VmdConfig, sides: list) -> tuple:
    if pipeline is Pipeline.RAW_NN:
        channels = signal_channels(sig)
        return channels, channels
    result = icvmd_decompose(sig, icvmd_cfg)
    sides += [s.mode_set.converged for s in (result.pos, result.neg) if s.mode_set.iterations]
    if pipeline is Pipeline.ICVMD_FEATURES:
        return (extract_features(result),)
    return sat_inputs(result)


def represent(
    pipeline: Pipeline,
    manifest: dict,
    icvmd_cfg: VmdConfig,
    memo: dict | None = None,
    skipped: list | None = None,
    sides: list | None = None,
) -> tuple:
    """Represent the manifest's captures in path order; returns ``(kept_entries, arrays)``.

    ``arrays`` is what the pipeline's fit consumes, stacked over the kept
    entries: ``(features,)`` for ICVMD_FEATURES, ``(mains, branches)`` for the
    classifier pipelines.  A capture that cannot be loaded (missing file, bad
    length, bad sidecar) or whose representation raises DegenerateInputError
    (for example a side whose every mode is DC or SPECIAL, or no FEATURE mode
    to describe) is dropped and ``(path, reason)`` is appended to ``skipped``;
    a ParameterError from the solver config propagates.  Pass one
    ``memo`` dict for a whole run so each capture is decomposed at most once;
    it is keyed by (manifest directory, entry path).  Raises
    DegenerateInputError when the manifest lists no capture or every capture
    was dropped.  Each side the solver runs on appends its ``converged`` flag
    to ``sides``.
    """
    memo = {} if memo is None else memo
    skipped = [] if skipped is None else skipped
    sides = [] if sides is None else sides
    entries = sorted(manifest["files"], key=lambda e: e["path"])
    kept, reprs = [], []
    for entry in entries:
        key = (manifest["_dir"], entry["path"])
        if key not in memo:
            try:
                sig = load_entry(manifest, entry)
            except (OSError, ValueError) as exc:
                memo[key] = None
                skipped.append((entry["path"], str(exc)))
                continue
            try:
                memo[key] = _represent_one(pipeline, sig, icvmd_cfg, sides)
            except DegenerateInputError as exc:
                memo[key] = None
                skipped.append((entry["path"], str(exc)))
        if memo[key] is not None:
            kept.append(entry)
            reprs.append(memo[key])
    if not entries:
        raise DegenerateInputError(f"the manifest in {manifest['_dir']} lists no captures")
    if not kept:
        raise DegenerateInputError(f"none of {len(entries)} captures could be represented")
    return kept, tuple(np.stack(part) for part in zip(*reprs))


def _labels(entries) -> np.ndarray:
    return np.array([e["label"] for e in entries])


def _snrs(entries) -> np.ndarray:
    return np.array([e["snr_db"] for e in entries])


def predict(params, mains, branches, class_ids) -> np.ndarray:
    """Batched classifier inference; returns the predicted class ids."""
    if mains.shape[0] == 0:
        raise ParameterError(f"empty batch: inputs of shape {mains.shape} and {branches.shape}")
    preds = []
    for start in range(0, mains.shape[0], PREDICT_BATCH):
        stop = start + PREDICT_BATCH
        logits, _ = model_forward(params, mains[start:stop], branches[start:stop])
        preds.append(np.argmax(logits, axis=1))
    return class_ids[np.concatenate(preds)]


def _pretrain(spec: DatasetSpec, icvmd_cfg: VmdConfig, workdir: Path, memo: dict, skipped: list, sides: list):
    """Train the classifier on auxiliary emitters; SAT transfers from it."""
    emitters = tuple(auxiliary_bank(N_AUX_EMITTERS, AUX_EMITTER_SEED))
    generate_dataset(replace(spec, emitters=emitters, seed=AUX_DATASET_SEED), workdir / "aux_data")
    aux_manifest = load_manifest(workdir / "aux_data")
    aux_entries, aux_x = represent(Pipeline.ICVMD_SAT, aux_manifest, icvmd_cfg, memo, skipped, sides)
    aux_ids, aux_y = np.unique(_labels(aux_entries), return_inverse=True)
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
        fitted = train(fresh, *train_x, y, FIT)
    else:
        fitted = sat_transfer(pretrained(), len(class_ids), *train_x, y, FIT, head_seed=MODEL_SEED)
    return predict(fitted.params, *test_x, class_ids), fitted.history[-1]


def run_fewshot(spec: DatasetSpec, pipeline: Pipeline, proportions, workdir) -> FewshotResult:
    """Generate, split, and score one pipeline across the training proportions,
    each a distinct fraction in (0, 1].

    Writes ``report.csv`` in the workdir: one row per (pipeline, proportion,
    snr_db) plus an overall row per proportion (snr_db = 'all'); unsupported
    cells carry an empty accuracy and status 'unsupported'.  Captures that
    cannot be represented are left out of every set and listed in
    ``FewshotResult.skipped``; it also counts the decomposed sides and those
    that stopped at max_iter without converging, and holds each trained
    classifier's last-epoch loss.
    """
    if not isinstance(pipeline, Pipeline):
        raise ParameterError(f"pipeline must be a Pipeline, got {pipeline!r}")
    if not proportions or any(not (0 < p <= 1) for p in proportions):
        raise ParameterError("proportions must be fractions in (0, 1]")
    dupes = sorted({p for p in proportions if proportions.count(p) > 1})
    if dupes:
        raise ParameterError(f"each proportion may appear only once; repeated: {dupes}")
    icvmd_cfg = default_icvmd_config()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    generate_dataset(spec, workdir / "data")
    manifest = load_manifest(workdir / "data")
    train_m, test_m = split_manifest(manifest, TEST_FRACTION, SPLIT_SEED)

    memo: dict = {}
    skipped: list = []
    sides: list = []
    rows: list = []
    reports: dict = {}
    final_losses: dict = {}

    def row(proportion, snr_db, accuracy, n_test, status="ok") -> dict:
        return {
            "pipeline": pipeline.value,
            "proportion": proportion,
            "snr_db": snr_db,
            "accuracy": accuracy,
            "n_test": n_test,
            "status": status,
        }

    # The test set is represented once and shared across proportions.
    test_entries, test_x = represent(pipeline, test_m, icvmd_cfg, memo, skipped, sides)
    test_truth = _labels(test_entries)
    test_snrs = _snrs(test_entries)
    pretrained = functools.cache(lambda: _pretrain(spec, icvmd_cfg, workdir, memo, skipped, sides))

    for proportion in proportions:
        t0 = time.perf_counter()
        try:
            sub_m = subsample_manifest(train_m, proportion, SUBSAMPLE_SEED)
            sub_entries, train_x = represent(pipeline, sub_m, icvmd_cfg, memo, skipped, sides)
        except DegenerateInputError:
            rows.append(row(proportion, "all", "", len(test_entries), "unsupported"))
            continue
        sub_truth = _labels(sub_entries)
        class_ids = np.unique(sub_truth)
        preds, loss = _fit_predict(pipeline, pretrained, train_x, sub_truth, class_ids, test_x)
        if loss is not None:
            final_losses[proportion] = (loss, len(class_ids))

        report = evaluate(
            preds,
            test_truth,
            snrs_db=test_snrs,
            known_labels=class_ids,
            wall_clock_s=time.perf_counter() - t0,
        )
        reports[proportion] = report
        for snr, acc in sorted(report.per_snr.items()):
            rows.append(row(proportion, snr, f"{acc:.6f}", int(np.sum(test_snrs == snr))))
        rows.append(row(proportion, "all", f"{report.accuracy:.6f}", len(test_entries)))

    csv_path = workdir / "report.csv"
    write_report_csv(rows, csv_path)
    return FewshotResult(rows=rows, reports=reports, csv_path=str(csv_path), skipped=skipped,
                         solved_sides=len(sides), unconverged_sides=sides.count(False),
                         final_losses=final_losses)


def write_report_csv(rows, path) -> None:
    path = Path(path)
    fields = ["pipeline", "proportion", "snr_db", "accuracy", "n_test", "status"]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
