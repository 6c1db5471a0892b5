"""Command-line entry points.

Exit codes: 0 on success, 2 for parameter/validation problems, 3 for I/O
problems (missing or malformed files).
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .dataset import (
    DEFAULT_MODULATIONS,
    DEFAULT_SNR_GRID,
    DatasetSpec,
    generate_dataset,
    load_manifest,
)
from .decompose import (
    DcPolicy,
    IcvmdConfig,
    ModeLabel,
    PartitionPolicy,
    Selection,
    dump_modes,
    icvmd_decompose,
    probe_parameters,
    reconstruct_from_dump,
)
from .analytic import DcConvention
from .classify import evaluate
from .errors import DegenerateInputError, ParameterError
from .fewshot import (
    FewshotConfig,
    Pipeline,
    default_icvmd_config,
    predict,
    represent,
    run_fewshot,
)
from .iqfile import read_iqf32, write_iqf32
from .modulation import ModulationKind
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.model import ModelConfig, init_params
from .nn.train import TrainConfig, train as train_model
from .vmd import VmdConfig

EXIT_PARAMETER = 2
EXIT_IO = 3


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParameterError, DegenerateInputError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARAMETER)
        except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except json.JSONDecodeError as exc:
            click.echo(f"i/o error: malformed JSON: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


@click.group()
def main():
    """Complex-signal mode decomposition and emitter-fingerprint experiments."""


_MOD_CHOICES = [m.value for m in ModulationKind]


def _spec_from_options(config, **kw) -> DatasetSpec:
    if config is not None:
        raw = json.loads(Path(config).read_text())
        if raw.get("schema_version") != 1:
            raise ParameterError("dataset config must carry schema_version 1")
        raw = {k: v for k, v in raw.items() if k != "schema_version"}
        try:
            if "modulations" in raw:
                raw["modulations"] = tuple(ModulationKind(m) for m in raw["modulations"])
            return DatasetSpec(**raw)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad dataset config: {exc}") from None
    mods = kw.pop("modulations")
    snrs = kw.pop("snr_db")
    return DatasetSpec(
        modulations=tuple(ModulationKind(m) for m in mods) if mods else DEFAULT_MODULATIONS,
        snr_grid_db=tuple(snrs) if snrs else DEFAULT_SNR_GRID,
        **kw,
    )


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--config", type=click.Path(exists=True), default=None, help="JSON DatasetSpec (schema_version 1); overrides the other options.")
@click.option("--snr-db", multiple=True, type=float, help="SNR grid point (repeatable).")
@click.option("--modulations", multiple=True, type=click.Choice(_MOD_CHOICES))
@click.option("--n-samples", default=2100, show_default=True)
@click.option("--signals-per-emitter", default=60, show_default=True, help="Per emitter per SNR point.")
@click.option("--carrier", default=0.1, show_default=True)
@click.option("--samples-per-symbol", default=8, show_default=True)
@click.option("--sweep-span", default=0.2, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_guarded
def gen(out_dir, config, **kw):
    """Generate a simulated emitter dataset (iqf32 files + manifest.json)."""
    spec = _spec_from_options(config, **kw)
    manifest = generate_dataset(spec, out_dir)
    click.echo(f"wrote {len(manifest['files'])} signals to {out_dir}")


@main.command()
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--n-modes", default=5, show_default=True, help="Modes per side.")
@click.option("--alpha", default=2000.0, show_default=True)
@click.option("--tau", default=0.0, show_default=True)
@click.option("--tol", default=1e-7, show_default=True)
@click.option("--max-iter", default=500, show_default=True)
@click.option("--dc-lock", is_flag=True)
@click.option("--n-signal-modes", default=1, show_default=True)
@click.option("--dc-policy", type=click.Choice([p.value for p in DcPolicy]), default=DcPolicy.SEPARATE.value, show_default=True)
@click.option("--special-low", default=0.9 * np.pi, show_default=True, help="Special window low edge (rad).")
@click.option("--special-high", default=float(np.pi), show_default=True, help="Special window high edge (rad).")
@click.option("--special-energy-min", default=0.05, show_default=True)
@click.option("--dc-convention", type=click.Choice([c.value for c in DcConvention]), default=DcConvention.DC_TO_POSITIVE.value, show_default=True)
@_guarded
def decompose(
    input_file,
    out_dir,
    n_modes,
    alpha,
    tau,
    tol,
    max_iter,
    dc_lock,
    n_signal_modes,
    dc_policy,
    special_low,
    special_high,
    special_energy_min,
    dc_convention,
):
    """Decompose an iqf32 file into labeled modes (one iqf32 per mode + modes.json)."""
    sig = read_iqf32(input_file)
    cfg = IcvmdConfig(
        vmd=VmdConfig(
            n_modes=n_modes, alpha=alpha, tau=tau, tol=tol, max_iter=max_iter, dc_lock=dc_lock
        ),
        partition=PartitionPolicy(
            n_signal_modes=n_signal_modes,
            dc_policy=DcPolicy(dc_policy),
            special_window=(special_low, special_high),
            special_energy_min=special_energy_min,
        ),
        dc_convention=DcConvention(dc_convention),
    )
    result = icvmd_decompose(sig, cfg)
    manifest = dump_modes(result, out_dir)
    for entry in manifest["modes"]:
        click.echo(
            f"{entry['file']}  side={entry['side']}  omega={entry['omega']:.4f}  "
            f"energy={entry['energy_fraction']:.4f}  label={entry['label']}"
        )
    click.echo(f"wrote {len(manifest['modes'])} modes to {out_dir}")
    for side, s in manifest["solver"].items():
        if not s["converged"]:
            delta = "n/a" if s["final_delta"] is None else f"{s['final_delta']:.3g}"
            msg = f"stopped at {s['iterations']} sweeps (--max-iter) without converging"
            click.echo(f"warning: {side} side {msg}: final delta {delta} >= tol {tol:g}", err=True)


@main.command()
@click.argument("modes_dir", type=click.Path(exists=True))
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option(
    "--select",
    multiple=True,
    type=click.Choice([l.value for l in ModeLabel] + [Selection.RESIDUAL.value]),
    default=("signal",),
    show_default=True,
)
@_guarded
def reconstruct(modes_dir, out_file, select):
    """Rebuild a complex signal from a decompose dump."""
    selection = set()
    for s in select:
        selection.add(Selection.RESIDUAL if s == Selection.RESIDUAL.value else ModeLabel(s))
    sig = reconstruct_from_dump(modes_dir, selection)
    write_iqf32(out_file, sig.samples, {"sample_rate": sig.sample_rate, "selection": sorted(select)})
    click.echo(f"wrote {len(sig)} samples to {out_file}")


@main.command()
@click.argument("input_file", type=click.Path(exists=True))
@_guarded
def probe(input_file):
    """Suggest decomposition parameters for an iqf32 file."""
    sig = read_iqf32(input_file)
    s = probe_parameters(sig)
    click.echo(
        json.dumps(
            {
                "k_low": s.k_low,
                "k_high": s.k_high,
                "alpha": s.alpha,
                "n_peaks": s.n_peaks,
                "mean_bandwidth_rad": s.mean_bandwidth,
            },
            indent=2,
        )
    )


# The classifier pipeline behind each --representation choice.
_REPRESENTATIONS = {"raw": Pipeline.RAW_NN, "icvmd": Pipeline.ICVMD_SAT}


def _represent_dataset(data_dir, representation, n_modes) -> tuple:
    """Represent every capture of a dataset directory; warns about dropped captures."""
    manifest = load_manifest(data_dir)
    entries = sorted(manifest["files"], key=lambda e: e["path"])
    skipped: list = []
    kept, (mains, branches) = represent(
        _REPRESENTATIONS[representation],
        manifest,
        entries,
        default_icvmd_config(n_modes),
        skipped=skipped,
    )
    for path, reason in skipped:
        click.echo(f"skipped {path}: {reason}", err=True)
    return kept, mains, branches


@main.command("train")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--representation", type=click.Choice(list(_REPRESENTATIONS)), default="raw", show_default=True)
@click.option("--epochs", default=30, show_default=True)
@click.option("--learning-rate", default=2e-3, show_default=True)
@click.option("--batch-size", default=32, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--segment-len", default=100, show_default=True)
@click.option("--n-modes", default=4, show_default=True, help="Modes per side for the icvmd representation.")
@_guarded
def train_cmd(data_dir, out_file, representation, epochs, learning_rate, batch_size, seed, segment_len, n_modes):
    """Train the toy classifier on a dataset directory; writes an .npz checkpoint."""
    entries, mains, branches = _represent_dataset(data_dir, representation, n_modes)
    class_ids, labels = np.unique([e["label"] for e in entries], return_inverse=True)

    params = init_params(ModelConfig(segment_len=segment_len), n_classes=len(class_ids), seed=seed)
    cfg = TrainConfig(learning_rate=learning_rate, epochs=epochs, batch_size=batch_size, seed=seed)
    result = train_model(params, mains, branches, labels, cfg)
    save_checkpoint(out_file, result.params)
    Path(str(out_file) + ".labels.json").write_text(
        json.dumps(
            {
                "schema_version": 1,
                "class_ids": class_ids.tolist(),
                "representation": representation,
                "n_modes": n_modes,
                "epochs": cfg.epochs,
                "learning_rate": cfg.learning_rate,
                "batch_size": cfg.batch_size,
                "seed": cfg.seed,
                "history": result.history,
            }
        )
    )
    loss = f"{result.history[-1]:.4f}" if result.history else "n/a (no epochs)"
    click.echo(f"final epoch loss {loss}; checkpoint at {out_file}")


@main.command("eval")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", "ck_file", required=True, type=click.Path(exists=True))
@_guarded
def eval_cmd(data_dir, ck_file):
    """Evaluate a checkpoint on a dataset directory; prints a JSON report."""
    meta_path = Path(str(ck_file) + ".labels.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing label map {meta_path}")
    meta = json.loads(meta_path.read_text())
    class_ids = np.array(meta["class_ids"])
    params = load_checkpoint(ck_file)

    entries, mains, branches = _represent_dataset(
        data_dir, meta.get("representation", "raw"), meta.get("n_modes", 4)
    )
    predictions = predict(params, mains, branches, class_ids)
    truth = np.array([e["label"] for e in entries])
    snrs = np.array([e["snr_db"] for e in entries])
    report = evaluate(predictions, truth, snrs_db=snrs, known_labels=class_ids)
    click.echo(
        json.dumps(
            {
                "accuracy": report.accuracy,
                "per_snr": report.per_snr,
                "n_test": report.n_test,
                "labels": report.label_set.tolist(),
                "confusion": report.confusion.tolist(),
            },
            indent=2,
        )
    )


@main.command()
@click.option("--workdir", required=True, type=click.Path())
@click.option("--config", type=click.Path(exists=True), default=None, help="JSON DatasetSpec (schema_version 1).")
@click.option("--pipeline", type=click.Choice([p.value for p in Pipeline]), default=Pipeline.ICVMD_FEATURES.value, show_default=True)
@click.option("--proportions", default="0.30,0.10,0.03", show_default=True)
@click.option("--snr-db", multiple=True, type=float)
@click.option("--modulations", multiple=True, type=click.Choice(_MOD_CHOICES))
@click.option("--n-samples", default=2100, show_default=True)
@click.option("--signals-per-emitter", default=60, show_default=True)
@click.option("--carrier", default=0.1, show_default=True)
@click.option("--samples-per-symbol", default=8, show_default=True)
@click.option("--sweep-span", default=0.2, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_guarded
def fewshot(workdir, config, pipeline, proportions, **kw):
    """Run a few-shot experiment; writes report.csv in the workdir."""
    spec = _spec_from_options(config, **kw)
    try:
        props = tuple(float(p) for p in proportions.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad proportions list {proportions!r}: {exc}") from None
    cfg = FewshotConfig(pipeline=Pipeline(pipeline), proportions=props)
    result = run_fewshot(spec, cfg, workdir)
    for row in result.rows:
        click.echo(
            f"{row['pipeline']}  p={row['proportion']}  snr={row['snr_db']}  "
            f"acc={row['accuracy'] or 'n/a'}  [{row['status']}]"
        )
    for path, reason in result.skipped:
        click.echo(f"skipped {path}: {reason}")
    click.echo(f"report: {result.csv_path}")


if __name__ == "__main__":
    main()
