"""Command-line entry points.

Exit codes: 0 on success, 2 for parameter/validation problems, 3 for I/O
problems (missing or malformed files).
"""
from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict, fields

import click
import numpy as np

from .dataset import (
    DEFAULT_MODULATIONS,
    DEFAULT_SNR_GRID,
    DatasetSpec,
    generate_dataset,
    load_manifest,
    load_spec,
)
from .decompose import (
    ModeLabel,
    Selection,
    dump_modes,
    icvmd_decompose,
    reconstruct_from_dump,
)
from .classify import evaluate
from .errors import DegenerateInputError, ParameterError, check_keys
from .fewshot import (
    Pipeline,
    predict,
    represent,
    run_fewshot,
    tally,
)
from .iqfile import read_iqf32, write_iqf32
from .modulation import ModulationKind
from .nn.checkpoint import MAX_EPOCHS, load_checkpoint, save_checkpoint
from .nn.model import ModelConfig, init_params
from .nn.train import TrainConfig, train as train_model
from .vmd import VmdConfig

EXIT_PARAMETER = 2
EXIT_IO = 3

# How close to ln(n_classes), a uniform guess, a final epoch loss is at chance.
PLATEAU_MARGIN = 0.05


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParameterError, DegenerateInputError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARAMETER)
        except (OSError, json.JSONDecodeError) as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


@click.group()
def main():
    """Complex-signal mode decomposition and emitter-fingerprint experiments."""


_MOD_CHOICES = [m.value for m in ModulationKind]

# The DatasetSpec options shared by ``gen`` and ``fewshot``, in help order.
_DATASET_OPTIONS = (
    click.option("--config", type=click.Path(exists=True), default=None, help="JSON DatasetSpec (schema_version 1); no other dataset option may be given with it."),
    click.option("--snr-db", "snr_grid_db", multiple=True, type=float, help="SNR grid point (repeatable)."),
    click.option("--modulations", multiple=True, type=click.Choice(_MOD_CHOICES)),
    click.option("--n-samples", default=DatasetSpec.n_samples, show_default=True),
    click.option("--signals-per-emitter", default=DatasetSpec.signals_per_emitter, show_default=True, help="Per emitter per SNR point."),
    click.option("--seed", default=DatasetSpec.seed, show_default=True),
)


def _dataset_options(fn):
    for option in reversed(_DATASET_OPTIONS):
        fn = option(fn)
    return fn


def _spec_from_options(config, **kw) -> DatasetSpec:
    if config is not None:
        ctx = click.get_current_context()
        default = click.core.ParameterSource.DEFAULT
        given = [p.opts[0] for p in ctx.command.params if p.name in kw and ctx.get_parameter_source(p.name) is not default]
        if given:
            raise ParameterError(f"{', '.join(given)} cannot be given with --config, which sets every dataset option")
        return load_spec(config)
    mods = kw.pop("modulations")
    snrs = kw.pop("snr_grid_db")
    return DatasetSpec(
        modulations=tuple(ModulationKind(m) for m in mods) if mods else DEFAULT_MODULATIONS,
        snr_grid_db=tuple(snrs) if snrs else DEFAULT_SNR_GRID,
        **kw,
    )


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@_dataset_options
@_guarded
def gen(out_dir, config, **kw):
    """Generate a simulated emitter dataset (iqf32 files + manifest.json)."""
    spec = _spec_from_options(config, **kw)
    manifest = generate_dataset(spec, out_dir)
    click.echo(f"wrote {len(manifest['files'])} signals to {out_dir}")


@main.command()
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--n-modes", default=VmdConfig.n_modes, show_default=True, help="Modes per side.")
@click.option("--alpha", default=VmdConfig.alpha, show_default=True)
@click.option("--tol", default=VmdConfig.tol, show_default=True)
@click.option("--max-iter", default=VmdConfig.max_iter, show_default=True)
@_guarded
def decompose(input_file, out_dir, n_modes, alpha, tol, max_iter):
    """Decompose an iqf32 file into labeled modes (modes.npz + modes.json)."""
    sig = read_iqf32(input_file)
    cfg = VmdConfig(n_modes=n_modes, alpha=alpha, tol=tol, max_iter=max_iter)
    manifest = dump_modes(icvmd_decompose(sig, cfg), out_dir)
    for side, s in manifest["sides"].items():
        for index, row in enumerate(zip(s["omegas"], s["energy_fractions"], s["labels"])):
            click.echo("side={}  index={}  omega={:.4f}  energy={:.4f}  label={}".format(side, index, *row))
        if not s["converged"]:
            delta = "n/a" if s["final_delta"] is None else f"{s['final_delta']:.3g}"
            msg = f"stopped at {s['iterations']} sweeps (--max-iter) without converging"
            click.echo(f"warning: {side} side {msg}: final delta {delta} >= tol {tol:g}", err=True)
    click.echo(f"wrote {2 * n_modes} modes to {out_dir}")


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
    write_iqf32(out_file, sig.samples)
    click.echo(f"wrote {len(sig)} samples to {out_file}")


# The classifier pipeline behind each --representation choice.
_REPRESENTATIONS = {"raw": Pipeline.RAW_NN, "icvmd": Pipeline.ICVMD_SAT}


def _warn_dropped(skipped: list, sides: list) -> None:
    """Name each dropped capture, and count the solved sides that stopped at max_iter."""
    for path, reason in skipped:
        click.echo(f"skipped {path}: {reason}", err=True)
    if False in sides:
        msg = "decomposed sides stopped at max_iter without converging"
        click.echo(f"warning: {sides.count(False)} of {len(sides)} {msg}", err=True)


def _warn_plateau(loss: float, n_classes: int, where: str = "") -> None:
    chance = np.log(n_classes)
    if loss >= chance - PLATEAU_MARGIN:
        msg = f"is within {PLATEAU_MARGIN} of ln({n_classes}) = {chance:.3f}; the model is at chance"
        click.echo(f"warning: {where}final epoch loss {loss:.3f} {msg}", err=True)


def _represent_dataset(data_dir, representation, vmd: VmdConfig, model: ModelConfig) -> tuple:
    """Represent every capture of a dataset directory; warns about dropped
    captures and about sides the solver left unconverged.  A manifest spec's
    n_samples too short for one of ``model``'s segments is refused first."""
    manifest, memo = load_manifest(data_dir), {}
    spec = manifest.get("spec")  # a manifest that is not gen's may lack one
    n_samples = spec.get("n_samples") if isinstance(spec, dict) else None
    if type(n_samples) is int:
        model.segment_count(n_samples)  # before any capture is decomposed
    labels, snrs, (mains, branches) = represent(_REPRESENTATIONS[representation], manifest, vmd, memo)
    _warn_dropped(*tally(memo))
    return labels, snrs, mains, branches


@main.command("train")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--representation", type=click.Choice(list(_REPRESENTATIONS)), default="raw", show_default=True)
@click.option("--epochs", default=TrainConfig.epochs, show_default=True)
@click.option("--learning-rate", default=TrainConfig.learning_rate, show_default=True)
@click.option("--batch-size", default=TrainConfig.batch_size, show_default=True)
@click.option("--seed", default=TrainConfig.seed, show_default=True)
@click.option("--segment-len", default=ModelConfig.segment_len, show_default=True)
@click.option("--n-modes", default=VmdConfig.n_modes, show_default=True, help="Modes per side for the icvmd representation.")
@_guarded
def train_cmd(data_dir, out_file, representation, epochs, learning_rate, batch_size, seed, segment_len, n_modes):
    """Train the toy classifier on a dataset directory; writes an .npz checkpoint."""
    cfg = TrainConfig(learning_rate=learning_rate, epochs=epochs, batch_size=batch_size, seed=seed)
    if epochs > MAX_EPOCHS:
        raise ParameterError(f"--epochs {epochs} is over {MAX_EPOCHS}, the most whose loss history a checkpoint holds")
    vmd, model = VmdConfig(n_modes=n_modes), ModelConfig(segment_len=segment_len)
    truth, _, mains, branches = _represent_dataset(data_dir, representation, vmd, model)
    class_ids, labels = np.unique(truth, return_inverse=True)

    params = init_params(model, n_classes=len(class_ids), seed=seed)
    result = train_model(params, mains, branches, labels, cfg)
    meta = dict(class_ids=class_ids.tolist(), representation=representation, vmd=asdict(vmd), **asdict(cfg))
    meta["history"] = result.history
    save_checkpoint(out_file, result.params, meta)
    loss = f"{result.history[-1]:.4f}" if result.history else "n/a (no epochs)"
    click.echo(f"final epoch loss {loss}; checkpoint at {out_file}")
    if result.history:
        _warn_plateau(result.history[-1], len(class_ids))


@main.command("eval")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", "ck_file", required=True, type=click.Path(exists=True))
@_guarded
def eval_cmd(data_dir, ck_file):
    """Evaluate a checkpoint on a dataset directory; prints a JSON report."""
    params, meta = load_checkpoint(ck_file)
    representation = meta.get("representation")
    if not isinstance(representation, str) or representation not in _REPRESENTATIONS:
        raise ParameterError(f"{ck_file} names an unknown representation {representation!r}")

    # The solver config the model was trained on, every field of it: no default fills a gap.
    vmd = meta.get("vmd")
    if not isinstance(vmd, dict):
        raise ParameterError(f"{ck_file} manifest vmd must be a JSON object, got {vmd!r}")
    check_keys("checkpoint vmd", vmd, [f.name for f in fields(VmdConfig)])
    truth, snrs, mains, branches = _represent_dataset(data_dir, representation, VmdConfig(**vmd), params.config)
    class_ids = np.array(meta["class_ids"])
    predictions = predict(params, mains, branches, class_ids)
    report = evaluate(predictions, truth, snrs_db=snrs, known_labels=class_ids)
    out = dict(accuracy=report.accuracy, per_snr=report.per_snr, n_test=report.n_test)
    out |= dict(labels=report.label_set.tolist(), confusion=report.confusion.tolist())
    click.echo(json.dumps(out, indent=2))


@main.command()
@click.option("--workdir", required=True, type=click.Path())
@click.option("--pipeline", type=click.Choice([p.value for p in Pipeline]), default=Pipeline.ICVMD_FEATURES.value, show_default=True)
@click.option("--proportions", default="0.30,0.10,0.03", show_default=True)
@_dataset_options
@_guarded
def fewshot(workdir, config, pipeline, proportions, **kw):
    """Run a few-shot experiment; writes report.csv in the workdir."""
    spec = _spec_from_options(config, **kw)
    try:
        props = tuple(float(p) for p in proportions.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad proportions list {proportions!r}: {exc}") from None
    result = run_fewshot(spec, Pipeline(pipeline), props, workdir)
    for row in result.rows:
        click.echo(
            f"{row['pipeline']}  p={row['proportion']}  snr={row['snr_db']}  "
            f"acc={row['accuracy'] or 'n/a'}  [{row['status']}]"
        )
    _warn_dropped(result.skipped, result.sides)
    for proportion, (loss, n_classes) in result.final_losses.items():
        _warn_plateau(loss, n_classes, f"p={proportion}: ")
    click.echo(f"report: {result.csv_path}")


if __name__ == "__main__":
    main()
