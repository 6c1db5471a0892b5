"""Command-line entry points.

Exit codes: 0 on success, 2 for parameter/validation problems, 3 for I/O
problems (missing or malformed files).
"""
from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict, fields
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
    ModeLabel,
    Selection,
    dump_modes,
    icvmd_decompose,
    reconstruct_from_dump,
)
from .classify import evaluate
from .errors import DegenerateInputError, ParameterError
from .fewshot import (
    Pipeline,
    predict,
    represent,
    run_fewshot,
)
from .iqfile import json_object, read_iqf32, write_iqf32
from .modulation import ModulationKind
from .nn.checkpoint import _check_keys, load_checkpoint, save_checkpoint
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
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except json.JSONDecodeError as exc:
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
    click.option("--snr-db", multiple=True, type=float, help="SNR grid point (repeatable)."),
    click.option("--modulations", multiple=True, type=click.Choice(_MOD_CHOICES)),
    click.option("--n-samples", default=DatasetSpec.n_samples, show_default=True),
    click.option("--signals-per-emitter", default=DatasetSpec.signals_per_emitter, show_default=True, help="Per emitter per SNR point."),
    click.option("--carrier", default=DatasetSpec.carrier, show_default=True),
    click.option("--samples-per-symbol", default=DatasetSpec.samples_per_symbol, show_default=True),
    click.option("--sweep-span", default=DatasetSpec.sweep_span, show_default=True),
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
        raw = json_object(Path(config).read_text(), config)
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
    write_iqf32(out_file, sig.samples, {"sample_rate": sig.sample_rate, "selection": sorted(select)})
    click.echo(f"wrote {len(sig)} samples to {out_file}")


# The classifier pipeline behind each --representation choice.
_REPRESENTATIONS = {"raw": Pipeline.RAW_NN, "icvmd": Pipeline.ICVMD_SAT}


def _warn_unconverged(n_unconverged: int, n_solved: int) -> None:
    if n_unconverged:
        msg = "decomposed sides stopped at max_iter without converging"
        click.echo(f"warning: {n_unconverged} of {n_solved} {msg}", err=True)


def _warn_plateau(loss: float, n_classes: int, where: str = "") -> None:
    chance = np.log(n_classes)
    if loss >= chance - PLATEAU_MARGIN:
        msg = f"is within {PLATEAU_MARGIN} of ln({n_classes}) = {chance:.3f}; the model is at chance"
        click.echo(f"warning: {where}final epoch loss {loss:.3f} {msg}", err=True)


def _represent_dataset(data_dir, representation, vmd: VmdConfig) -> tuple:
    """Represent every capture of a dataset directory; warns about dropped
    captures and about sides the solver left unconverged."""
    skipped: list = []
    sides: list = []
    kept, (mains, branches) = represent(
        _REPRESENTATIONS[representation],
        load_manifest(data_dir),
        vmd,
        skipped=skipped,
        sides=sides,
    )
    for path, reason in skipped:
        click.echo(f"skipped {path}: {reason}", err=True)
    _warn_unconverged(sides.count(False), len(sides))
    return kept, mains, branches


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
    vmd = VmdConfig(n_modes=n_modes)
    entries, mains, branches = _represent_dataset(data_dir, representation, vmd)
    class_ids, labels = np.unique([e["label"] for e in entries], return_inverse=True)

    params = init_params(ModelConfig(segment_len=segment_len), n_classes=len(class_ids), seed=seed)
    result = train_model(params, mains, branches, labels, cfg)
    meta = dict(class_ids=class_ids.tolist(), representation=representation, vmd=asdict(vmd), epochs=cfg.epochs)
    meta |= dict(learning_rate=cfg.learning_rate, batch_size=cfg.batch_size, seed=cfg.seed, history=result.history)
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
    _check_keys("vmd", vmd, [f.name for f in fields(VmdConfig)])
    entries, mains, branches = _represent_dataset(data_dir, representation, VmdConfig(**vmd))
    class_ids = np.array(meta["class_ids"])
    predictions = predict(params, mains, branches, class_ids)
    truth = np.array([e["label"] for e in entries])
    snrs = np.array([e["snr_db"] for e in entries])
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
    for path, reason in result.skipped:
        click.echo(f"skipped {path}: {reason}")
    _warn_unconverged(result.unconverged_sides, result.solved_sides)
    for proportion, (loss, n_classes) in result.final_losses.items():
        _warn_plateau(loss, n_classes, f"p={proportion}: ")
    click.echo(f"report: {result.csv_path}")


if __name__ == "__main__":
    main()
