"""Byte-identity harness: the sha256 of every artifact the CLI writes, from
small fixed inputs.

    python tests/identity.py OUT.json              # writes {artifact: sha256}, and OUT.npz
    python tests/identity.py --diff A.json B.json  # lists the keys that differ

The package digested is the ``icvmd`` on the import path (``--diff`` needs
none), so two trees are compared by running the script once with each
tree's ``src/`` first on PYTHONPATH and diffing the two files:

    PYTHONPATH=before/src python tests/identity.py before.json
    PYTHONPATH=after/src python tests/identity.py after.json
    python tests/identity.py --diff before.json after.json

One run invokes every command of the CLI in a fresh directory: ``gen`` (the
default bank, an auxiliary bank from a ``--config`` file, and a regeneration
from the first dataset's echoed spec), ``decompose`` and ``reconstruct`` of
captures at both SNRs, ``fewshot`` for each pipeline at two proportions,
``train`` for both representations and ``eval`` of each checkpoint, on the
first dataset and on a copy of it whose first capture is cut to an odd
float32 count, which both commands drop and name, and once more on the first
dataset with a ``--segment-len`` longer than every capture.  Every
file under that directory is digested, keyed by its relative path, so a
file no list names cannot be missed.  A ``.npz`` is digested by its
members' names, dtypes, shapes and bytes, because ``np.savez`` stamps each
member with the time it was written.  Each command's output is digested
with the directory written as ``<root>``, and so are the features, raw
cumulants and ``sat_inputs`` of every capture of the first dataset.

Beside OUT.json, OUT.npz keeps the float arrays behind each ``features/``,
``raw_cumulants/`` and ``sat_inputs/`` key, stacked along a new first axis,
and for each ``modes.json`` its energy fractions and centers (both sides, one
row each) with, under the key plus ``:state``, its labels, sweep counts and
converged flags.  Where both files of a ``--diff`` have their ``.npz``, each
moved key that both hold is followed by how far it moved: the largest
‖a−b‖/‖a‖ over its stacked arrays, and for a ``modes.json`` whether its
state changed and each side's sweep count as ``a -> b``; a last line sums
the sweep counts of every dump both files hold.

A digest holds only on the host that made it: FFT and SIMD reduction order
may differ between hosts, so compare two runs made on one host.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

# Sizes of the full set and of the reduced one that tier-1 runs.
FULL = dict(n_samples=2100, signals=6, modulations=("cw", "lfm", "bpsk", "qpsk", "8psk", "msk"),
            fewshot_samples=256, fewshot_signals=4, epochs=3)
REDUCED = dict(n_samples=128, signals=2, modulations=("cw", "bpsk"),
               fewshot_samples=128, fewshot_signals=2, epochs=1)
SNRS = ("18", "-4")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    if path.suffix != ".npz":
        return sha256(path.read_bytes())
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as members:
        for name in sorted(members.files):
            h.update(name.encode())
            h.update(array_digest(members[name]).encode())
    return h.hexdigest()


def digest_run(root, reduced: bool = False, arrays: dict | None = None) -> tuple:
    """Run every command under ``root``, a new or empty directory; returns
    ``(digests, commands)``, the sha256 of each artifact by key and the
    arguments of each command run, in order.  A dict given as ``arrays``
    receives the stacked float arrays behind each per-capture key."""
    from click.testing import CliRunner

    from icvmd.cli import main
    from icvmd.dataset import DatasetSpec, load_entry, load_manifest
    from icvmd.decompose import icvmd_decompose
    from icvmd.errors import DegenerateInputError
    from icvmd.features import extract_features, raw_cumulant_features
    from icvmd.fewshot import Pipeline, sat_inputs
    from icvmd.pa import auxiliary_bank
    from icvmd.vmd import VmdConfig

    size = REDUCED if reduced else FULL
    arrays = {} if arrays is None else arrays
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    runner, digests, commands = CliRunner(), {}, []

    def run(*args) -> str:
        res = runner.invoke(main, args)
        if res.exit_code != 0:
            raise RuntimeError(f"icvmd {' '.join(args)} exited {res.exit_code}: {res.output}") from res.exception
        commands.append(args)
        digests[f"output/{len(commands):02d}-{args[0]}"] = sha256(res.output.replace(str(root), "<root>").encode())
        return res.output

    mods = [arg for m in size["modulations"] for arg in ("--modulations", m)]
    snrs = [arg for s in SNRS for arg in ("--snr-db", s)]
    run("gen", "--out", f"{root}/data", "--n-samples", str(size["n_samples"]),
        "--signals-per-emitter", str(size["signals"]), *snrs, *mods)

    spec = DatasetSpec(emitters=tuple(auxiliary_bank(3, 77)), snr_grid_db=(10.0,), n_samples=size["n_samples"],
                       signals_per_emitter=size["signals"], seed=5)
    (root / "aux.json").write_text(json.dumps(spec.echo() | {"schema_version": 1}))
    run("gen", "--out", f"{root}/aux", "--config", f"{root}/aux.json")
    echoed = json.loads((root / "data" / "manifest.json").read_text())["spec"]
    (root / "regen.json").write_text(json.dumps(echoed | {"schema_version": 1}))
    run("gen", "--out", f"{root}/regen", "--config", f"{root}/regen.json")

    for snr in ("+18", "-04"):
        for mod in size["modulations"][:2]:
            stem = f"emitter0_snr{snr}_{mod}_0000"
            run("decompose", f"{root}/data/{stem}.iqf32", "--out", f"{root}/modes/{stem}")
            for select in (["signal"], ["feature"], ["residual"], ["signal", "feature", "residual"]):
                picks = [arg for s in select for arg in ("--select", s)]
                out = f"{root}/recon/{stem}_{'+'.join(select)}.iqf32"
                run("reconstruct", f"{root}/modes/{stem}", "--out", out, *picks)

    for pipeline in Pipeline:
        run("fewshot", "--workdir", f"{root}/fewshot/{pipeline.value}", "--pipeline", pipeline.value,
            "--proportions", "1.0,0.5", "--n-samples", str(size["fewshot_samples"]),
            "--signals-per-emitter", str(size["fewshot_signals"]), *snrs, *mods[:4])

    shutil.copytree(root / "data", root / "cut")
    cut = sorted((root / "cut").glob("*.iqf32"))[0]
    cut.write_bytes(cut.read_bytes()[:-4])
    # A segment longer than every capture makes each capture one segment.
    one_segment = str(size["n_samples"] + 1)
    for data, prefix, segment_len in (("data", "", "64"), ("cut", "cut-", "64"), ("data", "one-segment-", one_segment)):
        for representation in ("raw", "icvmd"):
            checkpoint = f"{root}/checkpoints/{prefix}{representation}.npz"
            outputs = [run("train", "--data", f"{root}/{data}", "--out", checkpoint, "--representation",
                           representation, "--epochs", str(size["epochs"]), "--segment-len", segment_len),
                       run("eval", "--data", f"{root}/{data}", "--checkpoint", checkpoint)]
            if [f"skipped {cut.name}: " in out for out in outputs] != [data == "cut"] * 2:
                raise RuntimeError(f"train and eval on {data} should drop {cut.name} exactly when it is cut")

    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digests[f"file/{path.relative_to(root).as_posix()}"] = file_digest(path)
    for path in sorted(root.glob("modes/*/modes.json")):
        sides = json.loads(path.read_text())["sides"].values()
        key = f"file/{path.relative_to(root).as_posix()}"
        arrays[key] = np.array([[x for s in sides for x in s[k]] for k in ("energy_fractions", "omegas")])
        arrays[f"{key}:state"] = np.array([str(v) for s in sides for v in (*s["labels"], s["iterations"], s["converged"])])

    def record(key, *values):
        digests[key], arrays[key] = array_digest(*values), np.stack(values)

    manifest = load_manifest(root / "data")
    for entry in sorted(manifest["files"], key=lambda e: e["path"]):
        sig = load_entry(manifest, entry)
        result = icvmd_decompose(sig, VmdConfig())
        try:
            record(f"features/{entry['path']}", extract_features(result))
        except DegenerateInputError as exc:
            digests[f"features/{entry['path']}"] = sha256(str(exc).encode())
        record(f"raw_cumulants/{entry['path']}", raw_cumulant_features(sig))
        record(f"sat_inputs/{entry['path']}", *sat_inputs(result))
    return digests, commands


def diff(a: dict, b: dict) -> list:
    """Keys whose digests differ, or that only one side has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def moved_by(keys, a_npz: Path, b_npz: Path) -> dict:
    """How far each key moved, for the keys whose arrays both ``.npz`` files
    hold at one shape: the largest ‖a−b‖/‖a‖ over its stacked arrays, and
    whether its ``:state`` changed where both files hold one."""
    if not (a_npz.is_file() and b_npz.is_file()):
        return {}
    out = {}
    with np.load(a_npz) as a, np.load(b_npz) as b:
        for key in sorted(set(keys) & set(a.files) & set(b.files)):
            x, y = a[key].astype(float), b[key].astype(float)
            if x.shape == y.shape:
                rel = [np.linalg.norm(u - v) / np.linalg.norm(u) if np.any(u) else np.inf for u, v in zip(x, y)]
                out[key] = f"norm-relative {max(rel):.2e}"
                state = f"{key}:state"
                if state in a.files and state in b.files:
                    same = np.array_equal(a[state], b[state])
                    out[key] += f"  labels, iterations and converged {'unchanged' if same else 'CHANGED'}"
                    out[key] += "  sweeps " + ", ".join(f"{i} -> {j}" for i, j in zip(sweeps(a[state]), sweeps(b[state])))
    return out


def sweeps(state) -> list:
    """Each side's sweep count, from a dump's ``:state`` array: per side, its
    labels, then its sweep count and converged flag."""
    return state.reshape(2, -1)[:, -2].astype(int).tolist()


def sweep_total(a_npz: Path, b_npz: Path) -> list:
    """One line with the sweep counts summed over every dump both ``.npz``
    files hold, or none where either file or every dump is missing."""
    if not (a_npz.is_file() and b_npz.is_file()):
        return []
    with np.load(a_npz) as a, np.load(b_npz) as b:
        states = sorted(k for k in set(a.files) & set(b.files) if k.endswith(":state"))
        totals = [sum(sum(sweeps(f[k])) for k in states) for f in (a, b)]
    return [f"sweeps over {len(states)} dumps: {totals[0]} -> {totals[1]}"] if states else []


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="two digest files to compare")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        keys = diff(a, b)
        npz = [Path(p).with_suffix(".npz") for p in args.diff]
        moved = moved_by(keys, *npz)
        lines = [f"{k}  {moved[k]}" if k in moved else k for k in keys] + sweep_total(*npz)
        print("\n".join(lines) if keys else f"no difference in {len(a)} digests")
        return 1 if keys else 0
    if not args.out:
        parser.error("give OUT.json or --diff A B")
    import icvmd

    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        digests, _ = digest_run(tmp, arrays=arrays)
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    np.savez(Path(args.out).with_suffix(".npz"), **arrays)
    print(f"{len(digests)} digests of {Path(icvmd.__file__).parent} written to {args.out} and its .npz")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
