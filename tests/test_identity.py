"""The byte-identity harness of tests/identity.py: a reduced run digests the
same twice in one process within its time budget, and it covers every
command of the CLI, every kind of file they write, a train and eval run
that drops a capture, and one whose segment is longer than every capture.  No digest is committed: a digest holds only on the
host that made it."""
import fnmatch
import json
import time

import numpy as np
import pytest

from icvmd.cli import main
from icvmd.fewshot import Pipeline
from identity import REDUCED, cli, digest_run, diff

# What each command writes, as patterns over the harness's keys.
WRITTEN = {
    "gen": ["file/data/*.iqf32", "file/data/manifest.json", "file/aux/*.iqf32", "file/aux/manifest.json",
            "file/regen/*.iqf32", "file/regen/manifest.json"],
    "decompose": ["file/modes/*/modes.npz", "file/modes/*/modes.json"],
    "reconstruct": ["file/recon/*.iqf32"],
    "fewshot": [f"file/fewshot/{p.value}/report.csv" for p in Pipeline]
    + ["file/fewshot/*/data/*.iqf32", "file/fewshot/icvmd_sat/aux_data/*.iqf32"],
    "train": ["file/checkpoints/raw.npz", "file/checkpoints/icvmd.npz", "file/checkpoints/cut-raw.npz",
              "file/checkpoints/cut-icvmd.npz", "file/checkpoints/one-segment-raw.npz",
              "file/checkpoints/one-segment-icvmd.npz"],
    "eval": ["output/*-eval"],
}


# Seconds the two reduced runs may take together: tier-1 time the harness may add.
BUDGET_S = 10.0


def test_a_reduced_run_digests_the_same_twice_and_covers_every_cli_output(tmp_path):
    start = time.perf_counter()
    arrays = {}
    first, commands = digest_run(tmp_path / "a", reduced=True, arrays=arrays)
    second, _ = digest_run(tmp_path / "b", reduced=True)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"two reduced runs took {elapsed:.1f} s, over the {BUDGET_S:.0f} s budget"
    assert diff(first, second) == []
    assert {args[0] for args in commands} == set(main.commands) == set(WRITTEN)
    # train and eval each run on the copy with a cut capture, which the harness
    # checks both commands drop, once per representation.
    cut = [args[0] for args in commands if f"{tmp_path / 'a'}/cut" in args]
    assert cut == ["train", "eval"] * 2
    # train runs once per representation with every capture one segment.
    long = [a[a.index("--representation") + 1] for a in commands
            if a[0] == "train" and int(a[a.index("--segment-len") + 1]) > REDUCED["n_samples"]]
    assert long == ["raw", "icvmd"]
    for command, patterns in WRITTEN.items():
        for pattern in patterns:
            assert fnmatch.filter(first, pattern), f"{command}: nothing digested matches {pattern}"
    for prefix in ("features/", "raw_cumulants/", "sat_inputs/"):
        assert sum(k.startswith(prefix) for k in first) == len(fnmatch.filter(first, "file/data/*.iqf32"))
    # Each dump keeps its fractions and centers, and its labels, sweep counts and flags.
    dumps = fnmatch.filter(first, "file/modes/*/modes.json")
    assert dumps and all(arrays[k].shape[0] == 2 and f"{k}:state" in arrays for k in dumps)
    # gen --config of a dataset's echoed spec writes that dataset again.
    regen = {k.replace("file/regen/", "file/data/"): v for k, v in first.items() if k.startswith("file/regen/")}
    assert regen == {k: v for k, v in first.items() if k.startswith("file/data/")}


def test_diff_says_how_far_a_moved_key_moved(tmp_path, capsys):
    # Two small digest files by hand, each with its .npz of arrays: one key
    # moves by a known norm-relative amount, one does not move, and one moved
    # key has no arrays behind it.
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(2, 3, 16))
    moved = stack.copy()
    moved[1] *= 1 + 1e-12
    files = []
    for name, digests, arrays in (
        ("a", {"features/x.iqf32": "1", "sat_inputs/x.iqf32": "2", "file/y.json": "3"}, stack),
        ("b", {"features/x.iqf32": "1", "sat_inputs/x.iqf32": "4", "file/y.json": "5"}, moved),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(digests))
        np.savez(tmp_path / f"{name}.npz", **{"features/x.iqf32": stack, "sat_inputs/x.iqf32": arrays})
        files.append(str(tmp_path / f"{name}.json"))
    assert cli(["--diff", *files]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "file/y.json"
    key, label, magnitude = lines[1].split()
    assert (key, label) == ("sat_inputs/x.iqf32", "norm-relative")
    assert float(magnitude) == pytest.approx(1e-12, rel=0.01)
    assert len(lines) == 2  # the unmoved features key prints nothing


def test_diff_says_how_far_a_moved_dump_moved_and_whether_its_state_changed(tmp_path, capsys):
    # Two dumps move by 1e-15 norm-relative; one keeps its labels, sweep counts and
    # flags, the other has a label changed.
    key = "file/modes/{}/modes.json"
    floats = np.array([[0.9, 0.1, 0.0, 0.0], [0.6, 1.2, 0.0, 0.0]])
    state = np.array(["signal", "feature", "12", "True", "feature", "feature", "0", "True"])
    files = []
    for name, scale, labels in (("a", 1.0, state), ("b", 1 + 1e-15, np.where(state == "signal", "feature", state))):
        (tmp_path / f"{name}.json").write_text(json.dumps({key.format(d): name for d in "xy"}))
        arrays = {key.format(d): floats * scale for d in "xy"}
        arrays |= {key.format("x") + ":state": state, key.format("y") + ":state": labels}
        np.savez(tmp_path / f"{name}.npz", **arrays)
        files.append(str(tmp_path / f"{name}.json"))
    assert cli(["--diff", *files]) == 1
    *lines, total = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == [key.format("x"), key.format("y")]
    for line, verdict in zip(lines, ("unchanged", "CHANGED")):
        assert float(line[1].split()[1]) == pytest.approx(1e-15, rel=0.1)
        assert line[2] == f"labels, iterations and converged {verdict}"
        assert line[3] == "sweeps 12 -> 12, 0 -> 0"
    assert total == ["sweeps over 2 dumps: 24 -> 24"]


def test_diff_prints_each_moved_dumps_sweep_counts_and_their_total_over_every_dump(tmp_path, capsys):
    # Dump x moves and its sides' sweep counts go 12 -> 15 and 9 -> 8; dump y
    # does not move, so it has no line, but its 30 + 20 sweeps are in the total.
    key = "file/modes/{}/modes.json"
    floats = np.array([[0.9, 0.1, 0.0, 0.0], [0.6, 1.2, 0.0, 0.0]])

    def state(pos, neg):
        return np.array(["signal", "feature", str(pos), "True", "feature", "feature", str(neg), "False"])

    files = []
    for name, x_sweeps in (("a", (12, 9)), ("b", (15, 8))):
        (tmp_path / f"{name}.json").write_text(json.dumps({key.format("x"): name, key.format("y"): "same"}))
        np.savez(tmp_path / f"{name}.npz", **{key.format("x"): floats * (1.0 if name == "a" else 1.5),
                                              key.format("x") + ":state": state(*x_sweeps),
                                              key.format("y"): floats, key.format("y") + ":state": state(30, 20)})
        files.append(str(tmp_path / f"{name}.json"))
    assert cli(["--diff", *files]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(key.format("x") + "  norm-relative ")
    assert lines[0].endswith("  labels, iterations and converged CHANGED  sweeps 12 -> 15, 9 -> 8")
    assert lines[1] == "sweeps over 2 dumps: 71 -> 73"
