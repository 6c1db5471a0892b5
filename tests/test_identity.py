"""The byte-identity harness of tests/identity.py: a reduced run digests the
same twice in one process within its time budget, and it covers every
command of the CLI, every kind of file they write, and a train and eval run
that drops a capture.  No digest is committed: a digest holds only on the
host that made it."""
import fnmatch
import time

from icvmd.cli import main
from icvmd.fewshot import Pipeline
from identity import digest_run, diff

# What each command writes, as patterns over the harness's keys.
WRITTEN = {
    "gen": ["file/data/*.iqf32", "file/data/manifest.json", "file/aux/*.iqf32", "file/aux/manifest.json",
            "file/regen/*.iqf32", "file/regen/manifest.json"],
    "decompose": ["file/modes/*/modes.npz", "file/modes/*/modes.json"],
    "reconstruct": ["file/recon/*.iqf32"],
    "fewshot": [f"file/fewshot/{p.value}/report.csv" for p in Pipeline]
    + ["file/fewshot/*/data/*.iqf32", "file/fewshot/icvmd_sat/aux_data/*.iqf32"],
    "train": ["file/checkpoints/raw.npz", "file/checkpoints/icvmd.npz", "file/checkpoints/cut-raw.npz",
              "file/checkpoints/cut-icvmd.npz"],
    "eval": ["output/*-eval"],
}


# Seconds the two reduced runs may take together: tier-1 time the harness may add.
BUDGET_S = 10.0


def test_a_reduced_run_digests_the_same_twice_and_covers_every_cli_output(tmp_path):
    start = time.perf_counter()
    first, commands = digest_run(tmp_path / "a", reduced=True)
    second, _ = digest_run(tmp_path / "b", reduced=True)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"two reduced runs took {elapsed:.1f} s, over the {BUDGET_S:.0f} s budget"
    assert diff(first, second) == []
    assert {args[0] for args in commands} == set(main.commands) == set(WRITTEN)
    # train and eval each run on the copy with a cut capture, which the harness
    # checks both commands drop, once per representation.
    cut = [args[0] for args in commands if f"{tmp_path / 'a'}/cut" in args]
    assert cut == ["train", "eval"] * 2
    for command, patterns in WRITTEN.items():
        for pattern in patterns:
            assert fnmatch.filter(first, pattern), f"{command}: nothing digested matches {pattern}"
    for prefix in ("features/", "raw_cumulants/", "sat_inputs/"):
        assert sum(k.startswith(prefix) for k in first) == len(fnmatch.filter(first, "file/data/*.iqf32"))
    # gen --config of a dataset's echoed spec writes that dataset again.
    regen = {k.replace("file/regen/", "file/data/"): v for k, v in first.items() if k.startswith("file/regen/")}
    assert regen == {k: v for k, v in first.items() if k.startswith("file/data/")}
