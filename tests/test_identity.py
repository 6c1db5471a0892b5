"""The byte-identity harness of tests/identity.py: a reduced run digests the
same twice in one process, and it covers every command of the CLI and every
kind of file they write.  No digest is committed: a digest holds only on the
host that made it."""
import fnmatch

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
    "train": ["file/checkpoints/raw.npz", "file/checkpoints/icvmd.npz"],
    "eval": ["output/*-eval"],
}


def test_a_reduced_run_digests_the_same_twice_and_covers_every_cli_output(tmp_path):
    first, commands = digest_run(tmp_path / "a", reduced=True)
    second, _ = digest_run(tmp_path / "b", reduced=True)
    assert diff(first, second) == []
    assert set(commands) == set(main.commands) == set(WRITTEN)
    for command, patterns in WRITTEN.items():
        for pattern in patterns:
            assert fnmatch.filter(first, pattern), f"{command}: nothing digested matches {pattern}"
    for prefix in ("features/", "raw_cumulants/", "sat_inputs/"):
        assert sum(k.startswith(prefix) for k in first) == len(fnmatch.filter(first, "file/data/*.iqf32"))
    # gen --config of a dataset's echoed spec writes that dataset again.
    regen = {k.replace("file/regen/", "file/data/"): v for k, v in first.items() if k.startswith("file/regen/")}
    assert regen == {k: v for k, v in first.items() if k.startswith("file/data/")}
