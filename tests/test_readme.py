"""The README's Python quick start runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "SIGNAL" in capsys.readouterr().out


def test_readme_cli_lines_use_existing_options():
    from icvmd.cli import main

    checked = 0
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split()
            if words[:1] != ["icvmd"]:
                continue
            command = main.commands[words[1]]
            options = {opt for param in command.params for opt in param.opts + param.secondary_opts}
            flags = {w.split("=")[0] for w in words[2:] if w.startswith("--")}
            assert flags <= options, f"icvmd {words[1]} has no {sorted(flags - options)}"
            checked += len(flags)
    assert checked > 0
