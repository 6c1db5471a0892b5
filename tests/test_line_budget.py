"""The package's line budget: src/icvmd/ stays at or below 3,200 lines.

Counted as ``wc -l src/icvmd/*.py src/icvmd/nn/*.py`` counts them, so code
moved out to tests/ or deleted shows in the total.
"""
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icvmd"
BUDGET = 3200


def test_package_stays_within_its_line_budget():
    files = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE / "nn").glob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    assert len(files) > 10
    assert lines <= BUDGET, f"src/icvmd/ has {lines} lines, over its budget of {BUDGET}"
