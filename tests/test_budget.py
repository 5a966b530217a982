"""The size budget of the package: ROADMAP's standing rule keeps
``src/**/*.py`` at or under 3500 lines, counted as ``wc -l`` counts them."""
from pathlib import Path

import boundslab

SRC_BUDGET = 3500


def test_the_package_is_within_its_line_budget():
    root = Path(boundslab.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))
    assert lines <= SRC_BUDGET, f"src/ has {lines} lines, over {SRC_BUDGET}"
