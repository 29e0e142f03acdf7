"""Every demo script runs to completion and prints its recorded output.

Each demo seeds all of its draws, so its stdout is the same bytes on every
run; tests/demo_output/<demo>.txt holds it, recorded with
``python demos/<demo>.py > tests/demo_output/<demo>.txt``.  A change that
moves a draw, a verdict or a printed figure shows here as a diff.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_demos_found():
    assert len(DEMOS) >= 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "STEP 1" in out
    assert out == (GOLDEN / f"{path.stem}.txt").read_text()
