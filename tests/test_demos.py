"""Every demo runs to completion as a script."""

from pathlib import Path

import pytest

from helpers import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    """An empty parameter set would skip test_demo_runs, not fail it."""
    assert DEMOS, "demos/ holds no script"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    proc = run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
