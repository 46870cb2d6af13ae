"""The narrative demos run to completion, and demo 05 reproduces the
tracked reference figures byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def run_script(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=ENV
    )


@pytest.mark.parametrize(
    "name",
    [
        "01_classify_monodromies.py",
        "02_conjugacy_and_unit_curves.py",
        "03_centralizer_and_reversal.py",
        "04_commensurability.py",
    ],
)
def test_demo_runs(name):
    result = run_script(DEMOS / name)
    assert result.returncode == 0, result.stderr


def test_figure_demo_reproduces_tracked_svgs(tmp_path):
    # the demo writes next to itself, so run a copy to leave the tree alone
    script = tmp_path / "05_axis_geometry_figures.py"
    shutil.copy(DEMOS / script.name, script)
    result = run_script(script)
    assert result.returncode == 0, result.stderr
    for m in (3, 4):
        name = f"axis_m{m}.svg"
        assert (tmp_path / name).read_bytes() == (DEMOS / name).read_bytes()
