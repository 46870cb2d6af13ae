"""The narrative demos run to completion, demos 01-04 print exactly the
pinned stdout, and demo 05 reproduces the tracked reference figures byte for
byte."""

import hashlib
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


# sha256 of each demo's stdout; a change that alters printed witnesses on
# purpose updates these together with the golden CLI corpus
DEMO_STDOUT_SHA256 = {
    "01_classify_monodromies.py": "2946764854bd9167ff218aed51f00c9a3959705143dc03311a41106b99c991dd",
    "02_conjugacy_and_unit_curves.py": "c94eabdc3d68ac9ecf1580bdd2b8ab65ebb5696d3965cade2320727a80c87021",
    "03_centralizer_and_reversal.py": "5ea0dc6903c1e140ccded6d55bc25b145b32d9c07a1acfb53415274a5efae31c",
    "04_commensurability.py": "9fa3029d3400345dc2bb7a860a49b10019f8c263c11574eaeb00285b0fdf2457",
}


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_matches_pinned_hash(name):
    result = run_script(DEMOS / name)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[name]


def test_figure_demo_reproduces_tracked_svgs(tmp_path):
    # the demo writes next to itself, so run a copy to leave the tree alone
    script = tmp_path / "05_axis_geometry_figures.py"
    shutil.copy(DEMOS / script.name, script)
    result = run_script(script)
    assert result.returncode == 0, result.stderr
    for m in (3, 4):
        name = f"axis_m{m}.svg"
        assert (tmp_path / name).read_bytes() == (DEMOS / name).read_bytes()
