"""Help and usage text stays byte-identical to the committed pins.

`cli_help.json` holds, per request, the exit code, stdout and stderr of one
in-process run with `COLUMNS=80`: `solvsplit --help`, `solvsplit <cmd> --help`
for all seven subcommands, `solvsplit` with no arguments and `solvsplit
classify` without `-m`.  argparse's layout differs between Python minor
versions, so the pins hold only on the version that wrote them (3.11).  A
change that alters help text on purpose rewrites the file with
`PYTHONPATH=src python tests/test_cli_help.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from solvsplit.cli import run

PINS = Path(__file__).with_name("cli_help.json")
PINNED_PYTHON = (3, 11)
COMMANDS = (
    "classify", "conjugate", "classes", "centralizer", "commensurable", "geodesic", "figure",
)
REQUESTS = [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS] + [[], ["classify"]]


def outcome(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.skipif(
    sys.version_info[:2] != PINNED_PYTHON, reason="argparse layout is pinned on Python 3.11"
)
@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_help_and_usage_match_pins(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pins = {tuple(e["argv"]): e for e in json.loads(PINS.read_text())}
    assert outcome(argv) == pins[tuple(argv)]


def test_pins_cover_every_request():
    assert [e["argv"] for e in json.loads(PINS.read_text())] == REQUESTS


def write_pins() -> None:
    os.environ["COLUMNS"] = "80"
    entries = [outcome(argv) for argv in REQUESTS]
    PINS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} pins to {PINS}")


if __name__ == "__main__":
    if sys.version_info[:2] != PINNED_PYTHON:
        sys.exit("pins are written on Python 3.11")
    write_pins()
