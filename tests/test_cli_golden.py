"""Every CLI document stays byte-identical to the committed golden corpus.

`cli_golden.json` holds one entry per request and output mode (`--json`,
`--text`): the exit code, the sha256 of stdout and, for `figure`, the sha256
of the SVG it writes.  The requests cover all seven subcommands, with
reversible inputs, mirror-conjugate pairs under `--group gl`, the centralizer
at m = +-3 .. +-7, figures there and at +-8, +-13, +-64 and +-1000,
error exits and inputs with long entries, among them
the standard forms R^n S and R S^n of both signs and proper powers such as
(RS)^5.  A change that alters printed output on purpose bumps
`schema_version` and rewrites the file with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from solvsplit import IntMatrix2, classes_of_trace, format_matrix
from solvsplit.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")
COMMANDS = (
    "classify", "conjugate", "classes", "centralizer", "commensurable", "geodesic", "figure",
)
SVG = "axis.svg"  # figure output, relative to the working directory


def outcome(argv: list[str]) -> dict:
    """Exit code and output hashes of one in-process run, in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    entry = {"argv": argv, "exit": code, "stdout_sha256": _sha(out.getvalue().encode())}
    if argv[0] == "figure" and code == 0:
        entry["svg_sha256"] = _sha(Path(SVG).read_bytes())
        os.remove(SVG)
    return entry


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden_corpus(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    entries = [e for e in json.loads(GOLDEN.read_text()) if e["argv"][0] == command]
    assert entries
    changed = [e["argv"] for e in entries if outcome(e["argv"]) != e]
    assert not changed, f"{len(changed)} of {len(entries)} documents changed: {changed[:5]}"


def test_corpus_covers_every_mode_of_every_request():
    entries = json.loads(GOLDEN.read_text())
    assert {e["argv"][0] for e in entries} == set(COMMANDS)
    requests = {tuple(e["argv"][:-1]) for e in entries}
    assert {tuple(e["argv"]) for e in entries} == {
        r + (mode,) for r in requests for mode in ("--json", "--text")
    }


# -- the requests, built once when the corpus is written ----------------------


def _mirror(M: IntMatrix2) -> IntMatrix2:
    return IntMatrix2(M.a, -M.b, -M.c, M.d)  # diag(1, -1) M diag(1, -1)


def requests() -> list[list[str]]:
    from _helpers import long_conjugator, random_sl2, word_product

    rng = random.Random(20261018)

    def conj(M, K=None):
        K = K or random_sl2(rng)
        return format_matrix(K @ M @ K.inverse())

    out = []
    for t in list(range(3, 13)) + list(range(-8, -2)):
        reps = classes_of_trace(t)
        for i, M in enumerate(reps):
            other = reps[(i + 1) % len(reps)]
            out += [
                ["classify", "-m", conj(M)],
                ["geodesic", "-m", conj(M)],
                ["conjugate", "-A", conj(M), "-B", conj(M.inverse())],
                ["conjugate", "-A", conj(M), "-B", conj(_mirror(M))],
                ["conjugate", "-A", conj(M), "-B", conj(_mirror(M)), "--group", "gl"],
                ["conjugate", "-A", conj(M), "-B", conj(other), "--group", "gl"],
                ["commensurable", "-A", conj(M), "-B", conj(other)],
            ]
    for m in (3, 4, 5, 6, 7):
        for s in (m, -m):
            L = IntMatrix2(s, -1, 1, 0)
            out += [
                ["centralizer", "-m", format_matrix(L)],
                ["figure", "--m", str(s), "-o", SVG],
                ["geodesic", "-m", format_matrix(L)],
                ["classify", "-m", format_matrix(L)],
            ]
    for t in list(range(3, 11)) + [-3, -4, -7, 30, 2, 0]:
        out.append(["classes", "-t", str(t)])
    for text in ("5,2;2,1", "2,1;1,1", "1,2;2,5", "-5,-2;-2,-1"):
        M = IntMatrix2(*(int(e) for e in text.replace(";", ",").split(",")))
        K = long_conjugator(rng, 300)
        out += [
            ["centralizer", "-m", text],
            ["classify", "-m", text],
            ["geodesic", "-m", text],
            ["classify", "-m", conj(M, K)],
            ["geodesic", "-m", conj(M, K)],
            ["conjugate", "-A", text, "-B", conj(M.inverse(), K)],
            ["conjugate", "-A", text, "-B", conj(_mirror(M), K), "--group", "gl"],
            ["commensurable", "-A", text, "-B", conj(M, K)],
        ]
    out += [
        ["classify", "-m", "2,1;1"],
        ["classify", "-m", "1,1;0,1"],
        ["classify", "-m", "2,0;0,1"],
        ["conjugate", "-A", "2,1;1,1", "-B", "4,-1;1,0", "--group", "gl"],
        ["commensurable", "-A", "2,1;1,1", "-B", "4,-1;1,0"],
        ["centralizer", "-m", "2,-1;1,0"],
        ["geodesic", "-m", "1,0;0,1"],
        ["figure", "--m", "2", "-o", SVG],
    ]
    # long-entry genus 2 inputs: the standard form R^n S and its mirror R S^n
    for n in (2, 5, 40):
        for word in ((n, 1), (1, n)):
            for sign in (1, -1):
                M = word_product(word)
                K = long_conjugator(rng, 300)
                L = conj(M if sign == 1 else -M, K)
                out += [["classify", "-m", L], ["geodesic", "-m", L]]
    # long-entry proper powers, and a word with 10^15 and 10^9 exponents
    for word in ((1, 1) * 2, (1, 1) * 3, (1, 1) * 5, (2, 1) * 2, (1, 2, 1, 3) * 2,
                 (10**15, 7, 1, 10**9)):
        for sign in (1, -1):
            M = word_product(word)
            M = M if sign == 1 else -M
            L = conj(M, long_conjugator(rng, 300))
            out += [
                ["classify", "-m", L],
                ["geodesic", "-m", L],
                ["conjugate", "-A", L, "-B", conj(M.inverse(), long_conjugator(rng, 300))],
                ["conjugate", "-A", L, "-B", conj(_mirror(M), long_conjugator(rng, 300)),
                 "--group", "gl"],
                ["commensurable", "-A", L, "-B", conj(M, long_conjugator(rng, 300))],
            ]
    # figures past the centralizer's range, up to a wide tiling
    for m in (8, 13, 64, 1000):
        out += [["figure", "--m", str(s), "-o", SVG] for s in (m, -m)]
    return out


def write_corpus() -> None:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in requests():
                for mode in ("--json", "--text"):
                    entries.append(outcome(argv + [mode]))
        finally:
            os.chdir(cwd)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} documents to {GOLDEN}")


if __name__ == "__main__":
    write_corpus()
