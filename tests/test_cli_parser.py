"""A request builds options only for the subcommand it names, and reads alike.

`run` hands `_build_parser` the first token when it names a subcommand, and
only that subcommand's parser gets its options.  Every request here must
give the same exit code, stdout, stderr and written files as with the full
tree, `_build_parser(None)`: the argv of every golden document, the help
pins, and odd command lines around the first positional.  The work ledger
pins the saving: `add_argument` runs once for the top-level `-h`, once for
the named subcommand's `-h` and once for each of its options and output
modes; when none is named, every subcommand gets its `-h`, options and
modes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from solvsplit import cli

HERE = Path(__file__).parent
GOLDEN_ARGVS = [e["argv"] for e in json.loads((HERE / "cli_golden.json").read_text())]
HELP_ARGVS = [e["argv"] for e in json.loads((HERE / "cli_help.json").read_text())]

# a valid request per subcommand, without an output mode
VALID = {
    "classify": ["-m", "5,2;2,1"],
    "conjugate": ["-A", "2,1;1,1", "-B", "3,-1;1,0", "--group", "gl"],
    "classes": ["-t", "5"],
    "centralizer": ["-m", "3,-1;1,0"],
    "commensurable": ["-A", "2,1;1,1", "-B", "3,-1;1,0"],
    "geodesic": ["-m", "-3,-1;1,0"],
    "figure": ["--m", "4", "-o", "m4.svg"],
}
# what follows a subcommand name: its valid options, then one of these
AFTER_VALID = [
    [], ["-h"], ["extra"], ["--bogus"], ["--js"], ["--json", "--text"], ["classify"],
    ["geodesic", "-m", "5,2;2,1"],
]
# in place of the valid options
INSTEAD = [
    [], ["-h"], ["--mat", "5,2;2,1"], ["-m"], ["-m", "5,2;2,1"], ["--", "-m", "5,2;2,1"],
    ["-A"], ["-t"], ["--m", "3"], ["--help", "--json"],
]
FIRST_TOKENS = ["bogus", "clas", "-h", "--he", "--", "-x", "--json"]
ODD_FIRST = [[]] + [[tok] for tok in FIRST_TOKENS] + [
    [tok, *argv] for tok in FIRST_TOKENS for argv in (["classify", "-m", "5,2;2,1"], ["figure"])
]


def outcome(argv: list[str], directory: Path) -> tuple:
    """Exit code, stdout, stderr and the files written into `directory`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    files = {}
    for path in directory.iterdir():
        files[path.name] = path.read_bytes()
        path.unlink()
    return code, out.getvalue(), err.getvalue(), files


def differing(argvs, monkeypatch, tmp_path) -> list[list[str]]:
    """The argvs whose outcome differs from the one with the full tree."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    named = [outcome(argv, tmp_path) for argv in argvs]
    real = cli._build_parser
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", lambda command=None: real(None))
        full = [outcome(argv, tmp_path) for argv in argvs]
    return [argv for argv, a, b in zip(argvs, named, full) if a != b]


class TestSameOutcomeAsTheFullTree:
    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_golden_requests(self, command, monkeypatch, tmp_path):
        argvs = [argv for argv in GOLDEN_ARGVS if argv[0] == command]
        assert argvs
        assert differing(argvs, monkeypatch, tmp_path) == []

    def test_help_requests(self, monkeypatch, tmp_path):
        assert differing(HELP_ARGVS, monkeypatch, tmp_path) == []

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_odd_tokens_after_a_command(self, command, monkeypatch, tmp_path):
        argvs = [[command, *VALID[command], *tail] for tail in AFTER_VALID]
        argvs += [[command, *tail] for tail in INSTEAD]
        assert differing(argvs, monkeypatch, tmp_path) == []

    def test_odd_first_token(self, monkeypatch, tmp_path):
        assert differing(ODD_FIRST, monkeypatch, tmp_path) == []

    def test_requests_reach_the_handlers(self, monkeypatch, tmp_path):
        # the comparisons above are not all between two parse errors
        monkeypatch.chdir(tmp_path)
        for command, argv in VALID.items():
            assert outcome([command, *argv], tmp_path)[0] == cli.EXIT_OK
        assert outcome(["-x", "classify", "-m", "5,2;2,1"], tmp_path)[0] == cli.EXIT_PARSE


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
def test_text_is_the_default_mode(command, monkeypatch, tmp_path):
    # no golden argv omits the mode flag; without one, a request reads as --text
    monkeypatch.chdir(tmp_path)
    plain = outcome([command, *VALID[command]], tmp_path)
    assert plain[0] == cli.EXIT_OK and plain[1]
    assert plain == outcome([command, *VALID[command], "--text"], tmp_path)


class TestWorkLedger:
    """`add_argument` calls per request, from the `_SUBCOMMANDS` table."""

    @staticmethod
    def added(monkeypatch, tmp_path, argv) -> int:
        calls = []
        real = argparse._ActionsContainer.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(argparse._ActionsContainer, "add_argument", counted)
            m.chdir(tmp_path)
            outcome(argv, tmp_path)
        return len(calls)

    @staticmethod
    def own(command) -> int:
        _, _, matrices, options = cli._SUBCOMMANDS[command]
        return len(matrices) + len(options) + len(cli._MODES)

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_a_named_subcommand_gets_only_its_own_options(self, command, monkeypatch, tmp_path):
        expected = 2 + self.own(command)
        for argv in ([command, *VALID[command], "--json"], [command, "--help"]):
            assert self.added(monkeypatch, tmp_path, argv) == expected
        if command == "classify":
            assert expected == 5

    @pytest.mark.parametrize("argv", [["--help"], ["bogus"], [], ["-x", "classify"]], ids=repr)
    def test_no_named_subcommand_builds_the_full_tree(self, argv, monkeypatch, tmp_path):
        full = 1 + len(cli._SUBCOMMANDS) + sum(map(self.own, cli._SUBCOMMANDS))
        assert full == 34
        assert self.added(monkeypatch, tmp_path, argv) == full
