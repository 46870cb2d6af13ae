"""Count the code, docstring and comment-only lines of a tree's src/solvsplit.

    python3 tools/code_lines.py [TREE ...]

TREE defaults to the current directory.  A docstring line is one inside the
docstring of a module, class or function, found with `ast`.  A code line
holds a token that is not a comment or a line break, found with `tokenize`,
and is not a docstring line; a string spanning lines counts on each of
them.  A comment-only line holds a comment and no code.  Blank lines count
in none of the three.  Prints one row per module and a total row per tree.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int, int]:
    """(code, docstring, comment-only) line counts of one module."""
    docstring = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring), len(docstring), len(comment - code - docstring)


def main() -> int:
    print(f"{'code':>6} {'doc':>6} {'comment':>7}  module")
    for tree in sys.argv[1:] or ["."]:
        package = Path(tree, "src", "solvsplit")
        paths = sorted(package.glob("*.py"))
        if not paths:
            sys.exit(f"code_lines: no modules in {package}")
        total = [0, 0, 0]
        for path in paths:
            counts = count(path)
            total = [t + c for t, c in zip(total, counts)]
            print(f"{counts[0]:6} {counts[1]:6} {counts[2]:7}  {path}")
        print(f"{total[0]:6} {total[1]:6} {total[2]:7}  total {package}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
