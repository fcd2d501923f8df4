"""Size of the ``synergy`` package: one JSON line of line counts and the
number of public names.

Every line of ``src/synergy/*.py`` falls in one class, split with
``ast``: a docstring line lies within the first string statement of a
module, class or function; otherwise a blank line is empty, a comment
line holds only a ``#`` comment, and every other line is code.  The
line counts sum to ``total``; ``public_names`` is ``len(synergy.__all__)``.

    python3 tools/src_size.py
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import synergy  # noqa: E402


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure() -> dict:
    """The line counts of every module of ``synergy`` and the number of
    its public names."""
    counts = dict.fromkeys(("total", "code", "docstring", "comment", "blank"), 0)
    for path in sorted((SRC / "synergy").glob("*.py")):
        text = path.read_text()
        docstrings = _docstring_lines(ast.parse(text))
        for number, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if number in docstrings:
                kind = "docstring"
            elif not stripped:
                kind = "blank"
            elif stripped.startswith("#"):
                kind = "comment"
            else:
                kind = "code"
            counts["total"] += 1
            counts[kind] += 1
    counts["public_names"] = len(synergy.__all__)
    return counts


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    print(json.dumps(measure()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
