#!/usr/bin/env python3
"""Print the code lines of each ``src/confdec`` module and their total.

A code line holds at least one token that is not a comment and not part of
a docstring; blank lines, comment lines and docstring lines do not count.
A docstring is any statement that is a bare string, as Python's ``ast``
reads it.  Run from anywhere:

    python scripts/code_lines.py

prints one ``<lines> <module>`` line per module, then ``<lines> total``.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "confdec"

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    counts = {path.name: code_lines(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count} {name}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
