"""Print the size of each ``src/ramseybook`` module: code lines and branches.

Code lines are the non-blank lines outside comments and docstrings, found
with ``tokenize``; a docstring is a string literal that is a statement on
its own.  Branches are the ``if`` statements (``elif`` included) and the
conditional expressions, found with ``ast``.

    python3 tools/src_size.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ramseybook"
SKIPPED = {tokenize.COMMENT, tokenize.NL}
STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
LAYOUT = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIPPED]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in LAYOUT:
            continue
        if tok.type == tokenize.STRING and prev.type in STATEMENT_START and nxt.type == tokenize.NEWLINE:
            continue  # a string that is a statement on its own: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def branches(path: Path) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(isinstance(node, (ast.If, ast.IfExp)) for node in ast.walk(tree))


def main() -> None:
    total_lines = total_branches = 0
    print(f"{'module':<16} {'code lines':>10} {'branches':>9}")
    for path in sorted(SRC.glob("*.py")):
        n, b = code_lines(path), branches(path)
        total_lines += n
        total_branches += b
        print(f"{path.name:<16} {n:>10} {b:>9}")
    print(f"{'total':<16} {total_lines:>10} {total_branches:>9}")


if __name__ == "__main__":
    main()
