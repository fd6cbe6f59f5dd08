"""Count the lines of the ``spe_reach`` package, per module and in total.

Prints, for every module under ``src/spe_reach``, all its lines and its
code lines: those that are neither blank, nor comment-only, nor part of a
docstring (the string that opens a module, class or function body, found
through ``ast``). Standard library only.

usage: python tools/src_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that a docstring of the module spans."""
    lines: set[int] = set()
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


def count(path: Path) -> tuple[int, int]:
    """All lines and code lines of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in docs and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "spe_reach"
    total_all = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        n_all, n_code = count(path)
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16}{n_all:>8,}{n_code:>8,}")
    print(f"{'total':<16}{total_all:>8,}{total_code:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
