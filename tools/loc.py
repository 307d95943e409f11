"""Count the lines of every module of a package: physical lines, and code
lines, the non-blank lines outside comments and docstrings (a docstring
is found by walking the module's syntax tree).

    python tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/bqsdc of this checkout.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one module."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "bqsdc"
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for name, physical, code in rows:
        print(f"{name:<16}{physical:>10}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
