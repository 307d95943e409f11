"""Count the lines of every module of a package: physical lines, and code
lines, the non-blank lines outside comments and docstrings (a docstring
is found by walking the module's syntax tree).

    python tools/loc.py [PACKAGE_DIR]
    python tools/loc.py OLD_PACKAGE_DIR NEW_PACKAGE_DIR

PACKAGE_DIR defaults to src/bqsdc of this checkout. Given two package
directories, say a parent commit's src/bqsdc and this one's, it prints each
module's physical and code lines on both sides and their difference, new
minus old; a module missing on one side counts 0 lines there.
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


def counts(package: Path) -> dict[str, tuple[int, int]]:
    """(physical, code) lines of every module of package, by file name, and
    their sums under "total"."""
    rows = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = (sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values()))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    default = Path(__file__).resolve().parent.parent / "src" / "bqsdc"
    packages = [Path(arg) for arg in argv] or [default]
    if len(packages) == 1:
        print(f"{'module':<16}{'physical':>10}{'code':>8}")
        for name, (physical, code) in counts(packages[0]).items():
            print(f"{name:<16}{physical:>10}{code:>8}")
        return 0
    old, new = map(counts, packages)
    names = sorted((old.keys() | new.keys()) - {"total"}) + ["total"]
    print(f"{'':<16}{'physical':>26}{'code':>26}")
    print(f"{'module':<16}" + f"{'old':>10}{'new':>8}{'delta':>8}" * 2)
    for name in names:
        sides = zip(old.get(name, (0, 0)), new.get(name, (0, 0)))
        print(f"{name:<16}" + "".join(f"{a:>10}{b:>8}{b - a:>+8}" for a, b in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
