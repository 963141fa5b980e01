"""Count the code lines of Python files: non-blank lines that are neither
comments nor docstrings.

A docstring is the leading string expression of a module, class or
function body, found with ``ast``; a comment line is one whose first
non-blank character is ``#``.  Run as

    python tools/code_lines.py [PATH ...]

where each PATH is a file or a directory searched for ``*.py`` files
(default ``src/ilw_lab``).  It prints one line per file and the total.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.strip().startswith("#")
               and number not in skip)


def main(argv) -> int:
    files = []
    for arg in argv or ["src/ilw_lab"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
