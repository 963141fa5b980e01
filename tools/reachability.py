"""List the functions of ``src/ilw_lab`` that no command reaches.

The tool runs a fixed list of ``ilw-lab`` argv in process, through
``cli.main``, with ``sys.setprofile`` installed before ``ilw_lab`` is
imported, and records the code object of every Python call.  The list is
the ``SMOKE_RUNS`` argv of ``tests/test_experiments.py`` (read from that
file's source, so the two never drift) and the runs in ``EXTRA_RUNS``: the
deep-water ``gronwall``, ``beta`` on a chosen mode count, ``simulate``
resumed from a snapshot that an earlier run wrote, and a ``simulate`` that
blows up.  A run that ends with another exit code than its listed one
stops the tool with exit 1, since its reach would differ.  Each function
that ``ast`` finds under ``src/ilw_lab`` is keyed by its file and its
``def`` line, or its first decorator line when it has decorators, which is
the line a code object reports as ``co_firstlineno``.  Run as

    python tools/reachability.py

It always profiles the package of the checkout it sits in, prints one
``module.qualname`` line per function that no argv reached, sorted, and
otherwise exits 0.  The argv run in a temporary directory, and their outputs are
discarded.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ilw_lab"
SMOKE_SOURCE = ROOT / "tests" / "test_experiments.py"

# after SMOKE_RUNS, whose "simulate --n 64 --t-final 0.05 --outdir simulate"
# wrote the snapshot that the resumed run reads
EXTRA_RUNS = [
    ("gronwall --equation bo --n 64 --seeds 1 --samples 2 --t-final 0.01 "
     "--outdir gronwall-bo", 0),
    ("beta --modes 17 --outdir beta-modes", 0),
    ("simulate --n 64 --t-final 0.05 --initial simulate/final.bin "
     "--outdir simulate-resumed", 0),
    # the state blows up
    ("simulate --n 64 --amplitude 50 --dt 0.01 --t-final 1 --outdir blow-up",
     2),
]


def smoke_runs() -> list:
    """(argv, exit code) of each of ``SMOKE_RUNS``: its assigned
    expression, evaluated with no names in scope (it is built from literals
    alone)."""
    tree = ast.parse(SMOKE_SOURCE.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SMOKE_RUNS"]):
            expression = compile(ast.Expression(node.value), str(SMOKE_SOURCE),
                                 "eval")
            runs = eval(expression, {"__builtins__": {}})
            return [(argv, code) for argv, code, _ in runs]
    raise SystemExit("no SMOKE_RUNS assignment in %s" % SMOKE_SOURCE)


def package_functions() -> dict:
    """(file, first line) -> ``module.qualname`` of every function under
    ``src/ilw_lab``; the first line is the first decorator's, if any."""
    functions = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                functions[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path,
              path.stem + ".")
    return functions


def reached_lines(runs: list) -> set:
    """(file, co_firstlineno) of every Python call made while ``cli.main``
    runs each argv of ``runs`` in a temporary directory; an exit code other
    than the argv's own is a SystemExit."""
    reached, wrong = set(), []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(PACKAGE.parent))
    sys.setprofile(profile)
    try:
        from ilw_lab import cli

        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                # the duplicate option that SMOKE_RUNS' config run rejects
                Path("dup.ini").write_text("[wave]\ndepth = 1\ndepth = 2\n")
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    for argv, code in runs:
                        status = cli.main(argv.split())
                        if status != code:
                            wrong.append("%s: exit %d, not %d"
                                         % (argv, status, code))
            finally:
                os.chdir(cwd)
    finally:
        sys.setprofile(None)
    if wrong:
        raise SystemExit("\n".join(wrong))
    return reached


def main() -> int:
    functions = package_functions()
    reached = reached_lines(smoke_runs() + EXTRA_RUNS)
    for name in sorted(name for key, name in functions.items()
                       if key not in reached):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
