"""Output checks for one CLI invocation.

An invocation passes when
- it exits 0 (the contract allows 0 pass, 1 usage, 2 numerical, 3 failed
  check; anything else, or an exception escaping ``main``, is reported as
  a contract breach);
- ``report.json`` is strict JSON (no NaN or Infinity) with ``passed: true``;
- every cell of its table matches the reference recorded from the seed
  commit at the same seed.

Tolerance.  A numeric cell matches when |x - ref| <= VALUE_RTOL * |ref|.
VALUE_RTOL = 1e-12 sits above the 1e-13 that the planned rfft and batching
refactors may move values by, and 40x above the largest gap measured on
this commit when the nonlinear term uses rfft or OpenBLAS runs another
kernel set (2.3e-14).  ``a_hat`` is the largest log-slope between samples
dt_s = t_final / samples apart, so a relative error e in the form values
moves it by up to 2 e / dt_s in absolute terms; its cells match when
|x - ref| <= 2 * VALUE_RTOL / dt_s (2e-10 at the defaults, against a
measured 3.6e-12).  Every other cell (depths, seeds, booleans) must match
exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

VALUE_RTOL = 1e-12
GRONWALL_SAMPLE_DT = 1.0 / 100  # defaults: t_final = 1, samples = 100


def _reject_constant(token):
    raise ValueError("non-strict JSON constant %s" % token)


def _read_table(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell_problem(column: str, got: str, want: str):
    try:
        x, ref = float(got), float(want)
    except ValueError:
        return None if got == want else "%r != %r" % (got, want)
    if column == "a_hat":
        tol = 2.0 * VALUE_RTOL / GRONWALL_SAMPLE_DT
    elif column in ("depth", "seed"):
        tol = 0.0
    else:
        tol = VALUE_RTOL * abs(ref)
    if not abs(x - ref) <= tol:  # NaN fails
        return "%r vs %r (tolerance %.1e)" % (x, ref, tol)
    return None


def compare_table(got_path: Path, ref_path: Path) -> list:
    """Problems found comparing a table with its reference, cell by cell."""
    if not got_path.is_file():
        return ["missing %s" % got_path.name]
    got, want = _read_table(got_path), _read_table(ref_path)
    if not got or got[0] != want[0]:
        return ["%s header differs from the reference" % got_path.name]
    if len(got) != len(want):
        return ["%s has %d rows, reference %d"
                % (got_path.name, len(got) - 1, len(want) - 1)]
    problems = []
    header = want[0]
    for i, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(header):
            problems.append("%s row %d has %d cells"
                            % (got_path.name, i, len(row)))
            continue
        for column, cell, ref_cell in zip(header, row, ref_row):
            problem = _cell_problem(column, cell, ref_cell)
            if problem:
                problems.append("%s row %d %s: %s"
                                % (got_path.name, i, column, problem))
    return problems


def check_invocation(exit_code, outdir: Path, table: str,
                     ref_path: Path) -> list:
    """Every problem with one invocation's result; empty when it passed."""
    if exit_code not in (0, 1, 2, 3):
        return ["exit code %r is outside the 0/1/2/3 contract" % (exit_code,)]
    if exit_code != 0:
        return ["exit code %d" % exit_code]
    try:
        report = json.loads((outdir / "report.json").read_text(),
                            parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return ["report.json unreadable: %s" % exc]
    problems = []
    if report.get("passed") is not True:
        problems.append("report.json says passed=%r" % report.get("passed"))
    return problems + compare_table(outdir / table, ref_path)
