"""Record the reference tables that checks.py compares every run against.

    python3 perfbench/record_reference.py

Runs each invocation of every input variant once through the CLI, with the
same environment as the benchmark's children, requires exit 0 and
``passed: true``, and copies its table into ``perfbench/reference/``.
Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env
from workloads import TABLE, VARIANTS, WORKLOADS, invocations, reference_table


def record(workload: str):
    for k in range(VARIANTS):
        for argv in invocations(workload, k):
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                outdir = Path(tmp) / "out"
                proc = subprocess.run(
                    [sys.executable, "-m", "ilw_lab.cli", *argv,
                     "--outdir", str(outdir)],
                    cwd=ROOT, env=child_env(), capture_output=True, text=True)
                report = json.loads((outdir / "report.json").read_text())
                if proc.returncode != 0 or report["passed"] is not True:
                    raise SystemExit("%s failed (exit %d): %s"
                                     % (" ".join(argv), proc.returncode,
                                        proc.stderr))
                target = reference_table(workload, argv)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(outdir / TABLE[argv[0]], target)
                print("recorded", target.relative_to(ROOT))


def main():
    for workload in WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main()
