"""Run every workload several times and print each end-to-end metric.

    python3 perfbench/summary.py [--runs 10] [--first-seed 1]
                                 [--workload NAME | --all]

Run ``--runs`` untraced runs of each workload through run.py, one seed
each, and print per workload and metric the median with its quartiles and
the spread (third minus first quartile, as a share of the median) that the
metric's bound in BENCHMARK.json is compared with.  ``failed_frac`` is the
number of failed CLI invocations over those attempted in all runs.  The
exit status is 1 when any spread exceeds its bound or any invocation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, quartiles
from workloads import WORKLOADS


def one_run(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload, also one BENCHMARK.json leaves out")
    parser.add_argument("--all", action="store_true",
                        help="every workload of workloads.py")
    args = parser.parse_args()
    if args.all:
        workloads = list(WORKLOADS)
    elif args.workload:
        workloads = [args.workload]
    else:
        workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        runs = [one_run(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print("%s: %d runs, seeds %d..%d" % (workload, len(runs), args.first_seed,
                                             args.first_seed + len(runs) - 1))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            q1, _, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            if spread > bound:
                ok = False
            print("  %-12s %12.6g %-5s  quartiles %.6g .. %.6g  spread %.4f"
                  "  (bound %.2f)" % (name, median, unit, q1, q3, spread, bound))
        print("  %-12s %12.6g %-5s  (%d of %d invocations)"
              % ("failed_frac", failed / attempted, "ratio", failed, attempted))
        ok = ok and failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
