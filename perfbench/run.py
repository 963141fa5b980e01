"""ilw-lab benchmark: one run of one workload, reported as one JSON line.

    python3 perfbench/run.py --workload gronwall-ensemble --seed 1 \
        --seconds 45 --trace 0

Run from the root of a checkout.  Each role runs in a fresh child process
(child.py) that imports the package from ``src/`` with BLAS and OpenMP
pinned to one thread and ``ILW_LAB_THREADS`` unset, so the program's
default pool plus BLAS use at most ``nproc`` threads.  The timed children
also run on one CPU (child.pin_to_one_cpu).

--trace 0  end-to-end metrics.  After one set-up child that only warms the
           bytecode cache, set-up children run before and after the
           measuring child, so that their samples span the run; they and
           the measuring child give ``setup_s``.  The measuring child runs
           untraced passes of the workload for --seconds and gives the rest.
--trace 1  per-layer metrics.  The same untraced child, then one traced
           pass in a fresh child, then the oversubscription diagnostic in
           two more children (BLAS pinned, and BLAS threads at their
           default).

Every invocation is checked (checks.py); the run is correct when none
failed.  The full record of the run, with the machine and the package
environment, goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES_EACH_SIDE = 6
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def child_env(blas_pinned=True) -> dict:
    env = dict(os.environ)
    env.pop("ILW_LAB_THREADS", None)
    for key in THREAD_VARS:
        if blas_pinned:
            env[key] = "1"
        else:
            env.pop(key, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, role, blas_pinned=True, **extra) -> dict:
        result = self.workdir / ("%s-%d.json" % (role, time.monotonic_ns()))
        cmd = [sys.executable, str(HERE / "child.py"), role,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--workdir", str(self.workdir), "--result", str(result)]
        for key, value in extra.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the %s child" % role)
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(blas_pinned),
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("%s child timed out" % role) from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError("%s child exited %d:\n%s"
                             % (role, proc.returncode, proc.stderr[-3000:]))
        return json.loads(result.read_text())

    def setup_times(self) -> list:
        return [self.child("setup")["setup_s"]
                for _ in range(SETUP_SAMPLES_EACH_SIDE)]


def _median(values):
    return statistics.median(values) if values else 0.0


def per_pass(passes, key):
    """The run's total of ``key`` over its passes, divided by their number.

    A run holds 3-4 passes of gronwall-ensemble, whose times scatter by
    about a tenth with the host's speed; at that count their mean spreads
    less from run to run than their median does.
    """
    return sum(p[key] for p in passes) / len(passes)


def quartiles(values):
    """Q1, median and Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def end_to_end(setups, measured) -> dict:
    passes = measured["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": per_pass(passes, "wall_s"),
        "setup_s": _median(setups + [measured["setup_s"]]),
        "cpu_s": per_pass(passes, "cpu_s"),
        "peak_rss_mb": measured["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(measured, traced, pinned, default) -> dict:
    passes = measured["passes"]
    wall = per_pass(passes, "wall_s")
    cpu = per_pass(passes, "cpu_s")
    metrics = dict(traced["layers"])
    metrics["experiments.cpu_per_wall"] = cpu / wall
    metrics["experiments.io.bytes"] = _median([p["io_bytes"] for p in passes])
    metrics["experiments.io.files"] = _median([p["io_files"] for p in passes])
    metrics["trace.overhead_frac"] = traced["pass"]["wall_s"] / wall - 1.0
    for case in ("m64", "m1024"):
        for label, diag in (("blas_pinned", pinned), ("blas_default", default)):
            metrics["lax.eigh.us_per_call.%s.%s" % (case, label)] = \
                diag["us_per_call"][case]
    return metrics


def with_units(metrics: dict, section: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must list
    exactly the metrics this run computed."""
    declared = {entry["name"]: entry["unit"] for entry in
                json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(declared) != set(metrics):
        raise BenchError("BENCHMARK.json %s does not match the metrics computed: "
                         "%s" % (section, sorted(set(declared) ^ set(metrics))))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()}


def _git_commit():
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit()}


def run(args) -> dict:
    if not (ROOT / "src" / "ilw_lab" / "cli.py").is_file():
        raise BenchError("no src/ilw_lab/cli.py under %s; run from a checkout"
                         % ROOT)
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine()}
        if args.trace:
            measured = runner.child("measure")
            traced = runner.child("traced", spans=results / (stem + ".spans.jsonl"))
            pinned = runner.child("diag")
            default = runner.child("diag", blas_pinned=False)
            metrics = per_layer(measured, traced, pinned, default)
            all_passes = measured["passes"] + [traced["pass"]]
            record.update(traced=traced, diag={"blas_pinned": pinned,
                                               "blas_default": default})
        else:
            runner.child("setup")  # fills the bytecode cache; not counted
            setups = runner.setup_times()
            measured = runner.child("measure")
            setups += runner.setup_times()
            metrics = end_to_end(setups, measured)
            all_passes = measured["passes"]
            record["setup_samples"] = setups + [measured["setup_s"]]
        out_metrics = with_units(metrics, "per_layer" if args.trace else "end_to_end")
        record.update(env=measured["env"], passes=measured["passes"],
                      pass_quartiles={key: quartiles([p[key] for p in measured["passes"]])
                                      for key in ("wall_s", "cpu_s")})
        attempted = sum(p["attempted"] for p in all_passes)
        failed = sum(p["failed"] for p in all_passes)
        summary = {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": out_metrics}
        record["result"] = summary
        (results / (stem + ".json")).write_text(json.dumps(record, indent=1))
        return summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description="ilw-lab benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
