"""One benchmark child process; run.py starts a fresh one for each role.

    setup    import ilw_lab and resolve every invocation, then stop
    measure  set up, then run untraced passes of the workload for --seconds
    traced   set up, wrap the layers (tracing.py), run one pass
    diag     time LaxSpectrum construction at m=64 and m=1024 with as many
             concurrent callers as the program's default pool has workers

Every role but diag runs on one CPU (``pin_to_one_cpu``).

Set-up time runs from ``--spawned-at`` (time.monotonic() in the parent just
before it started this process) until the package is imported and
``experiments.load_config`` has resolved every invocation of one pass.  The
result goes to ``--result`` as JSON.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_invocation  # noqa: E402
from workloads import TABLE, invocations, reference_table  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Diagnostic cases: label -> (the workload whose first invocation gives the
# Lax matrix, LaxSpectrum constructions per thread)
DIAG_CASES = {
    "m64": ("gronwall-ensemble", 100),
    "m1024": ("beta-large", 2),
}


def pin_to_one_cpu():
    """Keep this process on one CPU of those it may use.

    On a shared 2-vCPU host, a process that keeps both vCPUs busy is the
    one the host steals time from, and the pool's two GIL-bound workers
    turn each stolen slice into a stalled GIL hand-off: a default
    ``gronwall`` took 21-23 s of wall time for 19 s of CPU time with
    8-11 s of steal, and 18-19 s with 1 s of steal on one CPU.  The pool
    keeps its default size, because ``os.cpu_count()`` ignores affinity.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def resolve(argv):
    """The config the CLI resolves for one invocation."""
    from ilw_lab import cli, experiments

    args = vars(cli.build_parser().parse_args(argv))
    overrides = {key: value for key, value in args.items()
                 if key not in ("command", "config", "outdir")
                 and value is not None}
    return experiments.load_config(args["command"], None, overrides, None)


def set_up(workload, seed):
    """Import the program and resolve each invocation's config."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import ilw_lab
    from ilw_lab import cli

    if not Path(ilw_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("ilw_lab was imported from %s, not from this checkout"
                         % ilw_lab.__file__)
    for argv in invocations(workload, seed):
        resolve(argv)
    return cli.main


def _tree_size(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def run_pass(main, workload, seed, workdir: Path, label: str) -> dict:
    """One pass: every invocation, timed, then checked and cleaned up."""
    wall = cpu = 0.0
    io_bytes = io_files = 0
    failures = []
    argvs = invocations(workload, seed)
    for i, argv in enumerate(argvs):
        outdir = workdir / ("%s-%d" % (label, i))
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = main(argv + ["--outdir", str(outdir)])
        except Exception:  # an escaped exception is a failed invocation
            code = "exception: " + traceback.format_exc(limit=3)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        problems = check_invocation(code, outdir, TABLE[argv[0]],
                                    reference_table(workload, argv))
        if outdir.is_dir():
            size, count = _tree_size(outdir)
            io_bytes += size
            io_files += count
            shutil.rmtree(outdir)
        if problems:
            failures.append({"argv": argv, "problems": problems[:10]})
    return {"wall_s": wall, "cpu_s": cpu, "io_bytes": io_bytes,
            "io_files": io_files, "attempted": len(argvs),
            "failed": len(failures), "failures": failures}


def environment() -> dict:
    import numpy
    import scipy
    from ilw_lab import experiments

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key)
                 for key in ("name", "version", "openblas configuration")},
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "ILW_LAB_THREADS")},
        "pool_workers": experiments._worker_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(args, workdir):
    main = set_up(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(main, args.workload, args.seed, workdir,
                               "p%d" % len(passes)))
    return {"setup_s": setup_s, "passes": passes,
            "peak_rss_mb": peak_rss_mb(), "env": environment()}


def traced(args, workdir):
    import tracing

    main = set_up(args.workload, args.seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    main = tracer.wrap("cli.main", main)
    result = run_pass(main, args.workload, args.seed, workdir, "traced")
    if tracer.errors:
        raise SystemExit("tracing failed:\n" + "\n".join(tracer.errors[:10]))
    metrics = tracing.layer_metrics(tracer.spans, threading.get_ident())
    tracer.write_spans(args.spans)
    return {"pass": result, "layers": metrics,
            "self_times": tracing.self_times(tracer.spans)}


def diag(args, workdir):
    """Per-call time of LaxSpectrum construction under concurrent callers,
    on the Lax matrix that each Lax workload's first invocation builds."""
    from ilw_lab import lax
    from ilw_lab.experiments import random_field
    from ilw_lab.spectral import SpectralGrid

    workers = environment()["pool_workers"]
    out = {"workers": workers, "us_per_call": {}, "dim": {}}
    for name, (workload, calls) in DIAG_CASES.items():
        p = resolve(invocations(workload, args.seed)[0]).params
        grid = SpectralGrid(p["length"], p["n"])
        u = random_field(grid, p["s"], p["amplitude"], p["seed"], p["decay"])
        xi_max = (lax.modes_to_xi_max(grid, p["modes"]) if p.get("modes", 0) > 0
                  else 0.5 * grid.max_frequency)
        truncation = lax.build_lax(u, xi_max)
        times = []

        def call_repeatedly():
            for _ in range(calls):
                t0 = time.perf_counter()
                lax.LaxSpectrum(truncation, u)
                times.append(time.perf_counter() - t0)

        threads = [threading.Thread(target=call_repeatedly)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out["us_per_call"][name] = 1e6 * statistics.median(times)
        out["dim"][name] = int(truncation.matrix.shape[0])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "traced", "diag"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced role writes its spans")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    if args.role != "diag":
        pin_to_one_cpu()
    if args.role == "setup":
        set_up(args.workload, args.seed)
        out = {"setup_s": time.monotonic() - args.spawned_at}
    else:
        out = {"measure": measure, "traced": traced, "diag": diag}[args.role](
            args, workdir)
    Path(args.result).write_text(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
