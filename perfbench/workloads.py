"""The benchmark's workloads: which CLI invocations one pass makes.

Every invocation's ``--seed`` is derived from the benchmark's workload seed.
The seed selects one of ``VARIANTS`` input variants, and each variant has
reference outputs recorded under ``reference/`` (see record_reference.py),
so a run with any seed can be checked cell by cell.
"""

from __future__ import annotations

from pathlib import Path

VARIANTS = 6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# command -> the tabular output compared against the reference
TABLE = {
    "gronwall": "runs.csv",
    "simulate": "trajectory.csv",
    "beta": "beta_profile.csv",
}

WORKLOADS = ("gronwall-ensemble", "simulate-long", "beta-large")


def invocations(workload: str, seed: int) -> list:
    """The argv lists (without --outdir) of one pass of ``workload``."""
    k = seed % VARIANTS
    if workload == "gronwall-ensemble":
        # defaults: 3 depths x 10 members at N=256; members use seed..seed+9
        return [["gronwall", "--seed", str(1 + 10 * k)]]
    if workload == "simulate-long":
        return [["simulate", "--n", "1024", "--t-final", "20",
                 "--seed", str(1 + k)]]
    if workload == "beta-large":
        return [["beta", "--n", "4096", "--seed", str(1 + 3 * k + j)]
                for j in range(3)]
    raise ValueError("unknown workload %r" % workload)


def reference_table(workload: str, argv: list) -> Path:
    """Where the recorded table of one invocation lives."""
    seed = argv[argv.index("--seed") + 1]
    return REFERENCE_DIR / workload / ("seed-%s" % seed) / TABLE[argv[0]]
