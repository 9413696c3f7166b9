"""Full-size bit-identity gate over the repository benchmark.

Runs ``perfbench/run.py --seconds 1 --trace 0`` for the simulator
workloads (``paper_cells`` and ``fault_storm``) on seeds 1 and 2.  Each
run simulates whole 8×16 cells and checks every cell's output hash
against ``perfbench/reference.json``; its last line of standard output is
a JSON result whose ``"correct"`` field says whether every cell matched.
This script fails unless every run exits 0 and reports
``"correct": true``.  The timings the runs print are ignored — this is a
correctness gate, not a performance one.

Standard library only; run as ``python tools/perfbench_check.py`` from
the repo root (or anywhere — paths are anchored to this file).
"""

import json
import os
import subprocess
import sys

#: Repo root (this file lives in tools/).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("paper_cells", "fault_storm")
SEEDS = (1, 2)


def check(workload, seed):
    """Run one workload/seed; return an error message, or None if correct."""
    command = [
        sys.executable, os.path.join(REPO_ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(
        command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return "exit status {}".format(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "last line is not a JSON result: {!r}".format(lines[-1])
    if result.get("correct") is not True:
        notes = [line for line in lines[:-1] if "FAILED: " in line]
        return "not correct ({} failed of {}){}".format(
            result.get("failed"), result.get("attempted"),
            "".join("\n    " + line for line in notes),
        )
    return None


def main():
    failures = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            error = check(workload, seed)
            status = "ok" if error is None else "FAIL: " + error
            print("{} seed {}: {}".format(workload, seed, status), flush=True)
            failures += error is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
