"""Exact-repeat test of the traced run's deterministic numbers.

Runs ``run.py --trace 1`` three times per workload — twice under
``PYTHONHASHSEED=0`` and once under ``PYTHONHASHSEED=1`` — and asserts
that every ``<layer>.calls`` value and every public work counter
(``layers.EXACT``) is identical across the three.  ``other.calls`` is
held to the same rule except on ``served_sweep``, whose stdlib queue and
condition-variable waits in the worker threads depend on thread timing.
It also checks that ``BENCHMARK.json`` declares exactly the metrics the
benchmark reports.  Exits 1 on any difference.  Run from the root of a
checkout::

    python3 perfbench/check_repeat.py [--seed N] [workload ...]
"""

import argparse
import json
import os
import subprocess
import sys

from layers import EXACT, PER_LAYER
from run import END_TO_END, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: Hash seeds of the three runs (the first two are the repeat pair).
HASH_SEEDS = ("0", "0", "1")


def traced_metrics(workload, seed, hash_seed):
    """The metrics of one traced run under ``PYTHONHASHSEED=hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("{}: traced run reported incorrect outputs".format(
            workload))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def declared_mismatches():
    """Differences between BENCHMARK.json and the reported metrics."""
    with open(BENCHMARK_JSON) as handle:
        declared = json.load(handle)
    problems = []
    for section, reported in (("end_to_end", END_TO_END),
                              ("per_layer", PER_LAYER)):
        names = [(m["name"], m["unit"]) for m in declared[section]]
        if names != list(reported):
            problems.append("BENCHMARK.json {} differs from the metrics "
                            "run.py reports".format(section))
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    return problems


def main(argv=None):
    """Run the check; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    problems = declared_mismatches()
    for problem in problems:
        print(problem)
    failures = len(problems)
    for workload in args.workloads:
        names = list(EXACT)
        if workload != "served_sweep":
            names.append("other.calls")
        runs = [
            traced_metrics(workload, args.seed, hash_seed)
            for hash_seed in HASH_SEEDS
        ]
        for name in names:
            values = [run[name] for run in runs]
            if len(set(values)) != 1:
                failures += 1
                print("{} {} differs: {}".format(workload, name, values))
        print("{}: {} numbers compared across PYTHONHASHSEED {}".format(
            workload, len(names), "/".join(HASH_SEEDS)))
    print("exact-repeat check {}".format("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
