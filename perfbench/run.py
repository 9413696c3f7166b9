"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` — host seconds from process start to the first timed
  operation: the median of fresh interpreters importing the workload's
  modules, plus the median of the workload's in-process set-up (platform
  build, daemon boot with its index refresh, or store open), each
  repeated :data:`SETUP_REPEATS` times, scaled to the reference host
  speed like ``cells_per_s``.  Pre-built fixtures (the store_readback
  root, the served_sweep prefill campaign) are excluded;
* ``cells_per_s`` — cells completed per host second (on store_readback,
  store records resolved or read per second: each record is one cell),
  scaled to a reference host speed by calibration chunks run between
  the timed operations (``common.HostSpeed``);
* ``peak_rss_mb`` — peak resident memory of the measuring process, which
  on served_sweep is also the daemon's.

``--trace 1`` runs one fixed pass of the workload untraced, then the
same pass under cProfile and the spans and counters of ``layers.py``,
and reports every per-layer metric.  Either way the outputs are checked
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it repeat every metric by name and unit, plus
``failed_frac`` (failed / attempted) and the workload's own notes.
README.md beside this file says why each workload exists and which
end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import common
from common import (
    BUILD_DIR, DEFAULT_SEED, HostSpeed, median, peak_rss_mb, time_import,
)

#: Repetitions of each set-up step whose median makes ``setup_s``.
SETUP_REPEATS = 5
#: Calibration chunks run before each set-up repetition and after the
#: last one.
SETUP_CHUNKS = 10

WORKLOADS = ("paper_cells", "fault_storm", "served_sweep", "store_readback")

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
)


def workload_classes():
    """Workload name -> class (imported after :func:`common.bootstrap`)."""
    from readback import StoreReadback
    from served import ServedSweep
    from simcells import FaultStorm, PaperCells

    return {
        cls.name: cls
        for cls in (PaperCells, FaultStorm, ServedSweep, StoreReadback)
    }


class Tracer:
    """What a traced pass hands its workload: the profiler and the tally."""

    def __init__(self, profiler, tally):
        self.profiler = profiler
        self.tally = tally


def untraced(workload, seconds):
    """End-to-end metrics and the measured outcome."""
    speed = HostSpeed(time.perf_counter)
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample(SETUP_CHUNKS)
        imports.append(time_import(workload.imports))
        setups.append(workload.setup())
    speed.sample(SETUP_CHUNKS)
    outcome = workload.measure(seconds)
    rss = peak_rss_mb()
    workload.check(outcome)
    outcome.notes.append(
        "setup_s = (imports {:.4f} s + in-process set-up {:.4f} s, medians "
        "of {}) / host-speed factor {:.4f}; pre-built fixtures "
        "excluded".format(
            median(imports), median(setups), SETUP_REPEATS, speed.factor()
        )
    )
    metrics = {
        "setup_s": (median(imports) + median(setups)) / speed.factor(),
        "cells_per_s": outcome.rate,
        "peak_rss_mb": rss,
    }
    return metrics, END_TO_END, outcome


def traced(workload):
    """Per-layer metrics of one fixed pass, and the combined outcome."""
    from layers import PER_LAYER, Profiler, Tally, instrumented, layer_metrics

    plain = workload.one_pass()
    workload.check(plain)
    tally = Tally()
    profiler = Profiler(workload.thread_prefix)
    with instrumented(tally):
        outcome = workload.one_pass(Tracer(profiler, tally))
    workload.check(outcome)
    metrics = layer_metrics(profiler.stats(), tally, plain.rate, outcome.rate)
    for name, _unit in PER_LAYER:
        if name in plain.extra:
            metrics[name] = plain.extra[name]
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    outcome.notes = plain.notes + outcome.notes
    outcome.notes.append(
        "tracing overhead: untraced {:.4f} / traced {:.4f} work units/s".format(
            plain.rate, outcome.rate
        )
    )
    return metrics, PER_LAYER, outcome


def report(name, metrics, units, outcome):
    """Print the human lines, then the JSON result line."""
    for note in outcome.notes:
        print("{}: {}".format(name, note))
    for metric, unit in units:
        print("{} {} = {!r} {}".format(name, metric, metrics[metric], unit))
    attempted = max(outcome.attempted, 1)
    print("{} failed_frac = {!r} ratio ({} failed of {} attempted)".format(
        name, outcome.failed / attempted, outcome.failed, attempted))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units
        },
    }, sort_keys=True))


def main(argv=None):
    """Command-line entry point (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run every workload in turn",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(
            subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        )
    common.bootstrap()
    common.pin_to_one_cpu()
    classes = workload_classes()
    if args.workload not in classes:
        parser.error("unknown workload {!r}; known: {}".format(
            args.workload, ", ".join(sorted(classes))))
    workdir = os.path.join(BUILD_DIR, "work-{}".format(os.getpid()))
    os.makedirs(workdir)
    workload = None
    try:
        workload = classes[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            metrics, units, outcome = traced(workload)
        else:
            metrics, units, outcome = untraced(workload, args.seconds)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, metrics, units, outcome)
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print("{} wall {:.1f} s".format(sys.argv[0], time.perf_counter() - started),
          file=sys.stderr)
    sys.exit(code)
