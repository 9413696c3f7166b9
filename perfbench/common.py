"""Shared pieces of the benchmark: seeds, output hashes, timing helpers.

Seeds.  ``--seed`` is the workload seed; every input the program sees
(cell seeds, fault-scenario timing, tenant grids) is drawn from
``random.Random("<workload>:<seed>")``, which is stable across Python
processes and ``PYTHONHASHSEED`` values.  ``DEFAULT_SEED`` is the seed
the benchmark was tuned on; ``HELD_OUT_SEED`` was not used while tuning
and any later performance claim must hold on it too.  Reference output
hashes ship for both (``reference.json``).
"""

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Scratch space inside the checkout (git-ignored): per-run work roots
#: and the cached store_readback fixtures.
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def rng_for(workload, seed):
    """The input generator of one workload and seed."""
    return random.Random("{}:{}".format(workload, seed))


def digest(payload):
    """SHA-256 of a JSON-able payload in canonical form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_digest(result):
    """Hash of one cell's observable outputs: row, application and NoC
    statistics, and the metrics series when the run kept it."""
    payload = {
        "row": result.as_row(),
        "app_stats": result.app_stats,
        "noc_stats": result.noc_stats,
    }
    if result.series is not None:
        payload["series"] = result.series.as_dict()
    return digest(payload)


def load_reference():
    """The shipped ``reference.json`` (see ``make_reference.py``)."""
    try:
        with open(REFERENCE_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def reference_for(workload, seed):
    """Reference output hashes of one workload and seed, or ``None``."""
    return load_reference().get(workload, {}).get("seeds", {}).get(str(seed))


def cell_hops_for(workload):
    """``{cell kind: reference simulated hops per cell}`` of a simulator
    workload: the mean over every round of both reference seeds."""
    return load_reference()[workload]["hops_per_cell"]


def peak_rss_mb():
    """Peak resident memory of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Loop iterations of one calibration chunk.
CALIBRATION_ITERATIONS = 20_000
#: Seconds one calibration chunk takes on the reference host (the median
#: over many chunks on the 2-core Xeon VM the benchmark was built on).
CALIBRATION_REFERENCE_S = 0.0032


def calibration_chunk():
    """A fixed pure-Python loop, the yardstick of host speed.

    It is the benchmark's own code, so no change to the program moves
    it, and it allocates no container objects, so the size of the
    program's heap does not move it either.
    """
    table = {}
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


class HostSpeed:
    """Host speed, sampled between a workload's timed operations.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, and process CPU time drifts with it.  A timed workload runs
    calibration chunks between its operations, on the clock it times
    them with, and multiplies its raw rate by :meth:`factor`: the rate
    it would have had on a host that runs a chunk in
    :data:`CALIBRATION_REFERENCE_S`.  Chunk time is excluded from the
    raw rate's elapsed time.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spent = 0.0
        self.chunks = 0

    def sample(self, chunks=1):
        """Run ``chunks`` calibration chunks with the collector off;
        returns the seconds they took."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = self.clock()
            for _ in range(chunks):
                calibration_chunk()
            spent = self.clock() - started
        finally:
            if enabled:
                gc.enable()
        self.spent += spent
        self.chunks += chunks
        return spent

    def factor(self):
        """Mean chunk time over the reference chunk time (above 1 when
        this host ran slower than the reference)."""
        return self.spent / self.chunks / CALIBRATION_REFERENCE_S

    def note(self, raw_rate, unit):
        """The human line that shows the raw rate beside the factor."""
        return ("raw {:.4f} {} x host-speed factor {:.4f} ({} calibration "
                "chunks, mean {:.3f} ms)".format(
                    raw_rate, unit, self.factor(), self.chunks,
                    self.spent / self.chunks * 1e3))


def pin_to_one_cpu():
    """Keep this process, every thread it starts and every child it
    spawns on one CPU, the last it may use; returns that CPU.

    On a shared host each CPU's speed drifts on its own, so the work
    and the calibration chunks that time the host must run on the same
    one; and the served daemon's worker threads, which take turns on
    the interpreter lock anyway, then hand it over without waking
    another CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def tail(values):
    """``(percentile, value)`` at the highest of p99/p95/p90/p75/p50 that
    leaves at least ten samples above it, else ``(100, max)``."""
    ordered = sorted(values)
    count = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        rank = int(count * pct / 100)
        if count - rank - 1 >= 10:
            return pct, ordered[rank]
    return 100, ordered[-1]


def time_import(modules):
    """Wall time of a fresh interpreter that starts and imports
    ``modules`` from the checkout's ``src`` (process start to imports
    done, the import share of ``setup_s``)."""
    code = "import sys; sys.path.insert(0, {!r}); import {}".format(
        SRC, ", ".join(modules)
    )
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - started


class Outcome:
    """What one timed stretch of a workload did."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.elapsed = 0.0
        self.rate = 0.0
        self.notes = []
        #: Per-layer values this stretch measured itself (traced runs).
        self.extra = {}

    def fail(self, message):
        """Count one failed operation and remember why."""
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append("FAILED: " + message)


def sequential_line(descriptor, key):
    """The store line a sequential ``run_single`` of ``descriptor``
    encodes to — the reference every served or stored line must equal
    byte for byte."""
    from repro.campaign.store import encode_line, encode_result
    from repro.experiments.runner import run_single

    result = run_single(*descriptor.job())
    return encode_line(encode_result(descriptor, result, key=key))


def read_lines(path):
    """``{key: line}`` of a campaign results stream (last line wins)."""
    lines = {}
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line:
                lines[json.loads(line)["key"]] = line
    return lines


def bootstrap():
    """Put the checkout's ``src`` first on ``sys.path``.

    Exits non-zero when ``src/repro`` is missing: the benchmark measures
    the program of the checkout it sits in, never an installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: {} has no repro package; run from the root of a "
            "full checkout".format(SRC)
        )
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from outside the checkout")
