"""``store_readback``: store readers and analysis do all the work.

The fixture is a store root built by sequential ``run_campaign`` sweeps
(4×4 / 100 ms cells with series; none / ni / ffw × 200 seeds):
``table1`` holds the 600 zero-fault cells, ``table2`` the 1,200 cells
with 0 and 2 faults, its zero-fault half deduped from ``table1`` — 1,800
record lines in all.  It is built once per seed in a child process
(``python3 perfbench/readback.py --build DIR --seed N``) and cached
under ``.bench_build/`` keyed by seed and a digest of ``src/repro``; it
is excluded from ``setup_s`` and from the peak memory of the measuring
process.

One read pass, on a fresh copy of the fixture root, runs zero
simulations:

1. resume ``table2`` (every cell cached);
2. run ``rerun``, a campaign fully overlapping ``table2``, through the
   root's dedup index (every cell deduped, records copied);
3. stream the merged records of the whole root;
4. render the ``campaign report`` page and summary.

The rate counts records resolved (1, 2) or read (3, 4) per second of
pass time, the median over the passes of a run.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from common import (
    BUILD_DIR, SRC, HostSpeed, Outcome, bootstrap, median, read_lines,
    reference_for, rng_for, sequential_line,
)
from layers import io_counters

MODELS = ("none", "ni", "ffw")
SEEDS = 200
SMALL = {"horizon_us": 100_000, "fault_time_us": 50_000}
#: Every n-th ``table2`` key is re-simulated to check the fixture.
RESIMULATE_EVERY = 25
#: Calibration chunks run before, between and after the four stages of
#: a timed pass (five samples, about 50 ms in all, some 5 % of a pass).
STAGE_CHUNKS = 3


def source_digest():
    """SHA-256 over ``src/repro`` (paths and bytes): the fixture cache
    key's program half."""
    sha = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


class StoreReadback:
    """Read passes over a cached, pre-built store root."""

    name = "store_readback"
    imports = ("repro.campaign", "repro.analysis")
    thread_prefix = None

    def __init__(self, seed, workdir):
        self.seed = seed
        first = rng_for(self.name, seed).randrange(1, 10**6)
        seeds = list(range(first, first + SEEDS))
        self.table1 = self._spec("table1", seeds, [0])
        self.table2 = self._spec("table2", seeds, [0, 2])
        self.rerun = self._spec("rerun", seeds, [0, 2])
        self.workdir = workdir
        self.fixture = os.path.join(
            BUILD_DIR, "fixtures",
            "{}-{}-{}".format(self.name, seed, source_digest()),
        )
        self.reference = reference_for(self.name, seed)
        self._passes = 0
        self._last = None

    @staticmethod
    def _spec(name, seeds, faults):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec.from_dict({
            "name": name, "models": list(MODELS), "seeds": seeds,
            "fault_counts": faults, "keep_series": True,
            "base": "small", "config": dict(SMALL),
        })

    # -- fixture ---------------------------------------------------------

    def build(self, target):
        """Build the fixture root at ``target`` (child-process entry)."""
        from repro.campaign.executor import run_campaign

        partial = "{}.tmp-{}".format(target, os.getpid())
        shutil.rmtree(partial, ignore_errors=True)
        run_campaign(self.table1, store=os.path.join(partial, "table1"))
        run_campaign(
            self.table2, store=os.path.join(partial, "table2"),
            dedup_root=partial,
        )
        os.replace(partial, target)

    def prepare(self):
        """Build the fixture in a child process unless it is cached."""
        if not os.path.isdir(self.fixture):
            os.makedirs(os.path.dirname(self.fixture), exist_ok=True)
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--build",
                 self.fixture, "--seed", str(self.seed)],
                check=True,
            )

    def fixture_digest(self):
        """Hash of the fixture's record lines (order-independent)."""
        lines = []
        for name in ("table1", "table2"):
            path = os.path.join(self.fixture, name, "results.jsonl")
            lines.extend(sorted(read_lines(path).values()))
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    # -- set-up and passes -----------------------------------------------

    def setup(self):
        """One timed store open: every fixture campaign's stream scan."""
        from repro.campaign.store import ResultStore

        started = time.perf_counter()
        for name in ("table1", "table2"):
            ResultStore(os.path.join(self.fixture, name)).close()
        return time.perf_counter() - started

    def close(self):
        """Nothing stays open between passes."""

    def _fresh_root(self):
        self._passes += 1
        root = os.path.join(self.workdir, "root-{}".format(self._passes))
        shutil.copytree(self.fixture, root)
        return root

    def _pass(self, root, outcome, tally=None, speed=None):
        """One timed read pass; returns ``(records, seconds)``.  With a
        ``speed``, calibration chunks run before, between and after the
        stages, and their time is left out of the seconds."""
        from repro.analysis.report import write_report
        from repro.campaign.executor import run_campaign
        from repro.campaign.rows import iter_root_records

        def calibrate():
            return speed.sample(STAGE_CHUNKS) if speed is not None else 0.0

        report_dir = root + "-report"
        calibrate()
        started = time.perf_counter()
        resumed = run_campaign(self.table2, store=os.path.join(root, "table2"))
        calibrating = calibrate()
        deduped = run_campaign(
            self.rerun, store=os.path.join(root, "rerun"), dedup_root=root,
        )
        calibrating += calibrate()
        streamed = 0
        for _campaign, _key, _record in iter_root_records(root):
            streamed += 1
        calibrating += calibrate()
        report_started = time.perf_counter()
        write_report(root, out_dir=report_dir)
        finished = time.perf_counter()
        calibrate()
        if tally is not None:
            tally.add("analysis.report_s", finished - report_started)
        with open(os.path.join(report_dir, "summary.json")) as handle:
            summary = json.load(handle)
        cells = self.table2.size()
        expected = {
            "resume executed": (resumed.executed, 0),
            "resume cached": (resumed.cached, cells),
            "dedup executed": (deduped.executed, 0),
            "dedup deduped": (deduped.deduped, cells),
            "streamed records": (streamed, cells),
            "report rows": (summary["rows"], cells),
        }
        for what, (got, want) in expected.items():
            if got != want:
                outcome.fail("{}: {} (expected {})".format(what, got, want))
        records = resumed.cached + deduped.deduped + streamed + summary["rows"]
        outcome.attempted += records
        outcome.units += records
        self._last = (root, resumed)
        if tally is not None:
            tally.add("campaign.cells", 2 * cells)
            tally.add("campaign.executed", resumed.executed + deduped.executed)
            tally.add("campaign.deduped", deduped.deduped)
            tally.add("campaign.cached", resumed.cached + deduped.cached)
            tally.add("analysis.records_read", streamed + summary["rows"])
        return records, finished - started - calibrating

    def measure(self, seconds):
        """Read passes for ``seconds`` (at least three).  Each pass's rate
        is scaled to the reference host speed by the calibration chunks
        run around its stages (:class:`common.HostSpeed`); the run's rate
        is the median over the passes."""
        outcome = Outcome()
        rates, raw = [], []
        started = time.perf_counter()
        while len(rates) < 3 or time.perf_counter() - started < seconds:
            if self._last is not None:
                shutil.rmtree(self._last[0], ignore_errors=True)
                shutil.rmtree(self._last[0] + "-report", ignore_errors=True)
            root = self._fresh_root()
            speed = HostSpeed(time.perf_counter)
            records, elapsed = self._pass(root, outcome, speed=speed)
            raw.append(records / elapsed)
            rates.append(raw[-1] * speed.factor())
        outcome.elapsed = time.perf_counter() - started
        outcome.rate = median(rates)
        outcome.notes.append(
            "{} read passes of {} records: raw median {:.4f} records/s, "
            "scaled median {:.4f}".format(
                len(rates), records, median(raw), outcome.rate
            )
        )
        return outcome

    def one_pass(self, tracer=None):
        """One read pass (the fixed work of a traced run)."""
        outcome = Outcome()
        root = self._fresh_root()
        if tracer is None:
            records, elapsed = self._pass(root, outcome)
        else:
            read_before, written_before = io_counters()
            tracer.profiler.start()
            try:
                records, elapsed = self._pass(root, outcome, tracer.tally)
            finally:
                tracer.profiler.stop()
            read_after, written_after = io_counters()
            tracer.tally.add("campaign.bytes_read", read_after - read_before)
            tracer.tally.add(
                "campaign.bytes_written", written_after - written_before
            )
        outcome.elapsed = elapsed
        outcome.rate = records / elapsed
        return outcome

    def check(self, outcome):
        """Byte checks on the last pass's root (untimed)."""
        from repro.campaign.rows import iter_root_records
        from repro.campaign.store import encode_line, encode_result

        root, resumed = self._last
        source = read_lines(os.path.join(root, "table2", "results.jsonl"))
        first = read_lines(os.path.join(root, "table1", "results.jsonl"))
        copied = read_lines(os.path.join(root, "rerun", "results.jsonl"))
        bad = 0
        for key, line in source.items():
            if copied.get(key) != line:
                bad += 1
            if key in first and first[key] != line:
                bad += 1
        for descriptor, result in resumed.pairs():
            key = descriptor.key()
            if encode_line(encode_result(descriptor, result, key)) != source[key]:
                bad += 1
        merged = dict(source)
        merged.update(first)
        for _campaign, key, record in iter_root_records(root):
            if encode_line(record) != merged.get(key):
                bad += 1
        descriptors = self.table2.expand()
        checked = descriptors[::RESIMULATE_EVERY]
        for descriptor in checked:
            key = descriptor.key()
            if sequential_line(descriptor, key) != source.get(key):
                bad += 1
        if self.reference is not None:
            if self.reference.get("fixture") != self.fixture_digest():
                outcome.fail("fixture differs from reference.json")
        for _ in range(bad):
            outcome.fail("a record line differs from its source or from "
                         "the sequential run_single encoding")
        outcome.notes.append(
            "byte-checked {} records; re-simulated {} cells".format(
                len(source), len(checked)
            )
        )


def main(argv):
    """``--build DIR --seed N``: build one fixture root."""
    bootstrap()
    target = argv[argv.index("--build") + 1]
    seed = int(argv[argv.index("--seed") + 1])
    StoreReadback(seed, workdir=None).build(target)


if __name__ == "__main__":
    main(sys.argv[1:])
