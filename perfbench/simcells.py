"""Simulator workloads: full 8×16 / 1000 ms cells through ``run_single``.

``paper_cells`` is the paper's own work: the legacy fork-join
application under the none / network-interaction / foraging-for-work
models, with 0 and 4 permanent node faults — the cells a Table I/II
sweep spends its time on.

``fault_storm`` drives the same simulator layers differently: the
declarative ``pipeline3`` and ``shuffle2x2`` workloads under ffw and ni,
in one scenario that combines link failures, degraded links, a thermal
storm and waves of transient node faults, with the hysteresis governor,
watchdog recovery and fault-aware remap all on.  It never runs the
legacy fork-join application or the ``none`` model.

A cell's host time is the process CPU time of the ``run_single`` call
alone; hashing and checking its outputs happen outside that window.
"""

import copy
import time

from common import (
    HostSpeed, Outcome, cell_hops_for, reference_for, result_digest, rng_for,
)


#: Rounds of distinct cell seeds per run; a run longer than this many
#: rounds repeats round 0 onwards, and each repeat must reproduce the
#: first run's outputs bit for bit.
ROUNDS = 6
#: Calibration chunks run before each timed cell and after the last one
#: (about 50 ms, some 5 % of a cell).
CELL_CHUNKS = 15


class CellWorkload:
    """Runs rounds of cells (one per cell kind); subclasses define the
    kinds.  Every round draws fresh cell seeds from the workload seed."""

    name = None
    imports = ("repro.experiments.runner", "repro.platform.config")
    thread_prefix = None

    def __init__(self, seed, workdir):
        from repro.experiments.runner import run_single

        self._run_single = run_single
        rng = rng_for(self.name, seed)
        self.kinds = self.make_kinds(rng)
        self.cells = [
            ("r{}/{}".format(round_no, kind), kind,
             dict(kwargs, seed=rng.randrange(1, 10**6)))
            for round_no in range(ROUNDS)
            for kind, kwargs in self.kinds
        ]
        self.reference = reference_for(self.name, seed)
        self._first = {}

    def make_kinds(self, rng):
        """``[(kind, run_single kwargs without the seed)]``."""
        raise NotImplementedError

    def prepare(self):
        """No fixture: every input is generated from the seed."""

    def setup(self):
        """One timed set-up: build (and fault) the first cell's platform."""
        from repro.platform.centurion import CenturionPlatform

        kwargs = self._kwargs(self.cells[0][2])
        started = time.perf_counter()
        platform = CenturionPlatform(
            kwargs["config"], model_name=kwargs["model_name"],
            seed=kwargs["seed"], workload=kwargs.get("workload"),
        )
        if kwargs.get("scenario") is not None:
            platform.inject_scenario(kwargs["scenario"])
        elif kwargs.get("faults"):
            platform.inject_faults(kwargs["faults"])
        return time.perf_counter() - started

    def close(self):
        """Nothing to release."""

    def check(self, outcome):
        """Cells are checked as they finish; nothing is left to check."""

    @staticmethod
    def _kwargs(kwargs):
        # Scenario dicts are loaded in place by the platform; hand every
        # call its own copy.
        return copy.deepcopy(kwargs)

    def _run_cell(self, cell, outcome):
        """Run one cell; ``(host CPU seconds, simulated hops)`` or None.

        A cell is single-threaded and CPU-bound, so its host time is
        taken as process CPU time: the same work as wall time, minus the
        time the process waited for a CPU it shares with other tenants
        of the machine.
        """
        label, _kind, kwargs = cell
        outcome.attempted += 1
        kwargs = self._kwargs(kwargs)
        started = time.process_time()
        try:
            result = self._run_single(**kwargs)
        except Exception as exc:  # a failed cell is a result, not a crash
            outcome.fail("{}: {}: {}".format(label, type(exc).__name__, exc))
            return None
        elapsed = time.process_time() - started
        self._check(label, result, outcome)
        return elapsed, result.noc_stats["hops"]

    def _check(self, label, result, outcome):
        value = result_digest(result)
        first = self._first.setdefault(label, value)
        if value != first:
            outcome.fail("{}: outputs differ between repeats".format(label))
        elif self.reference is not None and self.reference.get(label) != value:
            outcome.fail("{}: outputs differ from reference.json".format(label))
        app = result.app_stats
        if app["joins"] > app["generated"]:
            outcome.fail("{}: more joins than generated".format(label))

    def measure(self, seconds):
        """Cells round after round for ``seconds`` (at least one round).

        A cell's host time varies about 3x with the random initial
        mapping its seed draws, so the rate is a ratio estimate: per cell
        kind, host seconds per simulated NoC hop over all the kind's
        cells, scaled by the kind's reference hops per cell
        (``reference.json``).  Simulated hops are model output, fixed by
        the bit-identical contract, so the scale is the same on every
        commit.  The result is cells per second at the reference cell
        size, one cell of each kind, scaled to the reference host speed
        (:class:`common.HostSpeed`, sampled before every cell).
        """
        outcome = Outcome()
        spent = {kind: [0.0, 0] for kind, _kwargs in self.kinds}
        speed = HostSpeed(time.process_time)
        started = time.perf_counter()
        deadline = started + seconds
        done = 0
        while done < len(self.kinds) or time.perf_counter() < deadline:
            speed.sample(CELL_CHUNKS)
            cell = self.cells[done % len(self.cells)]
            ran = self._run_cell(cell, outcome)
            if ran is not None:
                spent[cell[1]][0] += ran[0]
                spent[cell[1]][1] += ran[1]
            done += 1
        speed.sample(CELL_CHUNKS)
        outcome.elapsed = time.perf_counter() - started
        outcome.units = done
        cell_hops = cell_hops_for(self.name)
        seconds_per_round = 0.0
        for kind, (host_s, hops) in spent.items():
            if hops:
                seconds_per_round += cell_hops[kind] * host_s / hops
                outcome.notes.append("{}: {:.3f} us per hop over {} hops".format(
                    kind, host_s / hops * 1e6, hops))
        if seconds_per_round:
            raw = len(spent) / seconds_per_round
            outcome.rate = raw * speed.factor()
            outcome.notes.append(speed.note(raw, "cells/s"))
        outcome.notes.append("{} cells in {:.2f} s: {:.4f} raw cells/s".format(
            done, outcome.elapsed, done / outcome.elapsed))
        return outcome

    def one_pass(self, tracer=None):
        """Round 0, one cell of each kind (the fixed work of a traced run).
        The rate here is raw cells per host second."""
        outcome = Outcome()
        total = 0.0
        if tracer is not None:
            tracer.profiler.start()
        try:
            for cell in self.cells[:len(self.kinds)]:
                ran = self._run_cell(cell, outcome)
                total += ran[0] if ran is not None else 0.0
        finally:
            if tracer is not None:
                tracer.profiler.stop()
        outcome.elapsed = total
        outcome.units = len(self.kinds)
        outcome.rate = outcome.units / total if total else 0.0
        return outcome

    def reference_run(self):
        """Every round once: ``({label: hash}, {kind: [hops]})``, for
        ``make_reference.py``."""
        self._first = {}
        self.reference = None
        outcome = Outcome()
        hops = {kind: [] for kind, _kwargs in self.kinds}
        for cell in self.cells:
            ran = self._run_cell(cell, outcome)
            if ran is not None:
                hops[cell[1]].append(ran[1])
        if outcome.failed:
            raise RuntimeError("; ".join(outcome.notes))
        return dict(self._first), hops


class PaperCells(CellWorkload):
    """none / ni / ffw × {0, 4} faults on the full platform."""

    name = "paper_cells"

    def make_kinds(self, rng):
        from repro.platform.config import PlatformConfig

        config = PlatformConfig()
        return [
            ("{}/f{}".format(model, faults),
             {"model_name": model, "faults": faults, "config": config,
              "keep_series": True})
            for model in ("none", "ni", "ffw")
            for faults in (0, 4)
        ]


def storm_scenario(rng):
    """The fault_storm scenario; event times jitter with the seed."""
    def at(base_us):
        return base_us + rng.randrange(0, 5) * 10_000

    return {
        "name": "storm",
        "events": [
            {"kind": "link", "at_us": at(150_000), "count": 6},
            {"kind": "link_degrade", "at_us": at(200_000), "count": 6,
             "factor": 4.0, "duration_us": 400_000},
            {"kind": "thermal_storm", "at_us": at(250_000), "count": 16,
             "heat_c": 40.0},
            {"kind": "node", "at_us": at(300_000), "count": 4,
             "duration_us": 120_000, "repeats": 3, "period_us": 200_000},
        ],
    }


class FaultStorm(CellWorkload):
    """pipeline3 / shuffle2x2 × ffw / ni under one combined storm."""

    name = "fault_storm"
    imports = CellWorkload.imports + ("repro.app.workloads",)

    def make_kinds(self, rng):
        from repro.platform.config import PlatformConfig

        config = PlatformConfig(
            dvfs_governor="hysteresis",
            watchdog_recovery=True,
            watchdog_timeout_us=20_000,
            recovery_remap="fault-aware",
        )
        scenario = storm_scenario(rng)
        return [
            ("{}/{}".format(workload, model),
             {"model_name": model, "config": config, "scenario": scenario,
              "workload": workload, "keep_series": True})
            for workload in ("pipeline3", "shuffle2x2")
            for model in ("ffw", "ni")
        ]
