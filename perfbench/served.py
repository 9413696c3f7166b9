"""``served_sweep``: a served campaign's throughput and latency.

An in-process ``CampaignServer`` with 2 worker threads serves one store
root.  One client thread plays two tenants in a closed loop: it submits
a campaign, follows its event stream until the campaign is done, reads
its final status, then submits the next.  Tenant grids are small
(4×4 / 100 ms cells, none and ffw, 0 and 2 faults, three seeds) and
overlap: each campaign shares one seed with the previous tenant's, so a
third of its cells dedup live and two thirds execute; one submission in
five resubmits a finished campaign, which resumes from its own store
with zero simulations.  Before the daemon boots, a sibling
``prefill`` campaign (the fixture, excluded from ``setup_s``) covers the
first six seeds, so the first rounds dedup through the root's persistent
index instead.

A timed run works in cycles: a daemon serves the first
:data:`CYCLE_SUBMISSIONS` submissions of the sequence, then shuts down,
and the next cycle boots a fresh daemon on a fresh copy of the fixture
root and starts the sequence again.  Every full cycle is the same work,
and the daemon's memory, which grows with the campaigns it holds, does
not follow the host's speed.

Checks: every campaign must end ``completed`` with its whole grid
stored, every line of a cell key must be byte-identical across the
campaigns and cycles that hold it, and each distinct key's line must
equal a fresh sequential ``run_single`` encoding of that cell (every
:data:`VERIFY_EVERY`-th key in a timed run).
"""

import os
import shutil
import time

from common import (
    HostSpeed, Outcome, median, read_lines, rng_for, sequential_line, tail,
)
from layers import io_counters

MODELS = ("none", "ffw")
FAULTS = (0, 2)
SMALL = {"horizon_us": 100_000, "fault_time_us": 50_000}
TENANTS = ("alpha", "beta")
#: Submissions in the fixed pass of a traced run.
FIXED_SUBMISSIONS = 48
#: Submissions one daemon serves in a timed run before the next cycle.
CYCLE_SUBMISSIONS = 60
#: A timed run re-simulates every n-th distinct cell key (by key order)
#: to keep its check short; a traced pass re-simulates every key.
VERIFY_EVERY = 8


class ServedSweep:
    """Closed-loop two-tenant load against an in-process daemon."""

    name = "served_sweep"
    imports = ("repro.campaign", "repro.experiments.runner")
    thread_prefix = "serve-worker"

    def __init__(self, seed, workdir):
        self.base_seed = rng_for(self.name, seed).randrange(1, 10**6)
        self.workdir = workdir
        self.pristine = os.path.join(workdir, "served-pristine")
        self._roots = 0
        self._daemon = None
        #: The roots of the last timed run or pass, in order.
        self._served = []
        self._payloads = {}
        self._verify_every = 1

    def _spec(self, name, seeds):
        return {
            "name": name, "models": list(MODELS), "seeds": list(seeds),
            "fault_counts": list(FAULTS), "keep_series": True,
            "base": "small", "config": dict(SMALL),
        }

    def _payload(self, tenant, round_no):
        first = self.base_seed + 4 * round_no + 2 * tenant
        return self._spec(
            "{}-{}".format(TENANTS[tenant], round_no),
            range(first, first + 3),
        )

    def submissions(self):
        """The endless submission sequence both passes draw from."""
        round_no = 0
        while True:
            yield self._payload(0, round_no)
            yield self._payload(1, round_no)
            if round_no % 2 == 1:
                yield self._payload(0, round_no)  # resubmit: resume
            round_no += 1

    def prepare(self):
        """Build the prefill sibling campaign (the fixture)."""
        from repro.campaign.executor import run_campaign
        from repro.campaign.spec import CampaignSpec

        shutil.rmtree(self.pristine, ignore_errors=True)
        payload = self._spec(
            "prefill", range(self.base_seed, self.base_seed + 6)
        )
        self._payloads["prefill"] = payload
        run_campaign(
            CampaignSpec.from_dict(payload),
            store=os.path.join(self.pristine, "prefill"),
        )

    def _fresh_root(self):
        self._roots += 1
        root = os.path.join(self.workdir, "served-{}".format(self._roots))
        shutil.copytree(self.pristine, root)
        return root

    def _boot(self, root):
        from repro.campaign import CampaignClient, CampaignServer

        daemon = CampaignServer(root, workers=2, port=0).start()
        CampaignClient(daemon.url).healthz()
        return daemon

    def setup(self):
        """One timed daemon boot (index refresh, workers, listener) on a
        fresh copy of the fixture root; the last one boots the daemon
        :meth:`measure` talks to."""
        self.close()
        self._served = [self._fresh_root()]
        started = time.perf_counter()
        self._daemon = self._boot(self._served[0])
        return time.perf_counter() - started

    def close(self):
        """Shut the live daemon down (drains its queues)."""
        if self._daemon is not None:
            self._daemon.shutdown()
            self._daemon = None

    def _submit(self, client, payload, outcome, latencies, tracer=None):
        from repro.campaign import ServeError

        name = payload["name"]
        self._payloads[name] = payload
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            if tracer is None:
                receipt = client.submit(payload)
            else:
                with tracer.tally.span("campaign.submit_s"):
                    receipt = client.submit(payload)
            if receipt.state == "running":
                for _event in client.events(name, follow=True):
                    pass
            done = time.perf_counter()
            status = client.status(name)
        except (ServeError, OSError) as exc:
            outcome.fail("{}: {}".format(name, exc))
            return
        latencies.append(done - started)
        if status.state != "completed" or status.done != status.total:
            outcome.fail("{}: ended {} ({}/{} cells)".format(
                name, status.state, status.done, status.total))
        outcome.units += status.total
        for field in ("executed", "deduped", "cached"):
            outcome.extra[field] = (
                outcome.extra.get(field, 0) + getattr(status, field)
            )

    def _drive(self, daemon, outcome, latencies, stop, tracer=None,
               speed=None):
        """Submit the sequence from its start until ``stop(submitted)``;
        returns the seconds spent submitting (calibration excluded)."""
        from repro.campaign import CampaignClient

        client = CampaignClient(daemon.url)
        calibrating = 0.0
        started = time.perf_counter()
        for submitted, payload in enumerate(self.submissions()):
            if stop(submitted):
                break
            self._submit(client, payload, outcome, latencies, tracer)
            if speed is not None:
                # Between campaigns the workers are idle: the chunk
                # times the host, not the daemon.
                calibrating += speed.sample()
        return time.perf_counter() - started - calibrating

    @staticmethod
    def _summarise(outcome, latencies):
        outcome.rate = outcome.units / outcome.elapsed
        if latencies:
            pct, value = tail(latencies)
            outcome.extra["campaign.done_p50_s"] = median(latencies)
            outcome.extra["campaign.done_tail_s"] = value
            outcome.notes.append(
                "campaign submit-to-done p50 {:.4f} s, p{} {:.4f} s over "
                "{} campaigns".format(
                    median(latencies), pct, value, len(latencies)
                )
            )
        outcome.notes.append(
            "cells executed {}, deduped {}, cached {}".format(
                *(outcome.extra.get(f, 0)
                  for f in ("executed", "deduped", "cached"))
            )
        )

    def measure(self, seconds):
        """Closed-loop cycles for ``seconds``, the first against the
        daemon setup booted.  A cycle's rate counts executed, deduped
        and cached cells together over the time spent submitting, scaled
        to the reference host speed by the calibration chunks run after
        each of its campaigns (:class:`common.HostSpeed`).  The run's
        rate is the median over the full cycles (over the one partial
        cycle when none is full)."""
        self._verify_every = VERIFY_EVERY
        outcome, latencies = Outcome(), []
        rates = []
        deadline = time.perf_counter() + seconds

        def stop(submitted):
            return (submitted >= CYCLE_SUBMISSIONS
                    or time.perf_counter() >= deadline)

        while True:
            speed = HostSpeed(time.perf_counter)
            attempted, units = outcome.attempted, outcome.units
            elapsed = self._drive(
                self._daemon, outcome, latencies, stop, speed=speed
            )
            outcome.elapsed += elapsed
            if outcome.attempted - attempted == CYCLE_SUBMISSIONS or not rates:
                rates.append((outcome.units - units) / elapsed * speed.factor())
            if time.perf_counter() >= deadline:
                break
            self.close()
            self._served.append(self._fresh_root())
            self._daemon = self._boot(self._served[-1])
        self._summarise(outcome, latencies)
        outcome.notes.append(
            "raw {:.4f} cells/s over {} daemon cycles of up to {} "
            "submissions; scaled rates of the {} counted: {}".format(
                outcome.rate, len(self._served), CYCLE_SUBMISSIONS,
                len(rates), " ".join("{:.1f}".format(r) for r in rates),
            )
        )
        outcome.rate = median(rates)
        return outcome

    def check(self, outcome):
        """Shut down, then verify the stored lines (untimed)."""
        self.close()
        self._verify(self._served, outcome)

    def one_pass(self, tracer=None):
        """A fresh daemon and root, :data:`FIXED_SUBMISSIONS` submissions."""
        self.close()
        self._verify_every = 1
        root = self._fresh_root()
        self._served = [root]
        if tracer is not None:
            read_before, written_before = io_counters()
            tracer.profiler.start()
        try:
            daemon = self._daemon = self._boot(root)
        finally:
            if tracer is not None:
                tracer.profiler.disarm()
        outcome, latencies = Outcome(), []
        outcome.elapsed = self._drive(
            daemon, outcome, latencies,
            lambda submitted: submitted >= FIXED_SUBMISSIONS, tracer,
        )
        self._summarise(outcome, latencies)
        self.close()
        if tracer is not None:
            read_after, written_after = io_counters()
            tally = tracer.tally
            tally.add("campaign.bytes_read", read_after - read_before)
            tally.add("campaign.bytes_written", written_after - written_before)
            tally.add("campaign.cells", outcome.units)
            for field in ("executed", "deduped", "cached"):
                tally.add("campaign." + field, outcome.extra.get(field, 0))
        return outcome

    def _verify(self, roots, outcome):
        from repro.campaign.spec import CampaignSpec

        holders = {}
        bad = set()
        for cycle, root in enumerate(roots):
            for name in sorted(os.listdir(root)):
                payload = self._payloads.get(name)
                if payload is None:
                    continue
                label = "cycle {} {}".format(cycle, name)
                descriptors = CampaignSpec.from_dict(payload).expand()
                lines = read_lines(os.path.join(root, name, "results.jsonl"))
                for descriptor in descriptors:
                    key = descriptor.key()
                    line = lines.get(key)
                    if line is None:
                        bad.add(label)
                        continue
                    holders.setdefault(key, (descriptor, set()))[1].add(
                        (label, line)
                    )
        keys = sorted(holders)
        for key in keys:
            held = holders[key][1]
            if len({line for _name, line in held}) != 1:
                bad.update(name for name, _line in held)
        checked = keys[::self._verify_every]
        for key in checked:
            descriptor, held = holders[key]
            expected = sequential_line(descriptor, key)
            for name, line in held:
                if line != expected:
                    bad.add(name)
        for name in sorted(bad):
            outcome.fail("{}: stored lines differ across campaigns or from "
                         "the sequential run_single encoding".format(name))
        outcome.notes.append(
            "{} distinct cell lines byte-compared across campaigns and "
            "cycles; {} re-simulated with sequential run_single".format(
                len(keys), len(checked))
        )
