"""Per-layer tracing for the traced (``--trace 1``) benchmark run.

Everything here observes the program from outside: cProfile statistics
bucketed by package, spans timed around calls into public entry points,
and the public counters the simulator and the store already expose.  No
program code is edited; the instrumentation in :func:`instrumented`
swaps a handful of module attributes for timing wrappers for the length
of one pass and restores them afterwards.

Bucketing rule: a Python function belongs to the package under
``repro/`` that holds its source file, anything else is ``other``.  A
builtin (C) function has no source file, so its self time and calls are
charged to the layer of each caller, using cProfile's per-caller
figures; a heap push issued by the kernel therefore counts as ``sim``.
"""

import contextlib
import cProfile
import pstats
import sys
import threading
import time

LAYERS = (
    "sim", "noc", "node", "core", "app", "platform", "experiments",
    "campaign", "analysis",
)
BUCKETS = LAYERS + ("other",)

#: Per-layer metrics, in report order, with their units.  Every traced
#: run reports every one of them, whatever the workload (a layer that
#: does no work on a workload reports 0).
PER_LAYER = (
    [("{}.self_s".format(b), "s") for b in BUCKETS]
    + [("{}.calls".format(b), "count") for b in BUCKETS]
    + [
        ("sim.dispatched_events", "count"),
        ("sim.run_until_s", "s"),
        ("noc.sent", "count"),
        ("noc.hops", "count"),
        ("noc.express_hops", "count"),
        ("noc.express_share", "ratio"),
        ("noc.reroutes", "count"),
        ("noc.dropped", "count"),
        ("core.relay_calls", "count"),
        ("core.wakeup_calls", "count"),
        ("node.completions", "count"),
        ("node.overflows", "count"),
        ("node.task_switches", "count"),
        ("app.generated", "count"),
        ("app.joins", "count"),
        ("app.join_yield", "ratio"),
        ("platform.build_s", "s"),
        ("platform.throttle_events", "count"),
        ("platform.autonomous_recoveries", "count"),
        ("platform.faults_injected", "count"),
        ("experiments.cells", "count"),
        ("experiments.analysis_s", "s"),
        ("campaign.cells", "count"),
        ("campaign.executed", "count"),
        ("campaign.deduped", "count"),
        ("campaign.cached", "count"),
        ("campaign.reuse_share", "ratio"),
        ("campaign.store_scans", "count"),
        ("campaign.bytes_read", "B"),
        ("campaign.bytes_written", "B"),
        ("campaign.index_refresh_s", "s"),
        ("campaign.submit_s", "s"),
        ("campaign.done_p50_s", "s"),
        ("campaign.done_tail_s", "s"),
        ("analysis.records_read", "count"),
        ("analysis.report_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

#: Counters (deterministic work counts, not times) that must repeat
#: exactly between two traced runs of one seed.
EXACT = tuple(
    name for name, unit in PER_LAYER
    if unit == "count" and not name.endswith(".calls")
) + tuple("{}.calls".format(layer) for layer in LAYERS)


def layer_of(filename):
    """The bucket a source file belongs to (see the module docstring)."""
    normalized = filename.replace("\\", "/")
    at = normalized.rfind("/repro/")
    if at < 0:
        return "other"
    package = normalized[at + len("/repro/"):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def _is_python(func):
    filename = func[0]
    return filename not in ("~", "") and not filename.startswith("<")


def bucket_stats(stats):
    """``{bucket: [self_s, primitive calls]}`` from a pstats.Stats."""
    out = {bucket: [0.0, 0] for bucket in BUCKETS}
    for func, (cc, _nc, tt, _ct, callers) in stats.stats.items():
        if _is_python(func) or not callers:
            entry = out[layer_of(func[0]) if _is_python(func) else "other"]
            entry[0] += tt
            entry[1] += cc
            continue
        for caller, figures in callers.items():
            # Per-caller figures are ordered (nc, cc, tt, ct).
            _caller_nc, caller_cc, caller_tt = figures[:3]
            entry = out[layer_of(caller[0]) if _is_python(caller) else "other"]
            entry[0] += caller_tt
            entry[1] += caller_cc
    return out


def calls_into(stats, path_part, names):
    """Primitive calls into functions called one of ``names`` whose
    source path contains ``path_part`` (e.g. ``/repro/core/``)."""
    return sum(
        cc for func, (cc, _nc, _tt, _ct, _callers) in stats.stats.items()
        if func[2] in names and path_part in func[0].replace("\\", "/")
    )


class Tally:
    """Thread-safe sums of span durations and counters for one pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self.values = {}

    def add(self, name, amount):
        """Add ``amount`` to the named sum."""
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount

    def get(self, name):
        """The named sum (0 when never added to)."""
        return self.values.get(name, 0)

    @contextlib.contextmanager
    def span(self, name):
        """Time the enclosed block into the named ``*_s`` sum."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def timed(self, name, func):
        """``func`` wrapped so every call is a span called ``name``."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return wrapper


def harvest_platform(tally, platform):
    """Fold one finished platform's public counters into ``tally``."""
    network = platform.network
    stats = network.stats
    tally.add("sim.dispatched_events", platform.sim.dispatched_events)
    tally.add("noc.sent", stats["sent"])
    tally.add("noc.hops", stats["hops"])
    tally.add("noc.express_hops", network.express_hops)
    tally.add("noc.reroutes", stats["reroutes"])
    tally.add(
        "noc.dropped",
        sum(v for k, v in stats.items() if k.startswith("dropped_")),
    )
    pes = platform.pes.values()
    tally.add("node.completions", sum(pe.completions for pe in pes))
    tally.add("node.overflows", sum(pe.overflows for pe in pes))
    tally.add("node.task_switches", sum(pe.task_switches for pe in pes))
    app = platform.workload.stats()
    tally.add("app.generated", app["generated"])
    tally.add("app.joins", app["joins"])
    dynamics = platform.dynamics
    tally.add("platform.throttle_events", dynamics.throttle_events)
    tally.add(
        "platform.autonomous_recoveries", dynamics.autonomous_recoveries
    )
    faults = platform.faults
    tally.add(
        "platform.faults_injected",
        sum(
            len(victims) for victims in (
                faults.victims, faults.link_victims,
                faults.degraded_victims, faults.corrupted_victims,
                faults.controller_victims, faults.thermal_victims,
                faults.pressure_victims,
            )
        ),
    )


@contextlib.contextmanager
def instrumented(tally):
    """Spans and counter harvests around the program's public seams.

    * ``CenturionPlatform(...)`` as looked up by ``run_single``: span
      ``platform.build_s``; the instance's ``sim.run_until`` gets span
      ``sim.run_until_s`` and, once it returns, the platform's counters
      are harvested (so no platform object outlives its cell);
    * the settling/recovery analysis ``run_single`` calls: span
      ``experiments.analysis_s``;
    * ``StoreIndex.refresh``: span ``campaign.index_refresh_s``;
    * ``ResultStore`` opens: the store's public ``scans`` counter is
      summed into ``campaign.store_scans``.
    """
    from repro.campaign import index as index_mod
    from repro.campaign import store as store_mod
    from repro.experiments import runner

    platform_cls = runner.CenturionPlatform

    def build(*args, **kwargs):
        with tally.span("platform.build_s"):
            platform = platform_cls(*args, **kwargs)
        run_until = platform.sim.run_until

        def traced_run_until(horizon):
            with tally.span("sim.run_until_s"):
                run_until(horizon)
            harvest_platform(tally, platform)
            tally.add("experiments.cells", 1)

        platform.sim.run_until = traced_run_until
        return platform

    load = store_mod.ResultStore._load

    def counted_load(store):
        load(store)
        tally.add("campaign.store_scans", store.scans)

    patches = [
        (runner, "CenturionPlatform", build),
        (runner, "settling_analysis",
         tally.timed("experiments.analysis_s", runner.settling_analysis)),
        (runner, "recovery_analysis",
         tally.timed("experiments.analysis_s", runner.recovery_analysis)),
        (index_mod.StoreIndex, "refresh",
         tally.timed("campaign.index_refresh_s",
                     index_mod.StoreIndex.refresh)),
        (store_mod.ResultStore, "_load", counted_load),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tally
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def io_counters():
    """``(rchar, wchar)`` of this process: bytes passed to read/write
    system calls (sockets use recv/send, so HTTP traffic is excluded)."""
    values = {}
    with open("/proc/self/io") as handle:
        for line in handle:
            field, _, value = line.partition(":")
            values[field] = int(value)
    return values["rchar"], values["wchar"]


class Profiler:
    """cProfile over the calling thread, or over named worker threads.

    ``thread_prefix=None`` profiles the thread that calls :meth:`start`,
    on the wall clock.  With a prefix, every thread started while the
    profiler is armed and whose name starts with it gets its own
    ``cProfile.Profile``, enabled from inside the thread and timed on the
    thread's CPU clock, so a worker blocked on its queue accrues no self
    time; :meth:`stats` merges them once the threads have finished.
    """

    def __init__(self, thread_prefix=None):
        self.thread_prefix = thread_prefix
        self._profiles = []
        self._lock = threading.Lock()

    def start(self):
        """Begin profiling (arms the thread hook in prefix mode)."""
        if self.thread_prefix is None:
            profile = cProfile.Profile()
            self._profiles.append(profile)
            profile.enable()
        else:
            threading.setprofile(self._thread_hook)

    def disarm(self):
        """Stop arming threads started from now on (prefix mode)."""
        if self.thread_prefix is not None:
            threading.setprofile(None)

    def _thread_hook(self, _frame, _event, _arg):
        sys.setprofile(None)
        if threading.current_thread().name.startswith(self.thread_prefix):
            profile = cProfile.Profile(time.thread_time)
            with self._lock:
                self._profiles.append(profile)
            profile.enable()

    def stop(self):
        """Stop profiling the calling thread (own-thread mode)."""
        if self.thread_prefix is None:
            self._profiles[0].disable()
        else:
            self.disarm()

    def stats(self):
        """Merged ``pstats.Stats`` of every profile taken."""
        if not self._profiles:
            raise RuntimeError("nothing was profiled")
        merged = pstats.Stats(self._profiles[0])
        for profile in self._profiles[1:]:
            merged.add(profile)
        return merged


def layer_metrics(stats, tally, rate_untraced, rate_traced):
    """Every per-layer metric as ``{name: value}`` from one traced pass."""
    buckets = bucket_stats(stats)
    values = {}
    for bucket, (self_s, calls) in buckets.items():
        values["{}.self_s".format(bucket)] = self_s
        values["{}.calls".format(bucket)] = calls
    values["core.relay_calls"] = calls_into(
        stats, "/repro/core/aim.py", ("on_packet_routed",)
    )
    values["core.wakeup_calls"] = calls_into(
        stats, "/repro/core/", ("next_wakeup",)
    )
    for name, _unit in PER_LAYER:
        if name not in values:
            values[name] = tally.get(name)
    values["noc.express_share"] = _share(
        tally.get("noc.express_hops"), tally.get("noc.hops")
    )
    values["app.join_yield"] = _share(
        tally.get("app.joins"), tally.get("app.generated")
    )
    values["campaign.reuse_share"] = _share(
        tally.get("campaign.cached") + tally.get("campaign.deduped"),
        tally.get("campaign.cells"),
    )
    values["trace.overhead_ratio"] = _share(rate_untraced, rate_traced)
    return values


def _share(part, whole):
    return part / whole if whole else 0.0
