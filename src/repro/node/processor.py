"""The processing element (MicroBlaze MCS stand-in).

A node runs exactly one task at a time.  Packets addressed to that task are
queued on the internal port (finite buffer — overflow diverts the packet to
the next-nearest provider, modelling wormhole backpressure), executed one at
a time with a task- and frequency-dependent service time, and the
application layer decides which downstream packets each completed execution
emits (the fork-join wiring lives in :mod:`repro.app.workload`, keeping this
class application-agnostic).

The PE raises the node-local monitor events of Figure 2a toward its
observers (the AIM): internal packet sink, execution completion and task
change.  Its knobs — task select, clock enable, reset, frequency — are plain
methods the AIM calls.
"""

from collections import deque
from functools import partial

from repro.node.dvfs import FrequencyScaler
from repro.node.thermal import ThermalModel
from repro.node.watchdog import Watchdog


class ProcessingElement:
    """One node's processor.

    Parameters
    ----------
    sim:
        Simulator.
    node_id:
        This node's id.
    network:
        The NoC (used to emit packets and to publish task assignment into
        the provider directory).
    app:
        Application hooks object with ``packets_for_generation(pe)`` and
        ``packets_after_execution(pe, packet)`` — see
        :class:`repro.app.workload.ForkJoinWorkload`.
    queue_capacity:
        Internal-port buffer size in packets; arrivals beyond it are
        diverted back into the network toward another provider.
    service_jitter:
        Fractional uniform jitter on service times (0.1 = ±10 %),
        drawn from the node's service RNG stream.
    """

    def __init__(self, sim, node_id, network, app=None, queue_capacity=6,
                 service_jitter=0.1, overflow_hold_us=750, trace=None,
                 watchdog_timeout_us=100_000):
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.app = app
        self.queue_capacity = queue_capacity
        self.service_jitter = service_jitter
        self.overflow_hold_us = overflow_hold_us
        self.trace = trace
        self.task_id = None
        self.queue = deque()
        self.busy = False
        self.halted = False
        self.clock_enabled = True
        self.frequency = FrequencyScaler()
        self.watchdog = Watchdog(watchdog_timeout_us)
        # Boot kick: the watchdog window opens when the node comes up,
        # not at the epoch — a PE built at nonzero sim time must not be
        # born already expired.
        self.watchdog.kick(sim.now)
        self.thermal = ThermalModel()
        self._rng = None  # service-jitter stream, created on first draw
        self._genphase_rng = None  # generation-phase stream, ditto
        self._gen_process = None
        self._gen_seq = 0
        self._observers = []
        self._handlers = {}
        # Statistics -------------------------------------------------------
        self.completions = 0
        self.completions_by_task = {}
        self.generations = 0
        self.task_switches = 0
        self.overflows = 0
        self.window_executions = 0

    # -- observers (AIM wiring) ---------------------------------------------

    def add_observer(self, observer):
        """Subscribe to PE monitor events.

        Observers may implement ``on_internal_sink(pe, packet)``,
        ``on_execution_complete(pe, task_id)`` and
        ``on_task_changed(pe, old, new)``, and optionally
        ``listens(hook)`` to be bound only to the hooks it answers True
        for (the AIM listens only where its model does and calls
        :meth:`rebind_observers` on model upload).  Handlers are cached
        in subscription order — the AIM, added at platform build, ahead
        of the dynamics governor (sink/complete events are hot).
        """
        self._observers.append(observer)
        self.rebind_observers()

    def remove_observer(self, observer):
        """Unsubscribe an observer."""
        self._observers.remove(observer)
        self.rebind_observers()

    def rebind_observers(self):
        """Rebuild the cached handler lists from the observers."""
        self._handlers = {}
        for method in (
            "on_internal_sink",
            "on_execution_complete",
            "on_task_changed",
        ):
            handlers = self._handlers[method] = []
            for obs in self._observers:
                handler = getattr(obs, method, None)
                listens = getattr(obs, "listens", None)
                if handler is not None and (
                    listens is None or listens(method)
                ):
                    handlers.append(handler)

    def _notify(self, method, *args):
        for handler in self._handlers.get(method, ()):
            handler(self, *args)

    # -- task knob ---------------------------------------------------------------

    def set_task(self, task_id, reason="init"):
        """Switch the node to ``task_id``.

        ``reason`` distinguishes initial mapping from intelligence-driven
        switches; only the latter count toward the task-switch statistics
        that Figure 4 plots.  Queued packets for the old task are re-sent
        into the network so the application does not lose them.
        """
        if self.halted:
            return
        old = self.task_id
        if old == task_id:
            return
        self.task_id = task_id
        self.network.directory.set_task(self.node_id, task_id)
        if reason != "init":
            self.task_switches += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.now,
                    "task_switch",
                    node=self.node_id,
                    old=old,
                    new=task_id,
                    reason=reason,
                )
        requeued = list(self.queue)
        self.queue.clear()
        for packet in requeued:
            packet.reroutes += 1
            self.network.send(packet, self.node_id)
        self._configure_generation()
        self._notify("on_task_changed", old, task_id)

    def _configure_generation(self):
        """Start/stop the source process according to the current task."""
        from repro.sim.process import PeriodicProcess

        if self._gen_process is not None:
            self._gen_process.stop()
            self._gen_process = None
        if self.app is None or self.task_id is None:
            return
        period = self.app.generation_period(self.task_id)
        if period is None:
            return
        jitter_rng = self._genphase_rng
        if jitter_rng is None:
            jitter_rng = self._genphase_rng = self.sim.rng.stream(
                "pe-genphase-{}".format(self.node_id)
            )
        # Random initial phase so sources do not emit in lockstep.
        initial = jitter_rng.randrange(1, period + 1)
        self._gen_process = PeriodicProcess(
            self.sim, period, self._generate
        )
        self._gen_process.start(initial_delay=initial)

    # -- other knobs -----------------------------------------------------------------

    def set_clock_enabled(self, enabled):
        """Clock-gate knob; a gated node holds its queue but does not run."""
        self.clock_enabled = bool(enabled)
        if enabled:
            self._try_start()

    def reset(self):
        """Reset knob: drop in-progress state, keep the task assignment."""
        self.queue.clear()
        self.busy = False
        self._gen_seq = 0
        if self.task_id is not None:
            self._configure_generation()

    def halt(self):
        """Hard fault: the node stops (used by fault injection)."""
        self.halted = True
        self.busy = False
        self.queue.clear()
        self.network.directory.set_task(self.node_id, None)
        if self._gen_process is not None:
            self._gen_process.stop()
            self._gen_process = None

    def restart(self):
        """Recover from a transient fault: rejoin blank.

        The node comes back alive but task-less and empty-handed — its
        pre-fault assignment died with it, matching a real reboot (the
        halted node keeps ``task_id`` for post-mortem introspection; the
        restart clears it to match the provider directory).  The
        intelligence layer (or the Experiment Controller) re-allocates
        work to it through the normal task-select knob.
        """
        if not self.halted:
            return
        self.halted = False
        self.busy = False
        self.queue.clear()
        self.task_id = None
        self._gen_seq = 0
        # Reboot kick: a freshly-recovered node is healthy *now*; its
        # pre-fault kick must not leave it instantly expired again.
        self.watchdog.kick(self.sim.now)

    # -- packet input (internal port) ----------------------------------------------------

    def receive(self, packet):
        """Internal-port delivery from the router.

        Returns True if the packet was queued, False if it was diverted
        (buffer full / task mismatch) or discarded (halted node).
        """
        if self.halted or not self.clock_enabled:
            self._divert(packet)
            return False
        if packet.dest_task != self.task_id:
            # The node switched task in the same microsecond the packet was
            # delivered; push it back into the network to find the task's
            # current provider.
            self._divert(packet)
            return False
        if len(self.queue) >= self.queue_capacity:
            self.overflows += 1
            self._divert(packet)
            return False
        self.queue.append(packet)
        self._notify("on_internal_sink", packet)
        self._try_start()
        return True

    def _divert(self, packet):
        """Reject a delivered packet back into the network, asynchronously.

        Covers buffer overflow, task mismatch and gated/halted nodes.  The
        packet blocks for a hold interval (wormhole backpressure) and is
        then redirected to the nearest provider it has not yet bounced off —
        never synchronously, so a node that is still listed as nearest
        provider cannot create a delivery loop.  The hold also makes
        starved-task packets grow visibly old, which is the lateness signal
        the Foraging-for-Work model keys on.

        This is the bounce loop of an overloaded task, so it stays
        allocation-light: the node joins the packet's tried set inline
        (as :meth:`~repro.noc.packet.Packet.mark_tried` would) and the hold
        event is a ``partial`` of :meth:`~repro.noc.network.Network.redirect`
        bound to that set.  Nothing mutates the set during the hold, so
        binding it now excludes exactly what reading it at redirect time
        would.
        """
        node = self.node_id
        packet.reroutes += 1
        tried = packet.tried
        if tried is None:
            tried = packet.tried = set()
        tried.add(node)
        self.sim.post(
            self.overflow_hold_us,
            partial(self.network.redirect, packet, node, tried),
        )

    # -- execution engine ---------------------------------------------------------------

    def _service_duration(self, nominal):
        if self.service_jitter > 0:
            rng = self._rng
            if rng is None:
                # Named stream: creation order does not affect the draws,
                # so it is safe (and cheaper) to create it on first use.
                rng = self._rng = self.sim.rng.stream(
                    "pe-service-{}".format(self.node_id)
                )
            factor = 1.0 + rng.uniform(
                -self.service_jitter, self.service_jitter
            )
        else:
            factor = 1.0
        return self.frequency.scale_duration(max(1, nominal * factor))

    def _try_start(self):
        if (
            self.busy
            or self.halted
            or not self.clock_enabled
            or not self.queue
            or self.app is None
        ):
            return
        packet = self.queue.popleft()
        nominal = self.app.service_time(self.task_id)
        duration = self._service_duration(nominal)
        self.busy = True
        # Fire-and-forget: completions are never cancelled (halt() checks
        # inside _complete), so skip the event-handle allocation.
        self.sim.post(
            duration, lambda p=packet, d=duration: self._complete(p, d)
        )

    def _complete(self, packet, duration):
        if self.halted:
            return
        self.busy = False
        self.completions += 1
        self.window_executions += 1
        task = self.task_id
        self.completions_by_task[task] = (
            self.completions_by_task.get(task, 0) + 1
        )
        now = self.sim.now
        self.watchdog.kick(now)
        self.thermal.record_busy(
            now, duration, 1.0 / self.frequency.slowdown
        )
        self._notify("on_execution_complete", task)
        if self.app is not None:
            for out in self.app.packets_after_execution(self, packet):
                self.network.send(out, self.node_id)
        self._try_start()

    def _generate(self, _process):
        """Source tick: emit this task's generated packets."""
        if self.halted or not self.clock_enabled or self.app is None:
            return
        packets = self.app.packets_for_generation(self)
        if not packets:
            return
        self.generations += 1
        self._gen_seq += 1
        self.watchdog.kick(self.sim.now)
        if len(packets) > 1 and getattr(self.app, "multicast", False):
            self.network.send_multicast(packets, self.node_id)
        else:
            for packet in packets:
                self.network.send(packet, self.node_id)

    # -- metrics helpers -------------------------------------------------------------------

    def drain_window_executions(self):
        """Return and reset the per-window execution counter."""
        count = self.window_executions
        self.window_executions = 0
        return count

    def __repr__(self):
        return (
            "ProcessingElement(node={}, task={}, queue={}, "
            "completions={}{})".format(
                self.node_id,
                self.task_id,
                len(self.queue),
                self.completions,
                ", HALTED" if self.halted else "",
            )
        )
