"""Foraging for Work model (Figure 1 class 5).

Paper §IV-A-2: "Foraging for Work (FFW) has a temporal aspect to the model
and requires three monitors: task of packet routed, packet routed to
internal node, and time since sent.  A threshold circuit is used to detect
when a packet deadline comes too close or has lapsed and setting up an
appropriate timeout counter.  Once this timer expires, the local node
switches to the task of the next packet in the routing queue in order to
sink and process it locally.  Every time a packet is routed internally
(i.e. accepted for processing by the node), that impulse is used to reset
the task switch timeout."

Translation:

* a *lateness detector* watches packets crossing the router; a packet whose
  deadline has lapsed (or is within ``deadline_margin`` of lapsing) arms the
  task-switch timeout and notes the late packet's task as the switch
  candidate — that packet is evidence of work the colony is failing to do
  near here;
* any packet accepted by the local PE resets (disarms) the timeout — a node
  that is being fed is doing a useful task and must not wander off;
* when the armed timeout expires (default 20 ms, the paper's value), the
  node switches to the candidate task — or, failing that, the task of the
  most recent packet in the router's forwarding queue — and the timer
  re-arms only on fresh evidence.

The emergent behaviour is demand-pull: starving or surplus nodes convert to
whatever task's traffic is visibly struggling in their neighbourhood, which
rebalances the task census toward service-weighted demand (FFW's advantage
over NI in the paper's results).
"""

from repro.core.models.base import FACTORS, IDLE, IntelligenceModel

#: The paper's task-switch timeout: "the task switch timeout is set to 20ms".
DEFAULT_FFW_TIMEOUT_US = 20_000


class ForagingForWorkModel(IntelligenceModel):
    """Timeout-driven take-up of visibly-late work.

    Parameters
    ----------
    task_ids:
        All task ids in the system.
    timeout_us:
        Task-switch timeout (µs) once armed.
    deadline_margin_us:
        A packet within this margin of its deadline already counts as
        "coming too close" and arms the timer.
    arm_without_deadline:
        When True (default), packets that carry no deadline arm the timer
        too if the node is idle — this keeps the model functional on
        workloads that do not stamp deadlines.
    """

    name = "foraging_for_work"
    model_number = 5
    factors = frozenset(
        {FACTORS.LOCATION, FACTORS.ONTOGENY, FACTORS.TASK_NEEDS}
    )

    def __init__(self, task_ids, timeout_us=DEFAULT_FFW_TIMEOUT_US,
                 deadline_margin_us=0, arm_without_deadline=True):
        super().__init__(task_ids)
        if timeout_us <= 0:
            raise ValueError("timeout must be positive")
        self.timeout_us = timeout_us
        self.deadline_margin_us = deadline_margin_us
        self.arm_without_deadline = arm_without_deadline
        self.armed_at = None
        self.candidate_task = None
        self.last_sink_at = 0
        self.switches_fired = 0
        self.late_packets_seen = 0

    # -- monitor events -------------------------------------------------------

    def on_packet_routed(self, aim, packet, to_internal, injected):
        """Lateness detector: a late transit packet arms the timeout."""
        if injected or to_internal:
            return
        now = aim.sim.now
        late = False
        if packet.deadline is not None:
            late = now >= packet.deadline - self.deadline_margin_us
        elif self.arm_without_deadline:
            late = True
        if not late:
            return
        self.late_packets_seen += 1
        self.candidate_task = packet.dest_task
        if self.armed_at is None:
            self.armed_at = now
            aim.wake_at(now + self.timeout_us)

    def on_internal_sink(self, aim, packet):
        """Being fed: disarm the task-switch timeout."""
        self.last_sink_at = aim.sim.now
        self.armed_at = None

    def on_packet_dropped(self, aim, packet):
        """A packet died at this router: the strongest lateness evidence.

        Drops happen when a task has no surviving provider at all (the
        extinction case fault injection can create) or when every provider
        is saturated past the reroute budget.  Either way the dropped
        packet's task is work the colony is visibly failing to do here, so
        it arms the timeout exactly like a lapsed deadline.
        """
        if packet.dest_task not in self.task_ids:
            return
        self.late_packets_seen += 1
        self.candidate_task = packet.dest_task
        if self.armed_at is None:
            now = aim.sim.now
            self.armed_at = now
            aim.wake_at(now + self.timeout_us)

    # -- timer ---------------------------------------------------------------------

    def on_tick(self, aim, now):
        """Fire the task switch when the armed timeout has elapsed."""
        if self.armed_at is None:
            return
        if now - self.armed_at < self.timeout_us:
            return
        target = self._pick_target(aim)
        self.armed_at = None
        self.candidate_task = None
        if target is None:
            return
        self.switches_fired += 1
        if aim.current_task() != target:
            aim.switch_task(target)

    def next_wakeup(self, now):
        """Armed deadline, or :data:`IDLE` — FFW is a pure timeout poller.

        ``on_tick`` fires only when ``now - armed_at >= timeout_us``, so
        until ``armed_at + timeout_us`` it is a no-op and the event-mode
        bank can skip every tick in between.  Arming happens exclusively
        in monitor hooks (late transit packet, drop), and both arming
        sites push the new deadline through ``aim.wake_at``.
        """
        if self.armed_at is None:
            return IDLE
        return self.armed_at + self.timeout_us

    def on_restart(self, aim):
        """Disarm: a timeout armed before the fault is stale evidence."""
        self.armed_at = None
        self.candidate_task = None

    def _pick_target(self, aim):
        """The candidate late task, else the router queue's newest task."""
        if (
            self.candidate_task is not None
            and self.candidate_task in self.task_ids
        ):
            return self.candidate_task
        recent = aim.router.recent_tasks
        for task in reversed(recent):
            if task in self.task_ids:
                return task
        return None

    @property
    def armed(self):
        """True while the task-switch timeout is counting down."""
        return self.armed_at is not None
