"""The Artificial Intelligence Module (AIM).

One AIM per node, as in Figure 2a: a PicoBlaze-class controller wired
between the node's monitors and knobs, hosting an uploaded intelligence
program (a :class:`repro.core.models.base.IntelligenceModel`).  The AIM

* subscribes to the router (routing-event impulses) and the processing
  element (internal-sink / execution / task-change impulses),
* runs a periodic timer tick (the "Timer Tick" input of Figure 2b) that
  drives time-based model logic such as the Foraging-for-Work timeout,
* exposes the knob bank to the model, and
* accepts RCAP-style parameter writes so the Experiment Controller can
  retune models remotely at runtime.

Timer modes
-----------
The tick train runs in one of two bit-identical modes (the
``timer_mode`` knob on :class:`repro.platform.config.PlatformConfig`):

``"ticked"``
    The classic poll: one shared periodic event per period relays
    ``on_tick`` to every AIM whether or not any model has a timer armed.
``"event"``
    Demand-driven: the bank asks each model *when* it next needs a tick
    (:meth:`~repro.core.models.base.IntelligenceModel.next_wakeup`) and
    schedules a wakeup only at the first grid tick at or after that
    deadline — idle nodes schedule nothing.  The bank reads the demand
    at model upload, restart, RCAP write and after each wakeup it
    relays; between those, a model that arms a timer (or moves its
    deadline earlier) inside a monitor hook pushes the new deadline
    through :meth:`ArtificialIntelligenceModule.wake_at`, so the relay
    hooks never re-read it.  Wakeups ride the
    no-allocation :meth:`~repro.sim.engine.Simulator.post_at` path and
    stale ones (the model disarmed or re-armed since) strand as no-ops
    behind a due-ness re-check, the same trick
    :class:`~repro.sim.process.PeriodicProcess` plays with epochs — no
    tombstones on the hot path.  Because wakeups are quantised UP to the
    exact grid the periodic train would have used, and relayed in the
    same registration order at a priority strictly after the metrics
    sampler, firing times, RNG draw order and every observable are
    conserved; if any registered model does real per-tick work
    (``next_wakeup`` → ``None``) the bank degenerates to the periodic
    train, grid-aligned, and the two modes coincide exactly.  Wakeups
    are deduplicated per grid time at a priority of their own, so *when*
    a wakeup is posted cannot reorder anything; a push from the arming
    hook is all the bank needs.

Relay binding
-------------
The AIM subscribes to a router or PE monitor event only when the hosted
model overrides the matching :class:`~repro.core.models.base.
IntelligenceModel` hook (see :meth:`ArtificialIntelligenceModule.
listens`), and :meth:`~ArtificialIntelligenceModule.upload_model`
rebinds both handler lists.  The baseline ``none`` model therefore has
no per-hop relay chain at all, NI hears only routed packets, and an
empty AIM hears nothing.
"""

from repro.core.knobs import standard_knob_bank
from repro.core.models.base import IDLE, IntelligenceModel
from repro.core.monitors import standard_monitor_bank
from repro.sim.process import PeriodicProcess

#: Allowed values for the platform ``timer_mode`` knob.
TIMER_MODES = ("ticked", "event")


class AimTickBank:
    """One shared timer-tick event train for all AIMs on a platform.

    Every AIM ticks at the same period and they are all started together
    at platform construction, so the per-node tick events land on the same
    timestamps and dispatch in node order.  The bank collapses them into a
    *single* periodic event that relays the tick to each registered AIM in
    registration (node) order — observably identical to per-AIM tick
    events, at a fraction of the kernel traffic: 128 heap events per
    period become one.

    In ``"event"`` mode the bank goes further: no periodic train at all.
    Models report their timer demand through ``next_wakeup`` and the bank
    posts one wakeup per armed grid tick (deduplicated across nodes), so a
    platform whose models are all idle or purely reactive schedules zero
    timer events.  See the module docstring for the equivalence argument.
    """

    def __init__(self, sim, period_us, timer_mode="ticked"):
        if timer_mode not in TIMER_MODES:
            raise ValueError(
                "timer_mode must be one of {}, got {!r}".format(
                    TIMER_MODES, timer_mode
                )
            )
        self.sim = sim
        self.period_us = int(period_us)
        self.timer_mode = timer_mode
        self.event_mode = timer_mode == "event"
        self._aims = []
        self._process = PeriodicProcess(
            sim, period_us, self._tick_all, priority=sim.PRIORITY_SAMPLE
        )
        #: Grid anchor: the bank's first-register time.  The periodic train
        #: fires at ``anchor + k*period`` (k >= 1); event-mode wakeups are
        #: quantised to the same grid.
        self._anchor = None
        #: Grid times with a wakeup already posted (event mode).
        self._pending = set()
        #: True once event mode has fallen back to the periodic train
        #: because a registered model does real per-tick work.
        self._degenerate = False

    def register(self, aim):
        """Add an AIM to the bank (starts the train on first use).

        In event mode nothing is scheduled here: the AIM's model is
        uploaded after registration and announces its demand through
        :meth:`note_state`.
        """
        if self._anchor is None:
            self._anchor = self.sim.now
        self._aims.append(aim)
        if self.event_mode and not self._degenerate:
            aim._event_bank = self
            return
        if not self._process.running:
            self._process.start()

    def _tick_all(self, _process):
        # Dispatches straight to the models (one frame per node instead of
        # three); mirrors the checks in ArtificialIntelligenceModule._on_tick.
        now = self.sim.now
        for aim in self._aims:
            model = aim.model
            if aim._ticking and model is not None and not aim.pe.halted:
                model.on_tick(aim, now)

    # -- event mode ----------------------------------------------------------

    def note_state(self, aim):
        """Re-read one AIM's timer demand after a state change.

        Called by the AIM on model upload, RCAP write and restart, and by
        :meth:`_fire` after a relayed wakeup.  Arming inside a monitor
        hook is pushed by the model through
        :meth:`ArtificialIntelligenceModule.wake_at` instead, so the bank
        never misses a wakeup; disarming needs no action at all — the
        already-posted wakeup strands as a no-op.
        """
        model = aim.model
        if model is None or not aim._ticking or aim.pe.halted:
            return
        wakeup = model.next_wakeup(self.sim.now)
        if wakeup is None:
            self._degenerate_to_periodic()
        elif wakeup is not IDLE:
            self._request(wakeup)

    def _request(self, deadline):
        """Post a wakeup at the first grid tick at or after ``deadline``."""
        anchor = self._anchor
        period = self.period_us
        k = -(-(deadline - anchor) // period)  # ceil division
        if k < 1:
            k = 1
        t = anchor + k * period
        now = self.sim.now
        if t <= now:
            # Deadline quantised into the past (an RCAP write shrank an
            # armed timeout): the earliest equivalent tick is the next
            # grid tick strictly after now.
            t = anchor + ((now - anchor) // period + 1) * period
        pending = self._pending
        if t not in pending:
            pending.add(t)
            self.sim.post_at(
                t, lambda: self._fire(t), priority=self.sim.PRIORITY_WAKEUP
            )

    def _fire(self, t):
        """Relay a wakeup tick to every *due* model, registration order.

        Models whose deadline has not arrived (or that disarmed since the
        wakeup was posted) are skipped — their ``on_tick`` is a guaranteed
        no-op by the ``next_wakeup`` contract, so skipping is observably
        identical to the periodic train calling it.
        """
        self._pending.discard(t)
        if self._degenerate:
            return  # the periodic train took over; strand this wakeup
        now = self.sim.now
        fired = []
        for aim in self._aims:
            model = aim.model
            if aim._ticking and model is not None and not aim.pe.halted:
                wakeup = model.next_wakeup(now)
                if wakeup is not None and wakeup is not IDLE and wakeup <= now:
                    model.on_tick(aim, now)
                    fired.append(aim)
        for aim in fired:
            # A fired model may have re-armed inside on_tick without a
            # monitor event (e.g. FFW picking up fresh evidence).
            self.note_state(aim)

    def _degenerate_to_periodic(self):
        """Fall back to the periodic train: some model ticks every period.

        The train starts grid-aligned (next grid tick strictly after now),
        so its firing times are exactly the ones ticked mode would produce,
        and every AIM's ``_event_bank`` link is cleared so
        :meth:`ArtificialIntelligenceModule.wake_at` becomes a no-op.
        Pending wakeups strand in :meth:`_fire`.
        """
        if self._degenerate:
            return
        self._degenerate = True
        for aim in self._aims:
            aim._event_bank = None
        now = self.sim.now
        period = self.period_us
        anchor = self._anchor if self._anchor is not None else now
        delay = anchor + ((now - anchor) // period + 1) * period - now
        if not self._process.running:
            self._process.start(initial_delay=delay)


class ArtificialIntelligenceModule:
    """Embedded intelligence for one node.

    Parameters
    ----------
    sim, pe, router, network:
        The node's simulator, processing element, router and the NoC.
    model:
        The intelligence program to host (may be ``None`` for an
        unmanaged node; a model can also be uploaded later through
        :meth:`upload_model`, like the Experiment Controller uploading
        PicoBlaze code).
    tick_period_us:
        Timer-tick period for the model's ``on_tick``.
    tick_bank:
        Optional shared :class:`AimTickBank`.  When given, this AIM rides
        the platform-wide tick event instead of owning a periodic process;
        standalone AIMs (``None``) keep their own train.
    timer_mode:
        Only meaningful for standalone AIMs (``tick_bank is None``):
        ``"event"`` gives the AIM a private event-mode bank instead of a
        periodic process.  Bank-riding AIMs inherit the bank's mode.
    """

    def __init__(self, sim, pe, router, network, model=None,
                 tick_period_us=1000, tick_bank=None, timer_mode="ticked"):
        self.sim = sim
        self.pe = pe
        self.router = router
        self.network = network
        self.node_id = pe.node_id
        self._monitors = None
        self.knobs = standard_knob_bank(pe, router)
        self.model = None
        self._ticking = False
        #: Set by an event-mode :class:`AimTickBank` at registration;
        #: :meth:`wake_at` pushes armed deadlines through it.  ``None`` in
        #: ticked/degenerate mode, where ``wake_at`` is a no-op.
        self._event_bank = None
        if tick_bank is None and timer_mode == "event":
            tick_bank = AimTickBank(sim, tick_period_us, timer_mode="event")
        if tick_bank is None:
            self._tick = PeriodicProcess(
                sim, tick_period_us, self._on_tick,
                priority=sim.PRIORITY_SAMPLE,
            )
        else:
            self._tick = None
            tick_bank.register(self)
        router.add_observer(self)
        pe.add_observer(self)
        if model is not None:
            self.upload_model(model)

    @property
    def monitors(self):
        """The node's monitor bank, built on first access.

        Only a minority of models read monitors directly (most subscribe
        to impulses instead), and platform construction is on the
        benchmark hot path, so the eight monitor objects are lazy.
        """
        monitors = self._monitors
        if monitors is None:
            monitors = self._monitors = standard_monitor_bank(
                self.sim, self.pe, self.router, self.network
            )
        return monitors

    # -- program upload ------------------------------------------------------

    def upload_model(self, model):
        """Install (or replace) the hosted intelligence program.

        Rebinds the router's and the PE's handler lists to the hooks the
        new model overrides (:meth:`listens`); ``None`` unbinds them all.
        """
        self.model = model
        self.router.rebind_observers()
        self.pe.rebind_observers()
        if model is not None:
            model.bind(self)
            self.knobs["task_select"].reason = model.name
            self._ticking = True
            if self._tick is not None and not self._tick.running:
                self._tick.start()
            bank = self._event_bank
            if bank is not None:
                bank.note_state(self)
        else:
            self._ticking = False
            if self._tick is not None:
                self._tick.stop()

    def shutdown(self):
        """Stop the timer tick (used when the node dies)."""
        self._ticking = False
        if self._tick is not None:
            self._tick.stop()

    def restart(self):
        """Resume the timer tick after node recovery.

        Tick-bank AIMs just flip their gate back on (the shared train
        never stopped); standalone AIMs restart their own process.  An
        AIM with no model stays silent, exactly as at construction.

        The model's :meth:`~repro.core.models.base.IntelligenceModel.
        on_restart` hook runs first, in every timer mode: a deadline armed
        before the fault is stale evidence (the node's task and queues
        were wiped), so e.g. FFW disarms instead of firing an immediate
        switch against a pre-fault candidate.
        """
        if self.model is None:
            return
        self._ticking = True
        self.model.on_restart(self)
        if self._tick is not None and not self._tick.running:
            self._tick.start()
        bank = self._event_bank
        if bank is not None:
            bank.note_state(self)

    # -- relay binding ------------------------------------------------------------

    def listens(self, hook):
        """True when the hosted model overrides monitor hook ``hook``.

        The router and the PE ask this when they (re)build their handler
        lists, so a hook the model leaves at the
        :class:`~repro.core.models.base.IntelligenceModel` no-op costs
        nothing per event.
        """
        model = self.model
        return model is not None and (
            getattr(type(model), hook) is not getattr(IntelligenceModel, hook)
        )

    # -- router monitor relay ---------------------------------------------------
    #
    # Relays are bound only while a model that overrides the hook is
    # uploaded (see ``listens``), so they need not re-check for a model.

    def on_packet_routed(self, router, packet, to_internal):
        """Router monitor relay (filters locally-injected packets)."""
        if self.pe.halted:
            return
        # Locally-injected packets (hop count still zero) are the node's own
        # emissions, not observed traffic; monitors sit on the mesh input
        # ports so they do not see them.
        injected = packet.hops == 0 and not to_internal
        self.model.on_packet_routed(self, packet, to_internal, injected)

    def on_packet_dropped(self, router, packet):
        """Router drop-event relay."""
        if not self.pe.halted:
            self.model.on_packet_dropped(self, packet)

    # -- processing element monitor relay -----------------------------------------

    def on_internal_sink(self, pe, packet):
        """PE internal-sink monitor relay."""
        if not pe.halted:
            self.model.on_internal_sink(self, packet)

    def on_execution_complete(self, pe, task_id):
        """PE execution-complete monitor relay."""
        if not pe.halted:
            self.model.on_execution_complete(self, task_id)

    def on_task_changed(self, pe, old, new):
        """PE task-change monitor relay."""
        if not pe.halted:
            self.model.on_task_changed(self, old, new)

    # -- timer tick -----------------------------------------------------------------

    def wake_at(self, deadline):
        """Request an ``on_tick`` at the first timer tick >= ``deadline``.

        The push half of the ``next_wakeup`` contract: a model that arms
        a timer, or moves its deadline earlier, inside a monitor hook
        calls this.  Forwards to the event-mode bank; a no-op in ticked
        (or degenerate) mode, where every tick is relayed anyway.
        """
        bank = self._event_bank
        if bank is not None:
            bank._request(deadline)

    def _on_tick(self, _process):
        if self.model is None or self.pe.halted:
            return
        self.model.on_tick(self, self.sim.now)

    # -- knob helpers used by models ---------------------------------------------------

    def switch_task(self, task_id):
        """Pull the task-select knob; returns the resulting task."""
        return self.knobs["task_select"].set(task_id)

    def current_task(self):
        """The node's current task (monitor view)."""
        return self.pe.task_id

    def set_frequency(self, mhz):
        """Pull the DVFS knob; returns the applied frequency."""
        return self.knobs["frequency"].set(mhz)

    def set_clock_enabled(self, enabled):
        """Pull the clock-enable knob."""
        return self.knobs["clock_enable"].set(enabled)

    def reset_node(self):
        """Pull the reset knob."""
        return self.knobs["reset"].set()

    # -- RCAP parameter access --------------------------------------------------------------

    def rcap_write_params(self, params):
        """Remote model retuning (thresholds etc.) via the RCAP."""
        if self.model is None:
            raise RuntimeError("no model uploaded to AIM {}".format(
                self.node_id))
        self.model.configure(**params)
        # A retune can move an armed deadline (e.g. shrinking the FFW
        # timeout), so re-announce the timer demand.
        bank = self._event_bank
        if bank is not None:
            bank.note_state(self)

    def __repr__(self):
        model_name = self.model.name if self.model is not None else None
        return "AIM(node={}, model={})".format(self.node_id, model_name)
