"""Model base class and the Figure 1 factor taxonomy.

Figure 1 of the paper illustrates the factors influencing an individual's
choice to undertake a task — external (location, nestmates, task needs,
perceived stimulus) and internal (genes, innate response threshold,
behavioural state, experience, ontogeny) — with numbered arrows marking
which of the six model classes uses each factor.  The :data:`FACTORS`
constants and each model's ``factors`` class attribute encode that taxonomy
so it is testable and printable (see ``examples/model_taxonomy.py``).
"""


class FACTORS:
    """Decision factors from Figure 1 (string constants)."""

    # External factors
    LOCATION = "location"
    NESTMATES = "nestmates"
    TASK_NEEDS = "task_needs"
    STIMULUS = "stimulus"
    # Internal factors
    GENES = "genes"
    INNATE_THRESHOLD = "innate_response_threshold"
    BEHAVIOURAL_STATE = "behavioural_state"
    EXPERIENCE = "experience"
    ONTOGENY = "ontogeny"

    EXTERNAL = frozenset({LOCATION, NESTMATES, TASK_NEEDS, STIMULUS})
    INTERNAL = frozenset(
        {GENES, INNATE_THRESHOLD, BEHAVIOURAL_STATE, EXPERIENCE, ONTOGENY}
    )
    ALL = EXTERNAL | INTERNAL


class _Idle:
    """Sentinel type for :data:`IDLE` (printable, single instance)."""

    def __repr__(self):
        return "IDLE"


#: Returned by :meth:`IntelligenceModel.next_wakeup` when the model has no
#: timer armed: ``on_tick`` is a guaranteed no-op until a monitor event
#: re-arms it, so the event-mode tick bank schedules nothing.
IDLE = _Idle()


class IntelligenceModel:
    """Base class for AIM-hosted intelligence programs.

    Subclasses override the monitor-event hooks they care about; every hook
    receives the hosting :class:`~repro.core.aim.ArtificialIntelligenceModule`
    so the model reaches monitors and knobs without holding node state
    itself (one model instance per node, created by the registry).  The
    AIM relays only the hooks a subclass overrides, so a hook left at its
    no-op default costs nothing per event.

    Class attributes
    ----------------
    name:
        Short identifier used in experiment configs and traces.
    model_number:
        The Figure 1 class number (1–6), or ``None`` for the baseline.
    factors:
        The subset of :class:`FACTORS` this model class draws on.
    """

    name = "base"
    model_number = None
    factors = frozenset()

    def __init__(self, task_ids):
        self.task_ids = tuple(task_ids)
        if not self.task_ids:
            raise ValueError("model needs at least one task id")

    # -- lifecycle -----------------------------------------------------------

    def bind(self, aim):
        """Called once when uploaded to an AIM; build pathways here."""

    def configure(self, **params):
        """RCAP parameter update; unknown keys raise ``KeyError``.

        The default implementation sets same-named public attributes that
        already exist, which covers simple scalar tunables.
        """
        for key, value in params.items():
            if not hasattr(self, key) or key.startswith("_"):
                raise KeyError("unknown model parameter {!r}".format(key))
            setattr(self, key, value)

    # -- monitor event hooks (default: ignore) ----------------------------------

    def on_packet_routed(self, aim, packet, to_internal, injected):
        """A packet crossed this node's router."""

    def on_internal_sink(self, aim, packet):
        """A packet was accepted by the local processing element."""

    def on_packet_dropped(self, aim, packet):
        """A packet was dropped at this node's router (lost work)."""

    def on_execution_complete(self, aim, task_id):
        """The local PE finished executing one packet/generation."""

    def on_task_changed(self, aim, old, new):
        """The local node's task assignment changed (any cause)."""

    def on_tick(self, aim, now):
        """Periodic timer tick from the AIM."""

    # -- timer demand protocol (event-driven tick mode) ----------------------

    def next_wakeup(self, now):
        """When does this model next need :meth:`on_tick`?

        The contract, relied on by the event-mode
        :class:`~repro.core.aim.AimTickBank`:

        * ``None`` (the default) — the model does real per-tick work;
          tick it every period, exactly as the classic polled mode does.
        * :data:`IDLE` — ``on_tick`` is a guaranteed no-op until a monitor
          event re-arms the model; schedule nothing.
        * an absolute time (µs) — ``on_tick`` is a guaranteed no-op at any
          ``now`` strictly before that time; the bank may skip ticks until
          the first grid tick at or after it.

        The bank reads this at model upload, restart, RCAP write and
        after each wakeup it relays — never after a monitor event.  A
        model that returns :data:`IDLE` or a deadline therefore promises
        that every state change moving the wakeup *earlier* happens inside
        a monitor hook that calls ``aim.wake_at(deadline)`` (see
        :meth:`repro.core.aim.ArtificialIntelligenceModule.wake_at`).
        """
        return None

    def on_restart(self, aim):
        """The hosting node recovered from a fault.

        Clear stale timer/decision state here: the node's task and queues
        were wiped by the fault, so a deadline armed before death must not
        fire against pre-fault evidence.  Default: nothing to clear.
        """

    def __repr__(self):
        return "{}(tasks={})".format(type(self).__name__, list(self.task_ids))
