"""The Centurion five-port router (Figure 2a).

Ports: North, East, South, West, and an internal (Local) port to the node's
processing element; a sixth Router Configuration Access Port (RCAP) accepts
remote configuration writes without carrying application traffic.  The
router exposes *monitors* (routing events, per-task counts, queue state)
that the embedded Artificial Intelligence Module subscribes to, and honours
*knobs* via its configuration — this is the sense/actuate surface the
social-insect models are wired to.
"""

from repro.noc.topology import DIRECTIONS, INTERNAL


class Port:
    """One router port: an attachment point with per-port statistics."""

    __slots__ = ("name", "enabled", "packets_in", "packets_out")

    def __init__(self, name):
        self.name = name
        self.enabled = True
        self.packets_in = 0
        self.packets_out = 0

    def __repr__(self):
        return "Port({}, in={}, out={}, {})".format(
            self.name,
            self.packets_in,
            self.packets_out,
            "enabled" if self.enabled else "disabled",
        )


class RouterConfig:
    """Mutable router settings reachable through the RCAP.

    Attributes
    ----------
    routing_mode:
        ``"xy"`` or ``"adaptive"`` — the paper's two packet routing modes.
        ``xy`` is dimension-ordered (the evaluated system's "minimised
        Manhattan distance" heuristic); ``adaptive`` additionally lets the
        router pick the less-congested of the minimal output ports (the
        paper's §V extension).  Fault detours are independent of the mode.
    router_latency:
        Fixed µs added per hop for header decode and arbitration.
    recent_queue_depth:
        How many recently-forwarded packet tasks the router remembers; the
        Foraging-for-Work model reads this queue to pick its next task.
    """

    def __init__(self, routing_mode="xy", router_latency=2,
                 recent_queue_depth=8):
        if routing_mode not in ("xy", "adaptive"):
            raise ValueError("unknown routing mode {!r}".format(routing_mode))
        if router_latency < 0:
            raise ValueError("router_latency must be non-negative")
        if recent_queue_depth < 1:
            raise ValueError("recent_queue_depth must be >= 1")
        self.routing_mode = routing_mode
        self.router_latency = router_latency
        self.recent_queue_depth = recent_queue_depth

    def copy(self):
        """Independent copy (each router owns its settings).

        Skips ``__init__`` — the source instance already validated, and
        128 copies are made per platform construction.
        """
        clone = RouterConfig.__new__(RouterConfig)
        clone.routing_mode = self.routing_mode
        clone.router_latency = self.router_latency
        clone.recent_queue_depth = self.recent_queue_depth
        return clone


class Router:
    """A single mesh router.

    The router does not move packets itself — the :class:`~repro.noc.network.
    Network` drives hop scheduling — but it owns everything local: port
    state, the RCAP configuration interface, per-task routing-event counters
    (the NI model's monitor), the recent-task queue (the FFW model's
    monitor) and the observer list through which the AIM hears routing
    events.
    """

    def __init__(self, node_id, config=None):
        self.node_id = node_id
        self.config = config if config is not None else RouterConfig()
        self.ports = {name: Port(name) for name in DIRECTIONS}
        self.ports[INTERNAL] = Port(INTERNAL)
        self.failed = False
        #: packets routed through (any port), per destination task
        self.task_route_counts = {}
        #: most recent dest tasks forwarded (oldest first)
        self.recent_tasks = []
        self._observers = []
        self._routed_handlers = []
        self._dropped_handlers = []
        self.packets_forwarded = 0
        self.packets_sunk = 0
        #: Sunk packets whose payload arrived corrupted (counted in
        #: ``packets_sunk`` too — the flits did reach the internal port).
        self.corrupted_sunk = 0
        self.packets_dropped_here = 0

    # -- observer wiring (monitors) ------------------------------------------

    def add_observer(self, observer):
        """Subscribe an observer (typically the node's AIM).

        Observers may implement ``on_packet_routed(router, packet,
        to_internal)`` and ``on_packet_dropped(router, packet)``; missing
        methods are tolerated so tests can pass minimal stubs.  An
        observer may also implement ``listens(hook)`` to be bound only to
        the hooks it answers True for — the AIM listens only where its
        model does, and calls :meth:`rebind_observers` when the answer
        changes.  Handlers are cached in subscription order — routing
        events are the hottest path in the simulation.
        """
        self._observers.append(observer)
        self.rebind_observers()

    def remove_observer(self, observer):
        """Unsubscribe an observer."""
        self._observers.remove(observer)
        self.rebind_observers()

    def rebind_observers(self):
        """Rebuild the cached handler lists from the observers."""
        self._routed_handlers = self._handlers_for("on_packet_routed")
        self._dropped_handlers = self._handlers_for("on_packet_dropped")

    def _handlers_for(self, hook):
        handlers = []
        for obs in self._observers:
            handler = getattr(obs, hook, None)
            listens = getattr(obs, "listens", None)
            if handler is not None and (listens is None or listens(hook)):
                handlers.append(handler)
        return handlers

    # -- events driven by the network -----------------------------------------

    def notify_routed(self, packet, to_internal):
        """Record a routing event and fan it out to observers.

        ``to_internal`` is True when the packet was routed to the internal
        port (accepted by the local node) — the impulse that suppresses the
        FFW task-switch timeout.
        """
        if self.failed:
            return
        task = packet.dest_task
        counts = self.task_route_counts
        counts[task] = counts.get(task, 0) + 1
        if to_internal:
            self.packets_sunk += 1
            self.ports[INTERNAL].packets_out += 1
        else:
            self.packets_forwarded += 1
            recent = self.recent_tasks
            recent.append(task)
            overflow = len(recent) - self.config.recent_queue_depth
            if overflow > 0:
                del recent[:overflow]
        for handler in self._routed_handlers:
            handler(self, packet, to_internal)

    def notify_dropped(self, packet):
        """Report a packet dropped at this router to observers.

        A drop — deadlock recovery, no surviving provider, reroute budget
        exhausted — is the strongest local evidence that the colony is
        failing to do some task's work, so the AIM hears about it (the
        Foraging-for-Work model arms its task-switch timeout on it).
        """
        if self.failed:
            return
        self.packets_dropped_here += 1
        for handler in self._dropped_handlers:
            handler(self, packet)

    def record_port(self, port_name, incoming):
        """Update per-port counters for a packet crossing ``port_name``."""
        port = self.ports[port_name]
        if incoming:
            port.packets_in += 1
        else:
            port.packets_out += 1

    # -- failure ------------------------------------------------------------------

    def fail(self):
        """Hard-fail the router: all ports die and observers are silenced."""
        self.failed = True
        for port in self.ports.values():
            port.enabled = False

    def recover(self):
        """Revive a failed router (transient-fault recovery path).

        Ports re-enable and counters continue where they stopped; the
        node rejoins the mesh as a blank forwarding element.
        """
        self.failed = False
        for port in self.ports.values():
            port.enabled = True

    # -- RCAP ---------------------------------------------------------------------

    def rcap_write(self, settings):
        """Apply remote configuration (the paper's sixth port).

        ``settings`` is a mapping of :class:`RouterConfig` attribute names to
        new values; unknown keys raise ``KeyError`` to surface typos in
        experiment scripts.
        """
        if self.failed:
            raise RuntimeError(
                "RCAP write to failed router {}".format(self.node_id)
            )
        for key, value in settings.items():
            if not hasattr(self.config, key):
                raise KeyError("unknown router setting {!r}".format(key))
            setattr(self.config, key, value)

    def rcap_read(self):
        """Snapshot of current settings, as a plain dict."""
        return {
            "routing_mode": self.config.routing_mode,
            "router_latency": self.config.router_latency,
            "recent_queue_depth": self.config.recent_queue_depth,
        }

    def __repr__(self):
        return "Router(node={}, forwarded={}, sunk={}{})".format(
            self.node_id,
            self.packets_forwarded,
            self.packets_sunk,
            ", FAILED" if self.failed else "",
        )
