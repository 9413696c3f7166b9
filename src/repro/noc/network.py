"""Network assembly and packet movement.

The :class:`Network` owns the routers, the directed links between adjacent
routers, the routing policy, the provider directory and the deadlock
recovery state, and drives packets hop by hop through simulator events.

Task-addressed delivery works like this:

1. ``send(packet, from_node)`` resolves the nearest healthy provider of the
   packet's destination task (minimised Manhattan distance) and stamps it as
   ``dest_node``;
2. each hop picks the next direction from the fault-aware routing policy,
   waits for the output channel (wormhole occupancy), and re-enters the hop
   engine at the downstream router;
3. at the destination router the packet is checked against the directory —
   if the node switched task or died while the packet was in flight, the
   packet is re-resolved toward a new provider (counted as a reroute), which
   is how traffic follows the adapting task topology;
4. delivery hands the packet to the ``deliver_handler`` installed by the
   platform (the processing element's internal port).

Hot-path notes (one walker, the express hop engine)
---------------------------------------------------
Every router visit runs one function body, :meth:`Network._walk`:
injection (``send``, ``send_multicast``, ``redirect``), hop events and
express continuation all enter it, and a hop event is a
``functools.partial`` of the walker itself, so a visit costs one Python
frame.  The router's bookkeeping (per-task counts, forwarded/sunk
counters, port counts, the recent-task queue and the observer fan-out)
is inlined into the walker; :meth:`Router.notify_routed` remains the
documented router API and does exactly the same work.

Simulating one heap event per packet per hop is the classic design but pays
kernel overhead (handle allocation, heap push/pop, callback dispatch) on
the hottest path of every table sweep.  The express engine collapses a
multi-hop flight into a *single* scheduled event without changing a single
observable bit:

* the first hop of a flight is always a real event (an injection never
  walks on inline — the injector's enclosing callback, e.g. a PE completion
  emitting several packets, must finish its own same-time work first);
* a hop event processes its arrival and then keeps walking subsequent
  hops *inline*, advancing the simulator clock manually, for as long as
  :meth:`repro.sim.engine.Simulator.try_advance` grants it the next hop
  time.  The gate holds exactly when no pending event would dispatch at or
  before that time, in which case executing the hop inline is
  indistinguishable from scheduling it — per-hop link claims, router
  counters, observer notifications and model reactions all happen at their
  exact hop timestamps, so FFW lateness arming, NI counting and adaptive
  port choices are bit-identical with the express path on or off;
* the gate is re-evaluated after every hop's side effects, so a model that
  fires mid-flight (scheduling or cancelling events) automatically demotes
  the rest of the flight to ordinary event scheduling;
* mid-flight task switches and faults need no special epoch machinery: the
  walker runs the same per-hop checks (failure, destination task, provider
  re-resolution) inline or from an event, at the same simulated times.

Per-hop lookups are precomputed: ``_hop_table[node][direction]`` holds the
``(neighbor, link, entry port)`` triple, replacing topology math, link dict
hashing and the reverse-direction lookup on every hop.
"""

from functools import partial

from repro.noc.deadlock import DeadlockRecovery
from repro.noc.link import Link
from repro.noc.packet import PacketStatus
from repro.noc.router import Router, RouterConfig
from repro.noc.routing import (
    ProviderDirectory,
    RoutingPolicy,
    UnroutableError,
)
from repro.noc.topology import (
    INTERNAL,
    MeshTopology,
    normalize_edge,
    opposite,
)


class Network:
    """The NoC: routers, links and packet transport.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    topology:
        A :class:`MeshTopology`; defaults to the Centurion 16×8 grid.
    flit_time / wire_latency:
        Link timing (µs per flit, µs propagation).
    router_config:
        Prototype :class:`RouterConfig` copied into every router.
    deadlock_wait_limit:
        Channel-wait bound for deadlock recovery (µs), or ``None``.
    max_reroutes:
        How many times a packet may be re-resolved to a new provider before
        being dropped (guards against pathological switch storms).
    fast_path:
        Enable the express hop engine (see module docstring).  Results are
        bit-identical either way; disabling it exists for A/B verification
        and kernel debugging.
    trace:
        Optional :class:`repro.sim.trace.TraceRecorder`.
    """

    def __init__(self, sim, topology=None, flit_time=1, wire_latency=1,
                 router_config=None, deadlock_wait_limit=50_000,
                 max_reroutes=8, fast_path=True, trace=None):
        self.sim = sim
        self.topology = topology if topology is not None else MeshTopology()
        self.policy = RoutingPolicy(self.topology)
        self.directory = ProviderDirectory(self.topology)
        self.deadlock = DeadlockRecovery(deadlock_wait_limit)
        self.max_reroutes = max_reroutes
        self.fast_path = fast_path
        self.trace = trace
        # Per-category recorder shortcuts: the default sweeps disable the
        # per-packet categories, so the hot paths skip the record() call
        # (and its keyword packing) entirely instead of filtering inside.
        self._trace_delivered = (
            trace if trace is not None and trace.enabled("packet_delivered")
            else None
        )
        self._trace_dropped = (
            trace if trace is not None and trace.enabled("packet_dropped")
            else None
        )
        self._trace_corrupted = (
            trace if trace is not None and trace.enabled("packet_corrupted")
            else None
        )
        prototype = router_config if router_config is not None else RouterConfig()
        self.routers = {
            node: Router(node, prototype.copy())
            for node in self.topology.node_ids()
        }
        self.links = {}
        #: Per-node hop lookup: direction -> (neighbor, link, entry port).
        self._hop_table = {}
        for node in self.topology.node_ids():
            hops = {}
            for direction, neighbor in self.topology.neighbors(node).items():
                link = Link(
                    node, neighbor, flit_time=flit_time,
                    wire_latency=wire_latency,
                )
                self.links[(node, neighbor)] = link
                hops[direction] = (neighbor, link, opposite(direction))
            self._hop_table[node] = hops
        self.deliver_handler = None
        self.failed_nodes = set()
        #: Failed mesh edges, normalised to ``(lo, hi)`` node pairs.
        self.failed_links = set()
        #: Degraded mesh edges: normalised edge -> active flit-time factor.
        self.degraded_links = {}
        #: Mesh edges currently corrupting the packets that cross them.
        self.corrupting_links = set()
        #: Per-node channel-wait override: node id -> wait limit (µs)
        #: tighter than the config-wide deadlock bound.  Empty on every
        #: dynamics-free run, which keeps the hot routing path on its
        #: historic branch (see ``_walk``).
        self.deadlock_pressure = {}
        #: Hops executed inline by the express engine (diagnostic only —
        #: deliberately kept out of ``stats`` so fast/slow runs compare
        #: equal on the experiment-facing counters).
        self.express_hops = 0
        self.stats = {
            "sent": 0,
            "delivered": 0,
            "dropped_deadlock": 0,
            "dropped_no_provider": 0,
            "dropped_fault": 0,
            "reroutes": 0,
            "hops": 0,
        }

    # -- wiring ----------------------------------------------------------------

    def set_deliver_handler(self, handler):
        """Install ``handler(packet, node_id)`` called on delivery."""
        self.deliver_handler = handler

    def router(self, node_id):
        """The router at ``node_id``."""
        return self.routers[node_id]

    def link(self, src, dst):
        """The directed link ``src -> dst`` (KeyError if not adjacent)."""
        return self.links[(src, dst)]

    # -- faults -------------------------------------------------------------------

    def fail_node(self, node_id):
        """Kill a router (and its node's provider entry); reroutes adapt."""
        if node_id in self.failed_nodes:
            return
        self.failed_nodes.add(node_id)
        self.routers[node_id].fail()
        self.directory.mark_failed(node_id)
        self.policy.set_failed(self.failed_nodes)
        if self.trace is not None:
            self.trace.record(self.sim.now, "node_failed", node=node_id)

    def recover_node(self, node_id):
        """Un-fail a router; routing tables heal and traffic flows again.

        The node rejoins as a blank forwarding element — it carries no
        task until the platform (or its intelligence) assigns one, so the
        provider directory needs no version bump.
        """
        if node_id not in self.failed_nodes:
            return
        self.failed_nodes.discard(node_id)
        self.routers[node_id].recover()
        self.directory.mark_recovered(node_id)
        self.policy.set_failed(self.failed_nodes)
        if self.trace is not None:
            self.trace.record(self.sim.now, "node_recovered", node=node_id)

    def fail_link(self, a, b):
        """Kill the mesh edge ``a — b`` (both channel directions).

        Routing detours around the edge exactly like it detours around a
        dead router: the policy's caches invalidate and the BFS table
        treats the edge as missing.
        """
        if (a, b) not in self.links:
            raise KeyError("nodes {} and {} are not adjacent".format(a, b))
        edge = normalize_edge(a, b)
        if edge in self.failed_links:
            return
        self.failed_links.add(edge)
        self.links[(a, b)].fail()
        self.links[(b, a)].fail()
        self.policy.set_failed_links(self.failed_links)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "link_failed", src=edge[0], dst=edge[1]
            )

    def recover_link(self, a, b):
        """Re-enable a failed mesh edge; XY routes return when clear."""
        edge = normalize_edge(a, b)
        if edge not in self.failed_links:
            return
        self.failed_links.discard(edge)
        self.links[(a, b)].recover()
        self.links[(b, a)].recover()
        self.policy.set_failed_links(self.failed_links)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "link_recovered", src=edge[0], dst=edge[1]
            )

    def link_failed(self, a, b):
        """True when the mesh edge ``a — b`` is currently failed."""
        return normalize_edge(a, b) in self.failed_links

    def degrade_link(self, a, b, factor):
        """Slow the mesh edge ``a — b`` down (both channel directions).

        A partial failure: the edge stays routable — XY routes keep
        using it and the BFS detour table ignores it — but every packet
        crossing it holds the wire ``factor`` times longer, which the
        adaptive routing mode and the congestion-sensing models feel as
        persistent local congestion.  Re-degrading an already-degraded
        edge re-applies the (nominal-based) factor — calls do not
        stack.  Overlap arbitration (worst active claim governs, expiry
        re-evaluates the rest) lives in the
        :class:`~repro.platform.faults.FaultInjector`.
        """
        if (a, b) not in self.links:
            raise KeyError("nodes {} and {} are not adjacent".format(a, b))
        edge = normalize_edge(a, b)
        self.degraded_links[edge] = factor
        self.links[(a, b)].degrade(factor)
        self.links[(b, a)].degrade(factor)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "link_degraded",
                src=edge[0], dst=edge[1], factor=factor,
            )

    def restore_link(self, a, b):
        """Undo a degradation; the edge returns to its nominal timing."""
        edge = normalize_edge(a, b)
        if edge not in self.degraded_links:
            return
        del self.degraded_links[edge]
        self.links[(a, b)].restore_timing()
        self.links[(b, a)].restore_timing()
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "link_degrade_recovered",
                src=edge[0], dst=edge[1],
            )

    def link_degraded(self, a, b):
        """True when the mesh edge ``a — b`` is currently degraded."""
        return normalize_edge(a, b) in self.degraded_links

    def corrupt_link(self, a, b):
        """Mark the mesh edge ``a — b`` as corrupting (both directions).

        Packets that cross the edge are still carried — the wire time is
        spent and delivery is counted — but arrive flagged
        ``corrupted``, so the node discards the payload and the
        application-level metrics record the miss.
        """
        if (a, b) not in self.links:
            raise KeyError("nodes {} and {} are not adjacent".format(a, b))
        edge = normalize_edge(a, b)
        if edge in self.corrupting_links:
            return
        self.corrupting_links.add(edge)
        self.links[(a, b)].corrupting = True
        self.links[(b, a)].corrupting = True
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "link_corrupting", src=edge[0], dst=edge[1]
            )

    def clean_link(self, a, b):
        """Stop the mesh edge ``a — b`` corrupting traffic."""
        edge = normalize_edge(a, b)
        if edge not in self.corrupting_links:
            return
        self.corrupting_links.discard(edge)
        self.links[(a, b)].corrupting = False
        self.links[(b, a)].corrupting = False
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "link_corrupt_recovered",
                src=edge[0], dst=edge[1],
            )

    def link_corrupting(self, a, b):
        """True when the mesh edge ``a — b`` currently corrupts packets."""
        return normalize_edge(a, b) in self.corrupting_links

    def set_deadlock_pressure(self, node_id, wait_limit_us):
        """Tighten the channel-wait bound at one router.

        A packet waiting at ``node_id`` for a busy output channel is
        dropped (as a deadlock casualty) once its wait exceeds
        ``wait_limit_us``, even while the config-wide
        ``deadlock_wait_limit`` would still tolerate it.  Overlap
        arbitration (tightest active claim governs) lives in the
        :class:`~repro.platform.faults.FaultInjector`.
        """
        if self.deadlock_pressure.get(node_id) == wait_limit_us:
            return
        self.deadlock_pressure[node_id] = wait_limit_us
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "deadlock_pressured",
                node=node_id, wait_limit_us=wait_limit_us,
            )

    def clear_deadlock_pressure(self, node_id):
        """Return one router to the config-wide channel-wait bound."""
        if node_id not in self.deadlock_pressure:
            return
        del self.deadlock_pressure[node_id]
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "deadlock_pressure_recovered", node=node_id
            )

    # -- sending ---------------------------------------------------------------------

    def send(self, packet, from_node):
        """Inject ``packet`` at ``from_node``'s router, resolving a provider.

        Returns True if the packet entered the network (or was delivered
        locally), False if it was dropped immediately: no provider, a
        failed source router or a drop at its first route step.
        """
        self.stats["sent"] += 1
        packet.status = PacketStatus.IN_FLIGHT
        packet.delivered_at = None
        if from_node in self.failed_nodes:
            self._drop(packet, PacketStatus.DROPPED_FAULT)
            return False
        dest = self.directory.nearest_provider(from_node, packet.dest_task)
        if dest is None:
            self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                       at_node=from_node)
            return False
        packet.dest_node = dest
        return self._walk(packet, from_node)

    def send_multicast(self, packets, from_node):
        """Send sibling packets to *distinct* nearest providers.

        The paper's discussion names multicast routing as the extension
        that "exploits the inherent parallelism of a task graph": the fork
        branches of one instance leave together and must not all pile onto
        the same provider, so the k-th packet resolves to the k-th nearest
        provider of its task.  Falls back to reusing providers when fewer
        than ``len(packets)`` exist.  Returns the number of packets that
        entered the network (or were delivered locally).

        The siblings' first-hop events are bulk-inserted through
        :meth:`repro.sim.engine.Simulator.schedule_many_at` — one batch
        per generated instance instead of one heap push per branch.
        """
        chosen = set()
        entered = 0
        first_hops = []
        for packet in packets:
            self.stats["sent"] += 1
            packet.status = PacketStatus.IN_FLIGHT
            packet.delivered_at = None
            if from_node in self.failed_nodes:
                self._drop(packet, PacketStatus.DROPPED_FAULT)
                continue
            dest = self.directory.nearest_provider(
                from_node, packet.dest_task, exclude=chosen
            )
            if dest is None:
                # Fewer healthy providers than branches: reuse the nearest.
                dest = self.directory.nearest_provider(
                    from_node, packet.dest_task
                )
            if dest is None:
                self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                           at_node=from_node)
                continue
            chosen.add(dest)
            packet.dest_node = dest
            if self._walk(packet, from_node, defer=first_hops):
                entered += 1
        if first_hops:
            self.sim.schedule_many_at(first_hops)
        return entered

    def redirect(self, packet, from_node, exclude=()):
        """Divert an in-network packet toward another provider.

        Used by full processing-element buffers (backpressure): the packet
        is re-resolved from ``from_node`` excluding the given providers and
        re-enters the hop engine there.  Returns False when the packet was
        dropped — no alternative provider, reroute budget exhausted, a
        failed ``from_node`` or a drop at its first route step — and True
        otherwise.
        """
        packet.status = PacketStatus.IN_FLIGHT
        packet.delivered_at = None
        if packet.reroutes > self.max_reroutes:
            self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                       at_node=from_node)
            return False
        dest = self.directory.nearest_provider(
            from_node, packet.dest_task, exclude=exclude
        )
        if dest is None:
            self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                       at_node=from_node)
            return False
        self.stats["reroutes"] += 1
        packet.dest_node = dest
        return self._walk(packet, from_node)

    # -- hop engine ---------------------------------------------------------------------

    def _walk(self, packet, node, in_port=None, defer=None):
        """The hop engine: one router visit per loop iteration.

        ``in_port`` is the port the packet entered ``node`` through, or
        ``None`` for an injection (send / multicast / redirect / requeue).
        An injection's first hop is always posted as a real event —
        appended to ``defer`` as a ``(time, callback)`` pair when given,
        which multicast uses to bulk-insert sibling first hops; a hop
        event walks on inline while ``try_advance`` grants the next
        arrival time (see the module's hot-path notes).  Returns False
        when the packet was dropped, True otherwise (it is still in the
        network, or was delivered).
        """
        sim = self.sim
        fast_path = self.fast_path
        routers = self.routers
        failed = self.failed_nodes
        direction_cache = self.policy.direction_cache
        in_flight = PacketStatus.IN_FLIGHT
        while True:
            if packet.status != in_flight:
                return False
            if node in failed:
                self._drop(packet, PacketStatus.DROPPED_FAULT)
                return False
            router = routers[node]
            if in_port is not None:
                # Inlined Router.record_port(in_port, incoming=True).
                router.ports[in_port].packets_in += 1
            if node == packet.dest_node:
                if self.directory.task_of(node) == packet.dest_task:
                    self._deliver(packet, node, router)
                    return True
                # Destination changed task while the packet was in flight:
                # re-resolve toward the task's new nearest provider.
                if not self._reresolve(packet, node):
                    return False
                if packet.dest_node == node:
                    self._deliver(packet, node, router)
                    return True
            # The policy's direction cache answers almost every hop; only a
            # miss pays the policy call and its fault handling.
            direction = direction_cache.get((node, packet.dest_node))
            if direction is None:
                direction = self._route_miss(packet, node, router)
                if direction is None:
                    return packet.status == PacketStatus.DELIVERED
            config = router.config
            if config.routing_mode == "adaptive":
                direction = self._adaptive_port(
                    router, node, packet, direction
                )
            hop = self._hop_table[node].get(direction)
            if hop is None:
                self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                           at_node=node)
                return False
            neighbor, link, next_port = hop
            if not link.enabled:
                # The policy avoids failed links once its caches
                # invalidate; this guards the same-instant race (link
                # died between the direction choice and the claim).
                self._drop(packet, PacketStatus.DROPPED_FAULT, at_node=node)
                return False
            now = sim.now
            wait = link.busy_until - now
            # Inlined DeadlockRecovery.should_drop(wait).  The pressure
            # dict is empty on dynamics-free runs, so the short-circuit
            # keeps this hot path on its historic branch; the
            # ``.get(node, wait)`` default makes an un-pressured node's
            # comparison trivially false.
            deadlock = self.deadlock
            wait_limit = deadlock.wait_limit
            if (wait_limit is not None and wait > wait_limit) or (
                self.deadlock_pressure
                and wait > self.deadlock_pressure.get(node, wait)
            ):
                deadlock.record_drop(now)
                self._drop(packet, PacketStatus.DROPPED_DEADLOCK,
                           at_node=node)
                return False
            # Inlined Router.notify_routed(packet, to_internal=False).
            if not router.failed:
                task = packet.dest_task
                counts = router.task_route_counts
                counts[task] = counts.get(task, 0) + 1
                router.packets_forwarded += 1
                recent = router.recent_tasks
                recent.append(task)
                # Read on every call: an RCAP write may change the depth.
                overflow = len(recent) - config.recent_queue_depth
                if overflow > 0:
                    del recent[:overflow]
                for handler in router._routed_handlers:
                    handler(router, packet, False)
            # Inlined Router.record_port(direction, incoming=False).
            router.ports[direction].packets_out += 1
            arrival_time = link.transfer(
                packet, now + config.router_latency
            )
            if link.corrupting:
                packet.corrupted = True
            packet.hops += 1
            self.stats["hops"] += 1
            if in_port is not None and fast_path and sim.try_advance(
                arrival_time
            ):
                self.express_hops += 1
                node = neighbor
                in_port = next_port
                continue
            callback = partial(self._walk, packet, neighbor, next_port)
            if defer is None:
                sim.post_at(arrival_time, callback)
            else:
                defer.append((arrival_time, callback))
            return True

    def _route_miss(self, packet, node, router):
        """Output direction on a direction-cache miss, or ``None``.

        Asks the policy; when the destination has become unreachable the
        packet is re-resolved toward another provider (and delivered here
        if that is this node).  ``None`` means a terminal outcome —
        delivered or dropped.
        """
        policy = self.policy
        try:
            return policy.next_direction(node, packet.dest_node)
        except UnroutableError:
            pass
        if not self._reresolve(packet, node, exclude=(packet.dest_node,)):
            return None
        if packet.dest_node == node:
            self._deliver(packet, node, router)
            return None
        try:
            return policy.next_direction(node, packet.dest_node)
        except UnroutableError:
            self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                       at_node=node)
            return None

    def _adaptive_port(self, router, node, packet, policy_direction):
        """Congestion-aware minimal output-port choice (paper §V).

        When the router is in ``adaptive`` mode and more than one healthy
        *minimal* direction exists, pick the output whose channel is least
        busy right now; ties keep the dimension-ordered choice.  The
        override only applies when the policy's own direction is among the
        minimal candidates — when the policy is detouring around faults,
        its direction stands, which keeps detours loop-free.  Minimal
        adaptive routing can in principle deadlock; like the real
        Centurion, the deadlock-recovery timeout is the backstop.
        """
        candidates = self.policy.minimal_directions(node, packet.dest_node)
        if len(candidates) < 2 or policy_direction not in candidates:
            return policy_direction
        now = self.sim.now
        hops = self._hop_table[node]
        best = policy_direction
        best_wait = None
        for direction in candidates:
            wait = hops[direction][1].queue_delay(now)
            if best_wait is None or wait < best_wait:
                best = direction
                best_wait = wait
        return best

    # -- terminal outcomes --------------------------------------------------------

    def _deliver(self, packet, node, router):
        # Inlined Router.notify_routed(packet, to_internal=True).
        if not router.failed:
            task = packet.dest_task
            counts = router.task_route_counts
            counts[task] = counts.get(task, 0) + 1
            router.packets_sunk += 1
            router.ports[INTERNAL].packets_out += 1
            for handler in router._routed_handlers:
                handler(router, packet, True)
        packet.status = PacketStatus.DELIVERED
        packet.delivered_at = self.sim.now
        self.stats["delivered"] += 1
        if self._trace_delivered is not None:
            self._trace_delivered.record(
                self.sim.now,
                "packet_delivered",
                packet=packet.packet_id,
                node=node,
                task=packet.dest_task,
                hops=packet.hops,
            )
        if packet.corrupted:
            # The flits arrived (delivery is counted, the router sank the
            # packet) but the payload is garbage: the node discards it, so
            # the execution it would have fed never happens — that lost
            # work is the QoS miss the metrics layer accounts.  The stats
            # key is created lazily so runs without corruption faults keep
            # the exact counter dict (and stored-record bytes) of old.
            self.stats["delivered_corrupted"] = (
                self.stats.get("delivered_corrupted", 0) + 1
            )
            router.corrupted_sunk += 1
            if self._trace_corrupted is not None:
                self._trace_corrupted.record(
                    self.sim.now,
                    "packet_corrupted",
                    packet=packet.packet_id,
                    node=node,
                    task=packet.dest_task,
                )
            return
        if self.deliver_handler is not None:
            self.deliver_handler(packet, node)

    def _reresolve(self, packet, node, exclude=()):
        """Pick a new provider for an in-flight packet; False if dropped."""
        packet.reroutes += 1
        self.stats["reroutes"] += 1
        if packet.reroutes > self.max_reroutes:
            self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                       at_node=node)
            return False
        dest = self.directory.nearest_provider(
            node, packet.dest_task, exclude=exclude
        )
        if dest is None:
            self._drop(packet, PacketStatus.DROPPED_NO_PROVIDER,
                       at_node=node)
            return False
        packet.dest_node = dest
        return True

    def _drop(self, packet, status, at_node=None):
        packet.status = status
        key = {
            PacketStatus.DROPPED_DEADLOCK: "dropped_deadlock",
            PacketStatus.DROPPED_NO_PROVIDER: "dropped_no_provider",
            PacketStatus.DROPPED_FAULT: "dropped_fault",
        }[status]
        self.stats[key] += 1
        if at_node is not None:
            router = self.routers.get(at_node)
            if router is not None:
                router.notify_dropped(packet)
        if self._trace_dropped is not None:
            self._trace_dropped.record(
                self.sim.now,
                "packet_dropped",
                packet=packet.packet_id,
                reason=status,
                task=packet.dest_task,
            )

    def __repr__(self):
        return "Network({} nodes, {} failed, stats={})".format(
            self.topology.num_nodes, len(self.failed_nodes), self.stats
        )
