"""Routing policies and the task-provider directory.

Two layers:

* :class:`ProviderDirectory` answers "which nodes currently perform task T?"
  and resolves the *nearest* provider by minimised Manhattan distance — the
  paper's heuristic fixed-routing baseline.  In hardware this information is
  distributed through the RCAP; here it is a shared directory updated on
  every task switch and node failure, which is behaviourally equivalent and
  keeps the simulation fast.

* :class:`XYRouting` / :class:`RoutingPolicy` answer "given a packet at
  router R heading for node D, which output port next?".  XY (dimension
  ordered) routing is used on the healthy mesh; when faults make the XY path
  unusable the policy falls back to a breadth-first-search next-hop table
  over the surviving routers, recomputed lazily whenever the set of failed
  routers changes (modelling the paper's "starts to route around the failed
  nodes").
"""

from collections import deque

from repro.noc.topology import (
    DIRECTIONS,
    EAST,
    NORTH,
    SOUTH,
    WEST,
    normalize_edge,
    opposite,
)


class ProviderDirectory:
    """Tracks which nodes currently perform each task.

    The directory is the simulation-level stand-in for the emergent
    task-location knowledge that packets exploit; lookups are deterministic
    (ties broken by node id) so runs are reproducible.
    """

    def __init__(self, topology):
        self.topology = topology
        self._providers = {}
        self._node_task = {}
        self._failed = set()
        #: Bumped on every provider-set change.
        self.version = 0
        # Provider lookup is the hottest query in the simulation, so
        # answers are cached per task: ``_rank_cache[task][origin]`` holds
        # the (distance, id)-sorted providers and ``_providers_cache[task]``
        # the id-sorted ones.  A provider-set change drops only the
        # entries of the tasks it touches (the old and the new task of a
        # switch), so every other task's rankings survive it.  A ranking
        # is rebuilt by filtering the origin's (distance, id) order of all
        # nodes, which is built on the origin's first query so
        # construction does not pay for origins nobody asks from.
        self._coords = [topology.coords(n) for n in topology.node_ids()]
        self._order = {}
        self._rank_cache = {}
        self._providers_cache = {}

    # -- updates -------------------------------------------------------------

    def set_task(self, node_id, task_id):
        """Record that ``node_id`` now performs ``task_id`` (or None)."""
        old = self._node_task.get(node_id)
        if old == task_id:
            return
        if old is not None:
            members = self._providers.get(old)
            if members is not None:
                members.discard(node_id)
                if not members:
                    del self._providers[old]
        self._node_task[node_id] = task_id
        if task_id is not None:
            self._providers.setdefault(task_id, set()).add(node_id)
        self.version += 1
        for task in (old, task_id):
            self._rank_cache.pop(task, None)
            self._providers_cache.pop(task, None)

    def mark_failed(self, node_id):
        """Remove a failed node from all provider sets.

        Cache invalidation rides on :meth:`set_task`: the caches only
        depend on the provider sets, and those change exactly when the
        node had a live task to clear.
        """
        if node_id in self._failed:
            return
        self._failed.add(node_id)
        self.set_task(node_id, None)

    def mark_recovered(self, node_id):
        """Readmit a recovered node (it rejoins task-less).

        Nothing is invalidated: the node held no task while failed, so
        the provider sets — all the caches depend on — are unchanged
        until something assigns it work again.
        """
        self._failed.discard(node_id)

    # -- queries -------------------------------------------------------------

    def task_of(self, node_id):
        """Current task of a node, or ``None``."""
        return self._node_task.get(node_id)

    def providers(self, task_id):
        """Sorted list of healthy nodes performing ``task_id``.

        The sorted list is cached until the task's provider set changes;
        callers must treat it as read-only.
        """
        cached = self._providers_cache.get(task_id)
        if cached is None:
            cached = sorted(self._providers.get(task_id, ()))
            self._providers_cache[task_id] = cached
        return cached

    def provider_count(self, task_id):
        """Number of healthy providers of ``task_id``."""
        return len(self._providers.get(task_id, ()))

    def task_census(self):
        """Mapping task id -> number of healthy providers."""
        return {task: len(nodes) for task, nodes in self._providers.items()
                if nodes}

    def is_failed(self, node_id):
        """True when the node has been marked failed."""
        return node_id in self._failed

    def nearest_provider(self, from_node, task_id, exclude=()):
        """Nearest healthy provider of ``task_id`` by Manhattan distance.

        Ties break toward the lowest node id (deterministic).  ``exclude``
        removes candidates (e.g. the asking node itself when it wants help
        from elsewhere, or providers that already bounced a packet).
        Returns ``None`` when no provider exists — the caller decides
        whether to drop or hold the packet.
        """
        # Cache hits are answered here, without a ranked_providers frame.
        by_origin = self._rank_cache.get(task_id)
        ranked = None if by_origin is None else by_origin.get(from_node)
        if ranked is None:
            ranked = self.ranked_providers(from_node, task_id)
        if not exclude:
            return ranked[0] if ranked else None
        excluded = (
            exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        )
        for node in ranked:
            if node not in excluded:
                return node
        return None

    def ranked_providers(self, from_node, task_id):
        """Healthy providers of ``task_id`` sorted by (distance, id).

        The list is cached until the task's provider set changes; callers
        must treat it as read-only.
        """
        by_origin = self._rank_cache.setdefault(task_id, {})
        ranked = by_origin.get(from_node)
        if ranked is None:
            order = self._order.get(from_node)
            if order is None:
                order = self._order[from_node] = self._distance_order(from_node)
            providers = self._providers.get(task_id, ())
            ranked = by_origin[from_node] = [n for n in order if n in providers]
        return ranked

    def _distance_order(self, from_node):
        """Every node id sorted by (distance from ``from_node``, id)."""
        coords = self._coords
        fx, fy = coords[from_node]
        return sorted(
            range(len(coords)),
            key=lambda n: (abs(coords[n][0] - fx) + abs(coords[n][1] - fy), n),
        )


class XYRouting:
    """Dimension-ordered (X then Y) minimal routing on a healthy mesh."""

    def __init__(self, topology):
        self.topology = topology

    def next_direction(self, current, dest):
        """Mesh direction of the next hop, or ``None`` when arrived."""
        if current == dest:
            return None
        cx, cy = self.topology.coords(current)
        dx, dy = self.topology.coords(dest)
        if cx < dx:
            return EAST
        if cx > dx:
            return WEST
        if cy < dy:
            return SOUTH
        return NORTH


class RoutingPolicy:
    """Fault-aware next-hop selection.

    Healthy mesh: XY routing (the Centurion default).  With failed routers
    or failed links, a BFS next-hop table over the surviving topology is
    computed per destination on demand and cached; the cache is
    invalidated whenever either failure set changes (including shrinking —
    recovery restores XY routes the moment the mesh is whole again).
    """

    def __init__(self, topology):
        self.topology = topology
        self.xy = XYRouting(topology)
        self._failed = frozenset()
        #: Failed mesh edges as normalised ``(lo, hi)`` node pairs (an
        #: edge failure takes out both directions of the channel).
        self._failed_links = frozenset()
        self._table_cache = {}
        #: Next-hop direction cache, ``(current, dest) -> direction``, filled
        #: by :meth:`next_direction`.  Given a fixed failure set the chosen
        #: direction is a pure function of (current, dest), and a
        #: direction is needed once per hop on the hottest path.  On the
        #: healthy mesh this memoises the XY arithmetic; around faults it
        #: also absorbs the per-hop XY-path-clear walk and BFS table
        #: lookups (the dominant cost of post-fault Table II sweeps).
        #: Cleared whenever the failure set changes.  The hop engine reads
        #: it directly and calls ``next_direction`` only on a miss; treat
        #: it as read-only.
        self.direction_cache = {}

    # -- fault management ------------------------------------------------------

    def set_failed(self, failed_nodes):
        """Replace the set of failed routers; invalidates cached tables."""
        failed = frozenset(failed_nodes)
        if failed != self._failed:
            self._failed = failed
            self._table_cache.clear()
            self.direction_cache.clear()

    def set_failed_links(self, failed_edges):
        """Replace the set of failed mesh edges; invalidates cached tables.

        Edges are undirected ``(a, b)`` node pairs (normalised to
        ``(min, max)`` internally).  Only *failed* edges leave the
        routing graph: degraded edges (``Network.degrade_link``) stay
        fully routable — their slower timing is a wormhole-occupancy
        matter that the adaptive port choice feels as congestion, not a
        topology change — and corrupting edges likewise keep carrying
        (and damaging) traffic.
        """
        edges = frozenset(
            normalize_edge(a, b) for a, b in failed_edges
        )
        if edges != self._failed_links:
            self._failed_links = edges
            self._table_cache.clear()
            self.direction_cache.clear()

    def _edge_ok(self, a, b):
        """True when the mesh edge ``a — b`` is usable."""
        return normalize_edge(a, b) not in self._failed_links

    @property
    def failed(self):
        return self._failed

    @property
    def failed_links(self):
        return self._failed_links

    # -- next-hop query -----------------------------------------------------------

    def next_direction(self, current, dest):
        """Direction of the next hop from ``current`` toward ``dest``.

        Returns ``None`` if ``current == dest`` and raises
        :class:`UnroutableError` when ``dest`` is unreachable (failed or
        disconnected).
        """
        if current == dest:
            return None
        key = (current, dest)
        direction = self.direction_cache.get(key)
        if direction is not None:
            return direction
        if dest in self._failed:
            raise UnroutableError(current, dest, "destination failed")
        if not self._failed and not self._failed_links:
            direction = self.xy.next_direction(current, dest)
        else:
            direction = self._detour_direction(current, dest)
        self.direction_cache[key] = direction
        return direction

    def _detour_direction(self, current, dest):
        """Next hop with failed routers/links present (cache-miss path).

        Try XY first: it is still correct if every hop on the XY path is
        alive, otherwise fall back to the BFS next-hop table over the
        surviving topology.
        """
        direction = self.xy.next_direction(current, dest)
        neighbor = self.topology.neighbor(current, direction)
        if (
            neighbor is not None
            and neighbor not in self._failed
            and self._edge_ok(current, neighbor)
        ):
            # The XY path may still hit a dead router or link later; to
            # guarantee delivery we only trust XY when no failures block
            # the full XY path, otherwise use the table.
            if self._xy_path_clear(current, dest):
                return direction
        return self._table_direction(current, dest)

    def minimal_directions(self, current, dest):
        """All mesh directions that shrink the distance to ``dest``.

        Used by adaptive output-port selection (paper §V: letting the
        embedded intelligence "make decisions on the destination output
        port of incoming packets").  On a healthy mesh this is the X
        and/or Y productive move; directions into failed routers are
        filtered out.  Order is deterministic: X move first, then Y.
        """
        if current == dest:
            return []
        cx, cy = self.topology.coords(current)
        dx, dy = self.topology.coords(dest)
        candidates = []
        if cx < dx:
            candidates.append(EAST)
        elif cx > dx:
            candidates.append(WEST)
        if cy < dy:
            candidates.append(SOUTH)
        elif cy > dy:
            candidates.append(NORTH)
        healthy = []
        for direction in candidates:
            neighbor = self.topology.neighbor(current, direction)
            if (
                neighbor is not None
                and neighbor not in self._failed
                and self._edge_ok(current, neighbor)
            ):
                healthy.append(direction)
        return healthy

    def path(self, src, dest):
        """Full hop-by-hop node path ``src .. dest`` (for tests/analysis)."""
        path = [src]
        current = src
        limit = self.topology.num_nodes + 1
        while current != dest:
            direction = self.next_direction(current, dest)
            current = self.topology.neighbor(current, direction)
            if current is None:
                raise UnroutableError(src, dest, "walked off the mesh")
            path.append(current)
            if len(path) > limit:
                raise UnroutableError(src, dest, "routing loop")
        return path

    # -- internals -----------------------------------------------------------------

    def _xy_path_clear(self, current, dest):
        node = current
        while node != dest:
            direction = self.xy.next_direction(node, dest)
            step = self.topology.neighbor(node, direction)
            if (
                step is None
                or step in self._failed
                or not self._edge_ok(node, step)
            ):
                return False
            node = step
        return True

    def _table_direction(self, current, dest):
        table = self._table_cache.get(dest)
        if table is None:
            table = self._build_table(dest)
            self._table_cache[dest] = table
        direction = table.get(current)
        if direction is None:
            raise UnroutableError(current, dest, "no surviving path")
        return direction

    def _build_table(self, dest):
        """BFS from ``dest`` outward over healthy routers and links.

        Produces, for every reachable router, the direction of its first hop
        toward ``dest``.  Neighbour expansion order is the fixed DIRECTIONS
        tuple, so equal-length routes are chosen deterministically.
        """
        table = {}
        visited = {dest}
        frontier = deque([dest])
        while frontier:
            node = frontier.popleft()
            for direction in DIRECTIONS:
                neighbor = self.topology.neighbor(node, direction)
                if (
                    neighbor is None
                    or neighbor in visited
                    or neighbor in self._failed
                    or not self._edge_ok(node, neighbor)
                ):
                    continue
                # The neighbour reaches dest by stepping back toward node.
                table[neighbor] = opposite(direction)
                visited.add(neighbor)
                frontier.append(neighbor)
        return table


class UnroutableError(RuntimeError):
    """No surviving route between two nodes."""

    def __init__(self, src, dest, reason):
        super().__init__(
            "cannot route {} -> {}: {}".format(src, dest, reason)
        )
        self.src = src
        self.dest = dest
        self.reason = reason
