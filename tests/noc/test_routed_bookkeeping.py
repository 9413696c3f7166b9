"""The hop engine's inlined router bookkeeping equals Router.notify_routed.

The walker does a router's routing-event bookkeeping inline instead of
calling :meth:`Router.notify_routed`.  This test drives traffic through
a :class:`Network`, logs every forward (from the link claims) and every
delivery (from the deliver handler), then replays that log through
``notify_routed`` and ``record_port`` on a shadow set of routers.  Every
router's counters, recent-task queue, port counts and observer calls
must come out the same — across a mid-run RCAP write of
``recent_queue_depth`` and a router that fails and recovers mid-run.
"""

import random

from repro.noc.link import Link
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.topology import MeshTopology, opposite

#: Router failed (router-level only, so the network keeps routing
#: through it) from FAIL_AT to RECOVER_AT.
FAILED_ROUTER = 5
FAIL_AT, RECOVER_AT = 120, 260
RCAP_AT = 60
RCAP_SETTINGS = {"recent_queue_depth": 2}


class CallLog:
    """Observer recording every routed-packet call it receives."""

    def __init__(self):
        self.calls = []

    def on_packet_routed(self, router, packet, to_internal):
        self.calls.append((router.node_id, packet.packet_id, to_internal))


def _state(router):
    return {
        "task_route_counts": router.task_route_counts,
        "recent_tasks": router.recent_tasks,
        "packets_forwarded": router.packets_forwarded,
        "packets_sunk": router.packets_sunk,
        "ports": {
            name: (port.packets_in, port.packets_out)
            for name, port in router.ports.items()
        },
    }


def _drive(sim, monkeypatch):
    """Run the traffic; return the network, its observers and the log."""
    log = []
    original_transfer = Link.transfer

    def logged_transfer(link, packet, now):
        log.append(("forward", link.src, link.dst, packet))
        return original_transfer(link, packet, now)

    monkeypatch.setattr(Link, "transfer", logged_transfer)
    net = Network(sim, topology=MeshTopology(4, 4))
    net.set_deliver_handler(
        lambda packet, node: log.append(("sink", node, None, packet))
    )
    observers = {}
    for node, router in net.routers.items():
        observers[node] = CallLog()
        router.add_observer(observers[node])
    for node, task in ((0, 2), (3, 1), (12, 2), (15, 1), (10, 1)):
        net.directory.set_task(node, task)

    def rcap_write():
        for node, router in net.routers.items():
            router.rcap_write(RCAP_SETTINGS)
            log.append(("rcap", node, None, None))

    def set_failed(failed):
        router = net.routers[FAILED_ROUTER]
        if failed:
            router.fail()
        else:
            router.recover()
        log.append(("fail" if failed else "recover", FAILED_ROUTER,
                    None, None))

    rng = random.Random(7)
    for i in range(120):
        source = rng.randrange(16)
        task = rng.choice((1, 2))
        sim.schedule(
            3 * i, lambda s=source, t=task: net.send(Packet(s, t), s)
        )
    sim.schedule(RCAP_AT, rcap_write)
    sim.schedule(FAIL_AT, lambda: set_failed(True))
    sim.schedule(RECOVER_AT, lambda: set_failed(False))
    sim.run_until(100_000)
    return net, observers, log


def _replay(net, log):
    """Shadow routers fed the log through the router's own API."""
    shadows = {node: Router(node) for node in net.routers}
    observers = {}
    for node, router in shadows.items():
        observers[node] = CallLog()
        router.add_observer(observers[node])
    direction_to = {
        (node, neighbor): direction
        for node in net.routers
        for direction, neighbor in net.topology.neighbors(node).items()
    }
    for kind, node, neighbor, packet in log:
        router = shadows[node]
        if kind == "forward":
            direction = direction_to[(node, neighbor)]
            router.notify_routed(packet, to_internal=False)
            router.record_port(direction, incoming=False)
            shadows[neighbor].record_port(opposite(direction), incoming=True)
        elif kind == "sink":
            router.notify_routed(packet, to_internal=True)
        elif kind == "rcap":
            router.rcap_write(RCAP_SETTINGS)
        elif kind == "fail":
            router.fail()
        else:
            router.recover()
    return shadows, observers


def test_inline_bookkeeping_matches_notify_routed_replay(sim, monkeypatch):
    net, observers, log = _drive(sim, monkeypatch)
    # Every forward reached its next router, so the replay's in-port
    # counts are exact.
    dropped = sum(v for k, v in net.stats.items() if k.startswith("dropped"))
    assert dropped == 0
    assert net.stats["delivered"] == 120
    # The scenario exercises what it claims to: traffic crossed the
    # failed router, and the RCAP write trimmed a queue below the default.
    fail_index = log.index(("fail", FAILED_ROUTER, None, None))
    recover_index = log.index(("recover", FAILED_ROUTER, None, None))
    assert any(
        entry[0] == "forward" and entry[1] == FAILED_ROUTER
        for entry in log[fail_index:recover_index]
    )
    assert any(len(r.recent_tasks) == 2 for r in net.routers.values())

    shadows, shadow_observers = _replay(net, log)
    for node, router in net.routers.items():
        assert _state(router) == _state(shadows[node]), node
        assert observers[node].calls == shadow_observers[node].calls, node
