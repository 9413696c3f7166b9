"""Tests for the network hop engine and task-addressed delivery."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.topology import MeshTopology


@pytest.fixture
def net(sim):
    network = Network(sim, topology=MeshTopology(4, 4))
    delivered = []
    network.set_deliver_handler(
        lambda packet, node: delivered.append((packet, node))
    )
    network.delivered_log = delivered
    return network


def test_link_count_of_mesh(net):
    # 4x4 mesh: 2 * (3*4 + 4*3) = 48 directed links.
    assert len(net.links) == 48


def test_delivery_to_nearest_provider(net, sim):
    net.directory.set_task(15, 2)  # far corner
    net.directory.set_task(5, 2)   # near
    packet = Packet(src_node=0, dest_task=2)
    assert net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert net.delivered_log == [(packet, 5)]
    assert packet.hops == net.topology.manhattan(0, 5)


def test_local_provider_delivers_without_hops(net, sim):
    net.directory.set_task(0, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(100)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops == 0


def test_no_provider_drops_immediately(net):
    packet = Packet(src_node=0, dest_task=9)
    assert not net.send(packet, 0)
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER
    assert net.stats["dropped_no_provider"] == 1


def test_send_from_failed_node_drops(net):
    net.directory.set_task(5, 2)
    net.fail_node(0)
    packet = Packet(src_node=0, dest_task=2)
    assert not net.send(packet, 0)
    assert packet.status == PacketStatus.DROPPED_FAULT


def test_task_switch_mid_flight_reroutes(net, sim):
    """If the destination stops providing the task, the packet re-resolves."""
    net.directory.set_task(3, 2)
    net.directory.set_task(12, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    assert packet.dest_node == 3
    # Before it gets there, node 3 switches away.
    sim.schedule(1, lambda: net.directory.set_task(3, 1))
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert net.delivered_log[0][1] == 12
    assert packet.reroutes >= 1


def test_all_providers_vanish_drops_packet(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.schedule(1, lambda: net.directory.set_task(3, 1))
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER


def test_delivery_routes_around_failed_link(net, sim):
    net.directory.set_task(3, 2)
    net.fail_link(0, 1)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops > net.topology.manhattan(0, 3)


def test_fail_link_requires_adjacency(net):
    with pytest.raises(KeyError):
        net.fail_link(0, 5)


def test_recover_link_restores_delivery_path(net, sim):
    net.directory.set_task(3, 2)
    net.fail_link(0, 1)
    net.recover_link(1, 0)  # either endpoint order works
    assert not net.failed_links
    assert net.link(0, 1).enabled
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops == net.topology.manhattan(0, 3)


def test_recover_node_restores_routing(net, sim):
    net.directory.set_task(3, 2)
    net.fail_node(1)
    net.recover_node(1)
    assert 1 not in net.failed_nodes
    assert not net.router(1).failed
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops == net.topology.manhattan(0, 3)


def test_link_fault_events_traced(sim):
    from repro.sim.trace import TraceRecorder

    trace = TraceRecorder(("link_failed", "link_recovered"))
    network = Network(sim, topology=MeshTopology(4, 4), trace=trace)
    network.fail_link(0, 1)
    network.recover_link(0, 1)
    assert trace.count("link_failed") == 1
    assert trace.count("link_recovered") == 1


def test_delivery_routes_around_faults(net, sim):
    # Provider due east at (3,0); kill the straight-line path.
    net.directory.set_task(3, 2)
    net.fail_node(1)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops > net.topology.manhattan(0, 3)


def test_packet_arriving_at_failed_router_dropped(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    # Fail an XY path router while the packet is in flight toward it.
    sim.schedule(1, lambda: net.routers[2].fail() or net.failed_nodes.add(2))
    sim.run_until(10_000)
    assert packet.status in (
        PacketStatus.DROPPED_FAULT,
        PacketStatus.DELIVERED,  # if it already passed node 2
    )


def test_redirect_moves_packet_to_alternative(net, sim):
    net.directory.set_task(5, 2)
    net.directory.set_task(10, 2)
    packet = Packet(src_node=0, dest_task=2)
    packet.mark_tried(5)
    assert net.redirect(packet, 5, exclude=packet.tried_providers())
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert net.delivered_log[0][1] == 10


def test_redirect_exhaustion_drops(net):
    net.directory.set_task(5, 2)
    packet = Packet(src_node=0, dest_task=2)
    packet.reroutes = net.max_reroutes + 1
    assert not net.redirect(packet, 0)
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER


def test_redirect_from_failed_node_reports_the_drop(net):
    net.directory.set_task(5, 2)
    net.fail_node(3)
    packet = Packet(src_node=0, dest_task=2)
    assert net.redirect(packet, 3) is False
    assert packet.status == PacketStatus.DROPPED_FAULT
    # The re-resolution itself succeeded, so it still counts as a reroute.
    assert net.stats["reroutes"] == 1
    assert net.stats["dropped_fault"] == 1


def test_redirect_dropped_at_first_route_step_reports_the_drop(net, sim):
    net.directory.set_task(3, 2)
    net.links[(0, 1)].busy_until = sim.now + 10 * net.deadlock.wait_limit
    packet = Packet(src_node=0, dest_task=2)
    assert net.redirect(packet, 0) is False
    assert packet.status == PacketStatus.DROPPED_DEADLOCK
    assert net.stats["reroutes"] == 1


def test_redirect_in_flight_returns_true(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    assert net.redirect(packet, 0) is True
    assert packet.status == PacketStatus.IN_FLIGHT
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED


def test_fail_node_updates_directory_and_policy(net):
    net.directory.set_task(5, 2)
    net.fail_node(5)
    assert net.directory.providers(2) == []
    assert 5 in net.policy.failed
    assert net.routers[5].failed


def test_routers_see_routing_events(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    # Routers 0..2 forwarded; router 3 sank.
    assert net.routers[0].packets_forwarded == 1
    assert net.routers[1].packets_forwarded == 1
    assert net.routers[2].packets_forwarded == 1
    assert net.routers[3].packets_sunk == 1


def test_stats_hops_accumulate(net, sim):
    net.directory.set_task(3, 2)
    net.send(Packet(src_node=0, dest_task=2), 0)
    sim.run_until(10_000)
    assert net.stats["hops"] == 3
    assert net.stats["delivered"] == 1
