"""Tests for wormhole link occupancy."""

import pytest

from repro.noc.link import Link
from repro.noc.packet import Packet


def test_transfer_time_includes_flits_and_wire():
    link = Link(0, 1, flit_time=2, wire_latency=3)
    packet = Packet(0, 1, size_flits=4)
    arrival = link.transfer(packet, now=100)
    # 4 flits x 2us occupancy + 3us wire.
    assert arrival == 100 + 8 + 3


def test_back_to_back_packets_queue():
    link = Link(0, 1, flit_time=2, wire_latency=0)
    first = Packet(0, 1, size_flits=5)
    second = Packet(0, 1, size_flits=5)
    a1 = link.transfer(first, now=0)
    a2 = link.transfer(second, now=0)
    assert a1 == 10
    assert a2 == 20  # waited for the channel


def test_queue_delay_reflects_busy_channel():
    link = Link(0, 1, flit_time=1, wire_latency=0)
    link.transfer(Packet(0, 1, size_flits=10), now=0)
    assert link.queue_delay(4) == 6
    assert link.queue_delay(10) == 0


def test_idle_gap_does_not_queue():
    link = Link(0, 1, flit_time=1, wire_latency=0)
    link.transfer(Packet(0, 1, size_flits=2), now=0)
    arrival = link.transfer(Packet(0, 1, size_flits=2), now=100)
    assert arrival == 102


def test_statistics():
    link = Link(0, 1, flit_time=1, wire_latency=0)
    link.transfer(Packet(0, 1, size_flits=3), now=0)
    link.transfer(Packet(0, 1, size_flits=3), now=0)
    assert link.packets_carried == 2
    assert link.flits_carried == 6
    assert link.total_wait == 3  # second packet waited 3us


def test_disabled_link_rejects_transfer():
    link = Link(0, 1)
    link.enabled = False
    with pytest.raises(RuntimeError):
        link.transfer(Packet(0, 1), now=0)


def test_negative_timing_rejected():
    with pytest.raises(ValueError):
        Link(0, 1, flit_time=-1)


def test_utilisation_bounded():
    link = Link(0, 1, flit_time=1, wire_latency=0)
    for _ in range(5):
        link.transfer(Packet(0, 1, size_flits=2), now=0)
    assert 0.0 <= link.utilisation(100) <= 1.0
    assert link.utilisation(0) == 0.0


def test_utilisation_keeps_past_traffic_at_its_own_flit_time():
    link = Link(0, 1, flit_time=1, wire_latency=0)
    link.transfer(Packet(0, 1, size_flits=4), now=0)
    assert link.utilisation(100) == pytest.approx(0.04)
    # No new traffic: a slower timing must not rescale the old busy time.
    link.degrade(4.0)
    assert link.utilisation(100) == pytest.approx(0.04)
    link.transfer(Packet(0, 1, size_flits=4), now=10)
    assert link.utilisation(100) == pytest.approx(0.20)
    link.restore_timing()
    assert link.utilisation(100) == pytest.approx(0.20)
    link.transfer(Packet(0, 1, size_flits=2), now=50)
    assert link.utilisation(100) == pytest.approx(0.22)
