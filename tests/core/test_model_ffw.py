"""Tests for the Foraging for Work model."""

from repro.core.models.foraging_for_work import ForagingForWorkModel
from repro.noc.packet import Packet


def make_model(stub_aim, timeout_us=20_000, **kwargs):
    model = ForagingForWorkModel(
        task_ids=(1, 2, 3), timeout_us=timeout_us, **kwargs
    )
    model.bind(stub_aim)
    return model


def late_packet(task, created_at=0, deadline=0):
    packet = Packet(0, dest_task=task, created_at=created_at,
                    deadline=deadline)
    packet.hops = 1
    return packet


def test_late_packet_arms_timer(stub_aim):
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    assert model.armed
    assert model.candidate_task == 2


def test_timely_packet_does_not_arm(sim, stub_aim):
    model = make_model(stub_aim, arm_without_deadline=False)
    packet = Packet(0, dest_task=2, created_at=0, deadline=10**9)
    packet.hops = 1
    model.on_packet_routed(stub_aim, packet, to_internal=False,
                           injected=False)
    assert not model.armed


def test_deadline_margin_arms_early(sim, stub_aim):
    model = make_model(stub_aim, deadline_margin_us=500,
                       arm_without_deadline=False)
    packet = Packet(0, dest_task=2, created_at=0, deadline=400)
    packet.hops = 1
    # now=0, deadline-margin = -100 <= 0: "comes too close".
    model.on_packet_routed(stub_aim, packet, to_internal=False,
                           injected=False)
    assert model.armed


def test_internal_sink_disarms(stub_aim):
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    model.on_internal_sink(stub_aim, Packet(0, dest_task=1))
    assert not model.armed


def test_timeout_expiry_switches_to_candidate(sim, stub_aim):
    model = make_model(stub_aim, timeout_us=20_000)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    model.on_tick(stub_aim, now=19_999)
    assert stub_aim.switches == []
    model.on_tick(stub_aim, now=20_000)
    assert stub_aim.switches == [(0, 2)]
    assert not model.armed  # disarmed after the switch


def test_sink_just_before_expiry_prevents_switch(stub_aim):
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    model.on_internal_sink(stub_aim, Packet(0, dest_task=1))
    model.on_tick(stub_aim, now=50_000)
    assert stub_aim.switches == []


def test_falls_back_to_router_recent_queue(stub_aim):
    model = make_model(stub_aim)
    model.armed_at = 0
    model.candidate_task = None
    stub_aim.router.recent_tasks = [1, 3]
    model.on_tick(stub_aim, now=30_000)
    assert stub_aim.switches == [(0, 3)]  # newest queue entry


def test_no_target_no_switch(stub_aim):
    model = make_model(stub_aim)
    model.armed_at = 0
    stub_aim.router.recent_tasks = []
    model.on_tick(stub_aim, now=30_000)
    assert stub_aim.switches == []
    assert not model.armed  # still disarms; fresh evidence must re-arm


def test_unknown_candidate_task_ignored(stub_aim):
    model = make_model(stub_aim)
    model.armed_at = 0
    model.candidate_task = 99  # not in task_ids
    stub_aim.router.recent_tasks = [2]
    model.on_tick(stub_aim, now=30_000)
    assert stub_aim.switches == [(0, 2)]


def test_no_switch_when_already_on_target(stub_aim):
    stub_aim._task = 2
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    model.on_tick(stub_aim, now=30_000)
    assert stub_aim.switches == []
    assert model.switches_fired == 1


def test_injected_and_internal_events_do_not_arm(stub_aim):
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=True,
                           injected=False)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=True)
    assert not model.armed


def test_candidate_tracks_most_recent_late_task(stub_aim):
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    model.on_packet_routed(stub_aim, late_packet(3), to_internal=False,
                           injected=False)
    assert model.candidate_task == 3
    # Arm time is the FIRST evidence, not refreshed by later packets.
    assert model.armed_at == 0


def test_paper_default_timeout():
    model = ForagingForWorkModel(task_ids=(1,))
    assert model.timeout_us == 20_000


def test_model_metadata():
    model = ForagingForWorkModel(task_ids=(1,))
    assert model.name == "foraging_for_work"
    assert model.model_number == 5


def test_arming_pushes_the_deadline_once(stub_aim):
    model = make_model(stub_aim)
    model.on_packet_routed(stub_aim, late_packet(2), to_internal=False,
                           injected=False)
    model.on_packet_routed(stub_aim, late_packet(3), to_internal=False,
                           injected=False)
    assert stub_aim.wakeups == [model.timeout_us]  # armed at t=0
    model.on_internal_sink(stub_aim, Packet(0, dest_task=1))
    model.on_packet_dropped(stub_aim, Packet(0, dest_task=2))
    assert stub_aim.wakeups == [model.timeout_us] * 2
