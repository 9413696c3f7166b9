"""Tests for the Artificial Intelligence Module."""

import pytest

from repro.core.models.base import IntelligenceModel
from repro.core.models.registry import create_model
from repro.noc.packet import Packet
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig


class ProbeModel(IntelligenceModel):
    """Records every hook invocation."""

    name = "probe"

    def __init__(self, task_ids=(1, 2, 3)):
        super().__init__(task_ids)
        self.events = []
        self.bound_to = None
        self.tunable = 0

    def bind(self, aim):
        self.bound_to = aim.node_id

    def on_packet_routed(self, aim, packet, to_internal, injected):
        self.events.append(("routed", packet.dest_task, to_internal, injected))

    def on_internal_sink(self, aim, packet):
        self.events.append(("sink", packet.dest_task))

    def on_execution_complete(self, aim, task_id):
        self.events.append(("complete", task_id))

    def on_task_changed(self, aim, old, new):
        self.events.append(("changed", old, new))

    def on_tick(self, aim, now):
        self.events.append(("tick", now))


@pytest.fixture
def probed(small_platform):
    platform = small_platform
    model = ProbeModel()
    platform.aims[5].upload_model(model)
    return platform, platform.aims[5], model


def test_upload_binds_model(probed):
    _platform, _aim, model = probed
    assert model.bound_to == 5


def test_ticks_delivered_periodically(probed):
    platform, _aim, model = probed
    platform.sim.run_until(platform.config.aim_tick_us * 3 + 1)
    ticks = [e for e in model.events if e[0] == "tick"]
    assert len(ticks) == 3


def test_router_events_relayed_with_injected_flag(probed):
    platform, _aim, model = probed
    router = platform.network.router(5)
    transit = Packet(0, dest_task=2)
    transit.hops = 2
    router.notify_routed(transit, to_internal=False)
    local = Packet(5, dest_task=3)  # hops == 0: locally injected
    router.notify_routed(local, to_internal=False)
    routed = [e for e in model.events if e[0] == "routed"]
    assert routed == [("routed", 2, False, False), ("routed", 3, False, True)]


def test_pe_events_relayed(probed):
    platform, _aim, model = probed
    pe = platform.pes[5]
    pe.set_task(2, reason="test")
    pe.receive(Packet(0, dest_task=2))
    platform.sim.run_until(50_000)
    kinds = {e[0] for e in model.events}
    assert {"changed", "sink", "complete"} <= kinds


def test_switch_task_knob(probed):
    platform, aim, _model = probed
    aim.switch_task(3)
    assert platform.pes[5].task_id == 3
    assert platform.pes[5].task_switches >= 1


def test_knob_reason_is_model_name(probed):
    platform, aim, _model = probed
    assert aim.knobs["task_select"].reason == "probe"


def test_shutdown_stops_ticks(probed):
    platform, aim, model = probed
    platform.sim.run_until(platform.config.aim_tick_us + 1)
    aim.shutdown()
    before = len([e for e in model.events if e[0] == "tick"])
    platform.sim.run_until(platform.config.aim_tick_us * 10)
    after = len([e for e in model.events if e[0] == "tick"])
    assert before == after


def test_halted_node_silences_relays(probed):
    platform, _aim, model = probed
    platform.pes[5].halt()
    router = platform.network.router(5)
    packet = Packet(0, dest_task=2)
    packet.hops = 1
    router.notify_routed(packet, to_internal=False)
    routed = [e for e in model.events if e[0] == "routed"]
    assert routed == []


def test_rcap_write_params(probed):
    _platform, aim, model = probed
    aim.rcap_write_params({"tunable": 9})
    assert model.tunable == 9


def test_rcap_unknown_param_rejected(probed):
    _platform, aim, _model = probed
    with pytest.raises(KeyError):
        aim.rcap_write_params({"definitely_not_a_param": 1})


def test_rcap_without_model_rejected(small_platform):
    aim = small_platform.aims[5]
    aim.upload_model(None)
    with pytest.raises(RuntimeError):
        aim.rcap_write_params({"x": 1})


def test_model_replacement(probed):
    platform, aim, old_model = probed
    replacement = ProbeModel()
    aim.upload_model(replacement)
    platform.sim.run_until(platform.config.aim_tick_us + 1)
    assert any(e[0] == "tick" for e in replacement.events)


def test_frequency_and_clock_helpers(probed):
    platform, aim, _model = probed
    assert aim.set_frequency(250) == 250
    assert aim.set_clock_enabled(False) is False
    assert aim.set_clock_enabled(True) is True
    assert aim.reset_node() is True


# -- relay binding ------------------------------------------------------------

PE_HOOKS = ("on_internal_sink", "on_execution_complete", "on_task_changed")


class DropOnlyModel(IntelligenceModel):
    """Overrides only ``on_packet_dropped``."""

    name = "drop-only"

    def __init__(self, task_ids=(1, 2, 3)):
        super().__init__(task_ids)
        self.drops = []

    def on_packet_dropped(self, aim, packet):
        self.drops.append(packet.dest_task)


def _pe_handlers(pe):
    return {hook: list(pe._handlers[hook]) for hook in PE_HOOKS}


def test_none_model_binds_no_relay(small_platform):
    router = small_platform.network.router(5)
    assert router._routed_handlers == []
    assert router._dropped_handlers == []
    assert _pe_handlers(small_platform.pes[5]) == {
        hook: [] for hook in PE_HOOKS
    }


def test_drop_only_model_hears_drops_not_routes(small_platform):
    aim = small_platform.aims[5]
    router = small_platform.network.router(5)
    model = DropOnlyModel()
    aim.upload_model(model)
    assert router._routed_handlers == []
    assert router._dropped_handlers == [aim.on_packet_dropped]
    transit = Packet(0, dest_task=2)
    transit.hops = 1
    router.notify_routed(transit, to_internal=False)
    router.notify_dropped(Packet(0, dest_task=3))
    assert model.drops == [3]


def test_uploads_rebind_none_ffw_none(small_platform):
    aim = small_platform.aims[5]
    router = small_platform.network.router(5)
    pe = small_platform.pes[5]
    aim.upload_model(create_model("ffw", small_platform.graph.task_ids()))
    assert router._routed_handlers == [aim.on_packet_routed]
    assert router._dropped_handlers == [aim.on_packet_dropped]
    assert _pe_handlers(pe) == {
        "on_internal_sink": [aim.on_internal_sink],
        "on_execution_complete": [],
        "on_task_changed": [],
    }
    aim.upload_model(None)
    assert router._routed_handlers == []
    assert router._dropped_handlers == []
    assert _pe_handlers(pe) == {hook: [] for hook in PE_HOOKS}


def test_pe_handler_order_aim_before_governor():
    platform = CenturionPlatform(
        PlatformConfig.small(dvfs_governor="hysteresis"),
        model_name="none", seed=99,
    )
    aim = platform.aims[5]
    pe = platform.pes[5]
    governor = platform.dynamics.on_execution_complete
    assert pe._handlers["on_execution_complete"] == [governor]
    # A later upload rebinds the AIM in its subscription slot: first.
    aim.upload_model(ProbeModel())
    assert pe._handlers["on_execution_complete"] == [
        aim.on_execution_complete, governor,
    ]
    aim.upload_model(None)
    assert pe._handlers["on_execution_complete"] == [governor]
