"""Property tests for timer-mode equivalence (hypothesis).

`test_timer_mode_determinism.py` pins the ticked/event equivalence on a
fixed matrix of cells; here random arm/disarm/fault/recovery schedules
probe the space between them: any composition of transient and permanent
node faults, FFW tunings that arm never/sometimes/always, and any seed
must leave per-node model state, switch counts, metrics series and NoC
statistics identical under both ``timer_mode`` settings.

The event-mode runs also check the push half of the ``next_wakeup``
contract: relayed monitor events no longer make the bank re-read a
model's demand, so after every relayed event any deadline the model
reports must already have its grid wakeup pending (posted by
``aim.wake_at``).  A model that arms a timer without pushing it fails
here even when the miss happens not to change the run's output.
"""

import functools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.models.base import IDLE
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (at_ms, victim count, outage duration_ms or None for permanent).
_EVENT = st.tuples(
    st.integers(min_value=5, max_value=90),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.integers(min_value=5, max_value=40)),
)


RELAY_HOOKS = (
    "on_packet_routed",
    "on_packet_dropped",
    "on_internal_sink",
    "on_execution_complete",
    "on_task_changed",
)


def _assert_deadline_pushed(aim):
    """The model's current deadline already has a pending grid wakeup."""
    bank = aim._event_bank
    if bank is None or aim.pe.halted:
        return
    deadline = aim.model.next_wakeup(aim.sim.now)
    if deadline is None or deadline is IDLE:
        return
    # The bank's quantisation: first grid tick at or after the deadline.
    k = max(1, -(-(deadline - bank._anchor) // bank.period_us))
    tick = bank._anchor + k * bank.period_us
    assert tick in bank._pending, (
        "node {}: deadline {} has no wakeup at {} (checked at {})".format(
            aim.node_id, deadline, tick, aim.sim.now
        )
    )


def _check_push_contract(platform):
    """Wrap every bound AIM relay with :func:`_assert_deadline_pushed`."""

    def checked(aim, relay, *args):
        relay(*args)
        _assert_deadline_pushed(aim)

    for aim in platform.aims.values():
        for hook in RELAY_HOOKS:
            relay = getattr(aim, hook)
            setattr(aim, hook, functools.partial(checked, aim, relay))
        aim.router.rebind_observers()
        aim.pe.rebind_observers()


def _signature(mode, seed, events, margin, timeout):
    """Everything observable about one run, timer machinery included."""
    config = PlatformConfig.small(
        horizon_us=100_000,
        fault_time_us=50_000,
        timer_mode=mode,
        ffw_deadline_margin_us=margin,
        ffw_timeout_us=timeout,
    )
    platform = CenturionPlatform(
        config, model_name="foraging_for_work", seed=seed
    )
    if events:
        platform.inject_scenario(FaultScenario(
            name="prop",
            events=tuple(
                dict(
                    at_us=at_ms * 1000,
                    count=count,
                    **(
                        {"duration_us": duration_ms * 1000}
                        if duration_ms is not None else {}
                    ),
                )
                for at_ms, count, duration_ms in events
            ),
        ))
    if mode == "event":
        _check_push_contract(platform)
    series = platform.run()
    per_node = {
        node_id: (
            aim.model.switches_fired,
            aim.model.late_packets_seen,
            aim.model.armed_at,
            aim.model.candidate_task,
        )
        for node_id, aim in platform.aims.items()
    }
    return (
        per_node,
        platform.task_census(),
        dict(platform.network.stats),
        platform.workload.stats(),
        series.as_dict(),
    )


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=500),
    events=st.lists(_EVENT, max_size=3),
    margin=st.sampled_from([0, 8_000, 16_000]),
    timeout=st.sampled_from([5_000, 20_000]),
)
def test_random_fault_recovery_schedules_are_mode_invariant(
    seed, events, margin, timeout
):
    ticked = _signature("ticked", seed, events, margin, timeout)
    event = _signature("event", seed, events, margin, timeout)
    assert ticked == event
