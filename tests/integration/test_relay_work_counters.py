"""Work-counter pins for the demand-driven monitor relay.

cProfile primitive-call totals are deterministic (they repeat exactly
across runs and hash seeds), so they gate the relay's cost without
wall-clock noise.  On a short faulted 8×16 cell:

* the ``none`` baseline binds no relay at all — after platform build it
  makes zero calls into the AIM's routed-packet relay and into any
  model's ``next_wakeup``;
* event-mode timers never cost more Python calls than the tick poll
  they replace, for the two models the paper evaluates;
* the hop engine costs one frame per router visit: it never calls
  ``Router.notify_routed`` (its bookkeeping is inlined), the overflow
  bounce never calls ``Packet.tried_providers``, and the NoC layer's
  primitive calls stay under a ceiling a little above its count.
"""

import cProfile
import pstats

import pytest

from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig


def _profiled_cell(model, timer_mode):
    """Primitive calls per ``(file, function)`` of one faulted cell run."""
    config = PlatformConfig(
        horizon_us=100_000, fault_time_us=50_000, timer_mode=timer_mode
    )
    platform = CenturionPlatform(config, model_name=model, seed=1)
    platform.inject_faults(4)
    profile = cProfile.Profile()
    profile.enable()
    platform.run()
    profile.disable()
    return pstats.Stats(profile)


def _calls_into(stats, path_fragment, function=None):
    """Primitive calls into ``function`` (or any function) of matching files."""
    return sum(
        counts[0]
        for (path, _line, name), counts in stats.stats.items()
        if path_fragment in path.replace("\\", "/")
        and function in (None, name)
    )


@pytest.mark.parametrize("timer_mode", ["ticked", "event"])
def test_none_model_makes_no_relay_or_wakeup_calls(timer_mode):
    stats = _profiled_cell("none", timer_mode)
    assert _calls_into(stats, "repro/core/aim.py", "on_packet_routed") == 0
    assert _calls_into(stats, "repro/core/", "next_wakeup") == 0


@pytest.mark.parametrize("model", ["ffw", "ni"])
def test_event_timers_cost_no_more_calls_than_ticked(model):
    ticked = _profiled_cell(model, "ticked").prim_calls
    event = _profiled_cell(model, "event").prim_calls
    assert event <= ticked


#: Ceiling on primitive calls into ``repro/noc/`` for the faulted cell:
#: about 2 % over the 33,314 (none, ffw) and 33,252 (ni) it makes.
NOC_CALL_CEILING = 34_000


@pytest.mark.parametrize("model", ["none", "ni", "ffw"])
def test_hop_engine_work_is_one_frame_per_router_visit(model):
    stats = _profiled_cell(model, "event")
    assert _calls_into(stats, "repro/noc/router.py", "notify_routed") == 0
    assert _calls_into(stats, "repro/noc/packet.py", "tried_providers") == 0
    assert _calls_into(stats, "repro/noc/") <= NOC_CALL_CEILING
