"""Writing a custom intelligence model (the extension path).

The paper's discussion section sketches next steps beyond the two
evaluated schemes — adaptive thresholds, thermal closing-of-the-loop via
the frequency knob.  This example builds one: a thermal-aware
stimulus-threshold model that

* forages for work like FFW (it reuses the drop/lateness arming), but
* watches the temperature monitor each tick and throttles the node's
  frequency (the 10-300 MHz knob) when it runs hot, restoring nominal
  frequency once cooled — Figure 2a's sense-react loop closed through
  DVFS.

Everything is built from the public surface: subclass
``ForagingForWorkModel``, read ``aim.monitors``, pull ``aim.knobs``.

Run:  python examples/custom_intelligence.py
"""

from repro import CenturionPlatform, PlatformConfig
from repro.core.models.base import FACTORS
from repro.core.models.foraging_for_work import ForagingForWorkModel


class ThermalForagingModel(ForagingForWorkModel):
    """FFW plus a thermal-throttling pathway.

    Parameters
    ----------
    hot_c / cool_c:
        Throttle above ``hot_c``; restore nominal below ``cool_c``.
    throttled_mhz:
        Frequency while throttled.
    """

    name = "thermal_foraging"
    factors = ForagingForWorkModel.factors | frozenset(
        {FACTORS.BEHAVIOURAL_STATE}
    )

    def __init__(self, task_ids, hot_c=45.0, cool_c=40.0,
                 throttled_mhz=50, **ffw_kwargs):
        super().__init__(task_ids, **ffw_kwargs)
        self.hot_c = hot_c
        self.cool_c = cool_c
        self.throttled_mhz = throttled_mhz
        self.throttled = False
        self.throttle_events = 0

    def on_tick(self, aim, now):
        super().on_tick(aim, now)
        temperature = aim.monitors.read("temperature_c")
        if not self.throttled and temperature > self.hot_c:
            aim.set_frequency(self.throttled_mhz)
            self.throttled = True
            self.throttle_events += 1
        elif self.throttled and temperature < self.cool_c:
            aim.set_frequency(aim.pe.frequency.nominal_mhz)
            self.throttled = False

    def next_wakeup(self, now):
        """The thermal check runs every tick: ask for the full tick train.

        FFW alone would report its armed deadline (or ``IDLE``), and the
        event-mode timer bank would then skip the thermal checks.
        """
        return None


def main():
    # Make nodes heat up visibly: crank the thermal model's sensitivity.
    config = PlatformConfig.small(horizon_us=300_000)
    platform = CenturionPlatform(config, model_name="none", seed=3)
    for pe in platform.pes.values():
        pe.thermal.heat_per_busy_us = 0.001
        pe.thermal.time_constant_us = 100_000

    # Upload the custom program to every AIM (as the Experiment Controller
    # uploads PicoBlaze code on the real platform).
    task_ids = platform.graph.task_ids()
    for aim in platform.aims.values():
        aim.upload_model(ThermalForagingModel(task_ids))

    series = platform.run()

    throttles = sum(
        aim.model.throttle_events for aim in platform.aims.values()
    )
    hottest = max(
        pe.thermal.temperature(platform.sim.now)
        for pe in platform.pes.values()
    )
    frequencies = sorted(
        {pe.frequency.current_mhz for pe in platform.pes.values()}
    )
    print("Custom model:", ThermalForagingModel.name)
    print("  extra factor set   :", sorted(ThermalForagingModel.factors))
    print("  joins completed    :", platform.workload.joins)
    print("  task switches      :", platform.total_task_switches())
    print("  throttle events    :", throttles)
    print("  hottest node now   : {:.2f} C".format(hottest))
    print("  frequencies in use :", frequencies, "MHz")
    print("  active nodes, last five windows:", series.active_nodes[-5:])
    if throttles:
        print("The thermal pathway engaged: hot nodes slowed themselves and"
              " recovered.")
    else:
        print("No node crossed the thermal threshold this run; raise"
              " heat_per_busy_us to see throttling.")


if __name__ == "__main__":
    main()
