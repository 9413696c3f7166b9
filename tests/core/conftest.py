"""Fixtures for core (intelligence) tests."""

import pytest

from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig


@pytest.fixture
def small_platform():
    """A 4x4 platform with no intelligence, for monitor/knob wiring tests."""
    return CenturionPlatform(
        PlatformConfig.small(), model_name="none", seed=99
    )


class StubRouter:
    """Router stand-in for model unit tests."""

    def __init__(self):
        self.recent_tasks = []


class StubMonitors:
    def __init__(self, values=None):
        self.values = values or {}

    def read(self, name):
        return self.values[name]


class StubAim:
    """AIM stand-in: just enough surface for model unit tests."""

    def __init__(self, sim, node_id=0, task=1, neighbor_tasks=None):
        self.sim = sim
        self.node_id = node_id
        self._task = task
        self.router = StubRouter()
        self.monitors = StubMonitors(
            {"neighbor_tasks": neighbor_tasks or {}}
        )
        self.switches = []
        #: Deadlines pushed through ``wake_at`` (the event-mode contract).
        self.wakeups = []

    def current_task(self):
        return self._task

    def switch_task(self, task_id):
        self.switches.append((self.sim.now, task_id))
        self._task = task_id
        return task_id

    def wake_at(self, deadline):
        self.wakeups.append(deadline)


@pytest.fixture
def stub_aim(sim):
    return StubAim(sim)
