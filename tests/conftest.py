"""Shared fixtures: scaled machines, spies, calibrated thresholds."""

from __future__ import annotations

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import Machine


@pytest.fixture
def scaled_config() -> MachineConfig:
    """Small LLC + 32-slot ring; keeps every test under a second."""
    return MachineConfig().scaled_down()


@pytest.fixture
def machine(scaled_config) -> Machine:
    return Machine(scaled_config)


@pytest.fixture
def nic_machine(scaled_config) -> Machine:
    m = Machine(scaled_config)
    m.install_nic()
    return m


@pytest.fixture
def spy(nic_machine):
    return nic_machine.new_process("spy")


@pytest.fixture
def threshold(spy):
    from repro.attack.timing import calibrate_threshold

    return calibrate_threshold(spy)
