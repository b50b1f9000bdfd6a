"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import AMPoMConfig, HardwareSpec, NetworkSpec, SimulationConfig
from repro.net.network import Network
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def hardware() -> HardwareSpec:
    return HardwareSpec()


@pytest.fixture
def network_spec() -> NetworkSpec:
    return NetworkSpec()


@pytest.fixture
def ampom_config() -> AMPoMConfig:
    return AMPoMConfig()


@pytest.fixture
def sim_config() -> SimulationConfig:
    return SimulationConfig()


@pytest.fixture
def connects(monkeypatch) -> list[tuple[str, str, NetworkSpec]]:
    """Every ``Network.connect(a, b, spec)`` made while the test runs."""
    calls: list[tuple[str, str, NetworkSpec]] = []
    connect = Network.connect

    def recording(self, a, b, spec):
        calls.append((a, b, spec))
        return connect(self, a, b, spec)

    monkeypatch.setattr(Network, "connect", recording)
    return calls
