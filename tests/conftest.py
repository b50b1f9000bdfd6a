"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.config import AMPoMConfig, HardwareSpec, NetworkSpec, SimulationConfig
from repro.net.link import Direction
from repro.net.network import Network
from repro.sim import Simulator

# Tier-1's verdict must not depend on which examples Hypothesis draws: the
# default ``ci`` profile derives every example from the test itself and
# keeps no example database.  ``pytest --hypothesis-profile=random`` draws
# fresh examples instead; a failure it finds prints a reproduction blob, to
# be pinned as an ``@example``.  Both keep the default ``max_examples``.
# ``deep`` is ``random`` with 2,000 examples per test; CI runs it on
# tests/core/test_incremental.py and tests/check/test_oracle.py, the
# sweep of the window engine against the oracle.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.register_profile("random", derandomize=False, print_blob=True)
settings.register_profile("deep", derandomize=False, max_examples=2000, print_blob=True)
settings.load_profile("ci")


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


@pytest.fixture
def directions(monkeypatch) -> list[Direction]:
    """Every ``Direction`` (lossy ones included) built while the test runs."""
    built: list[Direction] = []
    init = Direction.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Direction, "__init__", recording)
    return built
