"""Shared fixtures for migration tests."""

from __future__ import annotations

import pytest

from repro.config import AMPoMConfig, SimulationConfig
from repro.migration.base import MigrationContext
from repro.net.network import Network
from repro.sim import Simulator
from repro.workloads.synthetic import SequentialWorkload


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig()


def make_context(
    sim: Simulator,
    config: SimulationConfig,
    workload=None,
    n_pages: int = 64,
    with_fs: bool = False,
):
    """A ready-to-migrate context with an allocated workload."""
    if workload is None:
        workload = SequentialWorkload(config.hardware.page_size * n_pages)
    space = workload.setup()
    net = Network()
    net.connect("home", "dest", config.network)
    if with_fs:
        net.connect("home", "fs", config.network)
        net.connect("dest", "fs", config.network)
    ctx = MigrationContext(
        sim=sim,
        network=net,
        hardware=config.hardware,
        ampom=config.ampom,
        src="home",
        dst="dest",
        address_space=space,
        premigration_pages=workload.premigration_pages(),
        file_server="fs" if with_fs else None,
    )
    return ctx, workload


@pytest.fixture
def ctx(sim, config):
    context, _ = make_context(sim, config)
    return context
