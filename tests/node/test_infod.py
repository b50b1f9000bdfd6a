"""Unit tests for the oM_infoD monitoring daemon."""

from __future__ import annotations

import pytest

from repro.config import HardwareSpec, InfoDConfig, NetworkSpec
from repro.net.network import Network
from repro.node.infod import InfoDaemon
from repro.node.node import Node
from repro.sim import Simulator


def make(sim, infod_config=None, spec=None):
    spec = spec or NetworkSpec()
    net = Network()
    net.connect("home", "dest", spec)
    node = Node("dest", HardwareSpec())
    daemon = InfoDaemon(
        sim,
        node,
        to_home=net.direction("dest", "home"),
        from_home=net.direction("home", "dest"),
        config=infod_config or InfoDConfig(),
    )
    return daemon, net, node


def test_initial_rtt_includes_daemon_delay(sim):
    cfg = InfoDConfig()
    daemon, _, _ = make(sim, cfg)
    conditions = daemon.conditions()
    # At minimum: 2x latency + daemon scheduling delay.
    assert conditions.rtt_s >= 2 * NetworkSpec().latency_s + cfg.daemon_delay


def test_probe_observes_queuing_delay(sim):
    daemon, net, _ = make(sim)
    idle = daemon.conditions().rtt_s
    # Saturate home->dest with ~1 s of traffic, then probe.
    net.direction("home", "dest").transfer(int(12.5e6), 0.0)
    daemon.probe()
    assert daemon.conditions().rtt_s > idle


def test_queue_delay_is_capped(sim):
    cfg = InfoDConfig(smoothing=1.0)
    daemon, net, _ = make(sim, cfg)
    net.direction("home", "dest").transfer(int(1e9), 0.0)  # hours of queue
    daemon.probe()
    assert daemon.conditions().rtt_s <= (
        cfg.daemon_delay + 2 * cfg.queue_delay_cap + 2 * NetworkSpec().latency_s + 0.01
    )


def test_periodic_probes_run(sim):
    daemon, _, _ = make(sim, InfoDConfig(probe_interval=0.5))
    sim.run(until=2.1)
    assert daemon.probes_sent == 4


def test_stop_halts_probing(sim):
    daemon, _, _ = make(sim, InfoDConfig(probe_interval=0.5))
    sim.run(until=1.1)
    daemon.stop()
    count = daemon.probes_sent
    sim.run(until=5.0)
    assert daemon.probes_sent == count


def test_bandwidth_estimate_reflects_load(sim):
    daemon, net, _ = make(sim, InfoDConfig(smoothing=1.0))
    spec = NetworkSpec()
    daemon.probe()
    # Half-load the reply channel for 1 simulated second.
    net.direction("home", "dest").transfer(int(spec.bandwidth_bps / 2), 0.0)
    sim.run(until=1.0)
    daemon.probe()
    available = daemon.conditions().available_bw_bps
    assert available == pytest.approx(spec.bandwidth_bps / 2, rel=0.05)


def test_window_wrap_triggers_bandwidth_sample(sim):
    daemon, net, _ = make(sim, InfoDConfig(smoothing=1.0))
    daemon.on_window_wrap()
    net.direction("home", "dest").transfer(int(12.5e6), 0.0)
    sim.run(until=1.0)
    daemon.on_window_wrap()
    assert daemon.conditions().available_bw_bps < NetworkSpec().bandwidth_bps / 2


def test_conditions_cpu_share_tracks_node_load(sim):
    daemon, _, node = make(sim)
    assert daemon.conditions().cpu_share == 1.0
    node.cpu.acquire()
    node.cpu.acquire()
    assert daemon.conditions().cpu_share == pytest.approx(0.5)
