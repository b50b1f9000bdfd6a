"""Unit tests for the configuration dataclasses."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    AMPoMConfig,
    FaultSpec,
    HardwareSpec,
    InfoDConfig,
    NetworkSpec,
    RetrySpec,
    SimulationConfig,
)
from repro.cluster.topology import scenario_from_dict
from repro.errors import ConfigurationError


class TestHardwareSpec:
    def test_gideon_defaults(self):
        hw = HardwareSpec()
        assert hw.cpu_hz == 2.0e9
        assert hw.ram_bytes == 512 * 1024 * 1024
        assert hw.page_size == 4096
        assert hw.mpt_entry_bytes == 6

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            HardwareSpec(page_size=3000)
        with pytest.raises(ConfigurationError):
            HardwareSpec(page_size=0)

    def test_ram_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            HardwareSpec(ram_bytes=0)


class TestNetworkSpec:
    def test_fast_ethernet_default(self):
        spec = NetworkSpec.fast_ethernet()
        assert spec.bandwidth_bps == pytest.approx(12.5e6)

    def test_broadband(self):
        spec = NetworkSpec.broadband()
        assert spec.bandwidth_bps == pytest.approx(0.75e6)
        assert spec.latency_s == pytest.approx(0.002)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(bandwidth_bps=0)
        with pytest.raises(ConfigurationError):
            NetworkSpec(latency_s=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "bandwidth_bps",
            "latency_s",
            "counter_horizon_s",
            "per_message_overhead_bytes",
            "per_page_overhead_bytes",
        ],
    )
    def test_non_finite_rejected(self, field, bad):
        # A NaN horizon used to make every compaction drop the whole log,
        # a NaN or infinite latency to fail mid-run as a Timeout, and an
        # infinite overhead to give an infinite ("lost") arrival.
        with pytest.raises(ConfigurationError, match=field):
            NetworkSpec(**{field: bad})

    @pytest.mark.parametrize("field", ["per_message_overhead_bytes", "per_page_overhead_bytes"])
    def test_negative_overhead_rejected(self, field):
        # -1000 per message used to make a 100-byte message count as -900
        # bytes sent.
        with pytest.raises(ConfigurationError, match=field):
            NetworkSpec(**{field: -1000})
        with pytest.raises(ConfigurationError, match=field):
            scenario_from_dict(
                {
                    "nodes": ["home", "dest"],
                    "links": [{"a": "home", "b": "dest", "network": {field: -1}}],
                    "migrants": [{"scale": 0.03125}],
                }
            )


class TestRetrySpec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["timeout_s", "backoff"])
    def test_non_finite_rejected(self, field, bad):
        # A NaN timeout used to retransmit with no wait at all, and a NaN
        # or infinite backoff to give NaN or infinite later timeouts.
        with pytest.raises(ConfigurationError, match=field):
            RetrySpec(**{field: bad})


class TestFaultSpec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, bad):
        # A NaN delay used to make the spec inactive, so a delay-rate run
        # silently delayed nothing.
        with pytest.raises(ConfigurationError, match="delay_s"):
            FaultSpec(delay_rate=0.5, delay_s=bad)
        with pytest.raises(ConfigurationError, match="delay_s"):
            scenario_from_dict(
                {
                    "nodes": ["home", "dest"],
                    "faults": {"delay_rate": 0.5, "delay_s": bad},
                    "migrants": [{"scale": 0.03125}],
                }
            )


class TestAMPoMConfig:
    def test_paper_parameters(self):
        cfg = AMPoMConfig()
        assert cfg.lookback_length == 20
        assert cfg.dmax == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AMPoMConfig(lookback_length=1)
        with pytest.raises(ConfigurationError):
            AMPoMConfig(dmax=0)
        with pytest.raises(ConfigurationError):
            AMPoMConfig(dmax=20, lookback_length=20)
        with pytest.raises(ConfigurationError):
            AMPoMConfig(max_zone_pages=0)
        with pytest.raises(ConfigurationError):
            AMPoMConfig(min_zone_pages=300, max_zone_pages=256)
        with pytest.raises(ConfigurationError):
            AMPoMConfig(min_bandwidth_fraction=0.0)


class TestSimulationConfig:
    def test_with_network(self):
        cfg = SimulationConfig().with_network(NetworkSpec.broadband())
        assert cfg.network.latency_s == pytest.approx(0.002)
        # Original untouched (frozen dataclasses).
        assert SimulationConfig().network.latency_s == pytest.approx(0.00015)

    def test_with_arbitrary_fields(self):
        cfg = SimulationConfig().with_(seed=42)
        assert cfg.seed == 42

    def test_frozen(self):
        with pytest.raises(Exception):
            SimulationConfig().seed = 1


def test_infod_defaults():
    cfg = InfoDConfig()
    assert cfg.probe_interval == 1.0
    assert cfg.daemon_delay == pytest.approx(0.010)


@pytest.mark.parametrize(
    ("field", "bad"),
    [
        # A zero interval never advances the clock; NaN/inf/negative ones
        # used to end the daemon with an unraised SimulationError.
        ("probe_interval", 0.0),
        ("probe_interval", -1.0),
        ("probe_interval", math.nan),
        ("probe_interval", math.inf),
        # Zero used to surface only as a NetworkError once a run built
        # its daemon.
        ("smoothing", 0.0),
        ("smoothing", 1.5),
        ("smoothing", math.nan),
        ("daemon_delay", -0.01),
        ("daemon_delay", math.nan),
        ("daemon_delay", math.inf),
        ("queue_delay_cap", -0.01),
        ("queue_delay_cap", math.nan),
        ("probe_size_bytes", -1),
    ],
)
def test_infod_rejects_degenerate_fields(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        InfoDConfig(**{field: bad})


def test_infod_accepts_its_boundaries():
    InfoDConfig(smoothing=1.0, daemon_delay=0.0, queue_delay_cap=0.0, probe_size_bytes=0)
