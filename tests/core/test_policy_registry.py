"""Tests for the named prefetch-policy registry and its factory."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from repro.config import SimulationConfig
from repro.core.leap import LeapPrefetcher
from repro.core.policy import (
    POLICIES,
    FixedReadAheadPolicy,
    LinkConditions,
    LinuxReadAheadPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
    available_policies,
    make_prefetch_policy,
    parse_policy_name,
)
from repro.core.prefetcher import AMPoMPrefetcher
from repro.errors import ConfigurationError, ReproError
from repro.mem.residency import ResidencyTracker

CONFIG = SimulationConfig()


def make_ctx(n_pages=256):
    """The slice of MigrationContext the policy factories consume."""
    return SimpleNamespace(
        ampom=CONFIG.ampom,
        hardware=CONFIG.hardware,
        address_space=SimpleNamespace(total_pages=n_pages),
    )


class TestRegistry:
    def test_expected_members(self):
        assert available_policies() == (
            "ampom",
            "leap",
            "linux-readahead",
            "noprefetch",
            "readahead",
        )

    def test_every_member_constructs_a_policy(self):
        ctx = make_ctx()
        expected = {
            "ampom": AMPoMPrefetcher,
            "leap": LeapPrefetcher,
            "linux-readahead": LinuxReadAheadPolicy,
            "noprefetch": NoPrefetchPolicy,
            "readahead": FixedReadAheadPolicy,
        }
        for name, cls in expected.items():
            policy = make_prefetch_policy(name, ctx)
            assert isinstance(policy, cls), name
            assert isinstance(policy, PrefetchPolicy), name

    def test_vm_ampom_conforms_to_protocol(self):
        from repro.core.vm_prefetcher import VmAmpomPrefetcher

        policy = VmAmpomPrefetcher(CONFIG.ampom, CONFIG.hardware, [(0, 128)])
        assert isinstance(policy, PrefetchPolicy)


class TestParsePolicyName:
    def test_canonical_names_roundtrip(self):
        for name in ("ampom", "leap", "linux-readahead", "noprefetch"):
            canonical, factory = parse_policy_name(name)
            assert canonical == name
            assert callable(factory)

    def test_readahead_k_pattern(self):
        canonical, factory = parse_policy_name("readahead-16")
        assert canonical == "readahead-16"
        policy = factory(make_ctx())
        assert isinstance(policy, FixedReadAheadPolicy)
        assert policy.k == 16

    def test_bare_readahead_uses_default_depth(self):
        policy = make_prefetch_policy("readahead", make_ctx())
        assert isinstance(policy, FixedReadAheadPolicy)
        assert policy.k == 8

    @pytest.mark.parametrize("bad", ["", "lepa", "readahead-0", "readahead-x", "AMPOM"])
    def test_unknown_names_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="prefetch policy"):
            parse_policy_name(bad)

    def test_error_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="leap"):
            parse_policy_name("bogus")


class TestMakePrefetchPolicy:
    def test_ampom_scalar_path_matches_direct_construction(self):
        ctx = make_ctx()
        policy = make_prefetch_policy("ampom", ctx)
        direct = AMPoMPrefetcher(
            ctx.ampom, ctx.hardware, address_limit=ctx.address_space.total_pages
        )
        assert type(policy) is type(direct)
        assert policy.address_limit == direct.address_limit
        assert policy.analysis_time == direct.analysis_time

    def test_registry_is_extensible(self):
        class Custom:
            name = "custom"
            needs_conditions = False
            analysis_time = 0.0

            def on_fault(self, vpn, now, cpu_share, residency, conditions):
                return []

        POLICIES["custom-test"] = lambda ctx: Custom()
        try:
            policy = make_prefetch_policy("custom-test", make_ctx())
            assert isinstance(policy, Custom)
            assert isinstance(policy, PrefetchPolicy)
        finally:
            del POLICIES["custom-test"]


class TestDegenerateInput:
    """Every policy, on every degenerate input, either returns pages inside
    the address space or raises a :mod:`repro.errors` type."""

    #: Time between consecutive faults: zero, subnormal, tiny, huge.
    SPANS = (0.0, 5e-324, 1e-305, 1e300)
    #: CPU shares outside, at the edge of, and inside [0, 1].
    CPU_SHARES = (-0.5, 1e-12, 1.0, 7.0)
    #: Available bandwidth: tiny, normal, none.
    BANDWIDTHS = (1e-300, 1e8, 0.0)

    @pytest.mark.parametrize("name", [*sorted(POLICIES), "readahead-3"])
    def test_on_fault_returns_pages_or_typed_error(self, name):
        n_pages = 256
        failures = []
        for span, cpu, bw in itertools.product(
            self.SPANS, self.CPU_SHARES, self.BANDWIDTHS
        ):
            policy = make_prefetch_policy(name, make_ctx(n_pages))
            res = ResidencyTracker(remote_pages=range(n_pages), mapped_pages=())
            cond = LinkConditions(rtt_s=1e-3, available_bw_bps=bw)
            try:
                # 30 sequential faults: the 20-entry window fills and wraps.
                for i, vpn in enumerate(range(40, 70)):
                    pages = policy.on_fault(vpn, i * span, cpu, res, cond)
                    if not all(0 <= p < n_pages for p in pages):
                        failures.append((span, cpu, bw, f"out of range: {pages}"))
                        break
            except ReproError:
                pass
            except Exception as exc:  # noqa: BLE001 - the defect under test
                failures.append((span, cpu, bw, repr(exc)))
        assert not failures, failures
