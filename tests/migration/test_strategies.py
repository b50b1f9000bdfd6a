"""Unit tests for the migration strategies' freeze-time protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.policy import NoPrefetchPolicy
from repro.core.prefetcher import AMPoMPrefetcher
from repro.errors import MigrationError
from repro.mem.page_table import PageLocation
from repro.migration.ampom import AmpomMigration
from repro.migration.base import PageService
from repro.migration.ffa import FfaMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.migration.precopy import PrecopyMigration
from repro.net.link import Direction

from .conftest import make_context


class TestOpenMosix:
    def test_everything_local_after_freeze(self, sim, config):
        ctx, _ = make_context(sim, config)
        outcome = OpenMosixMigration().perform(ctx)
        assert outcome.residency.n_remote == 0
        assert outcome.policy is None
        assert len(outcome.hpt) == 0

    def test_freeze_grows_with_dirty_size(self, sim, config):
        ctx_small, _ = make_context(sim, config, n_pages=64)
        ctx_large, _ = make_context(sim, config, n_pages=1024)
        small = OpenMosixMigration().perform(ctx_small).freeze_time
        large = OpenMosixMigration().perform(ctx_large).freeze_time
        assert large > small
        # Roughly linear: 16x the pages, ~>8x the transfer part.
        setup = config.hardware.migration_setup_time
        assert (large - setup) / (small - setup) > 8

    def test_rejects_prefetch_policy(self, sim, config):
        from repro.errors import ConfigurationError

        ctx, _ = make_context(sim, config)
        with pytest.raises(ConfigurationError, match="prefetch_policy"):
            OpenMosixMigration(prefetch_policy="leap").perform(ctx)

    def test_bytes_cover_dirty_pages(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=64)
        outcome = OpenMosixMigration().perform(ctx)
        assert outcome.pages_shipped == ctx.dirty_flags().count(1)
        assert outcome.bytes_transferred >= outcome.pages_shipped * config.hardware.page_size


class TestNoPrefetch:
    def test_ships_three_pages(self, sim, config):
        ctx, _ = make_context(sim, config)
        outcome = NoPrefetchMigration().perform(ctx)
        assert outcome.pages_shipped == 3
        assert isinstance(outcome.policy, NoPrefetchPolicy)

    def test_freeze_independent_of_size(self, sim, config):
        ctx_small, _ = make_context(sim, config, n_pages=64)
        ctx_large, _ = make_context(sim, config, n_pages=4096)
        small = NoPrefetchMigration().perform(ctx_small).freeze_time
        large = NoPrefetchMigration().perform(ctx_large).freeze_time
        assert large == pytest.approx(small, rel=0.01)

    def test_trio_mapped_rest_remote(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=64)
        outcome = NoPrefetchMigration().perform(ctx)
        trio = set(ctx.freeze_trio())
        assert set(outcome.residency.mapped_pages()) == trio
        assert outcome.residency.n_remote == ctx.address_space.total_pages - 3


class TestAmpom:
    def test_ships_trio_plus_mpt(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=64)
        outcome = AmpomMigration().perform(ctx)
        assert outcome.pages_shipped == 3
        assert outcome.extra["mpt_bytes"] == ctx.address_space.total_pages * 6
        assert isinstance(outcome.policy, AMPoMPrefetcher)

    def test_freeze_grows_linearly_with_pages_but_stays_small(self, sim, config):
        ctx_small, _ = make_context(sim, config, n_pages=256)
        ctx_large, _ = make_context(sim, config, n_pages=4096)
        ampom_small = AmpomMigration().perform(ctx_small).freeze_time
        ampom_large = AmpomMigration().perform(ctx_large).freeze_time
        assert ampom_large > ampom_small
        ctx_om, _ = make_context(sim, config, n_pages=4096)
        openmosix = OpenMosixMigration().perform(ctx_om).freeze_time
        assert ampom_large < openmosix / 5

    def test_mpt_locations(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=64)
        outcome = AmpomMigration().perform(ctx)
        trio = set(ctx.freeze_trio())
        assert outcome.mpt.pages_at(PageLocation.LOCAL) == frozenset(trio)
        assert len(outcome.mpt.pages_at(PageLocation.HOME)) == (
            ctx.address_space.total_pages - 3
        )

    def test_prefetch_policy_name_override(self, sim, config):
        from repro.core.leap import LeapPrefetcher

        ctx, _ = make_context(sim, config)
        outcome = AmpomMigration(prefetch_policy="leap").perform(ctx)
        assert isinstance(outcome.policy, LeapPrefetcher)

    def test_context_policy_used_when_strategy_has_none(self, sim, config):
        ctx, _ = make_context(sim, config)
        ctx.prefetch_policy = "noprefetch"
        outcome = AmpomMigration().perform(ctx)
        assert isinstance(outcome.policy, NoPrefetchPolicy)

    def test_strategy_policy_wins_over_context(self, sim, config):
        ctx, _ = make_context(sim, config)
        ctx.prefetch_policy = "noprefetch"
        outcome = AmpomMigration(prefetch_policy="ampom").perform(ctx)
        assert isinstance(outcome.policy, AMPoMPrefetcher)

    def test_default_resolves_to_real_prefetcher(self, sim, config):
        ctx, _ = make_context(sim, config)
        outcome = AmpomMigration().perform(ctx)
        assert isinstance(outcome.policy, AMPoMPrefetcher)


class TestFfa:
    def test_requires_file_server(self, sim, config):
        ctx, _ = make_context(sim, config, with_fs=False)
        with pytest.raises(MigrationError):
            FfaMigration().perform(ctx)

    def test_minimal_freeze_and_flush_schedule(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=128, with_fs=True)
        outcome = FfaMigration().perform(ctx)
        assert outcome.pages_shipped == 3
        assert outcome.extra["flushed_pages"] > 0
        assert outcome.extra["flush_complete_s"] > outcome.freeze_time

    def test_origin_holds_nothing_after_handoff(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=128, with_fs=True)
        outcome = FfaMigration().perform(ctx)
        assert len(outcome.hpt) == 0  # everything pushed or flushed

    def test_fault_waits_for_flush(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=2048, with_fs=True)
        outcome = FfaMigration().perform(ctx)
        service = outcome.page_service
        # The last flushed page cannot arrive before its flush completes.
        last_page = int(np.nanargmax(np.array(service.flush_times)))
        flush_at = service.flush_times[last_page]
        arrivals = service.request([last_page], [], now=outcome.freeze_time)
        assert arrivals[last_page] > flush_at


class TestPrecopy:
    def test_everything_local_after_freeze(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=256)
        outcome = PrecopyMigration().perform(ctx)
        assert outcome.residency.n_remote == 0
        assert outcome.policy is None

    def test_duplicated_traffic_reported(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=4096)
        outcome = PrecopyMigration(dirty_rate_pps=5000.0).perform(ctx)
        assert outcome.extra["duplicated_pages"] > 0
        assert outcome.extra["precopy_rounds"] >= 2

    def test_freeze_below_openmosix_when_dirty_rate_low(self, sim, config):
        ctx1, _ = make_context(sim, config, n_pages=4096)
        pre = PrecopyMigration(dirty_rate_pps=1000.0).perform(ctx1).freeze_time
        ctx2, _ = make_context(sim, config, n_pages=4096)
        om = OpenMosixMigration().perform(ctx2).freeze_time
        assert pre < om

    def test_zero_dirty_rate_single_round(self, sim, config):
        ctx, _ = make_context(sim, config, n_pages=256)
        outcome = PrecopyMigration(dirty_rate_pps=0.0).perform(ctx)
        assert outcome.extra["duplicated_pages"] == 0

    def test_validation(self):
        with pytest.raises(MigrationError):
            PrecopyMigration(dirty_rate_pps=-1)
        with pytest.raises(MigrationError):
            PrecopyMigration(max_rounds=0)


@pytest.mark.parametrize(
    "strategy_cls",
    (AmpomMigration, NoPrefetchMigration, OpenMosixMigration, FfaMigration, PrecopyMigration),
    ids=("AMPoM", "NoPrefetch", "openMosix", "FFA", "Precopy"),
)
def test_page_service_exposes_the_declared_read_surface(sim, config, strategy_cls):
    """Every scheme's page service has a home deputy that owns the
    outcome's HPT, and the read surface the runtime, executor and checker
    use without probing for it."""
    ctx, _ = make_context(sim, config, n_pages=128, with_fs=strategy_cls is FfaMigration)
    outcome = strategy_cls().perform(ctx)
    service = outcome.page_service
    assert isinstance(service, PageService)
    assert outcome.hpt is service.deputy.hpt
    assert service.deputies == [service.deputy]
    assert service.dead_deputies == []
    assert service.transit_routes() == []
    assert {service.request_channel, service.deputy.reply_channel} <= service.wire_channels
    for channel in (service.request_channel, service.reply_channel, *service.wire_channels):
        assert isinstance(channel, Direction)
