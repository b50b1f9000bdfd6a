"""Stock openMosix migration: all dirty pages shipped during the freeze.

Paper section 2.1: "In openMosix, all dirty pages in the address space are
transferred to the destination node during migration.  Because the dirty
pages usually dominate the address space, the freeze time in this approach
would grow almost linearly with the size of the address space."  After the
freeze the migrant never faults remotely (figure 2, left), which is why the
paper treats openMosix's execution time as the optimum the other schemes
chase — at the price of figure 5's tens-of-seconds freezes.
"""

from __future__ import annotations

from ..mem.page_table import MasterPageTable
from ..mem.residency import ResidencyTracker
from .base import MigrationContext, MigrationOutcome, MigrationStrategy


class OpenMosixMigration(MigrationStrategy):
    name = "openMosix"

    def perform(self, ctx: MigrationContext) -> MigrationOutcome:
        if self.prefetch_policy is not None:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                "openMosix copies the whole address space at freeze and "
                "performs no remote paging; prefetch_policy does not apply"
            )
        hw = ctx.hardware
        existing = ctx.existing_pages()
        n_dirty = ctx.dirty_flags().count(1)
        freeze_time, payload = self._freeze(ctx, n_dirty)

        # Everything is local afterwards; clean pages (code) are backed by
        # the local file system at the destination, as in openMosix.
        mpt, hpt = MasterPageTable.from_migration(
            existing, existing, entry_bytes=hw.mpt_entry_bytes
        )
        residency = ResidencyTracker.from_mpt(mpt)
        service = self._make_deputy_service(ctx, hpt)  # empty HPT; syscalls only

        return MigrationOutcome(
            strategy=self.name,
            freeze_time=freeze_time,
            bytes_transferred=payload,
            pages_shipped=n_dirty,
            mpt=mpt,
            hpt=hpt,
            residency=residency,
            policy=None,
            page_service=service,
        )

    def rehop(self, ctx: MigrationContext, outcome: MigrationOutcome) -> None:
        """Re-migrate: one bulk stream of every resident page (openMosix
        always moves the whole address space, so nothing stays behind and
        no transit deputy is needed — only the home syscall path rebinds)."""
        self._guard_rehop(ctx)
        n_resident = outcome.residency.n_mapped
        freeze_time, payload = self._freeze(ctx, n_resident)

        outcome.page_service.move_to(ctx.dst)
        outcome.freeze_time = freeze_time
        outcome.bytes_transferred = payload
        outcome.pages_shipped = n_resident

    @staticmethod
    def _freeze(ctx: MigrationContext, n_pages: int) -> tuple[float, int]:
        """Ship the state, then ``n_pages`` pages in one bulk stream (page
        payload plus per-page protocol overhead each, a single
        message-level header).  Returns the freeze time and the bytes
        transferred."""
        now = ctx.sim.now
        hw = ctx.hardware
        channel = ctx.network.direction(ctx.src, ctx.dst)
        MigrationStrategy._state_transfer(ctx)
        bulk_payload = n_pages * (hw.page_size + channel.per_page_overhead_bytes)
        arrival = channel.transfer(bulk_payload, ctx.sim.now)
        return (
            hw.migration_setup_time + (arrival - now),
            bulk_payload + channel.per_message_overhead_bytes,
        )
