"""The "NoPrefetch" baseline: FFA-style minimal freeze, pure demand paging.

Paper section 5.1: "a variant of FFA in which the same three pages (code,
stack, and data) would still be transferred during migration, but all
missing pages would be fetched (without prefetch) from the original node
rather than from the file server".  Its freeze time is flat and minimal
(figure 5) but every first touch costs a blocking round trip, which is the
20-51% runtime penalty of figure 6.

``prefetch_policy=`` pairs this minimal freeze with any registered
policy (the scheme default stays pure demand paging).
"""

from __future__ import annotations

from ..mem.page_table import MasterPageTable
from ..mem.residency import ResidencyTracker
from .base import MigrationContext, MigrationOutcome, MigrationStrategy


class NoPrefetchMigration(MigrationStrategy):
    name = "NoPrefetch"

    def perform(self, ctx: MigrationContext) -> MigrationOutcome:
        hw = ctx.hardware
        existing = ctx.existing_pages()
        trio = [vpn for vpn in ctx.freeze_trio() if vpn in existing]
        freeze_time, payload = self._ship_trio(ctx, trio)

        mpt, hpt = MasterPageTable.from_migration(
            existing, trio, entry_bytes=hw.mpt_entry_bytes
        )
        residency = ResidencyTracker.from_mpt(mpt)
        service = self._make_deputy_service(ctx, hpt)

        return MigrationOutcome(
            strategy=self.name,
            freeze_time=freeze_time,
            bytes_transferred=payload,
            pages_shipped=len(trio),
            mpt=mpt,
            hpt=hpt,
            residency=residency,
            policy=self._resolve_policy(ctx, default="noprefetch"),
            page_service=service,
        )

    def rehop(self, ctx: MigrationContext, outcome: MigrationOutcome) -> None:
        """Re-migrate: ship the trio only; every other resident page stays
        behind on a transit deputy and is demand-fetched from there."""
        self._guard_rehop(ctx)
        trio = [vpn for vpn in ctx.freeze_trio() if outcome.residency.is_mapped(vpn)]
        freeze_time, payload = self._ship_trio(ctx, trio)

        self._leave_transit_deputy(ctx, outcome, trio)
        outcome.freeze_time = freeze_time
        outcome.bytes_transferred = payload
        outcome.pages_shipped = len(trio)
