"""AMPoM migration: three pages + the master page table, then adaptive
remote paging (the paper's system, sections 2.1-2.3).

The freeze ships the currently-accessed code/data/stack pages plus the MPT
(6 bytes per page, section 5.2), whose transfer and installation make
AMPoM's freeze time grow linearly with the address-space size — yet about
two orders of magnitude below openMosix's (0.6 s vs 53.9 s for the 575 MB
DGEMM).  After resume, every fault runs the AMPoM dependent-zone analysis
and prefetches through the origin's deputy.
"""

from __future__ import annotations

from ..mem.page_table import MasterPageTable
from ..mem.residency import ResidencyTracker
from .base import MigrationContext, MigrationOutcome, MigrationStrategy


class AmpomMigration(MigrationStrategy):
    name = "AMPoM"

    def perform(self, ctx: MigrationContext) -> MigrationOutcome:
        hw = ctx.hardware
        existing = ctx.existing_pages()
        trio = [vpn for vpn in ctx.freeze_trio() if vpn in existing]

        mpt, hpt = MasterPageTable.from_migration(
            existing, trio, entry_bytes=hw.mpt_entry_bytes
        )
        freeze_time, payload, install = self._freeze(ctx, mpt, trio)

        residency = ResidencyTracker.from_mpt(mpt)
        policy = self._resolve_policy(ctx, default="ampom")
        service = self._make_deputy_service(ctx, hpt)

        return MigrationOutcome(
            strategy=self.name,
            freeze_time=freeze_time,
            bytes_transferred=payload,
            pages_shipped=len(trio),
            mpt=mpt,
            hpt=hpt,
            residency=residency,
            policy=policy,
            page_service=service,
            extra={"mpt_bytes": float(mpt.size_bytes), "mpt_install_s": install},
        )

    def rehop(self, ctx: MigrationContext, outcome: MigrationOutcome) -> None:
        """Re-migrate: ship the trio + the (current) MPT again; every other
        resident page stays behind on a transit deputy (section 3.2)."""
        self._guard_rehop(ctx)
        trio = [vpn for vpn in ctx.freeze_trio() if outcome.residency.is_mapped(vpn)]
        freeze_time, payload, install = self._freeze(ctx, outcome.mpt, trio)

        self._leave_transit_deputy(ctx, outcome, trio)
        outcome.freeze_time = freeze_time
        outcome.bytes_transferred = payload
        outcome.pages_shipped = len(trio)
        outcome.extra["mpt_bytes"] = float(outcome.mpt.size_bytes)
        outcome.extra["mpt_install_s"] = install

    @staticmethod
    def _freeze(
        ctx: MigrationContext, mpt: MasterPageTable, trio: list[int]
    ) -> tuple[float, int, float]:
        """Ship the state, the MPT and the trio, then install the MPT: the
        freeze ends at the latest MPT or trio arrival plus the install.
        Returns the freeze time, the payload bytes and the install time."""
        now = ctx.sim.now
        hw = ctx.hardware
        channel = ctx.network.direction(ctx.src, ctx.dst)
        MigrationStrategy._state_transfer(ctx)
        payload = mpt.size_bytes
        arrival = channel.transfer(mpt.size_bytes, ctx.sim.now)
        for _vpn in trio:
            arrival = max(arrival, channel.transfer_page(hw.page_size, ctx.sim.now))
            payload += hw.page_size + channel.per_page_overhead_bytes
        install = len(mpt) * hw.mpt_install_time_per_entry
        return hw.migration_setup_time + (arrival - now) + install, payload, install
