"""V-system style iterative pre-copy migration (related work, section 6).

"The address space of a process to be migrated in the V system is
pre-copied to the remote node prior to its migration, while the process is
still executing in the source node.  This approach, however, induces
unnecessary network traffic if pages are modified after they are
pre-copied."

The model iterates copy rounds: round ``i`` ships the pages dirtied during
round ``i-1``; the process keeps running at the source and re-dirties pages
at ``dirty_rate_pps``.  Rounds stop when the dirty set stops shrinking, at
``max_rounds``, or below ``stop_pages``; the final round is the freeze.
The total pre-copy duration (in which the process runs but the network is
occupied) and the duplicated traffic are reported in ``extra``.
"""

from __future__ import annotations

from ..errors import MigrationError
from ..mem.page_table import MasterPageTable
from ..mem.residency import ResidencyTracker
from .base import MigrationContext, MigrationOutcome, MigrationStrategy


class PrecopyMigration(MigrationStrategy):
    name = "Precopy"

    def __init__(
        self,
        dirty_rate_pps: float = 2000.0,
        max_rounds: int = 8,
        stop_pages: int = 64,
    ) -> None:
        if dirty_rate_pps < 0:
            raise MigrationError(f"dirty_rate_pps must be non-negative: {dirty_rate_pps}")
        if max_rounds < 1:
            raise MigrationError(f"max_rounds must be >= 1: {max_rounds}")
        self.dirty_rate_pps = dirty_rate_pps
        self.max_rounds = max_rounds
        self.stop_pages = stop_pages

    def perform(self, ctx: MigrationContext) -> MigrationOutcome:
        now = ctx.sim.now
        hw = ctx.hardware
        channel = ctx.network.direction(ctx.src, ctx.dst)
        existing = ctx.existing_pages()
        dirty = ctx.dirty_flags().count(1)
        page_wire = hw.page_size + channel.per_page_overhead_bytes

        # Iterative rounds (all but the last overlap with execution).
        rounds: list[int] = []
        to_copy = dirty
        for _ in range(self.max_rounds - 1):
            rounds.append(to_copy)
            duration = to_copy * page_wire / channel.bandwidth_bps
            redirtied = min(int(self.dirty_rate_pps * duration), dirty)
            if redirtied >= to_copy or redirtied <= self.stop_pages:
                to_copy = redirtied
                break
            to_copy = redirtied
        final_round = to_copy

        precopy_pages = sum(rounds)
        precopy_payload = precopy_pages * page_wire
        precopy_arrival = (
            channel.transfer(precopy_payload, now) if precopy_pages else now
        )
        precopy_duration = precopy_arrival - now

        # Freeze: ship the residual dirty set and the state.
        self._state_transfer(ctx)
        final_payload = final_round * page_wire
        arrival = channel.transfer(final_payload, ctx.sim.now)
        freeze_time = hw.migration_setup_time + (arrival - precopy_arrival)

        mpt, hpt = MasterPageTable.from_migration(
            existing, existing, entry_bytes=hw.mpt_entry_bytes
        )
        residency = ResidencyTracker.from_mpt(mpt)
        service = self._make_deputy_service(ctx, hpt)

        return MigrationOutcome(
            strategy=self.name,
            freeze_time=freeze_time,
            bytes_transferred=precopy_payload + final_payload,
            pages_shipped=precopy_pages + final_round,
            mpt=mpt,
            hpt=hpt,
            residency=residency,
            policy=None,
            page_service=service,
            extra={
                "precopy_duration_s": precopy_duration,
                "precopy_rounds": float(len(rounds) + 1),
                "duplicated_pages": float(precopy_pages + final_round - dirty),
            },
        )
