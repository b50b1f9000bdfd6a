"""Roush & Campbell's original Freeze-Free Algorithm (related work).

Paper section 2.1 / figure 2 (middle): FFA ships the current heap, code,
and stack page during the freeze; afterwards the origin pushes the
remaining stack pages to the migrant and *flushes all dirty pages to a
file server*; the migrant's page faults are then served by the file
server.  A fault for a page that has not been flushed yet must wait for
its flush to complete — the price of freeing the origin node early.

System calls still go to the origin's deputy (the home dependency is an
openMosix property, not an FFA one, but we keep it for comparability).
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

from ..errors import MemoryStateError, MigrationError
from ..mem.flags import flagged
from ..mem.page_table import HomePageTable, MasterPageTable
from ..mem.residency import ResidencyTracker
from ..net.link import Direction
from ..node.deputy import Deputy
from ..workloads.base import Syscall
from .base import (
    PAGE_ID_BYTES,
    REQUEST_HEADER_BYTES,
    MigrationContext,
    MigrationOutcome,
    MigrationStrategy,
)


class FileServerPageService:
    """Serves faults from the file server, honouring flush completion.

    ``flush_times`` holds, per page, the moment its copy reaches the file
    server (NaN while the server holds no copy); a request for the page
    cannot be answered earlier, and serving it takes the copy.
    """

    def __init__(
        self,
        request_channel: Direction,
        reply_channel: Direction,
        flush_times: array,
        page_size: int,
        server_page_time: float,
        deputy_request_channel: Direction,
        deputy: Deputy,
        paging_overhead_bytes: int = 0,
    ) -> None:
        self.request_channel = request_channel
        self.reply_channel = reply_channel
        self.flush_times = flush_times
        self.page_size = page_size
        self.server_page_time = server_page_time
        self.paging_overhead_bytes = paging_overhead_bytes
        self.deputy_request_channel = deputy_request_channel
        self.deputy = deputy
        self.server_busy_until = 0.0
        self.pages_served = 0
        #: FFA never chains deputies, so none ever dies with its host.
        self.dead_deputies: list[Deputy] = []

    @property
    def deputies(self) -> list[Deputy]:
        """The lone home deputy (system calls only)."""
        return [self.deputy]

    @property
    def wire_channels(self) -> set[Direction]:
        """The file-server request channel and the deputy's reply channel."""
        return {self.request_channel, self.deputy.reply_channel}

    def transit_routes(self) -> list[tuple[str, float]]:
        """None: the file server, not a transit deputy, backs every page."""
        return []

    def request(
        self, demand: Sequence[int], prefetch: Sequence[int], now: float
    ) -> dict[int, float]:
        pages = list(demand) + list(prefetch)
        if not pages:
            raise MigrationError("paging request without any page")
        payload = REQUEST_HEADER_BYTES + PAGE_ID_BYTES * len(pages)
        request_arrival = self.request_channel.transfer(payload, now)
        arrivals: dict[int, float] = {}
        clock = max(request_arrival, self.server_busy_until)
        times = self.flush_times
        for vpn in pages:
            flushed_at = times[vpn] if 0 <= vpn < len(times) else math.nan
            if math.isnan(flushed_at):
                raise MemoryStateError(f"page {vpn} is not stored on the file server")
            times[vpn] = math.nan
            clock = max(clock, flushed_at) + self.server_page_time
            arrivals[vpn] = self.reply_channel.transfer(
                self.page_size + self.paging_overhead_bytes, clock
            )
            self.pages_served += 1
        self.server_busy_until = clock
        return arrivals

    def store_writeback(self, vpn: int, available_at: float) -> None:
        """Accept a page written to the file server: an evicted dirty page,
        or a resident page a re-hop flushes.

        The file server is FFA's backing store: once the write-back lands
        the page is requestable again, like any flushed page.
        """
        times = self.flush_times
        if vpn >= len(times):
            times.extend([math.nan] * (vpn + 1 - len(times)))
        times[vpn] = available_at

    def forward_syscall(self, syscall: Syscall, now: float) -> float:
        request_arrival = self.deputy_request_channel.transfer(REQUEST_HEADER_BYTES + 64, now)
        return self.deputy.serve_syscall(
            request_arrival, syscall.service_time, syscall.reply_bytes
        )


class FfaMigration(MigrationStrategy):
    name = "FFA"

    def perform(self, ctx: MigrationContext) -> MigrationOutcome:
        if ctx.file_server is None:
            raise MigrationError("FFA needs ctx.file_server (a third node)")
        now = ctx.sim.now
        hw = ctx.hardware
        to_dst = ctx.network.direction(ctx.src, ctx.dst)
        to_fs = ctx.network.direction(ctx.src, ctx.file_server)
        existing = ctx.existing_pages()
        trio = [vpn for vpn in ctx.freeze_trio() if vpn in existing]
        freeze_time, payload = self._ship_trio(ctx, trio)

        # Post-freeze background work at the origin:
        # 1. push the remaining stack pages straight to the migrant;
        stack = ctx.address_space.stack
        stack_rest = [
            vpn
            for vpn in range(stack.start_page, stack.end_page)
            if vpn in existing and vpn not in trio
        ]
        pushed: dict[int, float] = {}
        for vpn in stack_rest:
            pushed[vpn] = to_dst.transfer_page(hw.page_size, now + freeze_time)
        # 2. flush every remaining dirty page to the file server, in page
        #    order, starting when the freeze ends.
        shipped = {*trio, *stack_rest}
        dirty = ctx.dirty_flags()
        for vpn in shipped:
            dirty[vpn] = 0
        flush_order = flagged(dirty)
        flush_times = array("d", [math.nan]) * ctx.address_space.total_pages
        flush_complete = now + freeze_time
        for vpn in flush_order:
            # The FIFO channel serializes the flush stream by itself.
            flushed_at = to_fs.transfer_page(hw.page_size, now + freeze_time)
            flush_times[vpn] = flushed_at
            flush_complete = max(flush_complete, flushed_at)
        # Clean pages (code) come from the file server immediately.
        clean = [vpn for vpn in existing if not dirty[vpn] and vpn not in shipped]
        for vpn in clean:
            flush_times[vpn] = now + freeze_time

        mpt, hpt = MasterPageTable.from_migration(
            existing, trio, entry_bytes=hw.mpt_entry_bytes
        )
        residency = ResidencyTracker.from_mpt(mpt)
        # Pushed stack pages arrive unbidden; model them as in flight.
        for vpn, t in pushed.items():
            residency.start_fetch(vpn, t)
            hpt.release(vpn)
        # The origin hands everything else to the file server.
        for vpn in flush_order:
            hpt.release(vpn)
        for vpn in clean:
            hpt.release(vpn)

        deputy = Deputy(hpt, to_dst, hw)
        service = FileServerPageService(
            request_channel=ctx.network.direction(ctx.dst, ctx.file_server),
            reply_channel=ctx.network.direction(ctx.file_server, ctx.dst),
            flush_times=flush_times,
            page_size=hw.page_size,
            server_page_time=hw.deputy_page_time,
            deputy_request_channel=ctx.network.direction(ctx.dst, ctx.src),
            deputy=deputy,
            paging_overhead_bytes=hw.remote_paging_overhead_bytes,
        )
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
            extra={
                "flush_complete_s": flush_complete - now,
                "flushed_pages": float(len(flush_order)),
            },
        )

    def rehop(self, ctx: MigrationContext, outcome: MigrationOutcome) -> None:
        """Re-migrate: ship the trio, flush every other resident page back
        to the file server, and rebind the paging/syscall channels to the
        new destination.  FFA leaves no transit deputy — the file server,
        not the intermediate node, is the backing store."""
        self._guard_rehop(ctx)
        if ctx.file_server is None:
            raise MigrationError("FFA needs ctx.file_server (a third node)")
        now = ctx.sim.now
        hw = ctx.hardware
        to_fs = ctx.network.direction(ctx.src, ctx.file_server)
        res = outcome.residency
        service = outcome.page_service
        trio = [vpn for vpn in ctx.freeze_trio() if res.is_mapped(vpn)]
        freeze_time, payload = self._ship_trio(ctx, trio)

        # Flush everything else (dirty by construction) to the file
        # server, in page order, starting when the freeze ends.
        rest = [vpn for vpn in res.mapped_pages() if vpn not in trio]
        for vpn in rest:
            res.unmap(vpn)
            outcome.mpt.mark_home(vpn)
            service.store_writeback(vpn, to_fs.transfer_page(hw.page_size, now + freeze_time))

        home = ctx.home or ctx.src
        service.request_channel = ctx.network.direction(ctx.dst, ctx.file_server)
        service.reply_channel = ctx.network.direction(ctx.file_server, ctx.dst)
        service.deputy_request_channel = ctx.network.direction(ctx.dst, home)
        service.deputy.rebind(ctx.network.direction(home, ctx.dst))

        outcome.freeze_time = freeze_time
        outcome.bytes_transferred = payload
        outcome.pages_shipped = len(trio)
        outcome.extra["flushed_pages"] = outcome.extra.get("flushed_pages", 0.0) + float(
            len(rest)
        )
