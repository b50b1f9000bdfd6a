"""Migration-strategy abstractions.

A :class:`MigrationStrategy` is invoked at the instant migration is
initiated.  It performs the freeze-time transfers on the simulated links,
builds the post-migration memory state (MPT/HPT/residency), and returns a
:class:`MigrationOutcome` whose ``freeze_time`` the runner waits out before
resuming the migrant.

A :class:`PageService` abstracts *who answers page faults afterwards*: the
origin's deputy (openMosix/AMPoM/NoPrefetch) or an FFA file server.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Protocol, Sequence, runtime_checkable

from ..config import AMPoMConfig, HardwareSpec
from ..core.policy import PrefetchPolicy
from ..errors import MigrationError
from ..mem.address_space import AddressSpace
from ..mem.flags import flagged
from ..mem.page_table import HomePageTable, MasterPageTable
from ..mem.residency import ResidencyTracker
from ..net.link import Direction
from ..net.network import Network
from ..node.deputy import Deputy
from ..sim import Simulator
from ..workloads.base import Syscall

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan

#: Wire bytes per page number in a paging-request message.
PAGE_ID_BYTES = 8
#: Fixed header of a paging-request message.
REQUEST_HEADER_BYTES = 16


@runtime_checkable
class PageService(Protocol):
    """Answers remote paging requests and forwarded system calls.

    Under fault injection, an arrival time of ``math.inf`` means "this
    page/reply will never arrive" — the request or its reply was lost.
    Services that additionally expose ``next_seq()`` and accept a ``seq``
    keyword support the reliable retransmission protocol.  The runtime,
    the executor and the invariant checker read the attributes below on
    every service.
    """

    #: The home deputy: owner of the HPT and the system-call path.
    deputy: Deputy
    #: Every live deputy serving the process, home first.
    deputies: list[Deputy]
    #: Deputies whose host crashed (still audited: their HPTs are empty).
    dead_deputies: list[Deputy]
    #: Every request/reply channel the service has used.
    wire_channels: set[Direction]
    #: The migrant -> server request channel (also the write-back path).
    request_channel: Direction
    #: The server -> migrant reply channel.
    reply_channel: Direction

    def transit_routes(self) -> list[tuple[str, float]]:
        """``(node, born)`` of every live transit deputy, chain order."""
        ...  # pragma: no cover

    def request(
        self, demand: Sequence[int], prefetch: Sequence[int], now: float
    ) -> dict[int, float]:
        """Send one paging request; return per-page arrival times."""
        ...  # pragma: no cover

    def forward_syscall(self, syscall: Syscall, now: float) -> float:
        """Forward a system call to the home node; return the reply time."""
        ...  # pragma: no cover


@dataclass(slots=True, eq=False)
class _Route:
    """One deputy a :class:`DeputyPageService` can page from."""

    node: str
    request_channel: Direction
    deputy: Deputy
    #: Simulated time the deputy was created.  Under a NodeFaultPlan a
    #: deputy is permanently dead once its node crashed after ``born``.
    born: float = 0.0

    def send(
        self, demand: Sequence[int], prefetch: Sequence[int], now: float, seq: int | None
    ) -> dict[int, float]:
        """Send one paging request to this deputy; return the arrivals."""
        payload = REQUEST_HEADER_BYTES + PAGE_ID_BYTES * (len(demand) + len(prefetch))
        request_arrival = self.request_channel.transfer(payload, now)
        if math.isinf(request_arrival):
            # The request itself was lost; the deputy never sees it, so
            # from the migrant's view every page is pending forever.
            return {vpn: math.inf for vpn in [*demand, *prefetch]}
        return self.deputy.serve_pages(demand, prefetch, request_arrival, seq=seq)


class DeputyPageService:
    """Pages served by the process's chain of deputies (sections 2.2, 3.2).

    The chain starts with the home deputy, which answers every fault of a
    first migration.  After ``n0 -> n1 -> n2`` the pages are split between
    the home deputy on ``n0`` (pages never fetched) and a transit deputy
    on ``n1`` (pages fetched on the first leg but left behind by the
    second freeze); each request is then split by page ownership, one
    sub-request per owning deputy.  Forwarded system calls always go to
    the home node — the home dependency does not move.  ``move_to``
    rebinds every route when the process hops again.

    Every request may carry a sequence ID (``seq``).  Fresh requests are
    assigned one implicitly; the executor passes an explicit ``seq`` when
    retransmitting so the deputy can recognise the duplicate and replay
    pages it has already released.
    """

    def __init__(self, network: Network, home: str, dst: str, deputy: Deputy) -> None:
        self.network = network
        self.home = home
        self.dst = dst
        request = network.direction(dst, home)
        self._routes: list[_Route] = [_Route(home, request, deputy)]
        self._next_seq = 0
        #: Every request/reply channel this service has ever used; the
        #: executor folds their wire fault counters at end of run.
        self.wire_channels: set[Direction] = {request, deputy.reply_channel}
        #: Transit deputies removed by :meth:`repair_route` (their ledgers
        #: are still audited at end of run: empty HPT, forfeits counted).
        self.dead_deputies: list[Deputy] = []

    # -- introspection used by the executor/checker/runner --------------
    @property
    def deputy(self) -> Deputy:
        """The home deputy (owner of the HPT and the syscall path)."""
        return self._routes[0].deputy

    @property
    def deputies(self) -> list[Deputy]:
        """Every deputy in the chain, home first."""
        return [route.deputy for route in self._routes]

    @property
    def request_channel(self) -> Direction:
        """The migrant -> home request channel (writeback/monitor path)."""
        return self._routes[0].request_channel

    @property
    def reply_channel(self) -> Direction:
        """The home -> migrant reply channel."""
        return self._routes[0].deputy.reply_channel

    def next_seq(self) -> int:
        """Allocate a fresh request sequence ID."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- topology updates ------------------------------------------------
    def add_route(self, node: str, deputy: Deputy, born: float = 0.0) -> None:
        """Chain a transit deputy left behind on ``node``."""
        request = self.network.direction(self.dst, node)
        self._routes.append(_Route(node, request, deputy, born=born))
        self.wire_channels.add(request)
        self.wire_channels.add(deputy.reply_channel)

    def transit_routes(self) -> list[tuple[str, float]]:
        """``(node, born)`` of every live transit deputy, chain order.

        The scenario runtime scans this against its
        :class:`repro.faults.NodeFaultPlan` to find routes whose host
        crashed since the deputy was created.
        """
        return [(route.node, route.born) for route in self._routes[1:]]

    def repair_route(self, node: str, now: float) -> list[int]:
        """Chain repair: the transit deputy on ``node`` died with its host.

        Its unserved pages are forfeited from the dead HPT and re-created
        on the *home* deputy's HPT — the home node always still has the
        data (openMosix's home dependency), so surviving deputies can
        re-source what the dead one held.  The home deputy's clock is
        charged for the re-sourcing work, the dead route is dropped (later
        retransmissions re-route to home via ``_owner``), and the re-homed
        pages are returned for logging.
        """
        if node == self.home:
            raise MigrationError(
                "the home route cannot be repaired; a home-node crash kills "
                "the process (openMosix home dependency)"
            )
        for i, route in enumerate(self._routes):
            if i > 0 and route.node == node:
                break
        else:
            raise MigrationError(f"no transit route through {node!r} to repair")
        dead = self._routes.pop(i)
        lost = dead.deputy.hpt.forfeit_all()
        home = self._routes[0]
        for vpn in lost:
            home.deputy.hpt.store(vpn)
        hw = home.deputy.hardware
        cost = hw.deputy_request_time + len(lost) * hw.deputy_page_time
        home.deputy.busy_until = max(home.deputy.busy_until, now) + cost
        self.dead_deputies.append(dead.deputy)
        return lost

    def move_to(self, dst: str) -> None:
        """Rebind every route for a migrant now living on ``dst``."""
        self.dst = dst
        for route in self._routes:
            route.request_channel = self.network.direction(dst, route.node)
            route.deputy.rebind(self.network.direction(route.node, dst))
            self.wire_channels.add(route.request_channel)
            self.wire_channels.add(route.deputy.reply_channel)

    # -- the PageService surface ----------------------------------------
    def _owner(self, vpn: int) -> _Route:
        for route in self._routes:
            if vpn in route.deputy.hpt:
                return route
        for route in self._routes:
            if route.deputy.holds_replay(vpn):
                return route
        # Let the home deputy raise the canonical "origin no longer
        # stores it" error for a truly unknown page.
        return self._routes[0]

    def request(
        self, demand: Sequence[int], prefetch: Sequence[int], now: float, seq: int | None = None
    ) -> dict[int, float]:
        if len(demand) + len(prefetch) == 0:
            raise MigrationError("paging request without any page")
        routes = self._routes
        if len(routes) == 1:
            return routes[0].send(demand, prefetch, now, seq)
        owner = {vpn: self._owner(vpn) for vpn in [*demand, *prefetch]}
        arrivals: dict[int, float] = {}
        for route in routes:
            d = [vpn for vpn in demand if owner[vpn] is route]
            p = [vpn for vpn in prefetch if owner[vpn] is route]
            if d or p:
                arrivals.update(route.send(d, p, now, seq))
        return arrivals

    def forward_syscall(
        self, syscall: Syscall, now: float, seq: int | None = None
    ) -> float:
        home = self._routes[0]
        request_arrival = home.request_channel.transfer(REQUEST_HEADER_BYTES + 64, now)
        return home.deputy.serve_syscall(
            request_arrival, syscall.service_time, syscall.reply_bytes, seq=seq
        )


@dataclass(slots=True)
class MigrationContext:
    """Everything a strategy needs to perform a migration now.

    ``premigration_pages`` restricts which pages exist at migration time
    (``None`` = the whole address space); pages outside it are created by
    the migrant on first touch.
    """

    sim: Simulator
    network: Network
    hardware: HardwareSpec
    ampom: AMPoMConfig
    src: str
    dst: str
    address_space: AddressSpace
    premigration_pages: set[int] | None = None
    #: Name of the file-server node (FFA only).
    file_server: str | None = None
    #: Fault schedule of this run (None = perfect network/nodes).
    fault_plan: "FaultPlan | None" = None
    #: The migrant's home node (where the deputy stays).  ``None`` means
    #: ``src`` *is* the home node — true for every first migration.
    home: str | None = None
    #: Prefetch-policy name requested by the migrant spec or the
    #: simulation config (``None`` = the strategy's own default).  A name
    #: set directly on the strategy instance wins over this field.
    prefetch_policy: str | None = None

    def existing_pages(self) -> Collection[int]:
        """Every page that exists at migration time (read-only)."""
        if self.premigration_pages is not None:
            return self.premigration_pages
        return range(self.address_space.total_pages)

    def dirty_flags(self) -> bytearray:
        """One byte per page of the address space, 1 for every dirty page
        that exists at migration time."""
        dirty = self.address_space.dirty_flags()
        existing = self.premigration_pages
        if existing is not None:
            for vpn in flagged(dirty):
                if vpn not in existing:
                    dirty[vpn] = 0
        return dirty

    def freeze_trio(self) -> tuple[int, int, int]:
        """The currently-accessed code, data, and stack pages."""
        return self.address_space.currently_accessed_pages()


@dataclass(slots=True)
class MigrationOutcome:
    """Post-freeze state handed to the migrant executor."""

    strategy: str
    freeze_time: float
    bytes_transferred: int
    pages_shipped: int
    mpt: MasterPageTable
    hpt: HomePageTable
    residency: ResidencyTracker
    policy: PrefetchPolicy | None
    page_service: PageService
    extra: dict[str, float] = field(default_factory=dict)


class MigrationStrategy(abc.ABC):
    """Base class for migration mechanisms.

    ``prefetch_policy`` names an entry of
    :data:`repro.core.policy.POLICIES` and overrides the scheme's
    default remote-paging policy, making scheme x policy an orthogonal
    grid.  Strategies that perform no remote paging (openMosix) reject
    it.
    """

    #: Scheme name as used in the paper's figures.
    name: str = "strategy"
    #: Class-level default so subclasses with bespoke ``__init__``s that
    #: predate the policy parameter still expose the attribute.
    prefetch_policy: str | None = None

    def __init__(self, prefetch_policy: str | None = None) -> None:
        self.prefetch_policy = prefetch_policy

    @abc.abstractmethod
    def perform(self, ctx: MigrationContext) -> MigrationOutcome:
        """Execute the freeze-time protocol at ``ctx.sim.now``."""

    def _resolve_policy(self, ctx: MigrationContext, default: str):
        """The policy this migration runs: the strategy's own
        ``prefetch_policy`` if set, else the context's (migrant spec or
        config), else the scheme ``default`` — resolved through the
        policy registry."""
        from ..core.policy import make_prefetch_policy

        name = self.prefetch_policy or ctx.prefetch_policy or default
        return make_prefetch_policy(name, ctx)

    def rehop(self, ctx: MigrationContext, outcome: MigrationOutcome) -> None:
        """Re-migrate an already-migrated (and quiesced) process from
        ``ctx.src`` to ``ctx.dst``, mutating ``outcome`` in place.

        Strategies that support multi-hop paths override this; the
        contract is: set ``outcome.freeze_time`` / ``bytes_transferred`` /
        ``pages_shipped`` to this *hop's* values (the executor accumulates
        them across legs), update residency/MPT for any pages left
        behind, and rewire ``outcome.page_service`` for the new
        destination (see :meth:`DeputyPageService.move_to`).
        """
        raise MigrationError(f"{self.name} does not support re-migration")

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _guard_rehop(ctx: MigrationContext) -> None:
        if ctx.dst == (ctx.home or ctx.src):
            raise MigrationError("re-migration back to the home node is not supported")

    @staticmethod
    def _leave_transit_deputy(
        ctx: MigrationContext, outcome: MigrationOutcome, trio: Sequence[int]
    ) -> None:
        """Point the deputy chain at ``ctx.dst`` and unmap every resident
        page but the shipped ``trio`` onto a new deputy on ``ctx.src``.

        These pages were resident on the intermediate node but are not
        re-shipped during the hop's freeze; the node keeps them and serves
        them remotely — deputy chaining per paper section 3.2.
        """
        shipped = set(trio)
        transit = [vpn for vpn in outcome.residency.mapped_pages() if vpn not in shipped]
        extra = outcome.extra
        extra["transit_pages"] = extra.get("transit_pages", 0.0) + float(len(transit))
        service = outcome.page_service
        service.move_to(ctx.dst)
        if not transit:
            return
        for vpn in transit:
            outcome.residency.unmap(vpn)
            outcome.mpt.mark_home(vpn)
        hpt = HomePageTable(transit)
        deputy = Deputy(
            hpt,
            ctx.network.direction(ctx.src, ctx.dst),
            ctx.hardware,
            fault_plan=ctx.fault_plan,
        )
        service.add_route(ctx.src, deputy, born=ctx.sim.now)

    @staticmethod
    def _state_transfer(ctx: MigrationContext) -> float:
        """Ship registers/PCB state; returns its arrival time."""
        channel = ctx.network.direction(ctx.src, ctx.dst)
        return channel.transfer(4096, ctx.sim.now)

    @staticmethod
    def _ship_trio(ctx: MigrationContext, trio: Sequence[int]) -> tuple[float, int]:
        """Ship the state, then the trio page by page: the freeze ends at
        the last trio arrival.  Returns the freeze time and the payload."""
        now = ctx.sim.now
        hw = ctx.hardware
        channel = ctx.network.direction(ctx.src, ctx.dst)
        MigrationStrategy._state_transfer(ctx)
        arrival = now
        payload = 0
        for _vpn in trio:
            arrival = channel.transfer_page(hw.page_size, ctx.sim.now)
            payload += hw.page_size + channel.per_page_overhead_bytes
        return hw.migration_setup_time + (arrival - now), payload

    @staticmethod
    def _make_deputy_service(ctx: MigrationContext, hpt: HomePageTable) -> DeputyPageService:
        """The deputy chain of a first migration: one deputy on ``ctx.src``,
        the home node, serving ``hpt``."""
        reply = ctx.network.direction(ctx.src, ctx.dst)
        deputy = Deputy(hpt, reply, ctx.hardware, fault_plan=ctx.fault_plan)
        return DeputyPageService(ctx.network, ctx.src, ctx.dst, deputy)
