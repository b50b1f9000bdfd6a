"""The dense page state against a set/dict reference model.

``ResidencyTracker``, ``HomePageTable`` and ``MasterPageTable`` keep one
byte per page plus running counts.  A rule-based state machine drives all
three through every transition, valid and invalid, with vpns past the
initial size, and compares every query against plain sets and dicts after
each step.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import SimulationConfig
from repro.errors import MemoryStateError
from repro.mem.page_table import MasterPageTable, PageLocation
from repro.mem.residency import ResidencyTracker
from repro.migration.base import MigrationContext
from repro.migration.noprefetch import NoPrefetchMigration
from repro.net.network import Network
from repro.sim import Simulator
from repro.workloads.hpcc import hpcc_workload

LOCAL, HOME = PageLocation.LOCAL, PageLocation.HOME
#: Pages of the address space at migration time.
INITIAL_PAGES = 12
#: vpns the rules draw: the initial pages and as many again past them.
VPNS = st.integers(min_value=0, max_value=2 * INITIAL_PAGES - 1)
ARRIVALS = st.one_of(st.floats(min_value=0.0, max_value=2.0), st.just(math.inf))


def _refused(call, message: str) -> None:
    with pytest.raises(MemoryStateError) as exc:
        call()
    assert str(exc.value) == message


class PageStateMachine(RuleBasedStateMachine):
    @initialize(
        absent=st.sets(st.integers(0, INITIAL_PAGES - 1), max_size=3),
        shipped=st.sets(st.integers(0, INITIAL_PAGES - 1), max_size=4),
    )
    def migrate(self, absent, shipped):
        live = set(range(INITIAL_PAGES)) - absent
        local = shipped & live
        self.mpt, self.hpt = MasterPageTable.from_migration(sorted(live), sorted(local))
        self.res = ResidencyTracker.from_mpt(self.mpt)
        # The reference model: what the three tables were as sets and dicts.
        self.loc = {vpn: LOCAL if vpn in local else HOME for vpn in live}
        self.stored = live - local
        self.ledger = {"initial": len(self.stored), "released": 0, "stored": 0, "forfeited": 0}
        self.mapped = set(local)
        self.remote = live - local
        self.buffered: set[int] = set()
        self.in_flight: dict[int, float] = {}
        self.clock = 0.0

    @staticmethod
    def _pick(data, pool):
        """Half the time a vpn from ``pool``, where the transition is
        valid; otherwise any vpn, valid or not."""
        if pool and data.draw(st.booleans()):
            return data.draw(st.sampled_from(sorted(pool)))
        return data.draw(VPNS)

    # -- residency -----------------------------------------------------
    @rule(data=st.data(), arrivals=st.lists(ARRIVALS, min_size=1, max_size=4))
    def fetch(self, data, arrivals):
        # One paging request: a few pages, each with its own arrival.
        for arrival in arrivals:
            vpn = self._pick(data, self.remote)
            if vpn not in self.remote:
                _refused(
                    lambda: self.res.start_fetch(vpn, arrival),
                    f"page {vpn} is not remote; cannot fetch it",
                )
                continue
            self.res.start_fetch(vpn, arrival)
            self.remote.remove(vpn)
            self.in_flight[vpn] = arrival

    @rule(data=st.data(), arrival=ARRIVALS)
    def update_arrival(self, data, arrival):
        vpn = self._pick(data, self.in_flight)
        if vpn not in self.in_flight:
            _refused(
                lambda: self.res.update_arrival(vpn, arrival), f"page {vpn} is not in flight"
            )
            _refused(lambda: self.res.arrival_time(vpn), f"page {vpn} is not in flight")
            return
        self.res.update_arrival(vpn, arrival)
        self.in_flight[vpn] = min(self.in_flight[vpn], arrival)

    @rule(dt=st.floats(min_value=0.0, max_value=3.0))
    def absorb(self, dt):
        self.clock += dt
        arrived = [vpn for vpn, t in self.in_flight.items() if t <= self.clock]
        assert self.res.absorb_arrivals(self.clock) == len(arrived)
        for vpn in arrived:
            del self.in_flight[vpn]
            self.buffered.add(vpn)

    @precondition(lambda self: self.buffered)
    @rule()
    def copy(self):
        assert sorted(self.res.map_buffered()) == sorted(self.buffered)
        self.mapped |= self.buffered
        self.buffered.clear()

    @rule(vpn=VPNS)
    def create(self, vpn):
        if vpn in self.mapped | self.buffered | self.remote or vpn in self.in_flight:
            _refused(
                lambda: self.res.map_created(vpn),
                f"page {vpn} already exists; cannot create it",
            )
            return
        self.res.map_created(vpn)
        self.mapped.add(vpn)

    @rule(data=st.data())
    def unmap(self, data):
        vpn = self._pick(data, self.mapped)
        if vpn not in self.mapped:
            _refused(lambda: self.res.unmap(vpn), f"page {vpn} is not mapped")
            return
        self.res.unmap(vpn)
        self.mapped.remove(vpn)
        self.remote.add(vpn)

    @rule(keep=st.sets(VPNS, max_size=3))
    def write_off(self, keep):
        lost = sorted(
            vpn for vpn, t in self.in_flight.items() if t == math.inf and vpn not in keep
        )
        assert self.res.write_off_lost(keep) == lost
        for vpn in lost:
            del self.in_flight[vpn]
            self.remote.add(vpn)

    @rule(n_pages=st.integers(min_value=0, max_value=3 * INITIAL_PAGES))
    def reserve(self, n_pages):
        self.res.reserve(n_pages)  # room only: no page changes state

    # -- home page table -----------------------------------------------
    def _remove_stored(self, vpn, call, counter):
        if vpn not in self.stored:
            _refused(call, f"page {vpn} is not stored at the origin")
            return
        call()
        self.stored.remove(vpn)
        self.ledger[counter] += 1

    @rule(data=st.data())
    def release(self, data):
        vpn = self._pick(data, self.stored)
        self._remove_stored(vpn, lambda: self.hpt.release(vpn), "released")

    @rule(data=st.data())
    def drop(self, data):
        vpn = self._pick(data, self.stored)
        self._remove_stored(vpn, lambda: self.hpt.drop(vpn), "released")

    @rule(data=st.data())
    def forfeit(self, data):
        vpn = self._pick(data, self.stored)
        self._remove_stored(vpn, lambda: self.hpt.forfeit(vpn), "forfeited")

    @rule(vpn=VPNS)
    def store(self, vpn):
        if vpn in self.stored:
            _refused(lambda: self.hpt.store(vpn), f"page {vpn} is already stored at the origin")
            return
        self.hpt.store(vpn)
        self.stored.add(vpn)
        self.ledger["stored"] += 1

    @rule()
    def forfeit_all(self):
        assert self.hpt.forfeit_all() == sorted(self.stored)
        self.ledger["forfeited"] += len(self.stored)
        self.stored.clear()

    # -- master page table ---------------------------------------------
    def _relocate(self, vpn, location, call, already):
        if vpn not in self.loc:
            _refused(call, f"page {vpn} has no MPT entry")
        elif self.loc[vpn] is location:
            _refused(call, f"page {vpn} is already {already}")
        else:
            call()
            self.loc[vpn] = location

    @rule(data=st.data())
    def mark_local(self, data):
        vpn = self._pick(data, [v for v, at in self.loc.items() if at is HOME])
        self._relocate(vpn, LOCAL, lambda: self.mpt.mark_local(vpn), "local")

    @rule(data=st.data())
    def mark_home(self, data):
        vpn = self._pick(data, [v for v, at in self.loc.items() if at is LOCAL])
        self._relocate(vpn, HOME, lambda: self.mpt.mark_home(vpn), "at home")

    @rule(vpn=VPNS)
    def record_creation(self, vpn):
        if vpn in self.loc:
            _refused(lambda: self.mpt.record_creation(vpn), f"page {vpn} already exists")
            return
        self.mpt.record_creation(vpn)
        self.loc[vpn] = LOCAL

    @rule(data=st.data())
    def record_unmap(self, data):
        vpn = self._pick(data, self.loc)
        def call():
            self.mpt.record_unmap(vpn, self.hpt)

        if vpn not in self.loc:
            _refused(call, f"page {vpn} has no MPT entry")
            return
        if self.loc[vpn] is HOME:
            if vpn not in self.stored:
                _refused(call, f"page {vpn} is not stored at the origin")
                return
            self.stored.remove(vpn)
            self.ledger["released"] += 1
        call()
        del self.loc[vpn]

    # -- every query, after every step ---------------------------------
    @invariant()
    def residency_matches(self):
        res = self.res
        assert res.state_sets() == {
            "mapped": self.mapped,
            "buffered": self.buffered,
            "in_flight": set(self.in_flight),
            "remote": self.remote,
        }
        counts = (len(self.mapped), len(self.buffered), len(self.in_flight), len(self.remote))
        assert (res.n_mapped, res.n_buffered, res.n_in_flight, res.n_remote) == counts
        assert res.total_pages == sum(counts)
        assert res.mapped_pages() == sorted(self.mapped)
        assert res.remote_pages() == sorted(self.remote)
        assert res.remote == frozenset(self.remote)
        assert res.buffered == self.buffered and set(res.in_flight) == set(self.in_flight)
        assert len(res.mapped_flags) == len(res.remote_flags)
        for vpn, t in self.in_flight.items():
            assert res.arrival_time(vpn) == t
        pending = self.mapped | self.buffered | set(self.in_flight)
        for vpn in range(-1, 3 * INITIAL_PAGES):
            assert res.is_mapped(vpn) is (vpn in self.mapped)
            assert res.is_remote(vpn) is (vpn in self.remote)
            assert res.is_local_or_pending(vpn) is (vpn in pending)

    @invariant()
    def home_page_table_matches(self):
        hpt = self.hpt
        assert hpt.pages == frozenset(self.stored)
        assert len(hpt) == len(self.stored)
        assert (
            hpt.initial_pages,
            hpt.released_total,
            hpt.stored_total,
            hpt.forfeited_total,
        ) == tuple(self.ledger.values())
        for vpn in range(-1, 3 * INITIAL_PAGES):
            assert (vpn in hpt) is (vpn in self.stored)

    @invariant()
    def master_page_table_matches(self):
        mpt = self.mpt
        assert len(mpt) == len(self.loc)
        assert mpt.size_bytes == len(self.loc) * mpt.entry_bytes
        for location in (LOCAL, HOME):
            expected = {vpn for vpn, at in self.loc.items() if at is location}
            assert mpt.pages_at(location) == frozenset(expected)
        for vpn in range(-1, 3 * INITIAL_PAGES):
            assert (vpn in mpt) is (vpn in self.loc)
            if vpn in self.loc:
                assert mpt.location(vpn) is self.loc[vpn]
            else:
                _refused(lambda: mpt.location(vpn), f"page {vpn} has no MPT entry")


PageStateMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=50)
test_page_state_matches_the_set_model = PageStateMachine.TestCase


def test_negative_vpns_are_refused():
    res = ResidencyTracker(remote_pages=[1], mapped_pages=[0])
    _refused(lambda: res.map_created(-1), "page -1 is not a valid page number")
    _refused(lambda: res.start_fetch(-1, 1.0), "page -1 is not remote; cannot fetch it")
    _refused(
        lambda: ResidencyTracker(remote_pages=[-3]), "page -3 is not a valid page number"
    )
    mpt, hpt = MasterPageTable.from_migration(range(4), [0])
    _refused(lambda: mpt.record_creation(-2), "page -2 is not a valid page number")
    _refused(lambda: hpt.store(-2), "page -2 is not a valid page number")
    _refused(lambda: hpt.release(-1), "page -1 is not stored at the origin")


def test_paper_scale_page_state_costs_under_a_megabyte():
    """A paper-scale STREAM-575 migration's page state — dirty map, MPT,
    HPT and residency for 147,281 pages — fits in one byte per page per
    table.  As Python sets and dicts it took 36 MB."""
    config = SimulationConfig()
    workload = hpcc_workload("STREAM", 575, scale=1.0)
    sim = Simulator()
    network = Network()
    network.connect("home", "dest", config.network)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        space = workload.setup()
        ctx = MigrationContext(
            sim=sim,
            network=network,
            hardware=config.hardware,
            ampom=config.ampom,
            src="home",
            dst="dest",
            address_space=space,
            premigration_pages=workload.premigration_pages(),
        )
        outcome = NoPrefetchMigration().perform(ctx)
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert space.total_pages == 147_281
    assert outcome.residency.n_remote == space.total_pages - 3
    assert allocated < 1_000_000
