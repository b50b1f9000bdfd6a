"""Tests for the ScenarioRuntime: lifecycle and multi-hop re-migration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import (
    FILE_SERVER,
    HOME,
    MigrantSpec,
    NodeGraph,
    ScenarioSpec,
    build_preset,
    two_node_spec,
)
from repro.config import CheckSpec, FaultSpec, NodeFaultSpec, SimulationConfig
from repro.errors import MigrationError, SimulationError
from repro.migration.ampom import AmpomMigration
from repro.migration.ffa import FfaMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.migration.openmosix import OpenMosixMigration
from repro.units import mib
from repro.workloads.synthetic import SequentialWorkload

CHECKED = SimulationConfig(checks=CheckSpec(enabled=True))


def _three_hop_spec(strategy, config=CHECKED, hop_delay=0.02, faults=None):
    nodes = [HOME, "n1", "n2"]
    if isinstance(strategy, FfaMigration):
        nodes.append(FILE_SERVER)
    if faults is not None:
        config = config.with_(faults=faults)
    return ScenarioSpec(
        graph=NodeGraph(tuple(nodes)),
        migrants=(
            MigrantSpec(
                workload=SequentialWorkload(mib(1), sweeps=2),
                strategy=strategy,
                path=(HOME, "n1", "n2"),
                hop_delays=(hop_delay,),
            ),
        ),
        config=config,
    )


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_runtime_single_use():
    runtime = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1)), AmpomMigration())
    )
    runtime.execute()
    with pytest.raises(MigrationError):
        runtime.execute()
    runtime2 = ScenarioRuntime(
        two_node_spec(SequentialWorkload(mib(1)), AmpomMigration())
    )
    runtime2.measure_freeze()
    with pytest.raises(MigrationError):
        runtime2.execute()


# ----------------------------------------------------------------------
# multi-hop re-migration (section 3.2)
# ----------------------------------------------------------------------
def test_three_hop_residency_conservation_and_transit_deputy():
    runtime = ScenarioRuntime(_three_hop_spec(AmpomMigration()))
    result = runtime.execute()[0]
    assert result.extra["hops"] == 2.0

    outcome = runtime.outcomes[0]
    service = outcome.page_service
    # Home deputy + one transit deputy on n1.
    assert len(service.deputies) == 2
    home_deputy, transit = service.deputies

    # The transit deputy drained pages to n2 (demand + prefetch routing).
    assert transit.pages_served > 0
    transit.audit_ledger()
    home_deputy.audit_ledger()

    # Home-dependency forwarding: the home deputy's replies now flow
    # directly to the final node, not through n1.
    assert home_deputy.reply_channel is runtime.cluster.network.direction(
        HOME, "n2"
    )

    # Residency conservation: every page is in exactly one state, and on a
    # clean run every remote page is stored by exactly the deputy chain.
    res = outcome.residency
    sets = res.state_sets()
    assert sum(len(s) for s in sets.values()) == res.total_pages
    names = list(sets)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not (sets[a] & sets[b])
    hpt_union = home_deputy.hpt.pages | transit.hpt.pages
    assert sets["remote"] <= hpt_union
    assert hpt_union <= sets["remote"] | sets["in_flight"]

    checker = runtime.checkers[0]
    assert checker is not None and checker.deep_audits > 0


@pytest.mark.parametrize(
    "strategy_cls",
    (AmpomMigration, OpenMosixMigration, NoPrefetchMigration, FfaMigration),
    ids=("AMPoM", "openMosix", "NoPrefetch", "FFA"),
)
def test_three_hop_completes_under_every_scheme(strategy_cls):
    # A short first leg: openMosix's whole run takes ~0.01 s after its freeze.
    runtime = ScenarioRuntime(_three_hop_spec(strategy_cls(), hop_delay=0.001))
    result = runtime.execute()[0]
    assert result.extra["hops"] == 2.0
    service = runtime.outcomes[0].page_service
    assert service.deputy.reply_channel is runtime.cluster.network.direction(HOME, "n2")
    assert result.total_time == pytest.approx(
        result.freeze_time + result.run_time
    )
    checker = runtime.checkers[0]
    assert checker is not None and checker.deep_audits > 0


@pytest.mark.parametrize(
    "strategy_cls",
    (AmpomMigration, OpenMosixMigration, NoPrefetchMigration, FfaMigration),
    ids=("AMPoM", "openMosix", "NoPrefetch", "FFA"),
)
def test_trace_ending_before_its_hop_reports_one_hop(strategy_cls):
    """``hops`` counts the hops taken, not the route's length: a migrant
    whose trace ends before the re-hop deadline stays on n1."""
    runtime = ScenarioRuntime(_three_hop_spec(strategy_cls(), hop_delay=1000.0))
    result = runtime.execute()[0]
    assert result.extra["hops"] == 1.0
    service = runtime.outcomes[0].page_service
    assert service.deputy.reply_channel is runtime.cluster.network.direction(HOME, "n1")


@pytest.mark.parametrize(
    ("preset", "scale", "window", "extra"),
    (
        # Home dies before the first freeze: killed at home, zero hops.
        ("pair", 1 / 32, ("home", 0.0, 10.0), {"killed": 1.0, "hops": 0.0}),
        # n2 dies after the re-hop: killed there, after both hops.
        (
            "three-hop", 1 / 16, ("n2", 0.6, 10.0),
            {
                "mpt_bytes": 11532.0, "mpt_install_s": 0.005766,
                "transit_pages": 690.0, "killed": 1.0, "hops": 2.0,
            },
        ),
    ),
    ids=("pair-home-down", "three-hop-n2-down"),
)
def test_killed_migrant_reports_the_hops_it_took(preset, scale, window, extra):
    """A kill ends the journey where it stands: ``hops`` counts the hops
    taken, by the same rule as a completed run (a two-node route that
    migrated reports none)."""
    spec = build_preset(preset, "AMPoM", scale=scale)
    spec.config = spec.config.with_(node_faults=NodeFaultSpec(crash_windows=(window,)))
    runtime = ScenarioRuntime(spec)
    (result,) = runtime.execute()
    assert runtime.node_stats.kills == 1
    assert result.extra == extra


@pytest.mark.parametrize(
    ("strategy_cls", "transit"),
    ((AmpomMigration, 1), (NoPrefetchMigration, 1), (OpenMosixMigration, 0), (FfaMigration, 0)),
    ids=("AMPoM", "NoPrefetch", "openMosix", "FFA"),
)
def test_rehop_keeps_the_first_page_service(strategy_cls, transit):
    """A re-hop rewires the page service the first migration built
    instead of replacing it; only AMPoM and NoPrefetch chain a transit
    deputy behind the home deputy."""
    strategy = strategy_cls()
    built = []
    perform = strategy.perform

    def recording_perform(ctx):
        outcome = perform(ctx)
        built.append(outcome.page_service)
        return outcome

    strategy.perform = recording_perform
    # A short first leg: openMosix's whole run takes ~0.01 s after its freeze.
    runtime = ScenarioRuntime(_three_hop_spec(strategy, hop_delay=0.001))
    runtime.execute()
    service = runtime.outcomes[0].page_service
    assert len(built) == 1 and built[0] is service
    assert [node for node, _ in service.transit_routes()] == ["n1"] * transit
    assert len(service.deputies) == 1 + transit
    assert service.deputy.reply_channel is runtime.cluster.network.direction(HOME, "n2")


def test_three_hop_lossy_links():
    faults = FaultSpec(
        loss_rate=0.05, duplicate_rate=0.02, delay_rate=0.1, delay_s=0.005
    )
    config = SimulationConfig(seed=7, checks=CheckSpec(enabled=True))
    runtime = ScenarioRuntime(
        _three_hop_spec(AmpomMigration(), config=config, faults=faults)
    )
    result = runtime.execute()[0]
    assert result.extra["hops"] == 2.0
    c = result.counters
    # The injected faults actually bit: something was dropped and recovered.
    assert c.messages_dropped > 0
    assert c.retransmits + c.prefetch_writeoffs > 0
    # The deputy-chain ledgers still balance under loss.
    for deputy in runtime.outcomes[0].page_service.deputies:
        deputy.audit_ledger()
    checker = runtime.checkers[0]
    assert checker is not None and checker.deep_audits > 0


def test_lossy_rehop_infinite_freeze_raises_instead_of_hanging():
    """A re-hop freeze whose transfer was dropped arrives at ``inf``; the
    migrant must fail fast on that delay rather than spin the event budget
    (freeze transfers are not retransmitted yet)."""
    spec = dataclasses.replace(
        build_preset("three-hop-lossy", scheme="AMPoM", seed=2), max_events=250_000
    )
    with pytest.raises(SimulationError, match="finite") as err:
        ScenarioRuntime(spec).execute()
    assert "max_events" not in str(err.value)


def test_three_hop_is_deterministic():
    first = ScenarioRuntime(_three_hop_spec(AmpomMigration())).execute()[0]
    second = ScenarioRuntime(_three_hop_spec(AmpomMigration())).execute()[0]
    assert first.to_dict() == second.to_dict()
