"""The golden-trace harness: record/diff roundtrip, drift detection, and
the committed traces themselves."""

from __future__ import annotations

import json

import pytest

from repro.check.golden import (
    DEFAULT_GOLDEN_DIR,
    SCENARIOS,
    GoldenScenario,
    diff_scenarios,
    record_scenarios,
    run_scenario,
)

# One fast clean scenario and one fast faulty scenario cover the harness
# mechanics without re-running the full matrix in unit tests.
FAST = (SCENARIOS[0], SCENARIOS[6])


def test_scenario_matrix_shape():
    names = [s.name for s in SCENARIOS]
    assert len(names) == len(set(names)), "scenario names must be unique"
    schemes = {s.scheme for s in SCENARIOS}
    assert {"AMPoM", "NoPrefetch", "openMosix"} <= schemes
    assert any(s.faults.active for s in SCENARIOS), "matrix must cover fault injection"
    assert any(s.node_faults.active for s in SCENARIOS), "matrix must cover node crashes"
    # Every scheme that can re-migrate pins its re-hop on a multi-hop path.
    multi_hop = {s.scheme for s in SCENARIOS if len(s.path) > 2}
    assert {"AMPoM", "NoPrefetch", "openMosix", "FFA"} <= multi_hop


@pytest.mark.parametrize(
    ("name", "counts", "events"),
    [
        (
            "three_hop_ampom_node_recovery",
            {"migration_aborts": 2, "chain_repairs": 1, "pages_rehomed": 432, "kills": 0},
            {"migration_abort", "chain_repair"},
        ),
        (
            "three_hop_ampom_home_kill",
            {"migration_aborts": 1, "chain_repairs": 0, "kills": 1},
            {"migration_abort", "kill"},
        ),
    ],
)
def test_node_fault_scenarios_pin_the_recovery_lifecycle(name, counts, events):
    """Node-fault scenarios carry their crash windows in the header and the
    reliability counters plus the fault schedule in the footer; no other
    scenario's header gains the key."""
    scenario = next(s for s in SCENARIOS if s.name == name)
    lines = run_scenario(scenario)
    header = json.loads(lines[0])
    assert header["node_crash_windows"] == [
        list(w) for w in scenario.node_faults.crash_windows
    ]
    footer = json.loads(lines[-1])
    for key, value in counts.items():
        assert footer["reliability"][key] == value
    assert events <= {kind for _, kind, _, _ in footer["fault_events"]}
    assert "node_crash_windows" not in SCENARIOS[0].header()


def test_trace_is_deterministic():
    assert run_scenario(FAST[0]) == run_scenario(FAST[0])


def test_trace_structure():
    lines = run_scenario(FAST[0])
    header = json.loads(lines[0])
    assert header["scenario"] == FAST[0].name
    assert header["kernel"] == FAST[0].kernel
    footer = json.loads(lines[-1])
    assert footer["run_time_s"] > 0
    assert "counters" in footer and "budget" in footer
    for line in lines[1:-1]:
        event = json.loads(line)
        assert set(event) == {"t", "vpn", "kind", "prefetched", "stall"}
    # Fault times are non-decreasing.
    times = [json.loads(line)["t"] for line in lines[1:-1]]
    assert times == sorted(times)


def test_record_then_diff_roundtrip(tmp_path):
    written = record_scenarios(tmp_path, FAST)
    assert [p.name for p in written] == [f"{s.name}.jsonl" for s in FAST]
    assert diff_scenarios(tmp_path, FAST) == []


def test_diff_reports_field_level_drift(tmp_path):
    record_scenarios(tmp_path, FAST[:1])
    path = tmp_path / f"{FAST[0].name}.jsonl"
    lines = path.read_text().splitlines()
    event = json.loads(lines[1])
    event["vpn"] += 1  # a single reordered page
    lines[1] = json.dumps(event, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")

    divergences = diff_scenarios(tmp_path, FAST[:1])
    assert len(divergences) == 1
    d = divergences[0]
    assert d.scenario == FAST[0].name
    assert d.line == 2
    assert "'vpn'" in d.reason


def test_diff_reports_length_drift(tmp_path):
    record_scenarios(tmp_path, FAST[:1])
    path = tmp_path / f"{FAST[0].name}.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer only

    divergences = diff_scenarios(tmp_path, FAST[:1])
    assert len(divergences) == 1
    assert "length changed" in divergences[0].reason


def test_diff_reports_missing_golden(tmp_path):
    divergences = diff_scenarios(tmp_path, FAST[:1])
    assert len(divergences) == 1
    assert "missing" in divergences[0].reason


def test_committed_traces_match():
    """The committed tests/golden/ files reflect current behavior.

    This is the same check CI runs via ``repro check diff``; a failure
    here means behavior drifted — refresh the traces with
    ``repro check record`` only if the drift is intentional.
    """
    golden = DEFAULT_GOLDEN_DIR
    if not golden.is_dir():  # running from an unusual cwd
        pytest.skip("tests/golden not found relative to cwd")
    divergences = diff_scenarios(golden)
    assert divergences == [], "\n".join(str(d) for d in divergences)


@pytest.mark.parametrize("scenario", FAST, ids=[s.name for s in FAST])
def test_tracing_does_not_perturb_scenario(scenario):
    """A traced run serializes byte-identically to an untraced one."""
    from repro.obs import Observability

    obs = Observability.enabled()
    assert run_scenario(scenario, obs=obs) == run_scenario(scenario)
    assert obs.tracer.spans
    assert obs.tracer.open_spans == 0


def test_trace_golden_cli_gate(tmp_path, capsys):
    """`repro trace golden` passes against a fresh recording and exports."""
    from repro.cli import main

    record_scenarios(tmp_path, FAST[:1])
    out = tmp_path / "trace.json"
    rc = main(
        [
            "trace",
            "golden",
            FAST[0].name,
            "--golden",
            str(tmp_path),
            "--out",
            str(out),
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert "bit-identical" in text
    assert out.exists()


def test_trace_golden_cli_reports_missing(tmp_path, capsys):
    from repro.cli import main

    rc = main(["trace", "golden", FAST[0].name, "--golden", str(tmp_path)])
    assert rc == 1
    assert "missing" in capsys.readouterr().out


def test_scenario_header_roundtrips_faults():
    s = GoldenScenario(
        "x", "DGEMM", 115, "AMPoM", faults=SCENARIOS[6].faults, seed=7
    )
    header = s.header()
    assert header["loss_rate"] == SCENARIOS[6].faults.loss_rate
    assert header["seed"] == 7
