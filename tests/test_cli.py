"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main

SMALL = "0.03125"  # 1/32


def test_run_command(capsys):
    rc = main(
        ["run", "--kernel", "STREAM", "--mb", "115", "--scheme", "AMPoM", "--scale", SMALL]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "freeze time" in out
    assert "fault requests" in out
    assert "AMPoM" in out


def test_run_broadband(capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "RandomAccess",
            "--mb",
            "65",
            "--scheme",
            "NoPrefetch",
            "--scale",
            SMALL,
            "--broadband",
        ]
    )
    assert rc == 0
    assert "NoPrefetch" in capsys.readouterr().out


def test_run_with_capacity(capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--capacity-pages",
            "200",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "pages evicted" in out


def test_run_json_output(capsys):
    import json

    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "AMPoM"
    assert payload["total_time_s"] == pytest.approx(
        payload["freeze_time_s"] + payload["run_time_s"]
    )
    assert "counters" in payload and "budget" in payload


def test_run_with_fault_injection(capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--loss-rate",
            "0.01",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "retransmits" in out
    assert "wasted pages" in out


def test_run_fault_json_carries_reliability_counters(capsys):
    import json

    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--loss-rate",
            "0.01",
            "--retry-timeout-ms",
            "50",
            "--max-retries",
            "8",
            "--json",
        ]
    )
    assert rc == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["messages_dropped"] > 0
    assert counters["retransmits"] > 0
    assert counters["request_timeouts"] > 0


def test_run_json_always_carries_reliability_counters(capsys):
    """Fault-free --json runs report the reliability counters too (as zeros)."""
    import json

    rc = main(
        ["run", "--kernel", "STREAM", "--mb", "115", "--scheme", "AMPoM", "--scale", SMALL, "--json"]
    )
    assert rc == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    for key in (
        "retransmits",
        "request_timeouts",
        "prefetch_writeoffs",
        "deputy_crash_detections",
        "messages_dropped",
        "messages_duplicated",
        "messages_delayed",
    ):
        assert counters[key] == 0


def test_run_with_trace_and_metrics(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--trace",
            str(out),
            "--metrics",
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    assert "stall_s" in text  # metrics report printed


def test_run_json_with_metrics_embeds_summary(capsys):
    import json

    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--metrics",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["metrics"]) == {"histograms", "counters", "gauges"}


def test_trace_run_case(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(["run", "--case", "ampom_pipeline", "--trace", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "case            : ampom_pipeline" in text
    assert f"wrote {out}" in text
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"


@pytest.mark.parametrize(
    "case",
    ["node_churn", "cluster_sustained", "cluster_sustained_telemetry", "cluster_300_smoke", "arena"],
)
def test_trace_run_rejects_cases_without_one_result(case, capsys):
    """Only the single-migrant bench cases return one ExecutionResult to
    run; argparse rejects the others before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", case])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_trace_run_multi_hop_case(tmp_path, capsys):
    import json

    out = tmp_path / "trace.jsonl"
    rc = main(
        ["run", "--case", "three_hop", "--trace-format", "jsonl", "--trace", str(out)]
    )
    assert rc == 0
    assert "case            : three_hop" in capsys.readouterr().out
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for r in rows if r["name"] == "freeze") == 2  # one per hop


def test_trace_run_custom_cell_flame(tmp_path, capsys):
    out = tmp_path / "flame.txt"
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--trace-format",
            "flame",
            "--trace",
            str(out),
            "--metrics",
        ]
    )
    assert rc == 0
    assert "stall_s" in capsys.readouterr().out  # metrics report printed
    text = out.read_text()
    assert "wall %" in text
    assert "dest/migrant" in text


def test_trace_run_inspect_echoes_snapshots(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--kernel",
            "STREAM",
            "--mb",
            "115",
            "--scheme",
            "AMPoM",
            "--scale",
            SMALL,
            "--trace-format",
            "flame",
            "--trace",
            str(tmp_path / "flame.txt"),
            "--inspect",
            "0.05",
        ]
    )
    text = capsys.readouterr().out
    assert rc == 0
    assert "[inspect]" in text


@pytest.mark.parametrize("command", ["run", "trace run"])
def test_bad_inspect_interval_exits_2_with_the_message(command, tmp_path, capsys):
    """A NaN sampling interval would snapshot on every simulator event;
    a plain and a traced ``run`` reject it before running anything."""
    cell = ["--kernel", "STREAM", "--mb", "115", "--scheme", "AMPoM", "--scale", SMALL]
    trace = tmp_path / "trace.json"
    traced = ["--trace", str(trace)] if command == "trace run" else []
    rc = main(["run", *cell, *traced, "--inspect", "nan"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "sampling interval must be positive and finite: nan" in out
    assert "[inspect]" not in out
    assert not trace.exists()


_CELL = ["--kernel", "STREAM", "--mb", "115", "--scheme", "AMPoM", "--scale", SMALL]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--retry-timeout-ms", "-5"], "timeout_s must be positive and finite: -0.005"),
        (
            ["--loss-rate", "0.05", "--retry-timeout-ms", "nan"],
            "timeout_s must be positive and finite: nan",
        ),
        (["--max-retries", "-1"], "max_attempts must be non-negative"),
        (
            ["--delay-rate", "0.5", "--delay-ms", "nan"],
            "delay_s must be non-negative and finite: nan",
        ),
        (["--loss-rate", "1.5"], "loss_rate must be in [0, 1]: 1.5"),
    ],
)
def test_bad_fault_or_retry_flag_exits_2_with_one_line(flags, message, capsys):
    """A bad fault or retry flag is a usage error: one line, exit 2, no
    run (also when no fault is armed to use it)."""
    rc = main(["run", *_CELL, *flags])
    assert rc == 2
    assert capsys.readouterr().out == f"run: {message}\n"


def test_run_applies_both_retry_flags_under_faults(monkeypatch):
    import dataclasses

    from repro.experiments.figures import scaled_config

    class Captured(Exception):
        pass

    seen = {}

    def capture(workload, strategy, *, config, **kwargs):
        seen["retry"] = config.retry
        raise Captured

    monkeypatch.setattr("repro.cli.two_node_spec", capture)
    with pytest.raises(Captured):
        main(
            ["run", *_CELL, "--loss-rate", "0.01", "--retry-timeout-ms", "20", "--max-retries", "3"]
        )
    base = scaled_config(float(SMALL)).retry
    assert seen["retry"] == dataclasses.replace(base, timeout_s=0.02, max_attempts=3)


@pytest.mark.parametrize("scenario", ["cluster_32_threshold", "cluster_32_balanced"])
def test_trace_golden_sustained_scenarios(scenario, capsys):
    """A sustained-fleet golden ends with its fleet report, not a time
    budget: the traced fleet run is gated for bit-identity alone."""
    rc = main(["trace", "golden", scenario])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{scenario}: traced run bit-identical to the golden recording" in out
    assert "no budget recorded" in out


def test_trace_run_rejects_mixed_selectors(capsys):
    rc = main(["run", "--case", "ampom_pipeline", "--kernel", "STREAM"])
    assert rc == 2
    assert capsys.readouterr().out == (
        "run: use either --case or --kernel/--mb/--scheme, not both\n"
    )


def test_trace_run_rejects_incomplete_cell(capsys):
    rc = main(["run", "--kernel", "STREAM", "--mb", "115"])
    assert rc == 2
    assert capsys.readouterr().out == (
        "run: need --case, or all of --kernel, --mb and --scheme\n"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--prefetch-policy", "leap"],
        ["--scale", SMALL],
        ["--seed", "0"],
        ["--broadband"],
        ["--capacity-pages", "64"],
        ["--loss-rate", "0.0"],
        ["--delay-ms", "5"],
        ["--link-down", "0", "1"],
        ["--deputy-crash", "0", "1"],
        ["--retry-timeout-ms", "20"],
        ["--max-retries", "3"],
    ],
)
def test_run_case_rejects_cell_shaping_flags(flags, capsys):
    rc = main(["run", "--case", "three_hop", *flags])
    assert rc == 2
    assert capsys.readouterr().out == (
        f"run: a --case run fixes its own cell; drop {flags[0]}\n"
    )


def test_run_case_json_is_the_result(capsys):
    import json

    rc = main(["run", "--case", "local_fast", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "openMosix"


def test_run_prefetch_policy_on_openmosix_exits_2(capsys):
    rc = main(["run", *_CELL[:5], "openMosix", "--prefetch-policy", "leap"])
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("run: openMosix copies the whole address space")
    assert out.count("\n") == 1


def test_freeze_command(capsys):
    rc = main(["freeze", "--kernel", "DGEMM", "--mb", "575", "--scheme", "openMosix"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "freeze time" in out
    assert "575" in out


def test_figure5_command(capsys):
    rc = main(["figure", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 5" in out
    assert "openMosix" in out


def test_figure10_command(capsys):
    rc = main(["figure", "10", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 10" in out


def test_figure8_command(capsys):
    rc = main(["figure", "8", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 8" in out
    assert "STREAM" in out


@pytest.mark.parametrize("number,marker", [(6, "Figure 6"), (7, "Figure 7"), (11, "Figure 11")])
def test_matrix_figure_commands(capsys, number, marker):
    rc = main(["figure", str(number), "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert marker in out
    assert "DGEMM" in out


def test_figure9_command(capsys):
    rc = main(["figure", "9", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 9" in out
    assert "6Mb/s" in out


def test_table1_command(capsys):
    rc = main(["table1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "17350" in out  # the largest DGEMM problem size
    assert "RandomAccess" in out


def test_headline_command(capsys):
    rc = main(["headline", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "freeze avoided" in out


def test_export_command(tmp_path, capsys):
    out = tmp_path / "figures.csv"
    rc = main(["export", str(out), "--scale", SMALL])
    assert rc == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "figure,kernel,scheme,x,y"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_invalid_kernel_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--kernel", "HPL", "--mb", "100", "--scheme", "AMPoM"])


def test_bench_help_counts_the_cases(capsys):
    from repro.experiments.bench import CASES

    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"Time the {len(CASES)} simulator cases" in text


def test_cluster_run_preset(capsys):
    rc = main(["cluster", "run", "--preset", "three-hop", "--scale", SMALL])
    out = capsys.readouterr().out
    assert rc == 0
    assert "preset three-hop" in out
    assert "home->n1->n2" in out


def test_cluster_run_spec_file(tmp_path, capsys):
    import json

    spec = tmp_path / "scenario.json"
    spec.write_text(
        json.dumps(
            {
                "nodes": ["home", "n1", "n2"],
                "migrants": [
                    {
                        "kernel": "DGEMM",
                        "memory_mb": 115,
                        "scale": float(SMALL),
                        "scheme": "AMPoM",
                        "path": ["home", "n1", "n2"],
                        "hop_delays": [0.25],
                    }
                ],
            }
        )
    )
    rc = main(["cluster", "run", "--spec", str(spec), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload[0]["path"] == ["home", "n1", "n2"]
    assert payload[0]["total_time_s"] > 0


def test_cluster_run_json_with_a_migrant_killed_before_migration(tmp_path, capsys):
    import json

    spec = tmp_path / "scenario.json"
    spec.write_text(
        json.dumps(
            {
                "nodes": ["home", "n1"],
                "seed": 0,
                "migrants": [
                    {
                        "kernel": "STREAM",
                        "memory_mb": 115,
                        "scale": 0.03125,
                        "scheme": "openMosix",
                        "path": ["home", "n1"],
                    }
                ],
                "node_faults": {"crash_windows": [["home", 0.0, 10.0]]},
            }
        )
    )
    rc = main(["cluster", "run", "--spec", str(spec), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["strategy"] == "openMosix"
    assert payload[0]["extra"] == {"killed": 1.0, "hops": 0.0}


def test_cluster_run_spec_rejects_preset_options(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    spec.write_text("{}")
    rc = main(["cluster", "run", "--spec", str(spec), "--scheme", "FFA"])
    assert rc == 2
    assert "--preset runs only" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--preset", "three-hop-lossy", "--scheme", "FFA"], "fault injection requires"),
        (["--preset", "cluster_32", "--scheme", "FFA"], "has no 'fs' node"),
        (["--preset", "pair", "--slo", "kills<=1"], "--slo applies to sustained"),
        (["--preset", "cluster_32", "--slo", "bogus"], "--slo: SLO must look like"),
    ],
)
def test_cluster_run_build_errors_exit_2_with_one_line(args, message, capsys):
    rc = main(["cluster", "run", *args])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("cluster run: ") and message in out
    assert out.count("\n") == 1


def test_cluster_run_spec_naming_an_unknown_node_exits_2(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    spec.write_text('{"nodes": ["home", "n1"], "migrants": [{"path": ["home", "nX"]}]}')
    rc = main(["cluster", "run", "--spec", str(spec)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("cluster run: migrant 0 path") and out.count("\n") == 1


_PAIR = {"nodes": ["home", "n1"], "migrants": [{"path": ["home", "n1"]}]}


@pytest.mark.parametrize(
    "override, section, entry",
    [
        ({"faults": {"bogus": 1}}, "bad faults section: ", "'bogus'"),
        (
            {"links": [{"a": "home", "b": "n1", "network": {"bogus": 1}}]},
            "bad network of link 0: ",
            "'bogus'",
        ),
        ({"links": [{"b": "n1"}]}, "link 0 is missing required key", "'a'"),
        ({"links": [{"a": "home"}]}, "link 0 is missing required key", "'b'"),
        ({"migrants": [{"path": ["home", "n1"], "start_s": "soon"}]}, "migrant 0: ", "'soon'"),
        (
            {"node_faults": {"crash_windows": [["n1", 0.5]]}},
            "bad node_faults section: ",
            "['n1', 0.5]",
        ),
        ({"nodes": "home"}, "'nodes' must be a list", "'home'"),
    ],
    ids=["faults-key", "network-key", "link-no-a", "link-no-b", "start_s", "window", "nodes"],
)
def test_cluster_run_malformed_spec_exits_2_with_one_line(
    override, section, entry, tmp_path, capsys
):
    import json

    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({**_PAIR, **override}))
    rc = main(["cluster", "run", "--spec", str(spec)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith(f"cluster run: {section}") and entry in out
    assert out.count("\n") == 1


def test_cluster_run_slo_gates_the_exit_code(capsys):
    import json

    ok = ["cluster", "run", "--preset", "cluster_32", "--scale", SMALL, "--seed", "7"]
    rc = main([*ok, "--slo", "kills<=1000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "journeys match the independent counters exactly" in out
    assert "SLO ok: 1 spec(s)" in out
    rc = main([*ok, "--slo", "mean_load<=-1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["slo"]["ok"] is False
    assert payload["reconcile_mismatches"] == []
    assert {"report", "executed_migrants", "summary_metrics"} <= set(payload)
