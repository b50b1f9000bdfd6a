"""``run.py --against``: compare two benchmark records metric by metric.

Host metrics (wall, set-up, memory) are judged against the bounds in
``BENCHMARK.json``: *worse* or *better* when the medians differ by more
than the bound, *same* otherwise, and *unresolved* when either side's
quartile spread is itself wider than the bound, unless every sample of
the new record beats every sample of the old one.  Simulated metrics,
the failure fraction and the result digest are exact: any change counts.
"""

from __future__ import annotations

#: Exact metrics: name -> better direction (``None``: any change is worse).
EXACT = {
    "fail_frac": "lower",
    "sim_exec_s": "lower",
    "sim_freeze_s": "lower",
    "sim_remote_faults": "lower",
    "sim_prefetch_accuracy": "higher",
    "paper_err_pp": "lower",
    "sim_digest": None,
}


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else float("inf")


def host_verdict(old: dict, new: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(_spread(old), _spread(new)) > bound:
        beats = all(sign * (n - o) < 0 for n in new["samples"] for o in old["samples"])
        return "better" if beats else "unresolved"
    worsening = sign * (new["value"] - old["value"]) / old["value"]
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def exact_verdict(old, new, better: str | None) -> str:
    if old == new:
        return "same"
    if better is None or old is None or new is None:
        return "worse"
    return "better" if (new < old) == (better == "lower") else "worse"


def compare_records(old: dict, new: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per (metric, workload) present in both untraced records."""
    if old.get("trace") or new.get("trace"):
        raise ValueError("--against compares untraced records (--trace 0)")
    rows = []
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        o, n = old["workloads"][workload], new["workloads"][workload]
        for spec in end_to_end:
            name = spec["name"]
            om, nm = o["metrics"][name], n["metrics"][name]
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "old": (om["value"], om["q1"], om["q3"]),
                    "new": (nm["value"], nm["q1"], nm["q3"]),
                    "verdict": host_verdict(om, nm, spec["bound"], spec["better"]),
                }
            )
        exact_old = {"fail_frac": o["fail_frac"], **o["sim"]}
        exact_new = {"fail_frac": n["fail_frac"], **n["sim"]}
        for name, better in EXACT.items():
            if name not in exact_old and name not in exact_new:
                continue
            ov, nv = exact_old.get(name), exact_new.get(name)
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "old": (ov, ov, ov),
                    "new": (nv, nv, nv),
                    "verdict": exact_verdict(ov, nv, better),
                }
            )
    return rows


def _fmt(v) -> str:
    if isinstance(v, str):
        return v[:12]
    if v is None:
        return "-"
    return f"{v:.6g}"


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<22} {'workload':<17} {'old median [q1, q3]':<36} "
        f"{'new median [q1, q3]':<36} verdict"
    ]
    for r in rows:
        cells = []
        for v, q1, q3 in (r["old"], r["new"]):
            text = _fmt(v) if q1 == q3 == v else f"{_fmt(v)} [{_fmt(q1)}, {_fmt(q3)}]"
            cells.append(f"{text:<36}")
        lines.append(f"{r['metric']:<22} {r['workload']:<17} {cells[0]} {cells[1]} {r['verdict']}")
    return "\n".join(lines)
