"""Degraded-link penalty and recovery — what impairment costs, measured.

A campus workload is swept across link-loss severities (independent
loss and Gilbert-Elliott bursts, :mod:`repro.netem`); for each cell we
record link goodput, end-to-end analysis completeness, and a
*per-connection penalty CDF*: each connection's delivered-byte
completeness against the clean baseline run, so a 1% packet loss that
wipes out whole connections reads differently from one that shaves a
byte everywhere. A mitigation scenario (checksum quarantine +
disable-and-repair on a persistently corrupting link) adds a *recovery
CDF*: how long each disabled link stayed down before repair.

Every run writes hard numbers to ``BENCH_linkpenalty.json`` at the
repo root:

- per severity: offered/delivered packets, link goodput, connections
  delivered vs baseline, callback completeness, penalty CDF quantiles;
- the mitigation cell: quarantined/shed counts, disable cycles, and
  recovery-time quantiles;
- packet conservation (``repro.telemetry.check``: offered + duplicated
  == delivered + dropped on the link, and one counted fate for every
  delivered packet) is asserted on every cell — the fate check
  referees.

Interpretation notes:

- Virtual-time benchmark: loss and recovery are *modeled*, so results
  are deterministic and machine-independent, like the paper-figure
  benchmarks.
- At severity 0 the impairment layer is disabled outright; that cell
  doubles as the clean baseline and must match a plain run exactly.

Env knobs: ``BENCH_LINKPENALTY_DURATION`` (virtual seconds, default
1.0), ``BENCH_LINKPENALTY_GBPS`` (default 0.05) — the CI smoke run
sets these tiny.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _util import emit, table
from repro import Runtime, RuntimeConfig
from repro.netem import GilbertElliott, ImpairmentConfig
from repro.telemetry import check
from repro.traffic import CampusTrafficGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_linkpenalty.json"

SEED = 42

#: The severity sweep: (label, ImpairmentConfig or None).
SCENARIOS = (
    ("clean", None),
    ("loss-1pct", ImpairmentConfig(seed=SEED, loss_rate=0.01)),
    ("loss-5pct", ImpairmentConfig(seed=SEED, loss_rate=0.05)),
    ("burst-ge", ImpairmentConfig(
        seed=SEED, burst=GilbertElliott(p=0.01, r=0.2))),
    ("mitigated", ImpairmentConfig(
        seed=SEED, corrupt_rate=0.08, quarantine=True,
        disable_threshold=4, disable_window=128, repair_time=0.05)),
)

QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)


def _duration() -> float:
    return float(os.environ.get("BENCH_LINKPENALTY_DURATION", "1.0"))


def _gbps() -> float:
    return float(os.environ.get("BENCH_LINKPENALTY_GBPS", "0.05"))


def _traffic():
    return CampusTrafficGenerator(seed=SEED).packets(
        duration=_duration(), gbps=_gbps())


def _run(impairment):
    conns = {}

    def callback(record) -> None:
        conns[record.five_tuple] = record.total_bytes

    runtime = Runtime(
        RuntimeConfig(cores=2, impairment=impairment,
                      ooo_adaptive=impairment is not None),
        filter_str="tcp", datatype="connection", callback=callback,
    )
    report = runtime.run(iter(_traffic()))
    return report, conns


def _quantiles(values):
    if not values:
        return {}
    ordered = sorted(values)
    out = {}
    for q in QUANTILES:
        index = min(int(q * len(ordered)), len(ordered) - 1)
        out[f"p{int(q * 100)}"] = round(ordered[index], 6)
    out["max"] = round(ordered[-1], 6)
    return out


def _penalty_cdf(baseline, impaired):
    """Per-connection penalty: 1 - delivered-byte completeness vs the
    clean baseline (a connection the impaired run never delivered
    scores a full 1.0)."""
    penalties = []
    for tuple_, clean_bytes in baseline.items():
        got = impaired.get(tuple_, 0)
        completeness = got / clean_bytes if clean_bytes else 1.0
        penalties.append(max(0.0, 1.0 - min(completeness, 1.0)))
    return penalties


def run_linkpenalty():
    results = {
        "workload": {
            "generator": "campus",
            "seed": SEED,
            "duration_s": _duration(),
            "gbps": _gbps(),
            "datatype": "connection",
            "filter": "tcp",
        },
        "scenarios": {},
    }
    baseline_conns = None
    for label, impairment in SCENARIOS:
        report, conns = _run(impairment)
        cell = {
            "connections_delivered": len(conns),
            "ingress_packets": report.stats.ingress_packets,
        }
        if impairment is None:
            baseline_conns = conns
            cell["config"] = None
        else:
            ledger = report.impairment
            check(report)  # the referee: every packet has one fate
            penalties = _penalty_cdf(baseline_conns, conns)
            wiped = sum(1 for p in penalties if p >= 1.0)
            cell.update({
                "config": impairment.to_dict(),
                "offered": ledger.offered,
                "delivered": ledger.delivered,
                "dropped": dict(ledger.dropped),
                "corrupted": ledger.corrupted,
                "goodput_fraction": round(ledger.goodput_fraction, 6),
                "connection_completeness": round(
                    len(conns) / len(baseline_conns), 6)
                if baseline_conns else 1.0,
                "connections_wiped": wiped,
                "penalty_cdf": _quantiles(penalties),
                "mean_penalty": round(
                    sum(penalties) / len(penalties), 6)
                if penalties else 0.0,
            })
            disables = [e for e in ledger.link_events
                        if e[2] == "disable"]
            if disables:
                # Recovery time per disable cycle: disabled at ts_d,
                # re-enabled at the first admitted frame >= ts_d +
                # repair_time.
                enables = [e for e in ledger.link_events
                           if e[2] == "enable"]
                recoveries = []
                for (ts_d, port, _, _), (ts_e, _, _, _) in zip(
                        disables, enables):
                    recoveries.append(ts_e - ts_d)
                cell["disable_cycles"] = len(disables)
                cell["recovery_cdf"] = _quantiles(recoveries)
        results["scenarios"][label] = cell
    return results


def report(results) -> None:
    rows = []
    for label, cell in results["scenarios"].items():
        if cell.get("config") is None:
            rows.append([label, cell["ingress_packets"], "-", "-", "-",
                         cell["connections_delivered"], "-"])
            continue
        cdf = cell.get("penalty_cdf", {})
        rows.append([
            label,
            cell["delivered"],
            f"{cell['goodput_fraction']:.3f}",
            f"{cell.get('mean_penalty', 0.0):.4f}",
            f"{cdf.get('p99', 0.0):.3f}",
            cell["connections_delivered"],
            cell.get("disable_cycles", 0),
        ])
    workload = results["workload"]
    lines = [
        f"workload: campus seed={workload['seed']} "
        f"duration={workload['duration_s']}s gbps={workload['gbps']} "
        f"filter={workload['filter']}",
        "",
    ]
    lines.extend(table(
        ["scenario", "delivered", "goodput", "mean penalty",
         "p99 penalty", "conns", "disables"], rows))
    emit("linkpenalty", lines)
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"(json written to {JSON_PATH})")


def test_linkpenalty(benchmark):
    results = benchmark.pedantic(run_linkpenalty, rounds=1,
                                 iterations=1)
    report(results)
    cells = results["scenarios"]
    clean = cells["clean"]
    assert clean["connections_delivered"] > 0
    # Harsher links deliver less: the sweep must be ordered.
    assert cells["loss-5pct"]["goodput_fraction"] <= \
        cells["loss-1pct"]["goodput_fraction"] <= 1.0
    # The load-dependent claims assume the default workload size; a
    # shrunken smoke run (env knobs) may not trip the mitigation.
    workload = results["workload"]
    if workload["duration_s"] >= 1.0 and workload["gbps"] >= 0.05:
        mitigated = cells["mitigated"]
        assert mitigated["dropped"]["quarantine"] > 0
        assert mitigated.get("disable_cycles", 0) >= 1
        assert "recovery_cdf" in mitigated


if __name__ == "__main__":
    report(run_linkpenalty())
