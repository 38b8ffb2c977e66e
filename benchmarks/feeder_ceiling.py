#!/usr/bin/env python
"""The parallel backend's serial-stage ceiling, measured.

The feeder is the one stage no worker count parallelises, so
``sequential CPU per packet / feeder CPU per packet`` bounds
``par_over_seq`` at any W (Amdahl). This prints the three costs from
alternating parallel / sequential runs of the perf benchmark's
``campus_conn_par`` trace (``tcp`` -> ``connection``), read from
``backend_health``'s ``feeder_cpu_seconds`` and per-worker
``cpu_seconds`` and from ``time.process_time()`` around the sequential
run — the table in docs/PERFORMANCE.md:

    python benchmarks/feeder_ceiling.py --seed N [--runs 10]
"""

from __future__ import annotations

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

from repro.packet import Mbuf  # noqa: E402
from workloads import BY_NAME, nproc  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workload = BY_NAME["campus_conn_par"]
    reason = workload.skip_reason()
    if reason:
        print(reason, file=sys.stderr)
        return 1
    rows = workload.trace(args.seed)
    cols = {"feeder": [], "worker": [], "sequential": [], "ceiling": []}
    for _ in range(args.runs):
        health = workload.build(telemetry=True).run(
            iter([Mbuf(*row) for row in rows])).backend_health
        mbufs = [Mbuf(*row) for row in rows]
        runtime = workload.build(sequential=True)
        cpu_from = time.process_time()
        runtime.run(iter(mbufs))
        sequential = time.process_time() - cpu_from
        cols["feeder"].append(health["feeder_cpu_seconds"])
        cols["worker"].append(sum(w["cpu_seconds"]
                                  for w in health["workers"]))
        cols["sequential"].append(sequential)
        cols["ceiling"].append(sequential / health["feeder_cpu_seconds"])
    print(f"host: {platform.platform()}, python "
          f"{platform.python_version()}, {nproc()} processors; "
          f"W={workload.cores()}, seed {args.seed}, {len(rows)} packets, "
          f"{args.runs} alternating runs\n")
    print("| quantity | min | median | max |")
    print("|---|---|---|---|")
    for name, values in cols.items():
        if name == "ceiling":
            label, scale = "ceiling = sequential / feeder", 1.0
        else:
            label, scale = f"{name} CPU µs/pkt", 1e6 / len(rows)
        print(f"| {label} | {min(values) * scale:.2f} | "
              f"{statistics.median(values) * scale:.2f} | "
              f"{max(values) * scale:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
