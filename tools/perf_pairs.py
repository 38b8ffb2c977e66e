"""Alternating parent/change pairs of the repo's perf benchmark.

    python tools/perf_pairs.py PARENT [--workload W ...] [--pairs 10]
        [--first-seed 101]

PARENT is a git ref or a directory that already holds the parent's
files. The change is the working tree this file sits in. Both sides run
from copies in one temporary directory, at ``TMP/parent`` and
``TMP/change``: paths of equal length, because ``peak_rss_mb`` follows
the length of the checkout's path. For each workload it runs N pairs of

    python3 benchmarks/perf/run.py --workload W --seed S --seconds 10 --trace 0

one per side, a fresh seed per pair, alternating which side goes first,
and prints for every end-to-end metric of ``BENCHMARK.json`` each side's
median and quartiles, the change's wins, and the paired-run verdict
(see :func:`verdict`). Then it makes one ``--trace 1`` run per side on
the first pair's seed and prints every ``*.calls_per_pkt`` layer count
as parent, change and delta: a call added per packet shows there even
when the end-to-end metrics cannot see it. After those it prints, the
same way, every other exact per-layer metric the two traced runs
disagree on — ``core.cycles.*``, ``conntrack.peak_state_bytes`` and the
rest that count rather than time (see :func:`is_timing`), so a change
that moves the virtual clock or the state it keeps shows it. Every run
made is printed as it finishes. Exits 1 on a regression or a failed
repetition.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN = ["benchmarks/perf/run.py", "--seconds", "10"]
#: Fewer pairs than this never support a claim, whatever they show.
MIN_PAIRS = 10
#: {metric name: {"parent" | "change": one value per pair}}
Values = Dict[str, Dict[str, List[float]]]
#: {"parent" | "change": {metric name: value}} of one traced run a side.
Traced = Dict[str, Dict[str, float]]
#: Per-layer metrics read off a clock, or off the scheduling of the run
#: (how full the ring got): no two runs agree on them, moved or not.
#: ``*.self_share`` and ``*.self_us_per_pkt`` are timings too.
TIMINGS = frozenset((
    "pkts_per_s", "cpu_us_per_pkt", "traffic.gen_us_per_pkt",
    "core.parallel.par_over_seq", "core.parallel.feeder_block_share",
    "core.parallel.cpu_over_wall", "core.shm.ring_highwater",
    "core.shm.slot_starvation_waits", "bench.trace_overhead_x",
    "bench.rep_iqr_share",
))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: Sequence[float], change: Sequence[float],
         better: str) -> Tuple[int, int]:
    """(pairs the change won, pairs it lost); ties count for neither."""
    sign = -1 if better == "lower" else 1
    deltas = [sign * (c - p) for p, c in zip(parent, change)]
    return sum(d > 0 for d in deltas), sum(d < 0 for d in deltas)


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: Optional[float]) -> str:
    """Judge one metric on one workload from paired runs.

    ``gain``: at least ten pairs, the change wins at least nine tenths
    of them, and the medians are further apart than the parent's own
    quartile spread. Otherwise, against ``bound`` (the fraction of the
    parent's median the metric may worsen by): ``regressed`` when the
    change's median is worse by more than that; ``unresolved`` when
    either side's quartile spread is wider than the bound, unless every
    run of the change beats every run of the parent; else ``unchanged``.
    """
    sign = -1 if better == "lower" else 1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)  # > 0: the change's median is better
    won, _lost = wins(parent, change, better)
    if len(parent) >= MIN_PAIRS and won >= 0.9 * len(parent) \
            and gap > p_q3 - p_q1:
        return "gain"
    if bound is None:
        return "unchanged"
    limit = bound * abs(p_med)
    if -gap > limit:
        return "regressed"
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    if spread > limit and not all(sign * (c - p) > 0
                                  for c in change for p in parent):
        return "unresolved"
    return "unchanged"


def run_trees(tmp: Path, parent: str, root: Path = ROOT) -> Dict[str, Path]:
    """Lay out both sides under ``tmp``: ``parent`` (a directory, copied,
    or a git ref of ``root``, exported) at ``tmp/parent`` and ``root``'s
    working tree at ``tmp/change``, neither with ``.git`` or bytecode."""
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    skip = shutil.ignore_patterns(".git", "__pycache__")
    if Path(parent).is_dir():
        shutil.copytree(parent, trees["parent"], ignore=skip)
    else:
        tar = subprocess.run(["git", "-C", str(root), "archive", parent],
                             check=True, capture_output=True).stdout
        trees["parent"].mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])],
                       input=tar, check=True)
    shutil.copytree(root, trees["change"], ignore=skip)
    return trees


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> Dict:
    """One benchmark run in ``tree`` (``trace`` 1: the profiled one that
    reports the per-layer counts); its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, *RUN, "--trace", str(trace),
         "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(f"{tree}: no result line for {workload} seed "
                           f"{seed} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def measure(sides: Dict[str, Path], workload: str, pairs: int,
            first_seed: int, metrics: List[Dict]) -> Tuple[Values, int]:
    """Run the pairs in ``sides``' trees; returns the values and the
    number of failed repetitions seen on either side."""
    values: Values = {m["name"]: {"parent": [], "change": []}
                      for m in metrics}
    failed = 0
    for k in range(pairs):
        seed = first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, seed)
            failed += result["failed"]
            for m in metrics:
                values[m["name"]][side].append(
                    result["metrics"][m["name"]]["value"])
            print(f"  {workload} pair {k + 1} seed {seed} {side:6s} " +
                  " ".join(f"{m['name']}={values[m['name']][side][-1]:.4g}"
                           for m in metrics) +
                  f" failed={result['failed']}/{result['attempted']}",
                  flush=True)
    return values, failed


def report(workload: str, values: Values, metrics: List[Dict]) -> bool:
    """Print one row per metric; True if any metric regressed."""
    regressed = False
    for m in metrics:
        parent = values[m["name"]]["parent"]
        change = values[m["name"]]["change"]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        won, lost = wins(parent, change, m["better"])
        result = verdict(parent, change, m["better"], m.get("bound"))
        regressed |= result == "regressed"
        print(f"{workload:16s} {m['name']:15s} "
              f"parent {p_med:.4g} ({p_q1:.4g}-{p_q3:.4g})  "
              f"change {c_med:.4g} ({c_q1:.4g}-{c_q3:.4g})  "
              f"{(c_med - p_med) / p_med:+.1%} of parent  "
              f"won {won} lost {lost} of {len(parent)}  {result}")
    return regressed


def is_timing(name: str) -> bool:
    return name in TIMINGS or \
        name.endswith((".self_share", ".self_us_per_pkt"))


def is_call_count(name: str) -> bool:
    return name.endswith(".calls_per_pkt")


def traced(sides: Dict[str, Path], workload: str, seed: int) -> Traced:
    """One ``--trace 1`` run per side on ``seed``: its metrics."""
    return {side: {name: metric["value"] for name, metric
                   in run_once(tree, workload, seed, trace=1)
                   ["metrics"].items()}
            for side, tree in sides.items()}


def layer_rows(runs: Traced, keep) -> List[Tuple[str, float, float]]:
    """``(metric, parent, change)`` for every metric either side of
    ``runs`` reports that ``keep`` accepts, by name (0: not reported)."""
    parent, change = runs["parent"], runs["change"]
    return [(name, parent.get(name, 0.0), change.get(name, 0.0))
            for name in sorted(set(parent) | set(change)) if keep(name)]


def exact_deltas(runs: Traced) -> List[Tuple[str, float, float]]:
    """Every exact per-layer metric other than the call counts —
    neither a timing nor a ``*.calls_per_pkt`` — on which the two
    traced runs disagree."""
    return [row for row in layer_rows(
                runs, lambda n: not is_timing(n) and not is_call_count(n))
            if row[1] != row[2]]


def report_rows(workload: str,
                rows: List[Tuple[str, float, float]]) -> None:
    """Print one row per per-layer metric: parent, change, delta."""
    for name, parent, change in rows:
        print(f"{workload:16s} {name:30s} parent {parent:8.3f}  "
              f"change {change:8.3f}  {change - parent:+8.3f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git ref, or a directory holding it")
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args(argv)
    metrics = spec["end_to_end"]
    bad = False
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        sides = run_trees(Path(tmp), args.parent)
        for workload in args.workload or names:
            values, failed = measure(sides, workload, args.pairs,
                                     args.first_seed, metrics)
            bad |= report(workload, values, metrics) or failed > 0
            runs = traced(sides, workload, args.first_seed)
            report_rows(workload, layer_rows(runs, is_call_count))
            report_rows(workload, exact_deltas(runs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
