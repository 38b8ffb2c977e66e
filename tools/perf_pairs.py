"""Alternating parent/change pairs of the repo's perf benchmark.

    python tools/perf_pairs.py PARENT [--workload W ...] [--pairs 10]
        [--first-seed 101]

PARENT is a git ref, checked out into a temporary ``git worktree`` that
is removed afterwards, or a directory that already holds the parent's
files. The change is the tree this file sits in. For each workload it
runs N pairs of

    python3 benchmarks/perf/run.py --workload W --seed S --seconds 10 --trace 0

one per side, a fresh seed per pair, alternating which side goes first,
and prints for every end-to-end metric of ``BENCHMARK.json`` each side's
median and quartiles, the change's wins, and the verdict of
/opt/skills/guides/choosing-metrics section 8 (see :func:`verdict`).
Every run made is printed as it finishes. Exits 1 on a regression or a
failed repetition.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN = ["benchmarks/perf/run.py", "--seconds", "10", "--trace", "0"]
#: Fewer pairs than this never support a claim, whatever they show.
MIN_PAIRS = 10
#: {metric name: {"parent" | "change": one value per pair}}
Values = Dict[str, Dict[str, List[float]]]


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


def run_once(tree: Path, workload: str, seed: int) -> Dict:
    """One benchmark run in ``tree``; its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(f"{tree}: no result line for {workload} seed "
                           f"{seed} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def measure(parent: Path, workload: str, pairs: int, first_seed: int,
            metrics: List[Dict]) -> Tuple[Values, int]:
    """Run the pairs; returns the values and the number of failed
    repetitions seen on either side."""
    sides = {"parent": parent, "change": ROOT}
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
        parent = Path(args.parent)
        worktree = None
        if not parent.is_dir():
            worktree = parent = Path(tmp) / "parent"
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                            "--detach", str(worktree), args.parent],
                           check=True, capture_output=True)
        try:
            for workload in args.workload or names:
                values, failed = measure(parent.resolve(), workload,
                                         args.pairs, args.first_seed, metrics)
                bad |= report(workload, values, metrics) or failed > 0
        finally:
            if worktree is not None:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                                "--force", str(worktree)], check=False)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
