"""The repo's one performance benchmark.

    PYTHONPATH=src python benchmarks/perf/run.py [--seed 42]
        [--workload NAME ...] [--reps 15] [--quick] [--out FILE]

prints, for every workload, each end-to-end metric (both clocks) and the
per-module layer budget by name with its unit, checks the outputs
against a reference run, and exits non-zero if any repetition failed.

    python3 benchmarks/perf/run.py --workload NAME --seed N
        --seconds S --trace 0|1

is the form BENCHMARK.json names: one workload measured for S seconds,
one JSON object on the last line of standard output (the bounded
end-to-end metrics with ``--trace 0``; the per-layer metrics and the two
unbounded timings with ``--trace 1``).

Load is offline: one process pulls an in-memory list of synthetic frames
through the simulated NIC as fast as it can. No real link, no loopback,
no open-loop schedule. Each workload runs in its own subprocess
(``measure.py``) under a watchdog that kills the whole process group.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Seconds one workload's subprocess may live before it is killed and
#: its repetitions counted as failed.
WATCHDOG_S = 150.0
QUICK_SCALE = 4
QUICK_REPS = 3


def _host(args, nproc: int, workers: int) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "reps": args.reps if args.seconds is None else None,
        "seconds": args.seconds,
        "quick": args.quick,
        "W": workers,
    }


def run_workload(name: str, args, watchdog: float = WATCHDOG_S) -> Dict:
    """Measure one workload in a subprocess of its own; a hang or a
    crash comes back as failed repetitions, never as a hang here."""
    trace = 1 if args.trace is None else args.trace
    # Generating a trace costs three to four times as long as running
    # it, so only the full report can afford the median of three.
    setups = 3 if args.seconds is None and not args.quick else 1
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", name, "--seed", str(args.seed),
        "--scale", str(QUICK_SCALE if args.quick else 1),
        "--reps", str(args.reps), "--setups", str(setups),
        "--trace", str(trace), "--spawned-at", repr(time.time()),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), str(HERE),
                    os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    why = None
    try:
        stdout, _ = proc.communicate(timeout=watchdog)
        if proc.returncode != 0:
            why = f"measure.py exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        why = f"watchdog: no result after {watchdog:g} s"
        stdout = ""
    finally:
        # The parallel backend's workers share the child's process
        # group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if why is None:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            why = "measure.py printed no result"
    planned = max(1, args.reps if args.seconds is None else 1)
    return {"workload": name, "attempted": planned, "failed": planned,
            "failures": [why], "end_to_end": None, "per_layer": None,
            "packets": None, "W": None, "reps": 0, "spans": []}


def _print_metrics(metrics: Dict[str, Dict]) -> None:
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        line = f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}"
        if "q1" in m:
            line += (f"  [per rep: median {m['median']:.6g}, "
                     f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]")
        print(line)


def report(result: Dict) -> None:
    head = f"== {result['workload']}"
    if result["packets"]:
        head += f": {result['packets']} pkts, {result['reps']} timed reps"
    if result["W"] is not None:
        head += f", W={result['W']}"
    print(head)
    share = result["failed"] / result["attempted"]
    if result["end_to_end"]:
        _print_metrics(result["end_to_end"])
    print(f"  failed_share  {share:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if result["per_layer"]:
        print("  -- per layer (one traced repetition)")
        _print_metrics(result["per_layer"])


#: Measured end to end, but listed in BENCHMARK.json without a bound
#: (among ``per_layer``): see README.md, "Why the timings have no bound".
UNBOUNDED = ("pkts_per_s", "cpu_us_per_pkt")


def contract_line(result: Dict, trace: int) -> str:
    """The one JSON object BENCHMARK.json's driver reads."""
    measured = result["end_to_end"] or {}
    if trace:
        metrics = dict(result["per_layer"] or {})
        metrics.update((n, measured[n]) for n in UNBOUNDED
                       if metrics and n in measured)
    else:
        metrics = {n: m for n, m in measured.items()
                   if n not in UNBOUNDED}
    return json.dumps({
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark measures "
              "the program in this repository's src/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import BY_NAME, WORKLOADS, nproc, parallel_workers

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append", nargs="+",
                        choices=list(BY_NAME), metavar="NAME")
    parser.add_argument("--reps", type=int, default=None,
                        help="timed repetitions (default 15; 3 with "
                        "--quick)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="print one JSON result line: 0 bounded "
                        "end-to-end metrics, 1 the rest")
    parser.add_argument("--quick", action="store_true",
                        help="3 reps over traces a quarter the size")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every result, spans and host as JSON")
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = QUICK_REPS if args.quick else 15
    names = [n for group in args.workload or [] for n in group] \
        or [w.name for w in WORKLOADS]
    if args.trace is not None and len(names) != 1:
        parser.error("--trace prints one result: name one --workload")

    out = {"host": _host(args, nproc(), parallel_workers()), "workloads": {},
           "skipped": {}}
    for key, value in out["host"].items():
        print(f"# {key}: {value}", file=sys.stderr
              if args.trace is not None else sys.stdout)
    failed = False
    for name in names:
        reason = BY_NAME[name].skip_reason()
        if reason is not None:
            out["skipped"][name] = reason
            print(f"== {name}: SKIPPED, {reason}")
            failed = failed or args.trace is not None
            continue
        result = run_workload(name, args)
        out["workloads"][name] = result
        failed = failed or result["failed"] > 0
        report(result)
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.trace is not None and names[0] in out["workloads"]:
        print(contract_line(out["workloads"][names[0]], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
