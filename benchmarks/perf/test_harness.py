"""Self-tests of the benchmark harness: ``pytest benchmarks/perf``.

Not part of tier-1 (``testpaths`` is ``tests``). Every run here uses
``--quick`` traces, so the file takes well under a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def contract_run(workload: str, trace: int) -> dict:
    """What the driver does, on a quick trace."""
    proc = subprocess.run(
        [*SPEC["command"], "--quick", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def layers_result() -> dict:
    return contract_run("sessions_tls", 1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == \
        [w.name for w in WORKLOADS]
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_end_to_end_names_match_benchmark_json():
    result = contract_run("campus_pkt", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_benchmark_json(layers_result):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in
            layers_result["metrics"].items()} == declared
    for name in list(declared) + [m["name"] for m in SPEC["end_to_end"]]:
        assert NAME.fullmatch(name), name


def test_layer_shares_sum_to_one(layers_result):
    metrics = layers_result["metrics"]
    shares = [m["value"] for name, m in metrics.items()
              if name.endswith(".self_share")]
    assert len(shares) == 15
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert metrics["bench.trace_overhead_x"]["value"] > 1.0
    # The workload exists to make these layers work.
    assert metrics["protocols.self_share"]["value"] > 0
    assert metrics["stream.self_share"]["value"] > 0
    assert metrics["nic.hw_drop_share"]["value"] > 0.5


def test_wrong_oracle_fails_every_repetition():
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload",
         "campus_pkt", "--seed", "42", "--scale", "4", "--reps", "3",
         "--setups", "1", "--trace", "0", "--break-oracle"],
        env=env, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == result["attempted"] == 3
    assert "digest differs" in result["failures"][0]


def test_watchdog_turns_a_hang_into_failed_repetitions():
    args = argparse.Namespace(seed=42, reps=3, seconds=None, trace=0,
                              quick=True)
    result = run.run_workload("campus_conn_par", args, watchdog=0.2)
    assert result["failed"] == result["attempted"] == 3
    assert "watchdog" in result["failures"][0]


@pytest.mark.parametrize("new, spread, expected", [
    (95.0, 0.02, "unchanged"),
    (85.0, 0.02, "regressed"),
    (115.0, 0.02, "improved"),
    (115.0, 0.30, "unresolved"),
])
def test_compare_verdicts(new, spread, expected):
    def metric(value):
        return {"value": value, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2)}
    assert compare.verdict(metric(100.0), metric(new), "higher",
                           0.10) == expected
