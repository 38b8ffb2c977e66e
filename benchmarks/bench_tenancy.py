"""Multi-tenant shared-filter check: classify once, fan out N ways.

The equivalence harness for :mod:`repro.tenancy`, on the campus
workload:

1. **Per-tenant equivalence**: with the hardware plane disabled (so a
   solo run sees the same ingress as the shared link), every tenant's
   aggregate stats out of the shared run — one
   :class:`~repro.tenancy.runtime.TenantRuntime` decoding and
   classifying each burst once against the merged trie — are
   byte-identical to its solo run through a plain
   :class:`~repro.Runtime`. This is the invariant that makes the
   shared fast path safe.
2. **Live reconfiguration**: the same shared run with a mid-stream
   drop+add epoch swap ends at epoch 2.

Speed is measured by the ``tenants8`` workload of ``benchmarks/perf``.
Env knobs: ``BENCH_TENANCY_DURATION`` (default 0.3 virtual seconds),
``BENCH_TENANCY_GBPS`` (default 0.3).
"""

from __future__ import annotations

import os

from _util import emit, table
from repro import Runtime, RuntimeConfig
from repro.tenancy import ReconfigureEvent, TenantRuntime, TenantSpec
from repro.traffic import CampusTrafficGenerator

CORES = 4

#: The N=8 tenant set: shared tcp/udp trie prefixes with per-tenant
#: port leaves (what the merged-trie dedup is for), two connection
#: subscriptions, and one broad udp tenant so the fan-out is not
#: uniformly selective.
TENANTS = (
    ("web", "tcp.dst_port = 443", "connection"),
    ("http", "tcp.dst_port = 80", "connection"),
    ("alt", "tcp.dst_port = 8080", "packet"),
    ("ssh", "tcp.dst_port = 22", "packet"),
    ("dns", "udp.dst_port = 53", "packet"),
    ("ntp", "udp.dst_port = 123", "packet"),
    ("rweb", "tcp.src_port = 443", "packet"),
    ("udp_all", "udp", "packet"),
)


def _duration() -> float:
    return float(os.environ.get("BENCH_TENANCY_DURATION", "0.3"))


def _gbps() -> float:
    return float(os.environ.get("BENCH_TENANCY_GBPS", "0.3"))


def _make_traffic():
    return list(CampusTrafficGenerator(seed=42).packets(
        duration=_duration(), gbps=_gbps()))


def _reset(traffic) -> None:
    """Clear per-run scratch state so every run over the same mbuf
    list starts from untouched frames."""
    for mbuf in traffic:
        mbuf.stack = None
        mbuf.queue = None
        mbuf.pkt_term_node = None


def _specs():
    return [TenantSpec(name, flt, datatype)
            for name, flt, datatype in TENANTS]


def _shared_run(traffic, specs, events=(), **overrides):
    _reset(traffic)
    runtime = TenantRuntime(
        RuntimeConfig(cores=CORES, **overrides), specs,
        events=list(events))
    return runtime, runtime.run(iter(traffic))


def _solo_run(traffic, flt, datatype, **overrides):
    _reset(traffic)
    runtime = Runtime(
        RuntimeConfig(cores=CORES, **overrides),
        filter_str=flt, datatype=datatype, callback=None)
    return runtime.run(iter(traffic))


def run_tenancy():
    traffic = _make_traffic()
    results = {
        "duration_s": _duration(),
        "gbps": _gbps(),
        "packets": len(traffic),
    }
    # Hardware plane off so a solo run sees the shared link's exact
    # ingress.
    runtime, report = _shared_run(traffic, _specs(),
                                  hardware_filter=False)
    shared_tenants = {
        name: stats.to_dict()
        for name, stats in runtime.aggregate_tenants(report).items()}
    results["equivalence"] = {
        name: shared_tenants[name] == _solo_run(
            traffic, flt, datatype,
            hardware_filter=False).stats.to_dict()
        for name, flt, datatype in TENANTS}

    mid = traffic[len(traffic) // 2].timestamp
    swap_specs = _specs() + [TenantSpec("late", "tcp.dst_port = 8443",
                                        "connection", start=False)]
    events = [ReconfigureEvent(mid, "drop", "udp_all"),
              ReconfigureEvent(mid, "add", "late")]
    swap_runtime, _report = _shared_run(traffic, swap_specs, events)
    results["final_epoch"] = swap_runtime.table.epoch
    return results


def report(results) -> None:
    lines = [
        f"workload: campus seed=42 duration={results['duration_s']}s "
        f"gbps={results['gbps']} ({results['packets']} packets), "
        f"{len(TENANTS)} tenants on {CORES} cores",
        f"mid-run drop+add swap: final epoch {results['final_epoch']}",
        "",
    ]
    lines.extend(table(
        ["tenant", "filter", "solo byte-identical"],
        [[name, flt, results["equivalence"][name]]
         for name, flt, _datatype in TENANTS]))
    emit("tenancy", lines)


def test_tenancy(benchmark):
    results = benchmark.pedantic(run_tenancy, rounds=1, iterations=1)
    report(results)
    # Unconditional: every tenant's shared-run stats must be the exact
    # bytes of its solo run — the shared classifier is only a fast
    # path, never a semantic change.
    for name, ok in results["equivalence"].items():
        assert ok, f"tenant {name} diverged from its solo run"
    assert results["final_epoch"] == 2


if __name__ == "__main__":
    report(run_tenancy())
