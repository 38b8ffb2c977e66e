"""The seven workloads: trace, subscription, and what the generator
guarantees about the output.

Each workload exists because it makes one layer do the largest share of
the work it ever does (see README.md for the prediction table). The
harness touches the program only through the traffic generators,
``Mbuf(data, timestamp, port)``, ``RuntimeConfig``, ``Runtime.run`` /
``TenantRuntime.run`` and the report they return.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import Runtime, RuntimeConfig
from repro.tenancy import TenantRuntime, TenantSpec
from repro.traffic import (CampusProfile, CampusTrafficGenerator,
                           HttpsWorkloadGenerator)
from repro.traffic.distributions import FlowSizeModel

#: One frame as the harness keeps it between repetitions.
Row = Tuple[bytes, float, int]

CORES = 4

#: The eight subscriptions of ``benchmarks/bench_tenancy.py``.
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

CAMPUS_CONNS = 3300
SCAN_CONNS = 25000
SESSION_CONNS = 3500
BULK_REQUESTS = 100


def nproc() -> int:
    """Processors this process may run on."""
    return len(os.sched_getaffinity(0))


def parallel_workers() -> int:
    """Worker count W for ``campus_conn_par``: feeder + W workers never
    exceed ``nproc``."""
    return min(CORES, nproc() - 1)


def _campus(seed: int, scale: int):
    # The default profile's 8 MB elephants are a handful of flows that
    # carry a quarter of the packets, so the packet count (56k-100k) and
    # the busiest core's load swing by 20-30 % from seed to seed. A
    # 150 kB cap and a fixed connection count keep the mix (~100k pkts,
    # ~870 B mean, ~800 data connections) and make it repeat.
    profile = CampusProfile(flow_sizes=FlowSizeModel(cap_bytes=150_000))
    return CampusTrafficGenerator(seed, profile).connections(
        CAMPUS_CONNS // scale, duration=1.6 / scale)


def _sessions(seed: int, scale: int):
    profile = CampusProfile(
        single_syn_fraction=0.3, long_lived_fraction=0.0,
        flow_sizes=FlowSizeModel(mu=7.5, sigma=1.0, cap_bytes=65536))
    return CampusTrafficGenerator(seed, profile).connections(
        SESSION_CONNS // scale, duration=4.0 / scale)


def _bulk(seed: int, scale: int):
    return HttpsWorkloadGenerator(seed).packets(
        requests_per_second=BULK_REQUESTS, duration=1.0 / scale)


def _scan(seed: int, scale: int):
    profile = CampusProfile(tcp_fraction=1.0, single_syn_fraction=1.0)
    return CampusTrafficGenerator(seed, profile).connections(
        SCAN_CONNS // scale, duration=2.0 / scale)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, int], list]
    filter: str = ""
    datatype: str = "packet"
    tenants: bool = False
    parallel: bool = False
    #: Packets per timed slice: about 20 ms of work, the scale on which
    #: the sandbox's speed changes (see measure.py).
    slice_pkts: int = 2048
    #: Generator-known facts about a correct run: ``(label, check)``
    #: where ``check(stats, packets, scale)`` is true on a correct run.
    known: Tuple[Tuple[str, Callable], ...] = ()

    def cores(self) -> int:
        return parallel_workers() if self.parallel else CORES

    def skip_reason(self) -> Optional[str]:
        if self.parallel and parallel_workers() < 1:
            return ("needs a feeder and at least one worker on separate "
                    f"processors; this host offers {nproc()}")
        return None

    def trace(self, seed: int, scale: int = 1) -> List[Row]:
        """The workload's frames for ``seed``, as plain rows so that
        every repetition can rebuild untouched ``Mbuf``s."""
        return [(bytes(m.data), m.timestamp, m.port)
                for m in self.generate(seed, scale)]

    def build(self, reference: bool = False, sequential: bool = False,
              telemetry: bool = False):
        """A fresh runtime. The reference variant is the independent
        path the timed one is checked against: interpreted filters,
        and the sequential backend where the timed one is parallel.
        ``sequential`` keeps compiled filters but drops the parallel
        backend, for ``core.parallel.par_over_seq``."""
        config = RuntimeConfig(
            cores=self.cores(),
            parallel=self.parallel and not (reference or sequential),
            filter_mode="interp" if reference else "codegen",
            telemetry=telemetry)
        if self.tenants:
            return TenantRuntime(config, [
                TenantSpec(name, flt, datatype)
                for name, flt, datatype in TENANTS])
        return Runtime(config, filter_str=self.filter,
                       datatype=self.datatype, callback=None)


def tenant_stats(runtime, report) -> Dict:
    """Each tenant's own ``AggregateStats``, by name; empty for a
    single-subscription runtime."""
    if not isinstance(runtime, TenantRuntime):
        return {}
    return dict(sorted(runtime.aggregate_tenants(report).items()))


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "campus_conn",
        "campus mix, tcp -> connection: conntrack lookups on ~800 long "
        "connections dominate; the repo's historical headline",
        _campus, "tcp", "connection"),
    Workload(
        "campus_pkt",
        "same trace, match-all -> packet: bypasses conntrack, "
        "reassembly and parsing, so decode + NIC + packet filter + "
        "delivery are all of the work",
        _campus, "", "packet",
        known=(("callbacks == packets",
                lambda s, n, k: s.callbacks == n),)),
    Workload(
        "sessions_tls",
        "many short TLS sessions, SNI regex -> tls_handshake: hardware "
        "drops, reassembly, parsing and the session filter carry "
        "their largest share",
        _sessions, r"tls.sni ~ '.*\.com$'", "tls_handshake",
        known=(("callbacks == sessions_matched <= sessions_parsed",
                lambda s, n, k: s.callbacks == s.sessions_matched
                <= s.sessions_parsed),)),
    Workload(
        "bulk_stream",
        "100 long MTU-size HTTPS flows (Figure 6 traffic), port 443 -> "
        "byte_stream: every segment is reassembled and delivered; "
        "conntrack and the NIC hash cache only hit",
        _bulk, "tcp.port = 443", "byte_stream",
        known=(("conns_created == requests",
                lambda s, n, k: s.conns_created == BULK_REQUESTS // k),),
        slice_pkts=512),
    Workload(
        "scan_conn",
        "25k single 59-byte SYNs, tcp -> connection: every packet is a "
        "new flow, so RSS hashing misses its cache and conntrack "
        "inserts, schedules, expires and delivers per packet",
        _scan, "tcp", "connection",
        known=(("callbacks == conns_created == connections",
                lambda s, n, k: s.callbacks == s.conns_created
                == SCAN_CONNS // k),),
        slice_pkts=512),
    Workload(
        "tenants8",
        "campus trace through TenantRuntime with bench_tenancy's eight "
        "subscriptions: the shared classifier fan-out and the second "
        "run loop",
        _campus, tenants=True),
    Workload(
        "campus_conn_par",
        "campus_conn on the parallel backend at W workers: the only "
        "workload where feeder, batch packing, shm ring and result "
        "merge do work",
        _campus, "tcp", "connection", parallel=True),
)

BY_NAME = {w.name: w for w in WORKLOADS}
