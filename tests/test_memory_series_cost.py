"""What the Figure 8 memory series costs: Python calls per sample point,
and bytes kept per sample (the companion of ``test_conn_footprint.py``).

A sample point reads each stateful lane's connection-table total, which
is O(state) — base bytes times the table's size, plus the few
connections carrying a reassembler or buffered packets — so with 10,000
live SYNs it costs the same handful of calls as with none. The tree
before the change that added this test walked every live connection
instead: two calls per connection, ~20,000 here per lane.

A sample is three numbers kept in flat columns, and only a lane that can
hold state keeps a series: of the eight-tenant table's lanes, the two
connection subscriptions. What ``report.stats`` and
``aggregate_tenants`` retain, over everything else a run leaves, is
measured with ``tracemalloc`` and divided by the core sample points
(cores x points). The tree before this test read ~700 B there (every
lane's ``(ts, conns, bytes)`` tuple, eight of them per core and point,
Python 3.11); it reads ~80 B.
"""

import gc
import os
import sys
import tracemalloc

import repro
from repro import Runtime, RuntimeConfig
from repro.core.runtime import Runtime as CoreRuntime
from repro.packet import Mbuf
from repro.tenancy import TenantRuntime, TenantSpec
from repro.traffic import CampusProfile, CampusTrafficGenerator
from repro.traffic.distributions import FlowSizeModel

SYNS = 10_000
#: A stateful lane's sample point: ``Lane.sample_memory``, the table's
#: ``len``, the lane's ``memory_bytes`` and the table's, and the series
#: append.
MAX_CALLS_PER_STATEFUL_LANE = 5
#: The core's own: ``CorePipeline.sample_memory`` and the face's append.
MAX_CALLS_PER_CORE = 2

MAX_BYTES_PER_CORE_SAMPLE = 200

#: The eight subscriptions of benchmarks/perf/workloads.py.
TENANTS8 = (
    ("web", "tcp.dst_port = 443", "connection"),
    ("http", "tcp.dst_port = 80", "connection"),
    ("alt", "tcp.dst_port = 8080", "packet"),
    ("ssh", "tcp.dst_port = 22", "packet"),
    ("dns", "udp.dst_port = 53", "packet"),
    ("ntp", "udp.dst_port = 123", "packet"),
    ("rweb", "tcp.src_port = 443", "packet"),
    ("udp_all", "udp", "packet"),
)


def _sample_point_calls(pipeline) -> int:
    """Python calls inside ``repro`` one sample point makes."""
    package = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        pipeline.sample_memory()
    finally:
        sys.setprofile(None)
    return calls


def test_a_sample_point_costs_a_few_calls_per_stateful_lane():
    profile = CampusProfile(tcp_fraction=1.0, single_syn_fraction=1.0)
    mbufs = CampusTrafficGenerator(7, profile).connections(
        SYNS, duration=0.4)
    config = RuntimeConfig(cores=1)
    # One lane tracking every SYN; then two such lanes among the six
    # packet tenants of the eight-tenant table, which sample nothing.
    single = Runtime(config, filter_str="tcp", datatype="connection")
    table = [TenantSpec("all", "tcp", "connection"),
             TenantSpec("again", "tcp", "connection"),
             *(TenantSpec(*spec) for spec in TENANTS8[2:])]
    for runtime, stateful in ((single, 1),
                              (TenantRuntime(config, table), 2)):
        pipeline = runtime.pipelines[0]
        pipeline.process_batch([Mbuf(bytes(m.data), m.timestamp, m.port)
                                for m in mbufs])
        lanes = [lane for lane in pipeline.lanes if len(lane.table)]
        assert [len(lane.table) for lane in lanes] == [SYNS] * stateful
        calls = _sample_point_calls(pipeline)
        assert calls <= MAX_CALLS_PER_CORE + \
            MAX_CALLS_PER_STATEFUL_LANE * stateful, (
                f"{calls} Python calls for one sample point over "
                f"{stateful} lane(s) of {SYNS} SYNs")
        assert list(pipeline.stats.memory_samples) == \
            [(pipeline.now, SYNS * stateful, 512 * SYNS * stateful)]


def test_eight_tenant_series_retain_at_most_200_bytes_per_core_sample(
        monkeypatch):
    profile = CampusProfile(flow_sizes=FlowSizeModel(cap_bytes=150_000))
    rows = [(bytes(m.data), m.timestamp, m.port)
            for m in CampusTrafficGenerator(7, profile).connections(
                200, duration=0.2)]
    cores = 2
    points = 0
    sample_point = CoreRuntime._sample_point

    def counted(runtime):
        nonlocal points
        points += 1
        sample_point(runtime)

    monkeypatch.setattr(CoreRuntime, "_sample_point", counted)

    def run():
        runtime = TenantRuntime(RuntimeConfig(cores=cores),
                                [TenantSpec(*spec) for spec in TENANTS8])
        # Thousands of sample points: one every 2 ms of the busy start,
        # one per late packet of the trace's long flows.
        return runtime, runtime.run(iter([Mbuf(*row) for row in rows]),
                                    memory_sample_interval=0.002)

    run()  # imports, compiled filters and caches are not the run's
    points = 0
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        runtime, report = run()
        stats = report.stats
        tenants = runtime.aggregate_tenants(report)
        del runtime, report
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    core_samples = cores * points
    assert points > 1000
    # Every core holds a stateful lane, so its face samples every point;
    # the packet tenants keep no series at all.
    assert len(stats.memory_samples) == core_samples
    assert sorted(name for name, agg in tenants.items()
                  if agg.memory_samples) == ["http", "web"]
    per_sample = retained / core_samples
    assert per_sample <= MAX_BYTES_PER_CORE_SAMPLE, (
        f"{per_sample:.0f} B retained per core sample point")
