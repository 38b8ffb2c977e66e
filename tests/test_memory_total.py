"""The connection table's byte total is exact at every sample point.

``ConnTable.memory_bytes`` reads every live connection's base bytes
from the table's size, and one by one only the connections on the
table's record of those carrying more: a reassembler or buffered
packets. At every sample point of every run below, this holds the total
to the per-connection walk it replaced,
``sum(conn.memory_bytes for conn in table)``, and the record to exactly
the connections that carry such state — so a connection the record
keeps after it gave its state up (or left the table) fails here even
when it carries no bytes at that moment.

The runs make, grow, shrink and drop that state every way the pipeline
can: the lazy and the buffered reassembler, packets buffered until a
filter resolves, link reordering, loss and duplication, the ``evict``
and ``shed`` memory policies under a memory spike, the overload
ladder's rung-3 downgrade, and a tenant table swapping mid-run on one
core, four cores and two workers (forked: the check runs inside them).
"""

import pytest

from repro import FaultPlan, FaultSpec, Runtime, RuntimeConfig
from repro.core.cycles import CostModel
from repro.core.pipeline import Lane
from repro.netem import ImpairmentConfig
from repro.packet import Mbuf
from repro.tenancy import ReconfigureEvent, TenantRuntime, TenantSpec
from repro.traffic import BurstTrafficGenerator, \
    CampusTrafficGenerator, FlowSpec, tls_flow
from repro.traffic.flows import merge_flows

#: Virtual seconds between sample points: dozens in the busy first
#: 0.3 s of the campus trace, one per late packet of its long flows.
INTERVAL = 0.01

_sample_memory = Lane.sample_memory


def _carrying(table):
    return {conn.key for conn in table
            if conn.reassembler is not None or conn.buffered_mbufs}


@pytest.fixture
def seen(monkeypatch):
    """Check every stateful lane's table at every sample point, before
    the lane samples it; count the points and the largest record."""
    seen = {"points": 0, "record": 0}

    def sample_memory(lane):
        table = lane.table
        record = {conn.key for conn in table.holding()}
        assert record == _carrying(table)
        assert table.memory_bytes == sum(conn.memory_bytes
                                         for conn in table)
        seen["points"] += 1
        seen["record"] = max(seen["record"], len(record))
        return _sample_memory(lane)

    monkeypatch.setattr(Lane, "sample_memory", sample_memory)
    return seen


_traces = {}


def _stalled(port):
    """A TLS flow missing its fifth segment: the seven after the hole
    stay with its reassembler, and the connection stays mid-parse."""
    flow = tls_flow(FlowSpec("10.0.0.1", "171.64.0.1", port, 443),
                    "example.com", appdata_bytes=9000,
                    start_ts=0.001 * (port - 40000))
    return flow[:4] + flow[5:12]


def _trace(name):
    if name not in _traces:
        if name == "campus":
            mbufs = CampusTrafficGenerator(seed=21).packets(
                duration=0.3, gbps=0.4)
        else:  # a burst, and ten stalled flows for rung 3 to downgrade
            mbufs = merge_flows(
                [BurstTrafficGenerator(seed=1).packets(duration=1.0,
                                                       gbps=0.05)]
                + [_stalled(40000 + k) for k in range(10)])
        _traces[name] = [(bytes(m.data), m.timestamp, m.port)
                         for m in mbufs]
    return [Mbuf(*row) for row in _traces[name]]


def _run(filter_str, datatype, trace="campus", **config):
    runtime = Runtime(RuntimeConfig(cores=2, **config),
                      filter_str=filter_str, datatype=datatype)
    return runtime.run(iter(_trace(trace)),
                       memory_sample_interval=INTERVAL)


_IMPAIRED = ImpairmentConfig(seed=3, loss_rate=0.02, reorder_rate=0.05,
                             reorder_depth=6, duplicate_rate=0.02)


@pytest.mark.parametrize("filter_str,datatype,config", [
    ("tls", "tls_handshake", {}),
    ("tls", "tls_handshake", {"reassembler": "buffered"}),
    ("tcp.port = 80", "byte_stream", {"reassembler": "buffered"}),
    ("tls", "packet", {}),
    ("tls", "tls_handshake", {"impairment": _IMPAIRED}),
    ("tcp.port = 80", "byte_stream", {"impairment": _IMPAIRED}),
], ids=["lazy", "buffered", "buffered-stream", "buffered-packets",
        "netem-lazy", "netem-stream"])
def test_total_is_the_walk(seen, filter_str, datatype, config):
    report = _run(filter_str, datatype, **config)
    assert report.stats.conns_created
    assert seen["points"] > 50
    assert seen["record"] > 0


@pytest.mark.parametrize("policy", ["evict", "shed"])
def test_total_is_the_walk_under_memory_policy(seen, policy):
    spike = FaultPlan(faults=(FaultSpec(
        kind="memory_spike", at_time=0.1, duration=0.1, bytes=30_000),))
    report = _run("tls", "tls_handshake", memory_policy=policy,
                  memory_limit_bytes=60_000, fault_plan=spike)
    assert report.faults.injected.get("memory_spike") == 2  # one a core
    if policy == "evict":
        assert report.faults.conns_evicted > 0
    else:
        assert report.faults.conns_shed > 0
    assert seen["record"] > 0


@pytest.mark.parametrize("reassembler", ["lazy", "buffered"])
def test_total_is_the_walk_through_the_rung_3_downgrade(seen,
                                                        reassembler):
    report = _run("tls", "tls_handshake", trace="burst",
                  reassembler=reassembler,
                  cost_model=CostModel(conn_track=3e7),
                  overload_policy="ladder", overload_target_lag=0.02,
                  overload_heavy_bytes=0)
    assert report.overload.max_rung_seen == 3
    assert report.overload.conns_downgraded == 10
    assert seen["record"] > 0


_SWAPPING = [
    TenantSpec("web", "tcp.dst_port = 443", "connection"),
    TenantSpec("tls", "tls", "tls_handshake"),
    TenantSpec("http", "tcp.port = 80", "byte_stream"),
    TenantSpec("dns", "udp", "packet"),
    TenantSpec("late", "tls", "packet", start=False),
]


@pytest.mark.parametrize("cores,parallel", [(1, False), (4, False),
                                            (2, True)],
                         ids=["cores1", "cores4", "par2"])
def test_total_is_the_walk_across_a_tenant_swap(seen, cores, parallel):
    mbufs = _trace("campus")
    third = mbufs[len(mbufs) // 3].timestamp
    mid = mbufs[len(mbufs) // 2].timestamp
    events = [ReconfigureEvent(third, "drop", "tls"),
              ReconfigureEvent(mid, "add", "late"),
              ReconfigureEvent(mid, "add", "tls")]
    runtime = TenantRuntime(
        RuntimeConfig(cores=cores, parallel=parallel), _SWAPPING,
        events=events)
    report = runtime.run(iter(mbufs), memory_sample_interval=INTERVAL)
    assert report.tenancy["epoch"] == 3
    if not parallel:  # the workers checked their own lanes
        assert seen["points"] > 50
        assert seen["record"] > 0
