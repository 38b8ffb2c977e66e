"""Tests for multi-port ingest (the paper's dual-NIC stress setup)."""

import json

import pytest

from repro import Runtime, RuntimeConfig
from repro.filter import compile_filter
from repro.filter.hardware import p4_capabilities
from repro.packet import Mbuf
from repro.packet.columnar import decode_mbufs
from repro.traffic import (
    CampusTrafficGenerator,
    FlowSpec,
    duplicate_across_ports,
    tls_flow,
)


class TestDuplicateAcrossPorts:
    def test_duplication(self):
        packets = tls_flow(FlowSpec("10.0.0.1", "1.1.1.1", 1000, 443),
                           "dup.example")
        doubled = duplicate_across_ports(packets, ports=2)
        assert len(doubled) == 2 * len(packets)
        ports = {m.port for m in doubled}
        assert ports == {0, 1}
        times = [m.timestamp for m in doubled]
        assert times == sorted(times)

    def test_invalid_ports(self):
        with pytest.raises(ValueError):
            duplicate_across_ports([], ports=0)


class TestMultiPortRuntime:
    def test_double_ingress_accounting(self):
        traffic = CampusTrafficGenerator(seed=66).packets(duration=0.2,
                                                          gbps=0.05)
        doubled = duplicate_across_ports(traffic, ports=2)
        runtime = Runtime(RuntimeConfig(cores=4), filter_str="",
                          datatype="packet", callback=None, ports=2)
        stats = runtime.run(iter(doubled)).stats
        assert stats.ingress_packets == 2 * len(traffic)
        for nic in runtime.nics:
            assert nic.stats.received_packets == len(traffic)

    def test_flow_affinity_across_ports(self):
        """Duplicated packets of a flow land on the same core from
        either NIC (symmetric RSS with the same key/table)."""
        packets = tls_flow(FlowSpec("10.0.0.7", "171.64.3.3", 1234, 443),
                           "affinity.example")
        doubled = duplicate_across_ports(packets, ports=2)
        runtime = Runtime(RuntimeConfig(cores=8), filter_str="",
                          datatype="packet", callback=None, ports=2)
        runtime.run(iter(doubled))
        active = [i for i, p in enumerate(runtime.pipelines)
                  if p.lanes[0].stats.packets]
        assert len(active) == 1  # one flow → one core, both ports

    def test_duplicated_tls_still_parses(self):
        """The paper's stress mode processes every packet twice; the
        duplicate stream of a flow hits the same connection (duplicate
        segments are dropped by the reorderer) and the handshake still
        parses exactly once."""
        got = []
        packets = tls_flow(FlowSpec("10.0.0.9", "171.64.3.9", 4321, 443),
                           "twice.example.com")
        doubled = duplicate_across_ports(packets, ports=2)
        runtime = Runtime(RuntimeConfig(cores=4), filter_str="tls",
                          datatype="tls_handshake", callback=got.append,
                          ports=2)
        runtime.run(iter(doubled))
        assert [h.sni() for h in got] == ["twice.example.com"]

    def test_unexpressible_port_does_not_slow_the_other(self):
        """Port 1's flow rules match on ``ipv4.ttl``, which has no
        column, so its rows take the per-packet ``receive``; port 0's
        fast rows are still served from their columns and never get a
        ``PacketStack``. Stats equal the all-scalar run's."""
        traffic = CampusTrafficGenerator(seed=66).packets(duration=0.2,
                                                          gbps=0.05)
        rows = [(m.data, m.timestamp, m.port)
                for m in duplicate_across_ports(traffic, ports=2)]
        hw = compile_filter("ipv4.ttl > 5 and tcp",
                            nic=p4_capabilities()).hardware

        def run(columnar):
            mbufs = [Mbuf(*row) for row in rows]
            runtime = Runtime(RuntimeConfig(cores=4, columnar=columnar),
                              filter_str="tcp", datatype="connection",
                              callback=None, ports=2)
            runtime.nics[1].install_hardware_filter(hw)
            stats = runtime.run(iter(mbufs)).stats
            return mbufs, json.dumps(stats.to_dict(), sort_keys=True)

        mbufs, digest = run(columnar=True)
        assert digest == run(columnar=False)[1]
        fast = decode_mbufs([Mbuf(m.data) for m in mbufs]).fast
        by_port = {port: [m for m, f in zip(mbufs, fast)
                          if f and m.port == port] for port in (0, 1)}
        assert len(by_port[0]) == len(by_port[1]) > 0.9 * len(traffic)
        assert all(m.stack is None for m in by_port[0])
        assert all(m.stack is not None for m in by_port[1])

    def test_single_port_unchanged(self):
        got = []
        packets = tls_flow(FlowSpec("10.0.0.1", "1.1.1.1", 1000, 443),
                           "one.example.com")
        runtime = Runtime(RuntimeConfig(cores=2), filter_str="tls",
                          datatype="tls_handshake", callback=got.append)
        runtime.run(iter(packets))
        assert len(runtime.nics) == 1
        assert [h.sni() for h in got] == ["one.example.com"]
