"""Tests for traffic synthesis: flows, campus mix, workloads, pcap."""

import heapq
import random

import pytest

from repro.packet import Mbuf, TcpFlags, parse_stack
from repro.traffic import (
    CampusTrafficGenerator,
    FlowSpec,
    HttpsWorkloadGenerator,
    TcpFlow,
    dns_flow,
    http_flow,
    read_pcap,
    single_syn,
    ssh_flow,
    stratosphere_trace,
    tls_flow,
    udp_flow,
    write_pcap,
)
from repro.traffic.flows import merge_flows
from repro.traffic.pcap import PcapFormatError
from repro.traffic.strato import trace_names


SPEC = FlowSpec("10.1.2.3", "171.64.9.9", 45555, 443)


def stacks(packets):
    return [parse_stack(m) for m in packets]


class TestTcpFlow:
    def test_handshake_sequence(self):
        packets = TcpFlow(SPEC).handshake().build()
        flags = [s.tcp.flags() for s in stacks(packets)]
        assert flags == [TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK,
                         TcpFlags.ACK]

    def test_seq_numbers_consistent(self):
        flow = TcpFlow(SPEC)
        flow.handshake()
        flow.send(True, b"x" * 3000, ack_every=0)
        packets = stacks(flow.build())
        data = [s for s in packets if s.l4_payload()]
        first_seq = data[0].tcp.seq_no()
        assert data[1].tcp.seq_no() == first_seq + len(data[0].l4_payload())

    def test_mss_segmentation(self):
        flow = TcpFlow(SPEC, mss=1000)
        flow.handshake()
        flow.send(False, b"y" * 2500, ack_every=0)
        sizes = [len(s.l4_payload()) for s in stacks(flow.build())
                 if s.l4_payload()]
        assert sizes == [1000, 1000, 500]

    def test_delayed_acks_inserted(self):
        flow = TcpFlow(SPEC)
        flow.handshake()
        flow.send(False, b"z" * (1448 * 4), ack_every=2)
        packets = stacks(flow.build())
        acks = [s for s in packets[3:] if not s.l4_payload()]
        assert len(acks) == 2
        assert all(s.tcp.src_port() == 45555 for s in acks)  # from client

    def test_timestamps_monotonic(self):
        flow = TcpFlow(SPEC)
        flow.handshake()
        flow.send(True, b"a" * 5000)
        flow.fin()
        times = [m.timestamp for m in flow.build()]
        assert times == sorted(times)

    def test_fin_teardown_flags(self):
        packets = TcpFlow(SPEC).handshake().fin().build()
        last_three = [s.tcp.flags() for s in stacks(packets)[-3:]]
        assert last_three[0] & TcpFlags.FIN
        assert last_three[1] & TcpFlags.FIN

    def test_shuffle_makes_out_of_order(self):
        rng = random.Random(1)
        flow = TcpFlow(SPEC)
        flow.handshake()
        flow.send(True, b"b" * 10000, ack_every=0)
        in_order = [s.tcp.seq_no() for s in stacks(flow.build())]
        flow.shuffle_segments(rng)
        shuffled = [s.tcp.seq_no() for s in stacks(flow.build())]
        assert shuffled != in_order
        times = [m.timestamp for m in flow.build()]
        assert times == sorted(times)


class TestApplicationFlows:
    def test_tls_flow_parses_back(self):
        """The synthesized TLS flow round-trips through our own parser
        via a real subscription (strongest possible self-check)."""
        from repro import Runtime, RuntimeConfig
        got = []
        rt = Runtime(RuntimeConfig(cores=1), filter_str="tls",
                     datatype="tls_handshake", callback=got.append)
        rt.run(iter(tls_flow(SPEC, "selfcheck.org",
                             cipher_suite=0x1302)))
        assert len(got) == 1
        assert got[0].sni() == "selfcheck.org"
        assert got[0].cipher() == "TLS_AES_256_GCM_SHA384"

    def test_http_flow_shape(self):
        packets = http_flow(FlowSpec("10.1.1.1", "2.2.2.2", 1234, 80),
                            host="h", response_bytes=100)
        payloads = b"".join(s.l4_payload() for s in stacks(packets))
        assert b"GET / HTTP/1.1" in payloads
        assert b"200 OK" in payloads

    def test_ssh_flow_banners(self):
        packets = ssh_flow(FlowSpec("10.1.1.1", "2.2.2.2", 1234, 22))
        payloads = b"".join(s.l4_payload() for s in stacks(packets))
        assert b"SSH-2.0-OpenSSH_8.9p1" in payloads

    def test_dns_flow_two_datagrams(self):
        packets = dns_flow(FlowSpec("10.1.1.1", "8.8.8.8", 5353, 53),
                           name="q.test")
        assert len(packets) == 2
        assert all(s.udp is not None for s in stacks(packets))

    def test_single_syn_is_single_syn(self):
        packets = single_syn(SPEC)
        assert len(packets) == 1
        stack = parse_stack(packets[0])
        assert stack.tcp.flags() == TcpFlags.SYN

    def test_udp_flow_alternates(self):
        packets = udp_flow(FlowSpec("10.1.1.1", "2.2.2.2", 1111, 2222),
                           payload_sizes=(100, 200, 300))
        ports = [parse_stack(m).udp.src_port() for m in packets]
        assert ports == [1111, 2222, 1111]


class TestCampusGenerator:
    @pytest.fixture(scope="class")
    def sample(self):
        gen = CampusTrafficGenerator(seed=7)
        return gen.packets(duration=0.5, gbps=0.3)

    def test_sorted_and_parseable(self, sample):
        times = [m.timestamp for m in sample]
        assert times == sorted(times)
        parsed = [parse_stack(m) for m in sample[:500]]
        assert all(s.ip is not None for s in parsed)

    def test_deterministic(self):
        a = CampusTrafficGenerator(seed=11).packets(0.2, 0.05)
        b = CampusTrafficGenerator(seed=11).packets(0.2, 0.05)
        assert [m.data for m in a] == [m.data for m in b]
        c = CampusTrafficGenerator(seed=12).packets(0.2, 0.05)
        assert [m.data for m in a] != [m.data for m in c]

    def test_rate_roughly_requested(self, sample):
        total_bytes = sum(len(m) for m in sample)
        gbps = total_bytes * 8 / 0.5 / 1e9
        assert 0.1 < gbps < 0.9  # order of the requested 0.3

    def test_mix_calibration(self, sample):
        """Generated statistics approximate Appendix C (Table 2)."""
        from repro.conntrack import FiveTuple
        conns = {}
        for mbuf in sample:
            stack = parse_stack(mbuf)
            tup = FiveTuple.from_stack(stack)
            if tup is None:
                continue
            key = tup.canonical()
            entry = conns.setdefault(key, {"pkts": 0, "proto": tup.protocol,
                                           "syn_only": True})
            entry["pkts"] += 1
            if stack.tcp is None or \
                    not (stack.tcp.flags() & TcpFlags.SYN) or \
                    (stack.tcp.flags() & TcpFlags.ACK):
                if entry["pkts"] > 1 or stack.tcp is None or \
                        not (stack.tcp.flags() & TcpFlags.SYN):
                    entry["syn_only"] = False
        tcp = [c for c in conns.values() if c["proto"] == 6]
        tcp_frac = len(tcp) / len(conns)
        assert 0.58 < tcp_frac < 0.82  # paper: 69.7%
        syn_only = sum(1 for c in tcp if c["pkts"] == 1 and c["syn_only"])
        assert 0.5 < syn_only / len(tcp) < 0.8  # paper: 65%
        avg_pkt = sum(len(m) for m in sample) / len(sample)
        assert 700 < avg_pkt < 1100  # paper: 895 B

    def test_connections_count(self):
        gen = CampusTrafficGenerator(seed=5)
        packets = gen.connections(40, duration=0.2)
        assert packets
        times = [m.timestamp for m in packets]
        assert times == sorted(times)


class TestHttpsWorkload:
    def test_rate_structure(self):
        gen = HttpsWorkloadGenerator(seed=1, response_bytes=64 * 1024)
        packets = gen.packets(requests_per_second=50, duration=0.2)
        assert packets
        times = [m.timestamp for m in packets]
        assert times == sorted(times)

    def test_bytes_per_request(self):
        gen = HttpsWorkloadGenerator(response_bytes=256 * 1024)
        per_req = gen.bytes_per_request()
        assert 256 * 1024 < per_req < 256 * 1024 * 1.25

    def test_handshakes_parse(self):
        from repro import Runtime, RuntimeConfig
        got = []
        gen = HttpsWorkloadGenerator(seed=2, response_bytes=2048)
        rt = Runtime(RuntimeConfig(cores=1), filter_str="tls",
                     datatype="tls_handshake", callback=got.append)
        rt.run(iter(gen.packets(requests_per_second=20, duration=0.2)))
        assert len(got) == 4
        assert all(h.sni() == "bench.nginx.test" for h in got)


class TestStratosphere:
    def test_named_traces(self):
        assert len(trace_names()) == 4
        trace = stratosphere_trace("CTU-Normal-7", duration=5.0)
        assert len(trace) > 100
        times = [m.timestamp for m in trace]
        assert times == sorted(times)

    def test_unknown_trace(self):
        with pytest.raises(KeyError):
            stratosphere_trace("CTU-Normal-99")

    def test_traces_differ(self):
        a = stratosphere_trace("CTU-Normal-7", duration=2.0)
        b = stratosphere_trace("CTU-Normal-12", duration=2.0)
        assert len(a) != len(b)


class TestPcap:
    def test_round_trip(self, tmp_path):
        packets = tls_flow(SPEC, "pcap.example") + \
            dns_flow(FlowSpec("10.1.1.1", "8.8.8.8", 5353, 53),
                     start_ts=1.5)
        path = tmp_path / "trace.pcap"
        written = write_pcap(path, packets)
        assert written == len(packets)
        back = read_pcap(path)
        assert [m.data for m in back] == [m.data for m in packets]
        assert all(abs(a.timestamp - b.timestamp) < 1e-5
                   for a, b in zip(back, packets))

    def test_snaplen_truncation(self, tmp_path):
        packets = [Mbuf(b"\x01" * 1000, timestamp=0.5)]
        path = tmp_path / "snap.pcap"
        write_pcap(path, packets, snaplen=100)
        back = read_pcap(path)
        assert len(back[0].data) == 100

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(PcapFormatError):
            read_pcap(path)

    def test_truncated_file(self, tmp_path):
        packets = [Mbuf(b"\x01" * 100)]
        path = tmp_path / "trunc.pcap"
        write_pcap(path, packets)
        data = path.read_bytes()
        path.write_bytes(data[:-50])
        with pytest.raises(PcapFormatError):
            read_pcap(path)

    def test_offline_mode_through_runtime(self, tmp_path):
        """Write a trace, read it back, analyze it — Appendix B's
        offline mode."""
        from repro import Runtime, RuntimeConfig
        path = tmp_path / "offline.pcap"
        write_pcap(path, tls_flow(SPEC, "offline.example.com"))
        got = []
        rt = Runtime(RuntimeConfig(cores=1), filter_str="tls",
                     datatype="tls_handshake", callback=got.append)
        rt.run(iter(read_pcap(path)))
        assert [h.sni() for h in got] == ["offline.example.com"]


class TestPcapPropertyRoundTrip:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(frames=st.lists(st.binary(min_size=1, max_size=400),
                           min_size=1, max_size=20),
           times=st.lists(st.floats(0, 1e6), min_size=20, max_size=20))
    def test_property_round_trip(self, frames, times, tmp_path_factory):
        """Arbitrary frames and timestamps survive pcap round-trips."""
        path = tmp_path_factory.mktemp("pcap") / "prop.pcap"
        mbufs = [Mbuf(frame, timestamp=ts)
                 for frame, ts in zip(frames, sorted(times))]
        write_pcap(path, mbufs)
        back = read_pcap(path)
        assert [m.data for m in back] == [m.data for m in mbufs]
        for a, b in zip(back, mbufs):
            assert abs(a.timestamp - b.timestamp) < 1e-5


class TestMergeFlows:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 6), max_size=8), max_size=6))
    def test_orders_exactly_as_heapq_merge(self, flows):
        """Same order as the k-way merge it replaced — ties in flow
        order, and a flow whose timestamps dip (not time-sorted) keeps
        its later packets behind the earlier, larger one."""
        flows = [[Mbuf(b"%d.%d" % (f, i), timestamp=float(ts))
                  for i, ts in enumerate(flow)]
                 for f, flow in enumerate(flows)]
        expected = list(heapq.merge(*flows, key=lambda m: m.timestamp))
        assert [m.data for m in merge_flows(flows)] == \
            [m.data for m in expected]
