"""Tests for protocol-anomaly ("weird") tracking."""

import pytest

from repro import Runtime, RuntimeConfig
from repro.conntrack import Connection, FiveTuple
from repro.packet import TcpFlags
from repro.traffic import FlowSpec, TcpFlow


def make_conn():
    import ipaddress
    tup = FiveTuple(ipaddress.ip_address("10.0.0.1").packed,
                    ipaddress.ip_address("10.0.0.2").packed,
                    1234, 443, 6)
    return Connection(tup.canonical(), tup.src_is_first(), now=0.0)


class TestWeirdDetection:
    def test_syn_and_fin(self):
        conn = make_conn()
        conn.record_packet(True, 60, 0, 0.0,
                           TcpFlags.SYN | TcpFlags.FIN, seq=100)
        assert conn.weirds == {"syn_and_fin": 1}

    def test_data_on_syn(self):
        conn = make_conn()
        conn.record_packet(True, 120, 60, 0.0, TcpFlags.SYN, seq=100)
        assert "data_on_syn" in conn.weirds

    def test_fin_without_handshake(self):
        conn = make_conn()
        conn.record_packet(True, 60, 0, 0.0,
                           TcpFlags.FIN | TcpFlags.ACK, seq=100)
        assert "fin_without_handshake" in conn.weirds

    def test_data_before_established(self):
        conn = make_conn()
        conn.record_packet(True, 500, 440, 0.0,
                           TcpFlags.PSH | TcpFlags.ACK, seq=100)
        assert "data_before_established" in conn.weirds

    def test_data_after_close(self):
        conn = make_conn()
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.RST, seq=100)
        conn.record_packet(True, 500, 440, 0.1,
                           TcpFlags.PSH | TcpFlags.ACK, seq=101)
        assert "data_after_close" in conn.weirds

    def test_large_seq_jump(self):
        conn = make_conn()
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN, seq=100)
        conn.record_packet(False, 60, 0, 0.1,
                           TcpFlags.SYN | TcpFlags.ACK, seq=5000)
        conn.record_packet(True, 500, 440, 0.2,
                           TcpFlags.PSH | TcpFlags.ACK, seq=101)
        conn.record_packet(True, 500, 440, 0.3,
                           TcpFlags.PSH | TcpFlags.ACK,
                           seq=101 + 440 + 50_000_000)
        assert "large_seq_jump" in conn.weirds

    def test_clean_handshake_no_weirds(self):
        conn = make_conn()
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN, seq=100)
        conn.record_packet(False, 60, 0, 0.1,
                           TcpFlags.SYN | TcpFlags.ACK, seq=900)
        conn.record_packet(True, 60, 0, 0.2, TcpFlags.ACK, seq=101)
        conn.record_packet(True, 500, 440, 0.3,
                           TcpFlags.PSH | TcpFlags.ACK, seq=101)
        assert conn.weirds == {}
        # ... and no private dict was born to say so.
        assert not isinstance(conn.weirds, dict)

    def test_weirds_reach_connection_record(self):
        got = []
        runtime = Runtime(RuntimeConfig(cores=1), filter_str="tcp",
                          datatype="connection", callback=got.append)
        # SYN carrying data: a classic scanner/evasion artifact.
        flow = TcpFlow(FlowSpec("10.0.0.1", "1.1.1.1", 1000, 443))
        flow._emit(True, b"evil", int(TcpFlags.SYN))
        flow.handshake()
        flow.fin()
        runtime.run(iter(flow.build()))
        assert got[0].weirds.get("data_on_syn") == 1

    def test_campus_traffic_mostly_clean(self):
        from repro.traffic import CampusTrafficGenerator
        got = []
        runtime = Runtime(RuntimeConfig(cores=2), filter_str="tcp",
                          datatype="connection", callback=got.append)
        traffic = CampusTrafficGenerator(seed=33).packets(duration=0.3,
                                                          gbps=0.1)
        runtime.run(iter(traffic))
        weird_conns = [r for r in got if r.weirds]
        assert len(weird_conns) <= len(got) * 0.1
