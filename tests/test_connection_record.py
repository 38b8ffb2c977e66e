"""The ``ConnectionRecord`` contract: ``from_connection`` fills the
record slot by slot and defers its five-tuple, yet every record it
makes equals — by value, by ``repr`` and attribute by attribute — the
one the public keyword constructor makes from the same connection."""

import pytest

from repro.conntrack import Connection
from repro.conntrack.five_tuple import FiveTuple, pack_key
from repro.core.datatypes import ConnectionRecord
from repro.packet.tcp import TcpFlags

LOW = (b"\x0a\x00\x00\x01", 443)
HIGH = (b"\x0a\x00\x00\x02", 50000)
KEY = pack_key(*LOW, *HIGH, 6)

SYN, ACK, FIN, RST = TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST


def drive(orig_first, weirds, service, close):
    """A handshake and one data segment each way, then the close."""
    conn = Connection(KEY, orig_first, now=1.0)
    conn.record_packet(True, 74, 0, 1.0, SYN, seq=100)
    conn.record_packet(False, 74, 0, 1.1, SYN | ACK, seq=900)
    conn.record_packet(True, 66, 0, 1.2, ACK, seq=101)
    conn.record_packet(True, 266, 200, 1.3, ACK, seq=101)
    conn.record_packet(False, 1066, 1000, 1.4, ACK, seq=901)
    if weirds:
        conn.record_packet(True, 266, 200, 1.5, ACK, seq=101)  # late
        conn.weird("custom")
    if close == "fin":
        conn.record_packet(True, 66, 0, 1.6, FIN | ACK, seq=301)
        conn.record_packet(False, 66, 0, 1.7, FIN | ACK, seq=1901)
    elif close == "rst":
        conn.record_packet(False, 66, 0, 1.6, RST, seq=1901)
    conn.service_name = service
    return conn


def by_keyword(conn, five_tuple):
    return ConnectionRecord(
        five_tuple=five_tuple, first_ts=conn.first_ts,
        last_ts=conn.last_ts, syn_ts=conn.syn_ts,
        established_ts=conn.established_ts, pkts_orig=conn.pkts_orig,
        pkts_resp=conn.pkts_resp, bytes_orig=conn.bytes_orig,
        bytes_resp=conn.bytes_resp,
        payload_bytes_orig=conn.payload_bytes_orig,
        payload_bytes_resp=conn.payload_bytes_resp,
        ooo_orig=conn.ooo_orig, ooo_resp=conn.ooo_resp,
        history=conn.history, service=conn.service_name,
        terminated_gracefully=conn.terminated, weirds=dict(conn.weirds))


@pytest.mark.parametrize("close", [None, "fin", "rst"])
@pytest.mark.parametrize("service", [None, "tls"])
@pytest.mark.parametrize("weirds", [False, True])
@pytest.mark.parametrize("orig_first", [True, False])
def test_from_connection_equals_keyword_record(orig_first, weirds, service,
                                               close):
    conn = drive(orig_first, weirds, service, close)
    (src, sport), (dst, dport) = (LOW, HIGH) if orig_first else (HIGH, LOW)
    expected = by_keyword(conn, FiveTuple(src, dst, sport, dport, 6))

    record = ConnectionRecord.from_connection(conn)
    assert conn._five_tuple is None  # nothing cached on the connection
    assert repr(record) == repr(expected)
    assert record == expected and not record != expected
    assert record.five_tuple.canonical() == KEY
    assert record.terminated_gracefully == (close is not None)
    assert bool(record.weirds) == weirds
    assert (record.duration, record.total_packets, record.total_bytes,
            record.is_single_syn) == \
        (expected.duration, expected.total_packets, expected.total_bytes,
         expected.is_single_syn)

    # The record owns its weirds: later anomalies on the connection, or
    # on another record, do not reach it.
    snapshot = dict(record.weirds)
    conn.weird("after_delivery")
    ConnectionRecord.from_connection(conn).weirds["other"] = 1
    assert record.weirds == snapshot and record == expected


def test_records_differ_by_any_field_and_are_unhashable():
    conn = drive(True, False, None, "fin")
    record = ConnectionRecord.from_connection(conn)
    assert record != ConnectionRecord.from_connection(
        drive(False, False, None, "fin"))
    other = ConnectionRecord.from_connection(conn)
    other.history += "x"
    assert record != other
    assert record != object()
    with pytest.raises(TypeError):
        hash(record)


def test_assigned_five_tuple_replaces_the_deferred_one():
    record = ConnectionRecord.from_connection(drive(True, False, None, None))
    reverse = record.five_tuple.reversed()
    record.five_tuple = reverse
    assert record.five_tuple is reverse
    assert ConnectionRecord().five_tuple is None
    assert ConnectionRecord().weirds == {} and \
        ConnectionRecord().weirds is not ConnectionRecord().weirds
