"""The packed connection key: one ``bytes`` object,
``ip‖port‖ip‖port‖proto`` in network byte order, 13 bytes for IPv4 and
37 for IPv6, against the five-part tuple it replaced.

The tuple form survives here only as the reference: keys must round-trip
through it, sort as it sorts within one address family, hash to the
CRC-32 the tracer sampled on, and the table's two tie-broken sorts must
order two address families as it did."""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime, RuntimeConfig
from repro.conntrack import ConnTable
from repro.conntrack.five_tuple import FiveTuple, pack_key, unpack_key
from repro.packet import Mbuf, build_tcp_packet, parse_stack
from repro.packet.tcp import TcpFlags
from repro.telemetry.trace import stable_sample_hash

# A few fixed addresses per family beside random ones, so that endpoints
# often share an address and the ports decide the order.
V4 = st.one_of(st.sampled_from([b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02"]),
               st.binary(min_size=4, max_size=4))
V6 = st.one_of(st.sampled_from([b"\x20\x01" + bytes(14),
                                b"\x20\x01" + bytes(13) + b"\x01"]),
               st.binary(min_size=16, max_size=16))
PORT = st.integers(0, 65535)
PROTO = st.one_of(st.sampled_from([6, 17]), st.integers(0, 255))


def endpoints(addr):
    return st.tuples(addr, PORT, addr, PORT, PROTO)


FIVE = st.one_of(endpoints(V4), endpoints(V6))


def old_canonical(src_ip, src_port, dst_ip, dst_port, proto):
    """The tuple key the packed one replaced."""
    if (src_ip, src_port) <= (dst_ip, dst_port):
        return (src_ip, src_port, dst_ip, dst_port, proto)
    return (dst_ip, dst_port, src_ip, src_port, proto)


def old_sample_hash(a_ip, a_port, b_ip, b_port, proto):
    """The tracer's sampling hash over the tuple key, as it was."""
    return zlib.crc32(b"".join((
        a_ip, a_port.to_bytes(2, "big"),
        b_ip, b_port.to_bytes(2, "big"),
        proto.to_bytes(1, "big"),
    ))) & 0xFFFFFFFF


@settings(max_examples=300, deadline=None)
@given(FIVE)
def test_key_round_trips_in_both_directions(five):
    src_ip, src_port, dst_ip, dst_port, proto = five
    forward = FiveTuple(src_ip, dst_ip, src_port, dst_port, proto)
    key = forward.canonical()
    assert type(key) is bytes and len(key) == (13 if len(src_ip) == 4
                                               else 37)
    assert key == forward.reversed().canonical()
    assert unpack_key(key) == old_canonical(*five)
    assert pack_key(*unpack_key(key)) == key
    assert key[-1] == proto
    for orig_first in (True, False):
        tup = FiveTuple.from_key(key, orig_first)
        # The first reads the cache from_key sets; the second packs anew.
        assert tup.canonical() == key == tup.reversed().canonical()
    assert FiveTuple.from_key(key, forward.src_is_first()) == forward


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(endpoints(V4), min_size=2, max_size=12),
                 st.lists(endpoints(V6), min_size=2, max_size=12)))
def test_packed_keys_sort_as_tuples_within_one_family(flows):
    tuples = [old_canonical(*five) for five in flows]
    assert sorted(pack_key(*t) for t in tuples) == \
        [pack_key(*t) for t in sorted(tuples)]


@settings(max_examples=300, deadline=None)
@given(FIVE)
def test_sample_hash_is_the_old_joined_crc(five):
    canon = old_canonical(*five)
    assert stable_sample_hash(pack_key(*canon)) == old_sample_hash(*canon)


def _two_families(table):
    """An IPv4 and an IPv6 connection, born together, whose packed keys
    sort the other way round from their tuples: the IPv4 address is the
    IPv6 address's first four bytes, and the IPv4 key's next byte (its
    port's high byte) exceeds the IPv6 address's fifth."""
    v4 = (b"\x0a\x00\x00\x01", 50000, b"\x0a\x00\x00\x02", 443, 6)
    v6 = (b"\x0a\x00\x00\x01" + bytes(12), 443,
          b"\x0a\x00\x00\x02" + bytes(12), 50000, 6)
    assert v4 < v6 and pack_key(*v4) > pack_key(*v6)
    for five in (v6, v4):
        table.create_with_key(pack_key(*five), True, now=1.0)
    return [pack_key(*v4), pack_key(*v6)]


def test_eviction_ties_across_families_keep_tuple_order():
    table = ConnTable()
    expected = _two_families(table)
    assert [c.key for c in table.evict_idle(0)] == expected


def test_heavy_connection_ties_across_families_keep_tuple_order():
    table = ConnTable()
    expected = _two_families(table)
    for conn in table:  # each carrying one 100-byte buffered packet
        conn.buffer_packet(Mbuf(bytes(100)))
        table.hold(conn)
    assert [c.key for c in table.heavy_connections(0)] == expected


def test_the_pipeline_keys_flows_as_five_tuple_canonical_does():
    """The columnar hot path packs its own key; a record's deferred
    five-tuple must come back as the originator's, whichever endpoint
    sorts first, on both address families."""
    flows = [("10.0.0.9", "10.0.0.1", 50000, 443),
             ("10.0.0.2", "10.0.0.7", 50002, 443),
             ("2001:db8::9", "2001:db8::1", 50001, 443),
             ("2001:db8::1", "2001:db8::9", 50003, 80)]
    mbufs = []
    for i, (client, server, cport, sport) in enumerate(flows):
        ts = 0.001 * i
        mbufs.append(Mbuf(build_tcp_packet(client, server, cport, sport,
                                           flags=TcpFlags.SYN), ts))
        mbufs.append(Mbuf(build_tcp_packet(server, client, sport, cport,
                                           flags=TcpFlags.SYN
                                           | TcpFlags.ACK), ts + 1e-4))
    records = []
    Runtime(RuntimeConfig(cores=1), "tcp", "connection",
            callback=records.append).run(iter(mbufs))
    got = {(r.five_tuple.src_port, r.five_tuple.dst_port): r
           for r in records}
    assert len(got) == len(flows)
    for client, server, cport, sport in flows:
        tup = got[(cport, sport)].five_tuple
        expected = FiveTuple.from_stack(parse_stack(Mbuf(
            build_tcp_packet(client, server, cport, sport))))
        assert tup == expected
        assert tup.canonical() == expected.canonical()
        assert len(tup.canonical()) == (37 if ":" in client else 13)
