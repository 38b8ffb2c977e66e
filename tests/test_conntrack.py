"""Tests for connection tracking: five-tuples, timer wheels, the table."""

from types import FunctionType, MappingProxyType, MemberDescriptorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conntrack import (
    ConnState,
    ConnTable,
    Connection,
    ConnectionTimers,
    FiveTuple,
    TcpConnState,
    TimeoutConfig,
    TimerWheel,
)
from repro import Runtime, RuntimeConfig
from repro.conntrack.timerwheel import DERIVED
from repro.core.datatypes import ConnectionRecord
from repro.packet import Mbuf, TcpFlags, build_tcp_packet, \
    build_udp_packet, parse_stack


def ft(src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=443, proto=6):
    import ipaddress
    return FiveTuple(
        ipaddress.ip_address(src).packed, ipaddress.ip_address(dst).packed,
        sport, dport, proto,
    )


def conn_of(tup, now=0.0):
    """A connection originated by ``tup``'s source."""
    return Connection(tup.canonical(), tup.src_is_first(), now)


def create(table, tup, now):
    """Insert the connection ``tup``'s source originates, as the
    pipeline does on a lookup miss."""
    return table.create_with_key(tup.canonical(), tup.src_is_first(), now)


class TestFiveTuple:
    def test_from_stack(self):
        stack = parse_stack(Mbuf(build_tcp_packet("1.2.3.4", "5.6.7.8",
                                                  10, 20)))
        tup = FiveTuple.from_stack(stack)
        assert tup.src_port == 10 and tup.dst_port == 20
        assert tup.protocol == 6

    def test_from_stack_non_ip(self):
        assert FiveTuple.from_stack(parse_stack(Mbuf(b"\x00" * 64))) is None

    def test_canonical_direction_insensitive(self):
        assert ft().canonical() == ft().reversed().canonical()

    def test_canonical_distinguishes_flows(self):
        assert ft(sport=1).canonical() != ft(sport=2).canonical()
        assert ft(proto=6).canonical() != ft(proto=17).canonical()

    def test_same_direction(self):
        tup = ft()
        assert tup.same_direction(tup)
        assert not tup.same_direction(tup.reversed())

    def test_str(self):
        assert "10.0.0.1:1234 -> 10.0.0.2:443/tcp" == str(ft())


class Node:
    """The least an intrusive wheel needs of its items: one writable
    deadline attribute per wheel that may hold them."""

    __slots__ = ("name", "deadline", "timer_establish", "timer_inactive")

    def __init__(self, name):
        self.name = name
        self.deadline = None
        self.timer_establish = None
        self.timer_inactive = None

    def __repr__(self):
        return f"Node({self.name!r})"


class TestTimerWheel:
    def test_basic_expiry(self):
        wheel = TimerWheel(tick=1.0, num_slots=16)
        a = Node("a")
        wheel.schedule(a, 5.0)
        assert wheel.advance(4.0) == []
        assert wheel.advance(5.5) == [a]
        assert a.deadline is None

    def test_reschedule_pushes_back(self):
        wheel = TimerWheel(tick=1.0, num_slots=16)
        a = Node("a")
        wheel.schedule(a, 3.0)
        wheel.schedule(a, 10.0)  # refresh
        assert wheel.advance(5.0) == []
        assert wheel.advance(10.5) == [a]

    def test_cancel(self):
        wheel = TimerWheel(tick=1.0, num_slots=16)
        a = Node("a")
        wheel.schedule(a, 3.0)
        wheel.cancel(a)
        assert wheel.advance(10.0) == []

    def test_beyond_horizon(self):
        wheel = TimerWheel(tick=1.0, num_slots=4)
        far = Node("far")
        wheel.schedule(far, 100.0)
        assert wheel.advance(50.0) == []
        assert wheel.advance(101.0) == [far]

    def test_many_keys_fire_in_deadline_order_window(self):
        wheel = TimerWheel(tick=0.5, num_slots=32)
        nodes = [Node(i) for i in range(100)]
        for i, node in enumerate(nodes):
            wheel.schedule(node, 1.0 + i * 0.1)
        fired = wheel.advance(5.99)
        assert sorted(node.name for node in fired) == list(range(50))
        assert [n.name for n in nodes if n.deadline is not None] == \
            list(range(50, 100))

    def test_len_tracks_live_keys(self):
        """Liveness is the item's own deadline: the wheel keeps no
        per-item state, so a cancel leaves nothing behind to count."""
        wheel = TimerWheel(tick=1.0, num_slots=8)
        a, b = Node("a"), Node("b")
        wheel.schedule(a, 2.0)
        wheel.schedule(b, 3.0)
        assert (a.deadline, b.deadline) == (2.0, 3.0)
        wheel.cancel(b)
        assert (a.deadline, b.deadline) == (2.0, None)
        assert not hasattr(wheel, "_deadlines")
        assert wheel.advance(10.0) == [a]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TimerWheel(tick=0, num_slots=8)
        with pytest.raises(ValueError):
            TimerWheel(tick=1, num_slots=1)

    def test_two_wheels_share_an_item(self):
        """Each wheel owns one attribute; neither disturbs the other."""
        fine = TimerWheel(1.0, 16, "timer_establish")
        coarse = TimerWheel(4.0, 16, "timer_inactive")
        a = Node("a")
        fine.schedule(a, 3.0)
        coarse.schedule(a, 9.0)
        assert fine.advance(5.0) == [a] and coarse.advance(5.0) == []
        assert (a.timer_establish, a.timer_inactive) == (None, 9.0)
        assert coarse.advance(9.0) == [a]

    @settings(max_examples=30, deadline=None)
    @given(
        deadlines=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=40),
        advance_to=st.floats(0.0, 60.0),
    )
    def test_property_fired_iff_due(self, deadlines, advance_to):
        """Invariant: after advance(t), a key has fired iff deadline<=t."""
        wheel = TimerWheel(tick=0.7, num_slots=16)
        nodes = [Node(i) for i in range(len(deadlines))]
        for node, deadline in zip(nodes, deadlines):
            wheel.schedule(node, deadline)
        fired = {node.name for node in wheel.advance(advance_to)}
        for i, deadline in enumerate(deadlines):
            assert (i in fired) == (deadline <= advance_to)


def tcp_conn(sport, now=0.0):
    return conn_of(ft(sport=sport), now)


def udp_conn(sport, now=0.0):
    return conn_of(ft(sport=sport, proto=17), now)


def packet(timers, conn, now, flags=None, from_orig=False):
    """Record one packet on ``conn`` and report it to ``timers`` as the
    pipeline does: only a change of TCP state or a packet trailing a
    close."""
    was, last_ts = conn.tcp_state, conn.last_ts
    conn.record_packet(from_orig, 60, 0, now,
                       *(() if flags is None else (flags,)))
    if conn.tcp_state is not was or was is TcpConnState.CLOSED:
        timers.on_transition(conn, was, last_ts)


class TestConnectionTimers:
    def test_two_tier(self):
        timers = ConnectionTimers(establish_timeout=5.0,
                                  inactivity_timeout=300.0)
        syn_only, handshake = tcp_conn(1), tcp_conn(2)
        timers.on_new_connection(syn_only, now=0.0)
        timers.on_new_connection(handshake, now=0.0)
        packet(timers, handshake, 1.0, TcpFlags.SYN | TcpFlags.ACK)
        expired = timers.advance(10.0)
        assert expired == [syn_only]
        assert timers.advance(200.0) == []
        assert timers.advance(302.0) == [handshake]

    def test_activity_refresh(self):
        timers = ConnectionTimers(5.0, 300.0)
        c = tcp_conn(1)
        timers.on_new_connection(c, 0.0)
        packet(timers, c, 4.0, TcpFlags.SYN, from_orig=True)
        assert (c.timer_establish, c.timer_inactive) == (DERIVED, None)
        assert timers.advance(6.0) == []  # derived: 9.0
        assert timers.advance(9.5) == [c]

    def test_no_timeouts_never_expires(self):
        timers = ConnectionTimers(None, None)
        c = tcp_conn(1)
        timers.on_new_connection(c, 0.0)
        assert timers.advance(1e6) == []
        assert (c.timer_establish, c.timer_inactive) == (None, None)

    def test_inactivity_only(self):
        timers = ConnectionTimers(None, 300.0)
        syn_only = tcp_conn(1)
        timers.on_new_connection(syn_only, 0.0)
        assert timers.advance(10.0) == []  # no establish tier
        assert timers.advance(301.0) == [syn_only]

    def test_born_established_is_armed_on_both_tiers(self):
        """Today's behaviour for UDP (the known defect pinned by
        TestKnownDefects below): the establishment deadline is never
        cancelled, so it fires first however active the flow."""
        timers = ConnectionTimers(5.0, 300.0)
        udp = udp_conn(1)
        timers.on_new_connection(udp, 0.0)
        packet(timers, udp, 0.0)
        packet(timers, udp, 4.0)
        assert (udp.timer_establish, udp.timer_inactive) == (5.0, DERIVED)
        assert timers.advance(5.0) == [udp]

    def test_removal_linger_and_remove(self):
        timers = ConnectionTimers(5.0, 300.0)
        closed, removed = tcp_conn(1), tcp_conn(2)
        for conn in (closed, removed):
            timers.on_new_connection(conn, 0.0)
            packet(timers, conn, 1.0, TcpFlags.SYN | TcpFlags.ACK)
        packet(timers, closed, 2.0, TcpFlags.RST)
        assert timers.schedule_removal(closed, 2.0)
        assert (closed.timer_establish, closed.timer_inactive) == \
            (7.0, None)
        timers.on_remove(removed)
        assert timers.advance(400.0) == [closed]
        assert not ConnectionTimers(None, None).schedule_removal(closed, 0)


class TestKnownDefects:
    """Two timer defects, each pinned by a strict xfail and a twin
    that reads today's shape: an active UDP flow expires (twelve
    datagrams, 1 s apart), and under the one-tier scheme a packet
    trailing a close re-arms the tombstone for the full inactivity
    timeout."""

    @staticmethod
    def udp_conns_created(columnar):
        runtime = Runtime(RuntimeConfig(cores=1, columnar=columnar),
                          filter_str="udp", datatype="connection",
                          callback=None)
        frame = build_udp_packet("10.0.0.1", "10.0.0.2", 5353, 53, b"x")
        report = runtime.run(Mbuf(frame, float(second))
                             for second in range(12))
        return report.stats.conns_created

    @pytest.mark.xfail(strict=True, reason=(
        "connections born established (all UDP) are armed on the "
        "establishment wheel and never cancelled, so an active flow is "
        "expired 5 s after its first packet; the fix changes stats and "
        "belongs with ROADMAP item 3 PR B's trace-changing fixes"))
    @pytest.mark.parametrize("columnar", [True, False])
    def test_active_udp_flow_is_one_connection(self, columnar):
        assert self.udp_conns_created(columnar) == 1

    @pytest.mark.parametrize("columnar", [True, False])
    def test_active_udp_flow_reads_two_today(self, columnar):
        """The defect's exact shape, so a timer change cannot move it
        unnoticed; delete together with the xfail above."""
        assert self.udp_conns_created(columnar) == 2

    @staticmethod
    def trailed_tombstone():
        """Under ``TimeoutConfig.inactivity_only()``: a RST at 10 s
        closes a connection, which lingers as a tombstone, and one ACK
        trails it at 10.5 s."""
        table = ConnTable(TimeoutConfig.inactivity_only())
        conn = create(table, ft(), 0.0)
        packet(table.timers, conn, 0.0, TcpFlags.SYN, from_orig=True)
        packet(table.timers, conn, 10.0, TcpFlags.RST, from_orig=True)
        conn.state = ConnState.DELETE
        assert table.timers.schedule_removal(conn, 10.0)
        packet(table.timers, conn, 10.5, TcpFlags.ACK)
        return table

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ConnectionTimers.on_transition's one-tier branch derives a "
        "trailed tombstone's deadline from the inactivity timeout, so "
        "one ACK inside the 5 s linger keeps it 300 s; the fix belongs "
        "with ROADMAP item 3 PR B's timer fixes"))
    def test_trailing_packet_keeps_the_linger(self):
        table = self.trailed_tombstone()
        table.expire(10.5 + 5.0)
        assert len(table) == 0

    def test_trailed_tombstone_lives_300s_today(self):
        """The defect's exact shape; delete together with the xfail
        above."""
        table = self.trailed_tombstone()
        table.expire(10.5 + 5.0)
        assert len(table) == 1
        table.expire(10.5 + 299.9)
        assert len(table) == 1
        table.expire(10.5 + 300.0)
        assert len(table) == 0


class TestConnection:
    def test_single_syn_detection(self):
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        assert ConnectionRecord.from_connection(conn).is_single_syn
        assert conn.tcp_state is TcpConnState.SYN_SENT

    def test_establishment(self):
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        newly = conn.record_packet(False, 60, 0, 0.1,
                                   TcpFlags.SYN | TcpFlags.ACK)
        assert newly and conn.established
        assert conn.established_ts == 0.1
        assert not ConnectionRecord.from_connection(conn).is_single_syn

    def test_establishment_via_responder_data(self):
        """Missing SYN-ACK (lossy tap) still establishes on reverse data."""
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        newly = conn.record_packet(False, 1500, 1448, 0.2, TcpFlags.ACK)
        assert newly and conn.established

    def test_fin_fin_closes(self):
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        conn.record_packet(False, 60, 0, 0.1, TcpFlags.SYN | TcpFlags.ACK)
        conn.record_packet(True, 60, 0, 0.2, TcpFlags.FIN | TcpFlags.ACK)
        assert conn.tcp_state is TcpConnState.CLOSING
        conn.record_packet(False, 60, 0, 0.3, TcpFlags.FIN | TcpFlags.ACK)
        assert conn.terminated

    def test_rst_closes(self):
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.RST)
        assert conn.terminated

    def test_udp_counts_as_established(self):
        conn = conn_of(ft(proto=17))
        assert conn.established

    def test_counters_per_direction(self):
        conn = conn_of(ft())
        conn.record_packet(True, 100, 40, 0.0)
        conn.record_packet(False, 200, 160, 0.1)
        conn.record_packet(True, 300, 240, 0.2)
        assert (conn.pkts_orig, conn.pkts_resp) == (2, 1)
        assert (conn.bytes_orig, conn.bytes_resp) == (400, 200)
        assert conn.payload_bytes_orig == 280

    def test_buffering_and_memory(self):
        conn = conn_of(ft())
        base = conn.memory_bytes
        conn.buffer_packet(Mbuf(b"x" * 100))
        assert conn.memory_bytes == base + 100
        assert len(conn.drain_buffered()) == 1
        assert conn.memory_bytes == base


class TestConnTable:
    def test_create_and_lookup_both_directions(self):
        table = ConnTable()
        assert table.lookup_key(ft().canonical()) is None
        conn = create(table, ft(), now=0.0)
        assert table.lookup_key(ft().reversed().canonical()) is conn
        assert len(table) == 1

    def test_establish_timeout_expires_syn(self):
        table = ConnTable(TimeoutConfig(5.0, 300.0))
        conn = create(table, ft(), now=0.0)
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        expired = table.expire(now=6.0)
        assert expired == [conn]
        assert len(table) == 0
        assert table.expired_establish == 1

    def test_established_survives_establish_timeout(self):
        table = ConnTable(TimeoutConfig(5.0, 300.0))
        conn = create(table, ft(), now=0.0)
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        packet(table.timers, conn, 1.0, TcpFlags.SYN | TcpFlags.ACK)
        assert table.expire(now=10.0) == []
        expired = table.expire(now=302.0)
        assert expired == [conn]
        assert table.expired_inactive == 1

    def test_activity_refreshes_inactivity(self):
        table = ConnTable(TimeoutConfig(5.0, 300.0))
        conn = create(table, ft(), now=0.0)
        packet(table.timers, conn, 0.0, TcpFlags.SYN | TcpFlags.ACK)
        for t in (100.0, 200.0, 300.0, 400.0):
            assert table.expire(now=t) == []
            packet(table.timers, conn, t, TcpFlags.ACK, from_orig=True)
        assert table.expire(now=500.0) == []
        assert table.expire(now=701.0) == [conn]

    def test_remove_idempotent(self):
        table = ConnTable()
        conn = create(table, ft(), now=0.0)
        table.remove(conn)
        table.remove(conn)
        assert table.removed == 1
        assert conn.state is ConnState.DELETE

    def test_drain(self):
        table = ConnTable()
        for i in range(5):
            create(table, ft(sport=i + 1), now=0.0)
        drained = table.drain()
        assert len(drained) == 5 and len(table) == 0

    def test_no_timeout_config_grows(self):
        table = ConnTable(TimeoutConfig.no_timeouts())
        for i in range(100):
            create(table, ft(sport=i + 1), now=float(i))
        assert table.expire(now=1e9) == []
        assert len(table) == 100

    def test_memory_accounting(self):
        """The total reads the connections the table was told hold
        state (the pipeline tells it as it hands state out), and one
        leaves the record once it holds none."""
        table = ConnTable()
        conn = create(table, ft(), now=0.0)
        base = table.memory_bytes
        conn.buffer_packet(Mbuf(b"y" * 1000))
        table.hold(conn)
        assert table.memory_bytes == base + 1000
        assert list(table.holding()) == [conn]
        table.release(conn)  # still buffering: stays
        assert list(table.holding()) == [conn]
        conn.drop_buffered()
        table.release(conn)
        assert table.memory_bytes == base
        assert list(table.holding()) == []


def class_defaults():
    """Connection's class-level field defaults, by name."""
    return {name: value for name, value in vars(Connection).items()
            if not name.startswith("__") and not isinstance(
                value, (FunctionType, property, MemberDescriptorType))}


SYN, ACK, RST = TcpFlags.SYN, TcpFlags.ACK, TcpFlags.RST
#: Frame bytes of a payload-free TCP/IPv4 packet.
BARE = 54


def flow(sport, start, steps):
    """One flow of 10.0.0.1:``sport`` -> 10.0.0.2:443 as Mbufs, a
    millisecond apart from ``start``; a step is (from_orig, flags, seq,
    payload)."""
    mbufs = []
    for k, (from_orig, flags, seq, payload) in enumerate(steps):
        ends = ("10.0.0.1", "10.0.0.2", sport, 443)
        if not from_orig:
            ends = ("10.0.0.2", "10.0.0.1", 443, sport)
        mbufs.append(Mbuf(build_tcp_packet(*ends, payload=payload, seq=seq,
                                           flags=int(flags)),
                          start + k / 1000))
    return mbufs


def live_connections(filter_str, datatype, mbufs):
    """A one-core run of ``mbufs`` that drains nothing: its connection
    lookup by source port (by key: :attr:`Connection.five_tuple`
    caches), and the records it delivered."""
    delivered = []
    runtime = Runtime(RuntimeConfig(cores=1), filter_str=filter_str,
                      datatype=datatype, callback=delivered.append)
    runtime.run(iter(mbufs), drain=False)
    table = runtime.pipelines[0].lanes[0].table
    return (lambda sport: table.lookup_key(ft(sport=sport).canonical()),
            delivered)


class TestConnectionLayout:
    """A connection's slots are the fields a lone SYN writes; every
    other field is an immutable class default until first written."""

    def test_slots_and_defaults_are_disjoint(self):
        slots = set(Connection.__slots__)
        assert "__dict__" in slots
        defaults = class_defaults()
        assert "weirds" in defaults and "pkt_term_node" in defaults
        assert not slots & defaults.keys()

    def test_every_default_is_immutable(self):
        immutable = (type(None), bool, int, str, tuple, MappingProxyType)
        for name, value in class_defaults().items():
            assert type(value) in immutable, name

    def test_fields_read_the_same_through_the_record(self):
        lone_syn = flow(40001, 1.0, [(True, SYN, 1000, b"")])
        handshake = flow(40002, 2.0, [
            (True, SYN, 100, b""),
            (False, SYN | ACK, 500, b""),
            (True, ACK, 101, b""),
            (True, ACK, 101, b"x" * 10),
            (False, ACK, 501, b"y" * 20),
            (True, ACK, 101, b"x" * 10),  # retransmitted: late
        ])
        reset = flow(40003, 3.0, [(True, SYN, 7, b""),
                                  (False, RST | ACK, 0, b"")])
        conn_of_port, delivered = live_connections(
            "tcp", "connection", lone_syn + handshake + reset)

        conn = conn_of_port(40001)
        assert ConnectionRecord.from_connection(conn) == ConnectionRecord(
            ft(sport=40001), 1.0, 1.0, 1.0, None, 1, 0, BARE, 0, 0, 0,
            0, 0, "S", None, False, {})
        assert vars(conn) == {}  # every other field a class default
        repr(conn)
        assert vars(conn) == {}

        conn = conn_of_port(40002)
        assert ConnectionRecord.from_connection(conn) == ConnectionRecord(
            ft(sport=40002), 2.0, 2.005, 2.0, 2.001, 4, 2,
            2 * BARE + 2 * (BARE + 10), BARE + (BARE + 20), 20, 20,
            1, 0, "SSA", None, False, {})
        assert conn.timer_inactive is not None
        assert conn.timer_establish is None

        # A RST'd lone SYN is delivered at termination and lingers as
        # a tombstone, its heavy state never written.
        conn = conn_of_port(40003)
        record = ConnectionRecord(
            ft(sport=40003), 3.0, 3.001, 3.0, None, 1, 1, BARE, BARE, 0,
            0, 0, 0, "SR", None, True, {})
        assert ConnectionRecord.from_connection(conn) == record
        assert delivered == [record]
        assert conn.state is ConnState.DELETE and conn.delivered
        assert vars(conn) == {"pkts_resp": 1, "bytes_resp": BARE,
                              "_next_seq_resp": 0, "delivered": True}

    def test_buffered_packet_level_flow(self):
        handshake = flow(40004, 4.0, [(True, SYN, 100, b""),
                                      (False, SYN | ACK, 500, b""),
                                      (True, ACK, 101, b"")])
        conn_of_port, delivered = live_connections("tls", "packet", handshake)
        conn = conn_of_port(40004)
        assert delivered == []
        assert ConnectionRecord.from_connection(conn) == ConnectionRecord(
            ft(sport=40004), 4.0, 4.002, 4.0, 4.001, 2, 1, 2 * BARE,
            BARE, 0, 0, 0, 0, "SSA", None, False, {})
        assert conn.state is ConnState.PROBE and conn.pkt_term_node is not None
        assert [bytes(m.data) for m in conn.buffered_mbufs] == \
            [bytes(m.data) for m in handshake]
        assert conn.buffered_bytes == 3 * BARE
        assert [bytes(m.data) for m in conn.drain_buffered()] == \
            [bytes(m.data) for m in handshake]
        assert conn.buffered_mbufs == () and conn.buffered_bytes == 0
