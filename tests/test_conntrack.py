"""Tests for connection tracking: five-tuples, timer wheels, the table."""

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


class TestConnectionTimers:
    def test_two_tier(self):
        timers = ConnectionTimers(establish_timeout=5.0,
                                  inactivity_timeout=300.0)
        syn_only, handshake = Node("syn-only"), Node("handshake")
        timers.on_new_connection(syn_only, now=0.0)
        timers.on_new_connection(handshake, now=0.0)
        timers.on_established(handshake, now=1.0)
        expired = timers.advance(10.0)
        assert expired == [syn_only]
        assert timers.advance(200.0) == []
        assert timers.advance(302.0) == [handshake]

    def test_activity_refresh(self):
        timers = ConnectionTimers(5.0, 300.0)
        c = Node("c")
        timers.on_new_connection(c, 0.0)
        timers.on_activity(c, 4.0, established=False)
        assert timers.advance(6.0) == []  # refreshed to 9.0
        assert timers.advance(9.5) == [c]

    def test_no_timeouts_never_expires(self):
        timers = ConnectionTimers(None, None)
        c = Node("c")
        timers.on_new_connection(c, 0.0)
        assert timers.advance(1e6) == []
        assert (c.timer_establish, c.timer_inactive) == (None, None)

    def test_inactivity_only(self):
        timers = ConnectionTimers(None, 300.0)
        syn_only = Node("syn-only")
        timers.on_new_connection(syn_only, 0.0)
        assert timers.advance(10.0) == []  # no establish tier
        assert timers.advance(301.0) == [syn_only]

    def test_born_established_is_armed_on_both_tiers(self):
        """Today's behaviour for UDP (the known defect pinned by
        TestKnownDefects below): the establishment deadline is never
        cancelled, so it fires first however active the flow."""
        timers = ConnectionTimers(5.0, 300.0)
        udp = Node("udp")
        timers.on_new_connection(udp, 0.0)
        timers.on_activity(udp, 0.0, established=True)
        timers.on_activity(udp, 4.0, established=True)
        assert (udp.timer_establish, udp.timer_inactive) == (5.0, 304.0)
        assert timers.advance(5.0) == [udp]

    def test_removal_linger_and_remove(self):
        timers = ConnectionTimers(5.0, 300.0)
        closed, removed = Node("closed"), Node("removed")
        for node in (closed, removed):
            timers.on_new_connection(node, 0.0)
            timers.on_established(node, 1.0)
        assert timers.schedule_removal(closed, 2.0)
        assert (closed.timer_establish, closed.timer_inactive) == \
            (7.0, None)
        timers.on_remove(removed)
        assert timers.advance(400.0) == [closed]
        assert not ConnectionTimers(None, None).schedule_removal(closed, 0)


class TestKnownDefects:
    """Twelve datagrams of one UDP flow, 1 s apart."""

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
        "belongs with ROADMAP item 1's trace-changing fixes"))
    @pytest.mark.parametrize("columnar", [True, False])
    def test_active_udp_flow_is_one_connection(self, columnar):
        assert self.udp_conns_created(columnar) == 1

    @pytest.mark.parametrize("columnar", [True, False])
    def test_active_udp_flow_reads_two_today(self, columnar):
        """The defect's exact shape, so a timer change cannot move it
        unnoticed; delete together with the xfail above."""
        assert self.udp_conns_created(columnar) == 2


class TestConnection:
    def test_single_syn_detection(self):
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        assert conn.is_single_syn
        assert conn.tcp_state is TcpConnState.SYN_SENT

    def test_establishment(self):
        conn = conn_of(ft())
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        newly = conn.record_packet(False, 60, 0, 0.1,
                                   TcpFlags.SYN | TcpFlags.ACK)
        assert newly and conn.established
        assert conn.established_ts == 0.1
        assert not conn.is_single_syn

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
        conn, created = table.get_or_create(ft(), now=0.0)
        assert created
        again, created2 = table.get_or_create(ft().reversed(), now=0.1)
        assert again is conn and not created2
        assert len(table) == 1

    def test_establish_timeout_expires_syn(self):
        table = ConnTable(TimeoutConfig(5.0, 300.0))
        conn, _ = table.get_or_create(ft(), now=0.0)
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        expired = table.expire(now=6.0)
        assert expired == [conn]
        assert len(table) == 0
        assert table.expired_establish == 1

    def test_established_survives_establish_timeout(self):
        table = ConnTable(TimeoutConfig(5.0, 300.0))
        conn, _ = table.get_or_create(ft(), now=0.0)
        conn.record_packet(True, 60, 0, 0.0, TcpFlags.SYN)
        newly = conn.record_packet(False, 60, 0, 1.0,
                                   TcpFlags.SYN | TcpFlags.ACK)
        table.touch(conn, 1.0, newly)
        assert table.expire(now=10.0) == []
        expired = table.expire(now=302.0)
        assert expired == [conn]
        assert table.expired_inactive == 1

    def test_activity_refreshes_inactivity(self):
        table = ConnTable(TimeoutConfig(5.0, 300.0))
        conn, _ = table.get_or_create(ft(), now=0.0)
        newly = conn.record_packet(False, 60, 0, 0.0,
                                   TcpFlags.SYN | TcpFlags.ACK)
        table.touch(conn, 0.0, newly)
        for t in (100.0, 200.0, 300.0, 400.0):
            assert table.expire(now=t) == []
            conn.record_packet(True, 100, 60, t)
            table.touch(conn, t, False)
        assert table.expire(now=500.0) == []
        assert table.expire(now=701.0) == [conn]

    def test_remove_idempotent(self):
        table = ConnTable()
        conn, _ = table.get_or_create(ft(), now=0.0)
        table.remove(conn)
        table.remove(conn)
        assert table.removed == 1
        assert conn.state is ConnState.DELETE

    def test_drain(self):
        table = ConnTable()
        for i in range(5):
            table.get_or_create(ft(sport=i + 1), now=0.0)
        drained = table.drain()
        assert len(drained) == 5 and len(table) == 0

    def test_no_timeout_config_grows(self):
        table = ConnTable(TimeoutConfig.no_timeouts())
        for i in range(100):
            table.get_or_create(ft(sport=i + 1), now=float(i))
        assert table.expire(now=1e9) == []
        assert len(table) == 100

    def test_memory_accounting(self):
        table = ConnTable()
        conn, _ = table.get_or_create(ft(), now=0.0)
        base = table.memory_bytes
        conn.buffer_packet(Mbuf(b"y" * 1000))
        assert table.memory_bytes == base + 1000
