"""Model-based property test: derived deadlines vs written ones.

A connection's deadline on the tier its packets refresh is derived from
its ``last_ts`` when the wheel slot fires; :class:`ConnectionTimers`
writes timer state only at creation, a change of TCP state, the linger
after a close, a packet trailing that linger, and removal. Before that,
every stateful packet wrote ``now + timeout``: the pipeline called
``ConnTable.touch`` after ``record_packet`` (on every packet but a
creating one that did not establish), and ``touch`` called
:meth:`WrittenTimers.on_established` on a handshake and
:meth:`WrittenTimers.on_activity` otherwise. :class:`WrittenTimers`
keeps those timers verbatim and :func:`written_packet` that rule, as
the oracle.

Both are driven with the same Hypothesis sequences of TCP and UDP
creations, packets (a SYN-ACK first, plain activity, FINs and RSTs on
live connections and on ignore tombstones, a packet trailing a linger
at the close's own timestamp), removals and advances, under every
timeout scheme the repo ships and two more (an establishment timeout
above the inactivity one, and one below the 5 s linger). Each
``advance`` must expire the same connections in the same order:
expiry order is delivery order.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conntrack import (
    ConnState,
    ConnTable,
    Connection,
    TcpConnState,
    TimeoutConfig,
    TimerWheel,
)
from repro.conntrack.five_tuple import pack_key

FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10
CLOSED = TcpConnState.CLOSED
DELETE = ConnState.DELETE
LINGER = 5.0


class WrittenTimers:
    """The two-tier timers as they were when every packet wrote its
    connection's deadline (behaviour verbatim)."""

    def __init__(self, establish_timeout, inactivity_timeout):
        self.establish_timeout = establish_timeout
        self.inactivity_timeout = inactivity_timeout
        self._establish_wheel = (
            TimerWheel(tick=max(establish_timeout / 16, 1e-3), num_slots=64,
                       attr="timer_establish")
            if establish_timeout is not None else None)
        self._inactivity_wheel = (
            TimerWheel(tick=max(inactivity_timeout / 16, 1e-3), num_slots=64,
                       attr="timer_inactive")
            if inactivity_timeout is not None else None)

    def _arm_establish(self, conn, fire_at):
        previous = conn.timer_establish
        conn.timer_establish = fire_at
        if previous is None or fire_at < previous:
            self._establish_wheel.insert(conn, fire_at)

    def _arm_inactive(self, conn, fire_at):
        previous = conn.timer_inactive
        conn.timer_inactive = fire_at
        if previous is None or fire_at < previous:
            self._inactivity_wheel.insert(conn, fire_at)

    def on_new_connection(self, conn, now):
        wheel = self._establish_wheel
        if wheel is not None:
            conn.timer_establish = fire_at = now + self.establish_timeout
        else:
            wheel = self._inactivity_wheel
            if wheel is None:
                return
            conn.timer_inactive = fire_at = now + self.inactivity_timeout
        wheel.insert(conn, fire_at)

    def on_established(self, conn, now):
        conn.timer_establish = None
        if self._inactivity_wheel is not None:
            self._arm_inactive(conn, now + self.inactivity_timeout)

    def on_activity(self, conn, now, established):
        if established or self._establish_wheel is None:
            if self._inactivity_wheel is not None:
                self._arm_inactive(conn, now + self.inactivity_timeout)
        else:
            self._arm_establish(conn, now + self.establish_timeout)

    def schedule_removal(self, conn, now, linger=5.0):
        if self._establish_wheel is not None:
            if conn.timer_inactive is not None:
                conn.timer_inactive = None
            self._arm_establish(conn, now + linger)
            return True
        if self._inactivity_wheel is not None:
            self._arm_inactive(conn, now + linger)
            return True
        return False

    def on_remove(self, conn):
        conn.timer_establish = None
        if conn.timer_inactive is not None:
            conn.timer_inactive = None

    def advance(self, now):
        expired = []
        if self._establish_wheel is not None:
            expired.extend(self._establish_wheel.advance(now))
        if self._inactivity_wheel is not None:
            expired.extend(self._inactivity_wheel.advance(now))
        return expired


class WrittenTable:
    """The table's side of the oracle: ``create_with_key``, ``remove``
    and ``expire`` over :class:`WrittenTimers`."""

    def __init__(self, scheme):
        self.timers = WrittenTimers(scheme.establish_timeout,
                                    scheme.inactivity_timeout)
        self.conns = {}

    def create_with_key(self, key, orig_first, now):
        conn = self.conns[key] = Connection(key, orig_first, now)
        self.timers.on_new_connection(conn, now)
        return conn

    def remove(self, conn):
        if self.conns.pop(conn.key, None) is not None:
            self.timers.on_remove(conn)

    def expire(self, now):
        expired = []
        for conn in self.timers.advance(now):
            if self.conns.pop(conn.key, None) is None:
                continue
            self.timers.on_remove(conn)
            expired.append(conn)
        return expired


def written_packet(table, conn, created, args):
    """One packet as the pipeline handled it when packets wrote
    deadlines: ``touch`` after ``record_packet``, then the close."""
    now = args[3]
    newly = conn.record_packet(*args)
    if not created or conn.established:
        if newly:
            table.timers.on_established(conn, now)
        else:
            table.timers.on_activity(conn, now, conn.established)
    if conn.terminated and conn.state is not DELETE:
        conn.state = DELETE
        table.timers.schedule_removal(conn, now, LINGER)


def derived_packet(table, conn, created, args):
    """One packet as ``Lane._stateful_columnar`` reports it to the
    timers: only a change of TCP state or a packet trailing a close."""
    was = conn.tcp_state
    last_ts = conn.last_ts
    conn.record_packet(*args)
    tcp_state = conn.tcp_state
    if tcp_state is not was or was is CLOSED:
        table.timers.on_transition(conn, was, last_ts)
        if tcp_state is CLOSED and conn.state is not DELETE:
            conn.state = DELETE
            table.timers.schedule_removal(conn, args[3], LINGER)


SCHEMES = {
    "retina_default": TimeoutConfig.retina_default(),
    "inactivity_only": TimeoutConfig.inactivity_only(),
    "no_timeouts": TimeoutConfig.no_timeouts(),
    "establish_above_inactivity": TimeoutConfig(7.0, 2.0),
    "establish_below_linger": TimeoutConfig(2.0, 30.0),
}

#: Clock steps: zero (same-timestamp packets) weighted up, then the
#: scales of the ticks, the timeouts and the linger.
steps = st.one_of(
    st.just(0.0),
    st.sampled_from([0.05, 0.3, 1.0, 1.9, 2.5, 4.0, 5.0, 6.5, 8.0, 12.0,
                     25.0, 40.0, 150.0, 299.0, 320.0]))
tcp_flags = st.sampled_from([SYN, SYN | ACK, ACK, FIN | ACK, FIN, RST,
                             RST | ACK])
ops = st.lists(st.one_of(
    # A new connection and its first packet: TCP (any flags, a SYN-ACK
    # among them) or UDP, born established.
    st.tuples(st.just("new"), steps, st.booleans(), tcp_flags),
    # A packet on a live connection (``pick`` indexes them; None: the
    # last packet's connection again).
    st.tuples(st.just("pkt"), steps,
              st.one_of(st.none(), st.integers(0, 15)),
              st.booleans(), tcp_flags),
    # The filter is done with a connection: an ignore tombstone.
    st.tuples(st.just("tomb"), st.integers(0, 15)),
    st.tuples(st.just("remove"), st.integers(0, 15)),
    st.tuples(st.just("advance"), steps),
), max_size=40)


def run_both(scheme, sequence):
    """Drive both sides through ``sequence``; return each advance's
    expired connection keys, written side first."""
    written, derived = WrittenTable(scheme), ConnTable(scheme)
    sides = ((written, written_packet), (derived, derived_packet))
    live = []  # keys of live connections, in creation order
    conns = {}  # key -> (written conn, derived conn)
    now = 0.0
    last = None
    out = []

    def expire():
        fired = []
        for table, _ in sides:
            fired.append([conn.key for conn in table.expire(now)])
        for key in fired[0]:
            live.remove(key)
        return fired

    for op in sequence:
        kind = op[0]
        if kind == "new":
            _, step, tcp, flags = op
            now += step
            key = pack_key(b"\x0a\x00\x00\x01", 1024 + len(conns),
                           b"\x0a\x00\x00\x02", 443, 6 if tcp else 17)
            pair = tuple(table.create_with_key(key, True, now)
                         for table, _ in sides)
            conns[key] = pair
            live.append(key)
            args = (True, 60, 0, now) + ((flags, None) if tcp else ())
            for (table, packet), conn in zip(sides, pair):
                packet(table, conn, True, args)
            last = key
        elif kind == "pkt":
            _, step, pick, from_orig, flags = op
            key = last if pick is None else \
                (live[pick % len(live)] if live else None)
            if key not in live:
                continue
            now += step
            pair = conns[key]
            args = (from_orig, 60, 0, now)
            if key[-1] == 6:
                args += (flags, None)
            for (table, packet), conn in zip(sides, pair):
                packet(table, conn, False, args)
            last = key
        elif kind in ("tomb", "remove") and live:
            key = live[op[1] % len(live)]
            for (table, _), conn in zip(sides, conns[key]):
                if kind == "tomb":
                    conn.state = DELETE
                else:
                    table.remove(conn)
            if kind == "remove":
                live.remove(key)
        elif kind == "advance":
            now += op[1]
            out.append(expire())
    now += 2000.0
    out.append(expire())
    return out


#: Each transition once: after an advance that let the wheel drop the
#: connection's stale entries (only a fresh entry can fire it then), or
#: with an advance between the frozen deadline and the derived one.
HANDSHAKE = ("new", 0.0, True, SYN | ACK)


@pytest.mark.parametrize("name", list(SCHEMES))
@settings(max_examples=300, deadline=None)
@given(sequence=ops)
@example(sequence=[HANDSHAKE, ("advance", 12.0),
                   ("pkt", 1.0, None, True, ACK), ("advance", 320.0)])
@example(sequence=[HANDSHAKE, ("advance", 12.0), ("tomb", 0),
                   ("pkt", 1.0, None, True, RST), ("advance", 12.0),
                   ("advance", 320.0)])
@example(sequence=[HANDSHAKE, ("advance", 12.0),
                   ("pkt", 1.0, None, True, FIN), ("advance", 1.0),
                   ("pkt", 1.0, None, False, FIN), ("advance", 1.9),
                   ("pkt", 0.0, None, True, ACK), ("advance", 8.0),
                   ("advance", 320.0)])
@example(sequence=[("new", 0.0, True, SYN), ("pkt", 4.0, None, True, FIN),
                   ("advance", 2.5), ("advance", 320.0)])
@example(sequence=[HANDSHAKE, ("pkt", 1.0, None, True, ACK), ("tomb", 0),
                   ("pkt", 1.9, None, True, RST), ("advance", 0.3),
                   ("advance", 320.0)])
def test_same_expiries_in_the_same_order(name, sequence):
    for written, derived in run_both(SCHEMES[name], sequence):
        assert derived == written


def test_a_packet_writes_no_timer_state():
    """Plain activity on a handshaking, established or UDP connection
    leaves both deadline attributes as they were."""
    table = ConnTable(TimeoutConfig.retina_default())
    keys = [pack_key(b"\x0a\x00\x00\x01", port, b"\x0a\x00\x00\x02", 443,
                     proto) for port, proto in ((1, 6), (2, 6), (3, 17))]
    syn, est, udp = (table.create_with_key(key, True, 0.0) for key in keys)
    for conn, flags in ((syn, SYN), (est, SYN | ACK), (udp, None)):
        derived_packet(table, conn, True,
                       (True, 60, 0, 0.0) + ((flags, None) if flags
                                             else ()))
    before = [(c.timer_establish, c.timer_inactive) for c in (syn, est, udp)]
    for t in (1.0, 2.0, 3.0):
        derived_packet(table, syn, False, (True, 60, 0, t, SYN, None))
        derived_packet(table, est, False, (False, 60, 0, t, ACK, None))
        derived_packet(table, udp, False, (False, 60, 0, t))
    assert [(c.timer_establish, c.timer_inactive)
            for c in (syn, est, udp)] == before
