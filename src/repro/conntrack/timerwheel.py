"""Hashed and hierarchical timing wheels (Varghese & Lauck) for
connection expiration.

Retina prevents memory exhaustion from inactive connections with two
timer tiers derived from empirical campus measurements: a short
*establishment* timeout (default 5 s) expiring single unanswered SYNs,
and a longer *inactivity* timeout (default 5 min) for established
connections. Timer-wheel deletion scales independently of table size
and keeps hash-table insertion O(1) [Girondi et al.].

The wheel is intrusive: a slot holds the scheduled item itself, and the
deadline lives in an attribute on the item, so nothing is kept per key.
Cancellation stays lazy: rescheduling or cancelling only rewrites that
attribute; stale slot entries are dropped or re-aimed when their slot
fires by comparing against it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.conntrack.conn import TcpConnState

#: A deadline attribute holding this is armed at the item's ``last_ts``
#: plus its wheel's ``timeout``: a packet writes ``last_ts`` anyway, so
#: it writes no timer state.
DERIVED = True

_SYN_SENT = TcpConnState.SYN_SENT
_CLOSED = TcpConnState.CLOSED
#: The TCP states whose packets refresh the establishment tier.
_ESTABLISH_TIER = (_SYN_SENT, _CLOSED)


class TimerWheel:
    """A single hashed timing wheel with lazy cancellation.

    Items are any objects with a writable ``attr`` attribute (``None``
    while unscheduled) that this wheel owns. Deadlines beyond the wheel
    horizon stay in the capped slot and are re-inserted on fire — the
    standard "rounds" technique, giving hierarchical range with a
    single wheel. With a ``timeout``, an item whose attribute holds
    :data:`DERIVED` is due at its ``last_ts + timeout``.
    """

    def __init__(self, tick: float, num_slots: int,
                 attr: str = "deadline",
                 timeout: Optional[float] = None) -> None:
        if tick <= 0 or num_slots < 2:
            raise ValueError("tick must be > 0 and num_slots >= 2")
        self.tick = tick
        self.num_slots = num_slots
        self.attr = attr
        self.timeout = timeout
        self._slots: List[list] = [[] for _ in range(num_slots)]
        self._current_tick = 0

    def schedule(self, item: object, fire_at) -> None:
        """Insert or reschedule ``item`` to fire at ``fire_at`` (a time,
        or :data:`DERIVED`).

        Rescheduling *later* is O(1): only the item's deadline moves;
        the existing wheel entry is re-aimed when its slot fires.
        Rescheduling *earlier* inserts a fresh entry at the new slot so
        the item cannot fire late (the stale entry is dropped inertly
        when its slot comes around). An unscheduled item (never armed,
        fired, or cancelled — any leftover entries may be aimed at a
        later slot than the new deadline) always gets a fresh entry.
        """
        attr = self.attr
        previous = getattr(item, attr)
        setattr(item, attr, fire_at)
        if fire_at is DERIVED or previous is DERIVED:
            follows = item.last_ts + self.timeout
            fire_at = follows if fire_at is DERIVED else fire_at
            previous = follows if previous is DERIVED else previous
        if previous is None or fire_at < previous:
            self.insert(item, fire_at)

    def cancel(self, item: object) -> None:
        """Unschedule ``item``; its wheel entries become inert."""
        setattr(item, self.attr, None)

    def insert(self, item: object, fire_at: float) -> None:
        """File one entry for ``item`` in ``fire_at``'s slot (never a
        past one; beyond the horizon, the last). For an owner that reads
        and writes the deadline attribute itself: it has written
        ``fire_at`` there and found, as :meth:`schedule` would, that the
        item needs a fresh entry."""
        current = self._current_tick
        slot_tick = int(fire_at / self.tick)
        if slot_tick < current:
            slot_tick = current
        elif slot_tick - current >= self.num_slots:
            slot_tick = current + self.num_slots - 1
        self._slots[slot_tick % self.num_slots].append(item)

    def advance(self, now: float) -> List[object]:
        """Advance wheel time to ``now``; return items whose deadline
        passed, unscheduled, in slot order."""
        expired: List[object] = []
        attr = self.attr
        timeout = self.timeout
        target_tick = int(now / self.tick)
        while self._current_tick <= target_tick:
            slot = self._slots[self._current_tick % self.num_slots]
            if slot:
                remaining: list = []
                for item in slot:
                    deadline = getattr(item, attr)
                    if deadline is None:
                        continue  # cancelled, or fired by another entry
                    if deadline is DERIVED:
                        deadline = item.last_ts + timeout
                    if deadline <= now:
                        setattr(item, attr, None)
                        expired.append(item)
                    elif int(deadline / self.tick) <= self._current_tick:
                        # Deadline in this slot's tick but not yet due
                        # (fractional): keep for the next advance call.
                        remaining.append(item)
                    else:
                        # Moved later or beyond-horizon: re-aim at its
                        # (possibly capped) future slot.
                        self.insert(item, deadline)
                slot[:] = remaining
            if self._current_tick == target_tick:
                break
            self._current_tick += 1
        return expired


class ConnectionTimers:
    """Retina's two-tier timeout scheme over two timer wheels: the one
    owner of a connection's deadlines, one attribute per tier
    (``timer_inactive`` is cleared only when set: unarmed, it stays a
    class default). A ``None`` timeout disables its tier (Figure 8).

    With both tiers, packets refresh the establishment tier while a
    connection handshakes or after it closed, and the inactivity tier
    while it is established or closing. The refreshed tier holds
    :data:`DERIVED`. A deadline is written only where it stops following
    ``last_ts``: a tier left stops at the last packet before the change
    (the handshake clears it); a connection born established (all UDP)
    keeps its first packet's establishment deadline, so it expires 5 s
    after it began however active (the defect ``TestKnownDefects`` in
    ``tests/test_conntrack.py`` pins); and a closed one lingers until a
    packet trails it.
    """

    def __init__(
        self,
        establish_timeout: Optional[float] = 5.0,
        inactivity_timeout: Optional[float] = 300.0,
    ) -> None:
        self._establish_wheel, self._inactivity_wheel = (
            TimerWheel(max(timeout / 16, 1e-3), 64, attr, timeout)
            if timeout is not None else None
            for timeout, attr in ((establish_timeout, "timer_establish"),
                                  (inactivity_timeout, "timer_inactive")))
        #: The enabled wheels, the establishment tier's first.
        self._wheels = list(filter(None, (self._establish_wheel,
                                          self._inactivity_wheel)))

    def on_new_connection(self, conn, now: float) -> None:
        """Arm a connection created at ``now``: a handshaking one on
        its first enabled tier, a born-established one on both."""
        wheel = self._establish_wheel
        if wheel is not None:
            if conn.tcp_state is _SYN_SENT:  # a lone SYN: no schedule() call
                conn.timer_establish = DERIVED
                wheel.insert(conn, now + wheel.timeout)
                return
            conn.timer_establish = fire_at = now + wheel.timeout
            wheel.insert(conn, fire_at)
        wheel = self._inactivity_wheel
        if wheel is not None:
            conn.timer_inactive = DERIVED
            wheel.insert(conn, now + wheel.timeout)

    def on_transition(self, conn, was, previous_ts: float) -> None:
        """A packet took ``conn`` out of TCP state ``was`` or trailed
        its close; ``previous_ts`` was its ``last_ts`` before it."""
        establish = self._establish_wheel
        inactive = self._inactivity_wheel
        if establish is None:  # one tier, refreshed by every packet
            if inactive is not None:
                inactive.schedule(conn, DERIVED)
            return
        state = conn.tcp_state
        if (was in _ESTABLISH_TIER) == (state in _ESTABLISH_TIER):
            if state is _CLOSED:  # trailing a close: ends a linger
                establish.schedule(conn, DERIVED)
            return
        if state is TcpConnState.ESTABLISHED:  # the handshake
            conn.timer_establish = None
            left, entered = None, inactive
        elif state is TcpConnState.CLOSING:  # a FIN before the handshake
            left, entered = establish, inactive
        else:  # closed after the handshake
            left, entered = inactive, establish
        if left is not None and getattr(conn, left.attr) is DERIVED:
            setattr(conn, left.attr, previous_ts + left.timeout)
        if entered is not None:
            entered.schedule(conn, DERIVED)

    def schedule_removal(self, conn, now: float,
                         linger: float = 5.0) -> bool:
        """Schedule a closed connection's tombstone for removal after a
        short linger (TIME_WAIT-like: absorbs the trailing ACK of a FIN
        handshake without re-creating the connection). Returns False if
        no timer tier is enabled (caller should remove immediately)."""
        wheel = self._establish_wheel
        if wheel is not None:
            if conn.timer_inactive is not None:
                conn.timer_inactive = None
        else:
            wheel = self._inactivity_wheel
            if wheel is None:
                return False
        wheel.schedule(conn, now + linger)
        return True

    def on_remove(self, conn) -> None:
        conn.timer_establish = None
        if conn.timer_inactive is not None:
            conn.timer_inactive = None

    def advance(self, now: float) -> List[object]:
        """Collect every connection whose deadline has passed."""
        return [conn for wheel in self._wheels
                for conn in wheel.advance(now)]
