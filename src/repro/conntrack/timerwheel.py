"""Hashed and hierarchical timing wheels (Varghese & Lauck) for
connection expiration.

Retina prevents memory exhaustion from inactive connections with two
timer tiers derived from empirical campus measurements: a short
*establishment* timeout (default 5 s) expiring single unanswered SYNs,
and a longer *inactivity* timeout (default 5 min) for established
connections. Timer-wheel deletion scales independently of table size
and keeps hash-table insertion O(1) [Girondi et al.].

The wheel is intrusive: a slot holds the scheduled item itself, and the
authoritative deadline lives in an attribute on the item, so nothing is
kept per key. Cancellation stays lazy: rescheduling or cancelling only
rewrites that attribute; stale slot entries are dropped or re-aimed when
their slot fires by comparing against it.
"""

from __future__ import annotations

from typing import List, Optional


class TimerWheel:
    """A single hashed timing wheel with lazy cancellation.

    Items are any objects with a writable ``attr`` attribute (``None``
    while unscheduled) that this wheel owns. Deadlines beyond the wheel
    horizon stay in the capped slot and are re-inserted on fire — the
    standard "rounds" technique, giving hierarchical range with a
    single wheel.
    """

    def __init__(self, tick: float, num_slots: int,
                 attr: str = "deadline") -> None:
        if tick <= 0 or num_slots < 2:
            raise ValueError("tick must be > 0 and num_slots >= 2")
        self.tick = tick
        self.num_slots = num_slots
        self.attr = attr
        self._slots: List[list] = [[] for _ in range(num_slots)]
        self._current_tick = 0

    def schedule(self, item: object, fire_at: float) -> None:
        """Insert or reschedule ``item`` to fire at ``fire_at``.

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
        target_tick = int(now / self.tick)
        while self._current_tick <= target_tick:
            slot = self._slots[self._current_tick % self.num_slots]
            if slot:
                remaining: list = []
                for item in slot:
                    deadline = getattr(item, attr)
                    if deadline is None:
                        continue  # cancelled, or fired by another entry
                    if deadline <= now:
                        setattr(item, attr, None)
                        expired.append(item)
                    elif int(deadline / self.tick) <= self._current_tick:
                        # Deadline in this slot's tick but not yet due
                        # (fractional): keep for the next advance call.
                        remaining.append(item)
                    else:
                        # Rescheduled or beyond-horizon: re-aim at its
                        # (possibly capped) future slot.
                        self.insert(item, deadline)
                slot[:] = remaining
            if self._current_tick == target_tick:
                break
            self._current_tick += 1
        return expired


class ConnectionTimers:
    """Retina's two-tier timeout scheme over two timer wheels.

    Non-established connections live on a fine-grained wheel with the
    establishment timeout; once established they migrate to a coarse
    wheel with the inactivity timeout. ``None`` for either timeout
    disables that tier (used by the Figure 8 ablations). Connections
    carry one deadline attribute per tier (``timer_establish`` and
    ``timer_inactive``): one born established, or closing before its
    handshake, is armed on both at once.
    """

    def __init__(
        self,
        establish_timeout: Optional[float] = 5.0,
        inactivity_timeout: Optional[float] = 300.0,
    ) -> None:
        self.establish_timeout = establish_timeout
        self.inactivity_timeout = inactivity_timeout
        self._establish_wheel = (
            TimerWheel(tick=max(establish_timeout / 16, 1e-3), num_slots=64,
                       attr="timer_establish")
            if establish_timeout is not None else None
        )
        self._inactivity_wheel = (
            TimerWheel(tick=max(inactivity_timeout / 16, 1e-3), num_slots=64,
                       attr="timer_inactive")
            if inactivity_timeout is not None else None
        )

    # The tiers' deadline attributes are read and written here directly
    # (not through ``TimerWheel.schedule``'s attribute-by-name access):
    # this is the per-packet path. ``timer_inactive`` is cleared only
    # when set: a connection that never armed the inactivity tier keeps
    # reading its class default (see ``conntrack/conn.py``).
    def _arm_establish(self, conn, fire_at: float) -> None:
        previous = conn.timer_establish
        conn.timer_establish = fire_at
        if previous is None or fire_at < previous:
            self._establish_wheel.insert(conn, fire_at)

    def _arm_inactive(self, conn, fire_at: float) -> None:
        previous = conn.timer_inactive
        conn.timer_inactive = fire_at
        if previous is None or fire_at < previous:
            self._inactivity_wheel.insert(conn, fire_at)

    def on_new_connection(self, conn, now: float) -> None:
        """Arm a connection that was never scheduled: its first tier's
        deadline is written and its one wheel entry filed."""
        wheel = self._establish_wheel
        if wheel is not None:
            conn.timer_establish = fire_at = now + self.establish_timeout
        else:
            wheel = self._inactivity_wheel
            if wheel is None:
                return
            conn.timer_inactive = fire_at = now + self.inactivity_timeout
        wheel.insert(conn, fire_at)

    def on_established(self, conn, now: float) -> None:
        """Migrate from the establishment tier to the inactivity tier."""
        conn.timer_establish = None
        if self._inactivity_wheel is not None:
            self._arm_inactive(conn, now + self.inactivity_timeout)

    def on_activity(self, conn, now: float, established: bool) -> None:
        """Refresh the connection's deadline after a packet."""
        if established or self._establish_wheel is None:
            if self._inactivity_wheel is not None:
                self._arm_inactive(conn, now + self.inactivity_timeout)
        else:
            self._arm_establish(conn, now + self.establish_timeout)

    def schedule_removal(self, conn, now: float,
                         linger: float = 5.0) -> bool:
        """Schedule a closed connection's tombstone for removal after a
        short linger (TIME_WAIT-like: absorbs the trailing ACK of a FIN
        handshake without re-creating the connection). Returns False if
        no timer tier is enabled (caller should remove immediately)."""
        if self._establish_wheel is not None:
            if conn.timer_inactive is not None:
                conn.timer_inactive = None
            self._arm_establish(conn, now + linger)
            return True
        if self._inactivity_wheel is not None:
            self._arm_inactive(conn, now + linger)
            return True
        return False

    def on_remove(self, conn) -> None:
        conn.timer_establish = None
        if conn.timer_inactive is not None:
            conn.timer_inactive = None

    def advance(self, now: float) -> List[object]:
        """Collect every connection whose deadline has passed."""
        expired: List[object] = []
        if self._establish_wheel is not None:
            expired.extend(self._establish_wheel.advance(now))
        if self._inactivity_wheel is not None:
            expired.extend(self._inactivity_wheel.advance(now))
        return expired
