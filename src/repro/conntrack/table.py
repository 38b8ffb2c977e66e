"""Per-core connection hash table with timer-wheel expiration.

One :class:`ConnTable` exists per core; symmetric RSS guarantees both
directions of a flow land on the same core, so tables need no
cross-core synchronization (Section 5.2, citing Girondi et al.). The
table owns the two-tier :class:`~repro.conntrack.timerwheel.ConnectionTimers`
(:attr:`ConnTable.timers`, which the pipeline tells of TCP transitions)
and exposes a small API the pipeline drives:

* :meth:`expire` to harvest timed-out connections,
* :meth:`remove` for filter-driven early deletion (Figure 4's dashed
  transitions) and natural termination,
* :meth:`hold` and :meth:`release` to keep its record of the connections
  that carry bytes beyond the base: what :attr:`memory_bytes` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.conntrack.conn import CONN_BASE_MEMORY_BYTES, Connection, \
    ConnState
from repro.conntrack.five_tuple import unpack_key
from repro.conntrack.timerwheel import ConnectionTimers
from repro.errors import ResourceExhaustedError

# Hoisted: an attribute read on an Enum class is several times a global
# read, and every connection's removal writes one.
_DELETE = ConnState.DELETE


@dataclass(frozen=True)
class TimeoutConfig:
    """Timeout scheme; ``None`` disables a tier (Figure 8 ablations)."""

    establish_timeout: Optional[float] = 5.0
    inactivity_timeout: Optional[float] = 300.0

    @classmethod
    def retina_default(cls) -> "TimeoutConfig":
        return cls(5.0, 300.0)

    @classmethod
    def inactivity_only(cls) -> "TimeoutConfig":
        """The Figure 8 middle curve: a flat 5-minute timeout."""
        return cls(None, 300.0)

    @classmethod
    def no_timeouts(cls) -> "TimeoutConfig":
        """The Figure 8 out-of-memory curve."""
        return cls(None, None)


class ConnTable:
    """Hash table of live connections for one core."""

    def __init__(self, timeouts: TimeoutConfig = TimeoutConfig()) -> None:
        self.timeouts = timeouts
        self._conns: Dict[bytes, Connection] = {}
        #: The connections carrying state beyond their base bytes — a
        #: reassembler or buffered packets — by key: the only ones
        #: :attr:`memory_bytes` reads one by one. A lone SYN is never
        #: here, so the total costs what the state costs.
        self._holding: Dict[bytes, Connection] = {}
        self.timers = ConnectionTimers(
            timeouts.establish_timeout, timeouts.inactivity_timeout
        )
        # Lifetime statistics.
        self.created = 0
        self.removed = 0
        self.expired_establish = 0
        self.expired_inactive = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._conns)

    def __iter__(self) -> Iterator[Connection]:
        return iter(self._conns.values())

    def lookup_key(self, key: bytes) -> Optional[Connection]:
        """Lookup by an already-canonical key (columnar hot path: the
        key is assembled straight from decoded columns, no FiveTuple)."""
        return self._conns.get(key)

    def create_with_key(self, key: bytes, orig_first: bool,
                        now: float) -> Connection:
        """Insert a new connection whose canonical key is already known
        (the caller has missed on :meth:`lookup_key`); ``orig_first``
        says whether its originator is the key's first endpoint. It is
        born armed: one wheel-slot append per tier it starts on."""
        conn = self._conns[key] = Connection(key, orig_first, now)
        self.timers.on_new_connection(conn, now)
        self.created += 1
        return conn

    def hold(self, conn: Connection) -> None:
        """``conn`` took a reassembler or a buffered packet."""
        self._holding[conn.key] = conn

    def release(self, conn: Connection) -> None:
        """``conn`` gave up some state: it leaves the record once it
        carries neither a reassembler nor buffered packets."""
        if conn.reassembler is None and not conn.buffered_mbufs:
            self._holding.pop(conn.key, None)

    def holding(self) -> Iterator[Connection]:
        """The connections carrying state beyond their base bytes."""
        return iter(self._holding.values())

    def remove(self, conn: Connection) -> None:
        """Delete a connection (filter miss, termination, or callback
        completion — the Figure 4 DELETE transitions)."""
        if conn.key in self._conns:
            self._unlink(conn)

    def _unlink(self, conn: Connection) -> None:
        """The one way out of the table: ``conn`` leaves the index, its
        timers and the record of holders, and reads DELETE."""
        del self._conns[conn.key]
        self.timers.on_remove(conn)
        if conn.reassembler is not None or conn.buffered_mbufs:
            del self._holding[conn.key]
        conn.state = _DELETE
        self.removed += 1

    def expire(self, now: float) -> List[Connection]:
        """Harvest connections whose timers fired.

        Expired connections are removed from the table and returned so
        the pipeline can deliver them (an unanswered SYN is still a
        connection record the user may have subscribed to).
        """
        expired: List[Connection] = []
        for conn in self.timers.advance(now):
            if conn.key not in self._conns:
                continue  # fired by both tiers in this advance
            self._unlink(conn)
            if conn.established:
                self.expired_inactive += 1
            else:
                self.expired_establish += 1
            expired.append(conn)
        return expired

    def drain(self) -> List[Connection]:
        """Remove and return every live connection (end of run)."""
        conns = list(self._conns.values())
        for conn in conns:
            self._unlink(conn)
        return conns

    def evict_idle(self, target_bytes: int) -> List[Connection]:
        """Force-expire connections, least-recently-active first, until
        resident memory is back under ``target_bytes``.

        This is the ``memory_policy="evict"`` degradation action: the
        victims are returned (like :meth:`expire`) so the pipeline can
        still deliver whatever connection-level data the subscription
        asked for. Ordering is by ``(last activity, unpacked canonical
        key)`` — fully deterministic, so the same run evicts the same
        flows on every backend.

        Raises :class:`~repro.errors.ResourceExhaustedError` — without
        evicting anything — when even an empty table would sit above
        ``target_bytes`` (the pressure is not attributable to idle
        connection state, so eviction cannot relieve it).
        """
        if target_bytes < 0:
            raise ResourceExhaustedError(
                f"memory target {target_bytes} B unreachable by "
                f"eviction: the deficit is not attributable to idle "
                f"connection state")
        remaining = self.memory_bytes
        if remaining <= target_bytes:
            return []
        victims: List[Connection] = []
        for conn in sorted(self._conns.values(),
                           key=lambda c: (c.last_ts, unpack_key(c.key))):
            if remaining <= target_bytes:
                break
            remaining -= conn.memory_bytes
            self._unlink(conn)
            self.evicted += 1
            victims.append(conn)
        return victims

    def heavy_connections(self, min_overhead_bytes: int
                          ) -> List[Connection]:
        """Connections still carrying heavy state (probing or parsing)
        whose per-connection overhead — reassembly buffers, held
        references, buffered packets — exceeds ``min_overhead_bytes``.

        This feeds the overload ladder's rung-3 circuit breaker
        (:mod:`repro.overload`): the returned victims get their lazy
        reassembly / session parsing disabled. Ordering is heaviest
        first with the unpacked canonical key as tiebreak — fully
        deterministic, so every backend downgrades the same flows.
        """
        heavy: List[Connection] = []
        for conn in self._holding.values():  # nobody else has overhead
            state = conn.state
            if state is not ConnState.PROBE and \
                    state is not ConnState.PARSE:
                continue
            if conn.memory_bytes - CONN_BASE_MEMORY_BYTES \
                    > min_overhead_bytes:
                heavy.append(conn)
        heavy.sort(key=lambda c: (-c.memory_bytes, unpack_key(c.key)))
        return heavy

    @property
    def memory_bytes(self) -> int:
        """Estimated bytes of connection state currently resident:
        every connection's base bytes, plus what the recorded ones carry
        beyond it. O(state), not O(connections): it equals the walk
        ``sum(conn.memory_bytes for conn in table)``."""
        total = CONN_BASE_MEMORY_BYTES * len(self._conns)
        for conn in self._holding.values():
            total += conn.memory_bytes - CONN_BASE_MEMORY_BYTES
        return total
