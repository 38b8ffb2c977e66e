"""Sampled connection-lifecycle tracing.

One trace follows a connection through the pipeline's decision points —
``created → probed → parsed → matched/discarded → delivered/expired`` —
with the *virtual* timestamps the cycle model runs on, so a trace reads
like a timeline of what the filter funnel did to that flow.

Determinism is the design constraint: whether a connection is sampled
depends only on its direction-canonical five-tuple (hashed with CRC-32,
never Python's randomized ``hash``), and the exported event order is a
stable sort on ``(timestamp, connection, sequence)``. The same traffic
and core count therefore yield byte-identical trace output from the
sequential backend and from the parallel backend — symmetric RSS puts
all of a connection's events on one core, in lifecycle order, and the
per-core packet streams are identical whichever backend runs them.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Tuple

#: The lifecycle event vocabulary, in rough pipeline order.
TRACE_EVENTS = (
    "created",     # connection entered the table
    "probed",      # protocol probe resolved (detail: service or "none")
    "parsed",      # one application-layer session parsed
    "matched",     # full filter satisfied (detail: deciding layer)
    "discarded",   # filter rejected / nothing more to deliver
    "delivered",   # subscription data handed to the callback
    "expired",     # timer wheel harvested the connection
)

#: One recorded event: (timestamp, connection string, per-core sequence,
#: event name, detail). The sequence number only breaks sort ties — it
#: is dropped from exports because its absolute value depends on the
#: sharding.
TraceEvent = Tuple[float, str, int, str, str]


def stable_sample_hash(key: bytes) -> int:
    """CRC-32 of a connection's canonical key, identical across
    processes and runs (``PYTHONHASHSEED``-proof).

    ``key`` is ``FiveTuple.canonical()``, the packed
    ``ip‖port‖ip‖port‖proto`` bytes, so it is hashed as it is.
    """
    return zlib.crc32(key)


class ConnectionTracer:
    """Records lifecycle events for the sampled subset of connections.

    Appends events to a caller-owned list (the per-core
    ``CoreStats.trace_events``, so worker snapshots carry their events
    back to the parent for merging).
    """

    __slots__ = ("_threshold", "_events", "_seq")

    def __init__(self, sample_fraction: float, events: List[TraceEvent],
                 ) -> None:
        if not 0.0 <= sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in [0, 1]")
        # Map the fraction onto the 32-bit hash space; 1.0 must sample
        # everything including hash 0xFFFFFFFF.
        self._threshold = int(sample_fraction * 0x1_0000_0000)
        self._events = events
        self._seq = 0

    def sampled(self, key) -> bool:
        return stable_sample_hash(key) < self._threshold

    def record(self, conn, now: float, event: str,
               detail: str = "") -> None:
        """Record one event if the connection is sampled."""
        if stable_sample_hash(conn.key) >= self._threshold:
            return
        self._seq += 1
        self._events.append(
            (now, str(conn.five_tuple), self._seq, event, detail))


def sort_trace_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    """The canonical event order: by timestamp, then connection, then
    per-core arrival sequence.

    Within one connection all events share a core (symmetric RSS) and
    the per-core sequence increases along its lifecycle, so ties on
    ``(timestamp, connection)`` resolve to lifecycle order regardless
    of how many workers recorded them.
    """
    return sorted(events, key=lambda e: (e[0], e[1], e[2]))


def trace_event_dicts(events: Iterable[TraceEvent]) -> List[dict]:
    """Sorted, export-ready dicts with per-connection event indices
    (the core-local sequence numbers are deliberately dropped)."""
    out = []
    indices: dict = {}
    for ts, conn, _seq, event, detail in sort_trace_events(events):
        index = indices.get(conn, 0)
        indices[conn] = index + 1
        record = {"ts": round(ts, 9), "conn": conn, "i": index,
                  "event": event}
        if detail:
            record["detail"] = detail
        out.append(record)
    return out
