"""Message buffer: the unit of packet data flowing through the pipeline.

An :class:`Mbuf` is the reproduction's analogue of a DPDK ``rte_mbuf``:
immutable frame bytes plus receive-side metadata (timestamp, port,
queue). Parsed header views borrow from the mbuf rather than copying,
mirroring Retina's zero-copy discipline.
"""

from __future__ import annotations

from typing import Optional


class Mbuf:
    """Raw frame bytes plus receive metadata.

    Attributes:
        data: The raw Ethernet frame bytes.
        timestamp: Receive time in (virtual) seconds.
        port: Index of the NIC port the frame arrived on.
        queue: RSS receive queue the NIC dispatched the frame to, or
            ``None`` before RSS assignment.
        stack: Memoized :class:`~repro.packet.stack.PacketStack` set by
            the first :func:`~repro.packet.stack.parse_stack` call, so
            RSS dispatch, the software filters, and conntrack all read
            the same parse-once header views instead of re-decoding.
    """

    __slots__ = ("data", "timestamp", "port", "queue", "stack")

    def __init__(
        self,
        data: bytes,
        timestamp: float = 0.0,
        port: int = 0,
        queue: Optional[int] = None,
    ) -> None:
        self.data = data
        self.timestamp = timestamp
        self.port = port
        self.queue = queue
        self.stack = None

    def __len__(self) -> int:
        return len(self.data)

    def __reduce__(self):
        # Compact pickling for the parallel backend's IPC batches:
        # rebuild from constructor args instead of a per-slot state
        # dict. ``stack`` is derived scratch state that is only set
        # after dispatch, so it is deliberately not carried. ``bytes()`` normalizes
        # memoryview-backed frames (which cannot pickle) and is a no-op
        # for ``bytes`` data.
        return (Mbuf, (bytes(self.data), self.timestamp, self.port,
                       self.queue))

    def __repr__(self) -> str:
        return (
            f"Mbuf(len={len(self.data)}, ts={self.timestamp:.6f}, "
            f"port={self.port}, queue={self.queue})"
        )
