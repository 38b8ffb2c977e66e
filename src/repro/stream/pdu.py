"""L4 protocol data units and in-order stream segments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.packet.mbuf import Mbuf
from repro.packet.tcp import TcpFlags

# Plain int masks: ``flags`` is the raw header byte, and ``int & IntFlag``
# dispatches to the enum's Python-level ``__rand__`` on every segment.
_FIN = int(TcpFlags.FIN)
_SYN = int(TcpFlags.SYN)


@dataclass
class L4Pdu:
    """One transport segment as handed to the reassembler.

    ``payload`` references the mbuf's bytes (no copy); ``from_orig``
    orients the segment relative to the connection originator. UDP
    never becomes a PDU: datagrams bypass reordering by construction.
    """

    mbuf: Mbuf
    payload: bytes
    seq: int
    flags: int
    from_orig: bool
    timestamp: float

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & _SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & _FIN)

    @property
    def seq_span(self) -> int:
        """Sequence numbers this segment consumes."""
        flags = self.flags
        return len(self.payload) + (1 if flags & _SYN else 0) + \
            (1 if flags & _FIN else 0)


@dataclass
class StreamSegment:
    """An in-order chunk of application bytes leaving the reassembler."""

    payload: bytes
    from_orig: bool
    timestamp: float
    #: True if this segment had arrived out of order and was held.
    was_held: bool = False
