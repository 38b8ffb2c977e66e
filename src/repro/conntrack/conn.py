"""Per-connection state (Figure 4 states + bookkeeping).

A :class:`Connection` carries everything the pipeline needs to lazily
reconstruct data for one flow: the Figure 4 parsing state (Probe /
Parse / Track / Delete), TCP establishment tracking for the two-tier
timeouts, per-direction packet/byte counters, the stream reassembler,
the probing/parsing context, and the filter progress tags
(``pkt_term_node`` / ``conn_term_node``).

Most tracked connections are lone unanswered SYNs (§5.2: 65 % of campus
connections), so the layout is cut to them: a connection's slots are
the fields a lone SYN writes, and every other field is a class default
that a connection takes into its own instance dict on first write.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Mapping, Optional, Sequence

from repro.conntrack.five_tuple import FiveTuple
from repro.packet.mbuf import Mbuf
from repro.packet.tcp import TcpFlags

# Raw TCP flag bits for the per-packet hot path. ``record_packet`` runs
# for every analyzed packet; plain int masking avoids constructing and
# combining ``enum.IntFlag`` instances there. ``TcpFlags`` values are
# ints, so callers may pass either form.
_FIN = 0x01
_SYN = 0x02
_RST = 0x04
_ACK = 0x10
_SYN_OR_FIN = _SYN | _FIN


class ConnState(enum.Enum):
    """Figure 4 connection processing states."""

    PROBE = "probe"      # sniffing payload to identify the L7 protocol
    PARSE = "parse"      # running the application-layer parser
    TRACK = "track"      # tracking without parsing (filter satisfied)
    DELETE = "delete"    # remove from the table


class TcpConnState(enum.Enum):
    """Coarse TCP liveness for timeout tiering."""

    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    CLOSING = "closing"       # saw FIN in one direction
    CLOSED = "closed"         # both FINs or RST


# Members hoisted to module scope, as ``core/pipeline.py`` does: an
# attribute read on an Enum class is several times a global read, and
# ``record_packet`` reads them on every TCP packet.
_PROBE = ConnState.PROBE
_SYN_SENT = TcpConnState.SYN_SENT
_ESTABLISHED = TcpConnState.ESTABLISHED
_CLOSING = TcpConnState.CLOSING
_CLOSED = TcpConnState.CLOSED

#: Sequence-number space, half of it, and the forward jump past which a
#: segment is a desync or an injection rather than data in flight.
_SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31
_SEQ_JUMP = 4_000_000


#: Baseline bytes of state per tracked connection, used for the
#: Figure 8 memory model. Chosen to be of the order of Retina's real
#: per-connection footprint (struct + hash-table slot + reassembly and
#: parser context).
CONN_BASE_MEMORY_BYTES = 512

#: Shared empties for fields most connections never write (a single
#: unanswered SYN has no weirds and buffers nothing): the first write
#: swaps in a private container.
_NO_WEIRDS: Mapping[str, int] = MappingProxyType({})
_NO_MBUFS: Sequence[Mbuf] = ()


class Connection:
    """Tracked state for one five-tuple.

    Identity is the canonical ``key`` plus ``orig_first`` — whether the
    originator is the key's first endpoint — so the hot path never needs
    a :class:`FiveTuple`; :attr:`five_tuple` materialises on first read.

    Layout: the slots are exactly the fields a lone SYN writes between
    creation and expiry. Every other field is an immutable class-level
    default until a connection first writes it, which moves the field
    into that connection's instance dict. So an unanswered SYN never
    gets a dict, and a connection that carries data gets a small one.
    Writers keep it that way: a write never stores a default on a
    connection that lacks the field (clear only what is set).
    """

    __slots__ = (
        "key", "orig_first", "state", "tcp_state", "timer_establish",
        "first_ts", "last_ts", "syn_ts", "pkts_orig", "bytes_orig",
        "conn_term_node", "matched", "history", "_next_seq_orig",
        "__dict__",
    )

    # -- class defaults: fields a lone SYN never writes ----------------------
    _five_tuple: Optional[FiveTuple] = None
    #: The inactivity tier's deadline (``None``: unarmed).
    timer_inactive: Optional[float] = None
    established_ts: Optional[float] = None
    pkts_resp = 0
    bytes_resp = 0
    payload_bytes_orig = 0
    payload_bytes_resp = 0
    ooo_orig = 0
    ooo_resp = 0
    #: Deepest packet-filter trie node matched for this connection;
    #: written only for a connection that enters probing (its one
    #: reader is the connection filter, at service resolution).
    pkt_term_node: Optional[int] = None
    #: True once the subscription has delivered this connection
    #: (prevents double delivery from linger-expiry after FIN).
    delivered = False
    #: Active application-layer parser context (or None).
    parser: Optional[Any] = None
    #: Identified L7 service name, once probing succeeds.
    service_name: Optional[str] = None
    #: Per-direction stream reassembler (set by the pipeline when
    #: the subscription needs in-order bytes).
    reassembler: Optional[Any] = None
    #: Packets buffered before a full filter match (Figure 4a).
    buffered_mbufs: Sequence[Mbuf] = _NO_MBUFS
    buffered_bytes = 0
    #: Subscription-owned per-connection data (Trackable state).
    user_data: Optional[Any] = None
    _next_seq_resp: Optional[int] = None
    #: Zeek-style protocol anomalies ("weirds") observed on this
    #: connection, name → count. Real-world traffic is unpredictable
    #: and malicious (the paper's Security goal); these are the
    #: analysis-visible symptoms.
    weirds: Mapping[str, int] = _NO_WEIRDS

    def __init__(self, key: bytes, orig_first: bool, now: float) -> None:
        self.key = key
        self.orig_first = orig_first
        self.state = _PROBE
        self.tcp_state = _SYN_SENT if key[-1] == 6 else _ESTABLISHED
        #: The establishment tier's deadline, owned by ``ConnectionTimers``
        #: (``None``: unarmed; ``DERIVED``: ``last_ts`` + the timeout).
        self.timer_establish: Optional[float] = None
        self.first_ts = now
        self.last_ts = now
        self.syn_ts: Optional[float] = None
        self.pkts_orig = 0
        self.bytes_orig = 0
        #: Deepest connection-filter trie node matched.
        self.conn_term_node: Optional[int] = None
        #: True once the full (all-layer) filter matched.
        self.matched = False
        #: Zeek-style history string of flag events ("S", "SA", "F"...).
        self.history = ""
        # Lightweight per-direction sequence tracking for out-of-order
        # accounting — cheap enough to run even in TRACK state, where
        # the full reassembler has been torn down. The responder's
        # mark is a class default above.
        self._next_seq_orig: Optional[int] = None

    @property
    def five_tuple(self) -> FiveTuple:
        tup = self._five_tuple
        if tup is None:
            tup = self._five_tuple = FiveTuple.from_key(self.key,
                                                        self.orig_first)
        return tup

    # -- accessors used by the connection filter ---------------------------
    def service(self) -> Optional[str]:
        """Identified application protocol (the conn-filter accessor)."""
        return self.service_name

    @property
    def established(self) -> bool:
        state = self.tcp_state
        return state is _ESTABLISHED or state is _CLOSING

    @property
    def total_packets(self) -> int:
        return self.pkts_orig + self.pkts_resp

    @property
    def total_bytes(self) -> int:
        return self.bytes_orig + self.bytes_resp

    # -- updates ---------------------------------------------------------------
    def record_packet(
        self,
        from_orig: bool,
        wire_bytes: int,
        payload_bytes: int,
        now: float,
        tcp_flags: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> bool:
        """Update counters and TCP liveness; returns True if the packet
        newly established the connection.

        For a TCP packet (``tcp_flags`` given) this also records the
        Zeek-style weirds the packet shows, counts a late data segment
        (out of order or retransmitted) against ``seq`` when given, and
        steps the coarse TCP state machine, in that order.
        """
        self.last_ts = now
        if from_orig:
            self.pkts_orig += 1
            self.bytes_orig += wire_bytes
            if payload_bytes:
                self.payload_bytes_orig += payload_bytes
        else:
            self.pkts_resp += 1
            self.bytes_resp += wire_bytes
            if payload_bytes:
                self.payload_bytes_resp += payload_bytes
        if tcp_flags is None:
            return False
        flags = tcp_flags
        state = self.tcp_state

        # Weirds.
        if flags & _SYN:
            if flags & _FIN:
                self.weird("syn_and_fin")
            if payload_bytes > 0:
                self.weird("data_on_syn")
        if state is _SYN_SENT:
            if flags & _FIN and not (flags & _SYN):
                self.weird("fin_without_handshake")
            elif payload_bytes > 0 and from_orig and \
                    not (flags & _SYN) and self.pkts_orig <= 1:
                self.weird("data_before_established")
        elif state is _CLOSED and payload_bytes > 0:
            self.weird("data_after_close")

        # Per-direction sequence high-water mark: cheap enough to run
        # in every state, including TRACK, where the reassembler is gone.
        if seq is not None:
            expected = self._next_seq_orig if from_orig \
                else self._next_seq_resp
            end = seq + payload_bytes
            if flags & _SYN_OR_FIN:
                end += 1
            end %= _SEQ_MOD
            if expected is None:
                expected = end
            elif payload_bytes > 0 and \
                    (diff := (seq - expected) % _SEQ_MOD) >= _SEQ_HALF:
                # Below the highest seen: late. The mark stays.
                if from_orig:
                    self.ooo_orig += 1
                else:
                    self.ooo_resp += 1
            else:
                # ``diff`` is bound whenever there is payload.
                if payload_bytes > 0 and diff > _SEQ_JUMP:
                    self.weird("large_seq_jump")
                if (end - expected) % _SEQ_MOD < _SEQ_HALF:
                    expected = end
            if from_orig:
                self._next_seq_orig = expected
            else:
                self._next_seq_resp = expected

        # TCP liveness.
        if flags & _RST:
            self.tcp_state = _CLOSED
            self.history += "R"
            return False
        if flags & _SYN:
            if not flags & _ACK:
                self.history += "S"
                if self.syn_ts is None:
                    self.syn_ts = now
                return False
            self.history += "SA"
            if state is not _SYN_SENT:
                return False
        elif flags & _FIN:
            self.history += "F"
            if state is _CLOSING:
                self.tcp_state = _CLOSED
            elif state is not _CLOSED:
                self.tcp_state = _CLOSING
            return False
        elif state is not _SYN_SENT or from_orig:
            # Only a responder's plain data/ACK proves bidirectionality
            # (it handles taps that miss the SYN-ACK).
            return False
        self.tcp_state = _ESTABLISHED
        self.established_ts = now
        return True

    def weird(self, name: str) -> None:
        """Record one protocol anomaly on this connection."""
        if self.weirds is _NO_WEIRDS:
            self.weirds = {}
        self.weirds[name] = self.weirds.get(name, 0) + 1

    def buffer_packet(self, mbuf: Mbuf) -> None:
        """Hold a packet until the filter fully matches (Figure 4a)."""
        if self.buffered_mbufs:
            self.buffered_mbufs.append(mbuf)
        else:
            self.buffered_mbufs = [mbuf]
        self.buffered_bytes += len(mbuf)

    def drain_buffered(self) -> Sequence[Mbuf]:
        mbufs = self.buffered_mbufs
        self.drop_buffered()
        return mbufs

    def drop_buffered(self) -> None:
        if self.buffered_mbufs:
            self.buffered_mbufs = _NO_MBUFS
            self.buffered_bytes = 0

    @property
    def memory_bytes(self) -> int:
        """Estimated resident bytes for the Figure 8 memory model."""
        total = CONN_BASE_MEMORY_BYTES + self.buffered_bytes
        if self.reassembler is not None:
            total += self.reassembler.memory_bytes
        return total

    @property
    def terminated(self) -> bool:
        return self.tcp_state is _CLOSED

    def __repr__(self) -> str:
        tup = self._five_tuple
        if tup is None:  # built, not cached: a repr leaves no dict
            tup = FiveTuple.from_key(self.key, self.orig_first)
        return (
            f"Connection({tup}, {self.state.value}, "
            f"{self.tcp_state.value}, pkts={self.total_packets})"
        )
