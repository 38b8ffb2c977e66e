"""Subscribable data types (Section 3.2.2's three abstraction levels).

Each class bundles what the callback receives plus the class-level
metadata the framework uses to derive the processing state machine
(Figure 4): the abstraction level, which application parsers must be
probed, and how the connection should be treated after a filter match.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.conntrack.conn import Connection
from repro.conntrack.five_tuple import FiveTuple
from repro.packet.mbuf import Mbuf
from repro.packet.stack import PacketStack
from repro.protocols.base import Session


class Level(enum.Enum):
    """Data abstraction levels (OSI bands, Section 3.2.2)."""

    PACKET = "packet"          # L2-3: raw frames, order of arrival
    CONNECTION = "connection"  # L4: reassembled connection records
    SESSION = "session"        # L5-7: parsed application sessions


@dataclass
class RawPacket:
    """A raw frame, optionally in the context of a matched connection."""

    level = Level.PACKET
    app_parsers = ()  # class metadata, not a dataclass field
    name = "packet"

    mbuf: Mbuf = None
    #: Set when the packet was delivered via a connection-level match.
    five_tuple: Optional[FiveTuple] = None

    def data(self) -> bytes:
        return self.mbuf.data

    @property
    def timestamp(self) -> float:
        return self.mbuf.timestamp


#: ``ConnectionRecord``'s fields in order: its constructor's positions,
#: its ``repr`` and its equality, as a dataclass over them would have.
_RECORD_FIELDS = (
    "five_tuple", "first_ts", "last_ts", "syn_ts", "established_ts",
    "pkts_orig", "pkts_resp", "bytes_orig", "bytes_resp",
    "payload_bytes_orig", "payload_bytes_resp", "ooo_orig", "ooo_resp",
    "history", "service", "terminated_gracefully", "weirds",
)
_record_values = attrgetter(*_RECORD_FIELDS)


class ConnectionRecord:
    """A terminated (or expired) connection's summary record.

    Slotted, with a dataclass's keyword constructor, value equality and
    ``repr`` over :data:`_RECORD_FIELDS`. A record made by
    :meth:`from_connection` keeps the connection's canonical key and
    builds its :attr:`five_tuple` on first read, caching it on the
    record (a subscriber that never reads it never pays for it).
    """

    level = Level.CONNECTION
    app_parsers = ()
    name = "connection"

    __slots__ = ("_five_tuple", "_key", "_orig_first") + _RECORD_FIELDS[1:]

    def __init__(
        self,
        five_tuple: Optional[FiveTuple] = None,
        first_ts: float = 0.0,
        last_ts: float = 0.0,
        syn_ts: Optional[float] = None,
        established_ts: Optional[float] = None,
        pkts_orig: int = 0,
        pkts_resp: int = 0,
        bytes_orig: int = 0,
        bytes_resp: int = 0,
        payload_bytes_orig: int = 0,
        payload_bytes_resp: int = 0,
        ooo_orig: int = 0,
        ooo_resp: int = 0,
        history: str = "",
        service: Optional[str] = None,
        terminated_gracefully: bool = False,
        weirds: Optional[Dict[str, int]] = None,
    ) -> None:
        self._five_tuple = five_tuple
        self._key = None
        self._orig_first = True
        self.first_ts = first_ts
        self.last_ts = last_ts
        self.syn_ts = syn_ts
        self.established_ts = established_ts
        self.pkts_orig = pkts_orig
        self.pkts_resp = pkts_resp
        self.bytes_orig = bytes_orig
        self.bytes_resp = bytes_resp
        self.payload_bytes_orig = payload_bytes_orig
        self.payload_bytes_resp = payload_bytes_resp
        self.ooo_orig = ooo_orig
        self.ooo_resp = ooo_resp
        self.history = history
        self.service = service
        self.terminated_gracefully = terminated_gracefully
        #: Protocol anomalies observed ("weirds"), name → count.
        self.weirds = {} if weirds is None else weirds

    @classmethod
    def from_connection(cls, conn: Connection) -> "ConnectionRecord":
        # Filled slot by slot, without the keyword constructor: this
        # runs once per delivered connection. The connection's key
        # stands in for the five-tuple (caching one on every
        # connection of a drain would hold them all live at once).
        record = object.__new__(cls)
        record._five_tuple = None
        record._key = conn.key
        record._orig_first = conn.orig_first
        record.first_ts = conn.first_ts
        record.last_ts = conn.last_ts
        record.syn_ts = conn.syn_ts
        record.established_ts = conn.established_ts
        record.pkts_orig = conn.pkts_orig
        record.pkts_resp = conn.pkts_resp
        record.bytes_orig = conn.bytes_orig
        record.bytes_resp = conn.bytes_resp
        record.payload_bytes_orig = conn.payload_bytes_orig
        record.payload_bytes_resp = conn.payload_bytes_resp
        # OOO counts come from the connection's lightweight sequence
        # tracker, which runs in every state (the reassembler only
        # exists while probing/parsing).
        record.ooo_orig = conn.ooo_orig
        record.ooo_resp = conn.ooo_resp
        record.history = conn.history
        record.service = conn.service_name
        record.terminated_gracefully = conn.terminated
        record.weirds = dict(conn.weirds)
        return record

    @property
    def five_tuple(self) -> Optional[FiveTuple]:
        tup = self._five_tuple
        if tup is None and self._key is not None:
            tup = self._five_tuple = FiveTuple.from_key(self._key,
                                                        self._orig_first)
        return tup

    @five_tuple.setter
    def five_tuple(self, value: Optional[FiveTuple]) -> None:
        self._five_tuple = value
        self._key = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _record_values(self) == _record_values(other)

    __hash__ = None  # mutable and compared by value, like a dataclass

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={value!r}" for name, value
            in zip(_RECORD_FIELDS, _record_values(self))))

    @property
    def duration(self) -> float:
        return max(0.0, self.last_ts - self.first_ts)

    @property
    def total_packets(self) -> int:
        return self.pkts_orig + self.pkts_resp

    @property
    def total_bytes(self) -> int:
        return self.bytes_orig + self.bytes_resp

    @property
    def is_single_syn(self) -> bool:
        return (self.history == "S" and self.pkts_resp == 0
                and self.pkts_orig <= 1)


@dataclass
class _SessionSubscribable:
    """Common shape for parsed-session subscriptions."""

    level = Level.SESSION
    app_parsers = ()  # class metadata; subclasses narrow it

    session: Session = None
    five_tuple: FiveTuple = None

    @property
    def data(self) -> Any:
        return self.session.data

    @property
    def timestamp(self) -> float:
        return self.session.timestamp


class TlsHandshake(_SessionSubscribable):
    """A parsed TLS handshake (Figure 1's subscription type)."""

    app_parsers = ("tls",)
    name = "tls_handshake"

    def sni(self) -> Optional[str]:
        return self.data.sni()

    def cipher(self) -> Optional[str]:
        return self.data.cipher()

    def version(self) -> Optional[str]:
        return self.data.version()

    def client_random(self) -> Optional[bytes]:
        return self.data.client_random


class HttpTransaction(_SessionSubscribable):
    """A parsed HTTP request/response pair."""

    app_parsers = ("http",)
    name = "http_transaction"

    def method(self) -> Optional[str]:
        return self.data.method()

    def uri(self) -> Optional[str]:
        return self.data.uri()

    def host(self) -> Optional[str]:
        return self.data.host()

    def user_agent(self) -> Optional[str]:
        return self.data.user_agent()

    def status_code(self) -> Optional[int]:
        return self.data.status_code()


class SshHandshake(_SessionSubscribable):
    """A parsed SSH identification exchange."""

    app_parsers = ("ssh",)
    name = "ssh_handshake"

    def client_software(self) -> Optional[str]:
        return self.data.client_software()

    def server_software(self) -> Optional[str]:
        return self.data.server_software()


class DnsTransaction(_SessionSubscribable):
    """A parsed DNS query/response transaction."""

    app_parsers = ("dns",)
    name = "dns_transaction"

    def query_name(self) -> Optional[str]:
        return self.data.query_name()

    def response_code(self) -> Optional[int]:
        return self.data.response_code()


@dataclass
class StreamChunk:
    """One in-order chunk of a matched connection's byte-stream.

    The "fully reconstructed byte-stream" subscribable Section 3.3
    names and Section 5.2's example ("TLS byte-streams with domains
    ending in .com") subscribes to: once the filter fully matches, the
    callback receives every in-order payload chunk of the connection —
    including the chunks that arrived while the filter was still being
    evaluated, which the framework buffers.
    """

    level = Level.CONNECTION
    app_parsers = ()  # parsers come from the filter, if any
    name = "byte_stream"
    #: Marks this datatype as streaming reassembled payload bytes.
    streams_bytes = True

    payload: bytes = b""
    from_orig: bool = True
    timestamp: float = 0.0
    five_tuple: FiveTuple = None


class QuicHandshake(_SessionSubscribable):
    """A parsed QUIC connection start (invariant-header fields)."""

    app_parsers = ("quic",)
    name = "quic_handshake"

    def version(self) -> Optional[str]:
        return self.data.version()

    def dcid(self) -> Optional[str]:
        return self.data.dcid()


#: Name → subscribable class, for the string-based Runtime API.
SUBSCRIBABLES: Dict[str, Type] = {
    RawPacket.name: RawPacket,
    ConnectionRecord.name: ConnectionRecord,
    TlsHandshake.name: TlsHandshake,
    HttpTransaction.name: HttpTransaction,
    SshHandshake.name: SshHandshake,
    DnsTransaction.name: DnsTransaction,
    QuicHandshake.name: QuicHandshake,
    StreamChunk.name: StreamChunk,
}
