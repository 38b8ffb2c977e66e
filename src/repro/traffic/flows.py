"""Byte-accurate flow synthesis.

:class:`TcpFlow` builds a TCP conversation packet by packet — real
handshakes, sequence/ack arithmetic, MSS segmentation, FIN/RST
teardown — and returns timestamped :class:`~repro.packet.mbuf.Mbuf`
frames. Higher-level helpers wrap it with real application payloads
(TLS, HTTP, SSH, DNS) built by the protocol modules' wire-format
builders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence

from repro.packet.builder import Direction, IPAddr
from repro.packet.mbuf import Mbuf
from repro.packet.tcp import TcpFlags
from repro.protocols.dns.build import build_dns_query, build_dns_response
from repro.protocols.quic.build import (
    build_quic_initial,
    build_quic_short,
)
from repro.protocols.tls.build import (
    build_application_data,
    build_certificate,
    build_client_hello,
    build_server_hello,
    build_server_hello_done,
)

_SYN = int(TcpFlags.SYN)
_SYNACK = int(TcpFlags.SYN | TcpFlags.ACK)
_ACK = int(TcpFlags.ACK)
_PSH_ACK = int(TcpFlags.PSH | TcpFlags.ACK)
_FIN_ACK = int(TcpFlags.FIN | TcpFlags.ACK)
_RST = int(TcpFlags.RST)

DEFAULT_MSS = 1448


@dataclass
class FlowSpec:
    """Addressing for one flow (text or packed addresses)."""

    client_ip: IPAddr
    server_ip: IPAddr
    client_port: int
    server_port: int

    def upstream(self) -> Direction:
        """A fresh client → server frame builder; ``.reverse`` is the
        server → client one. Held by the flow being built, not here, so
        the resolved addresses die with that flow."""
        return Direction(self.client_ip, self.server_ip,
                         self.client_port, self.server_port)


class TcpFlow:
    """Stateful builder for one TCP conversation.

    Timestamps advance by ``packet_gap`` within a burst and by ``rtt``
    when the speaking direction flips, approximating request/response
    pacing.
    """

    def __init__(
        self,
        spec: FlowSpec,
        start_ts: float = 0.0,
        rtt: float = 0.02,
        packet_gap: float = 20e-6,
        mss: int = DEFAULT_MSS,
        client_isn: int = 1000,
        server_isn: int = 9_000_000,
    ) -> None:
        self.spec = spec
        self._up = spec.upstream()
        self.ts = start_ts
        self.rtt = rtt
        self.packet_gap = packet_gap
        self.mss = mss
        self.client_seq = client_isn
        self.server_seq = server_isn
        self.packets: List[Mbuf] = []
        self._last_from_client: Optional[bool] = None

    # -- internals -----------------------------------------------------------
    def _emit(self, from_client: bool, payload: bytes, flags: int) -> Mbuf:
        last = self._last_from_client
        if last is not None:
            self.ts += self.packet_gap if last == from_client \
                else self.rtt / 2
        self._last_from_client = from_client
        span = len(payload)
        if flags & (_SYN | int(TcpFlags.FIN)):
            span += 1
        if from_client:
            frame = self._up.tcp_frame(
                payload, self.client_seq, self.server_seq, flags)
            self.client_seq = (self.client_seq + span) % (1 << 32)
        else:
            frame = self._up.reverse.tcp_frame(
                payload, self.server_seq, self.client_seq, flags)
            self.server_seq = (self.server_seq + span) % (1 << 32)
        mbuf = Mbuf(frame, timestamp=self.ts)
        self.packets.append(mbuf)
        return mbuf

    # -- conversation steps ---------------------------------------------------
    def syn(self) -> "TcpFlow":
        self._emit(True, b"", _SYN)
        return self

    def handshake(self, synack_delay: Optional[float] = None) -> "TcpFlow":
        """Three-way handshake; ``synack_delay`` overrides the RTT-based
        SYN→SYN-ACK latency (Table 2 models its P99 at 1 s)."""
        self._emit(True, b"", _SYN)
        if synack_delay is not None:
            self.ts += max(synack_delay - self.rtt / 2, 0.0)
        self._emit(False, b"", _SYNACK)
        self._emit(True, b"", _ACK)
        return self

    def send(self, from_client: bool, data: bytes,
             ack_every: int = 2) -> "TcpFlow":
        """Send ``data``, segmented at the MSS.

        The receiver emits a delayed ACK every ``ack_every`` segments
        (0 disables), reproducing the small-packet population real
        transfers carry (Figure 13's low mode).
        """
        if not data:
            self._emit(from_client, b"", _ACK)
            return self
        segments = 0
        for offset in range(0, len(data), self.mss):
            chunk = data[offset:offset + self.mss]
            self._emit(from_client, chunk, _PSH_ACK)
            segments += 1
            if ack_every and segments % ack_every == 0:
                self._emit(not from_client, b"", _ACK)
        return self

    def ack(self, from_client: bool) -> "TcpFlow":
        self._emit(from_client, b"", _ACK)
        return self

    def fin(self) -> "TcpFlow":
        """Graceful bidirectional teardown."""
        self._emit(True, b"", _FIN_ACK)
        self._emit(False, b"", _FIN_ACK)
        self._emit(True, b"", _ACK)
        return self

    def rst(self, from_client: bool = True) -> "TcpFlow":
        self._emit(from_client, b"", _RST)
        return self

    def idle(self, seconds: float) -> "TcpFlow":
        self.ts += seconds
        return self

    def build(self) -> List[Mbuf]:
        return self.packets

    # -- perturbations ----------------------------------------------------------
    def shuffle_segments(self, rng: random.Random,
                         displacement: int = 3) -> "TcpFlow":
        """Introduce out-of-order arrivals by displacing data packets a
        few slots, as reordering on real paths does (Table 2's 6% of
        flows). Timestamps are re-sorted so the trace stays monotonic."""
        packets = self.packets
        if len(packets) < 4:
            return self
        index = rng.randrange(3, len(packets))
        jump = max(1, min(displacement, index - 3))
        packets[index - jump], packets[index] = \
            packets[index], packets[index - jump]
        times = sorted(m.timestamp for m in packets)
        for mbuf, ts in zip(packets, times):
            mbuf.timestamp = ts
        return self

    def drop_segment(self, rng: random.Random) -> "TcpFlow":
        """Lose one data packet (incomplete flow, Table 2's 4.6%)."""
        candidates = [i for i, m in enumerate(self.packets)
                      if len(m) > 60 and i >= 3]
        if candidates:
            del self.packets[rng.choice(candidates)]
        return self


# ---------------------------------------------------------------------------
# application-level flows
# ---------------------------------------------------------------------------

def tls_flow(
    spec: FlowSpec,
    sni: Optional[str],
    start_ts: float = 0.0,
    client_random: Optional[bytes] = None,
    server_random: Optional[bytes] = None,
    cipher_suite: int = 0x1301,
    selected_version: Optional[int] = 0x0304,
    appdata_bytes: int = 8192,
    appdata_up_bytes: int = 512,
    cert_bytes: int = 3000,
    rtt: float = 0.02,
    teardown: str = "fin",
    synack_delay: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> List[Mbuf]:
    """A full HTTPS-shaped TLS connection with a real handshake."""
    rng = rng or random.Random(0)
    client_random = client_random or rng.randbytes(32)
    server_random = server_random or rng.randbytes(32)
    flow = TcpFlow(spec, start_ts=start_ts, rtt=rtt)
    flow.handshake(synack_delay)
    flow.send(True, build_client_hello(
        sni, client_random,
        supported_versions=[0x0304, 0x0303] if selected_version else None,
    ))
    server_flight = (
        build_server_hello(server_random, cipher_suite=cipher_suite,
                           selected_version=selected_version)
        + build_certificate(b"\x30\x82" + bytes(cert_bytes))
        + build_server_hello_done()
    )
    flow.send(False, server_flight)
    if appdata_up_bytes:
        flow.send(True, build_application_data(bytes(appdata_up_bytes)))
    remaining = appdata_bytes
    while remaining > 0:
        chunk = min(remaining, 16000)
        flow.send(False, build_application_data(bytes(chunk)))
        remaining -= chunk
    if teardown == "fin":
        flow.fin()
    elif teardown == "rst":
        flow.rst()
    return flow.build()


def http_flow(
    spec: FlowSpec,
    host: str = "example.com",
    uri: str = "/",
    method: str = "GET",
    user_agent: str = "Mozilla/5.0",
    status: int = 200,
    response_bytes: int = 4096,
    start_ts: float = 0.0,
    rtt: float = 0.02,
    teardown: str = "fin",
    synack_delay: Optional[float] = None,
) -> List[Mbuf]:
    """A plain HTTP/1.1 transaction over a fresh connection."""
    request = (
        f"{method} {uri} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"User-Agent: {user_agent}\r\n"
        f"Accept: */*\r\n\r\n"
    ).encode()
    body = bytes(response_bytes)
    response = (
        f"HTTP/1.1 {status} OK\r\n"
        f"Content-Type: application/octet-stream\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    flow = TcpFlow(spec, start_ts=start_ts, rtt=rtt)
    flow.handshake(synack_delay)
    flow.send(True, request)
    flow.send(False, response)
    if teardown == "fin":
        flow.fin()
    return flow.build()


def ssh_flow(
    spec: FlowSpec,
    client_software: str = "OpenSSH_8.9p1",
    server_software: str = "OpenSSH_8.4",
    start_ts: float = 0.0,
    kex_bytes: int = 2048,
    rtt: float = 0.02,
    synack_delay: Optional[float] = None,
) -> List[Mbuf]:
    """An SSH connection: banner exchange plus opaque key-exchange."""
    flow = TcpFlow(spec, start_ts=start_ts, rtt=rtt)
    flow.handshake(synack_delay)
    flow.send(True, f"SSH-2.0-{client_software}\r\n".encode())
    flow.send(False, f"SSH-2.0-{server_software}\r\n".encode())
    flow.send(True, bytes(kex_bytes // 2))
    flow.send(False, bytes(kex_bytes // 2))
    flow.fin()
    return flow.build()


def dns_flow(
    spec: FlowSpec,
    name: str = "example.com",
    qtype: str = "A",
    answer: IPAddr = bytes((93, 184, 216, 34)),
    rcode: int = 0,
    txn_id: int = 0x1234,
    start_ts: float = 0.0,
    rtt: float = 0.01,
) -> List[Mbuf]:
    """A UDP DNS lookup: one query, one response."""
    query = build_dns_query(name, qtype=qtype, txn_id=txn_id)
    response = build_dns_response(name, answer, qtype=qtype,
                                  txn_id=txn_id, rcode=rcode)
    return _alternating_datagrams(spec, [query, response], start_ts, rtt)


def udp_flow(
    spec: FlowSpec,
    payload_sizes: Sequence[int] = (200, 1200, 1200),
    start_ts: float = 0.0,
    gap: float = 0.001,
) -> List[Mbuf]:
    """Generic UDP traffic (QUIC-ish opaque datagrams)."""
    return _alternating_datagrams(
        spec, [bytes(size) for size in payload_sizes], start_ts, gap)


def quic_flow(
    spec: FlowSpec,
    payload_sizes: Sequence[int] = (1252, 1252, 1000, 1000),
    version: int = 0x00000001,
    dcid: bytes = b"\x11" * 8,
    scid: bytes = b"\x22" * 8,
    start_ts: float = 0.0,
    gap: float = 0.001,
) -> List[Mbuf]:
    """A QUIC connection over UDP: client and server Initials followed
    by short-header 1-RTT packets, with the requested datagram sizes."""
    datagrams = []
    for i, size in enumerate(payload_sizes):
        if i < 2:
            ids = (dcid, scid) if i == 0 else (scid, dcid)
            datagrams.append(build_quic_initial(
                *ids, version=version, payload_len=max(size - 60, 32)))
        else:
            datagrams.append(build_quic_short(
                dcid if i % 2 == 0 else scid,
                payload_len=max(size - 20, 16)))
    return _alternating_datagrams(spec, datagrams, start_ts, gap)


def _alternating_datagrams(spec: FlowSpec, datagrams: Sequence[bytes],
                           start_ts: float, gap: float) -> List[Mbuf]:
    """UDP frames ``gap`` apart, the client sending the even ones."""
    up = spec.upstream()
    frames = []
    ts = start_ts
    for i, datagram in enumerate(datagrams):
        direction = up if i % 2 == 0 else up.reverse
        frames.append(Mbuf(direction.udp_frame(datagram), timestamp=ts))
        ts += gap
    return frames


def ping_flow(
    spec: FlowSpec,
    count: int = 3,
    start_ts: float = 0.0,
    rtt: float = 0.01,
) -> List[Mbuf]:
    """An ICMP echo request/reply exchange."""
    up = spec.upstream()
    frames = []
    ts = start_ts
    for sequence in range(1, count + 1):
        frames.append(Mbuf(up.icmp_echo_frame(
            spec.client_port, sequence), timestamp=ts))
        frames.append(Mbuf(up.reverse.icmp_echo_frame(
            spec.client_port, sequence, reply=True), timestamp=ts + rtt))
        ts += 1.0
    return frames


def single_syn(spec: FlowSpec, start_ts: float = 0.0) -> List[Mbuf]:
    """An unanswered SYN — the scanner population (65% of campus
    connections, Table 2): the first frame of a :class:`TcpFlow`."""
    return [Mbuf(spec.upstream().tcp_frame(b"", 1000, 9_000_000, _SYN),
                 timestamp=start_ts)]


_TIMESTAMP = attrgetter("timestamp")


def merge_flows(flows: Iterable[Sequence[Mbuf]]) -> List[Mbuf]:
    """Merge per-flow packet lists by timestamp, ties in flow order:
    what ``heapq.merge(*flows, key=timestamp)`` yields, from one stable
    sort. The key is each flow's running maximum, which is the timestamp
    unless a flow dips (``CampusTrafficGenerator._stretch`` can compress
    one); a k-way merge holds the dipping packets behind the earlier,
    larger one in just that way."""
    flows = list(flows)
    merged = list(chain.from_iterable(flows))
    keys = [key for flow in flows
            for key in accumulate(map(_TIMESTAMP, flow), max)]
    return [merged[i]
            for i in sorted(range(len(merged)), key=keys.__getitem__)]


def duplicate_across_ports(packets: Sequence[Mbuf],
                           ports: int = 2) -> List[Mbuf]:
    """Duplicate a traffic stream across NIC ports, interleaved by
    timestamp — the paper's Section 6 stress setup ("packets duplicated
    across the two links such that we receive double the regular
    traffic")."""
    if ports < 1:
        raise ValueError("need at least one port")
    out: List[Mbuf] = []
    for mbuf in packets:
        for port in range(ports):
            out.append(Mbuf(mbuf.data, timestamp=mbuf.timestamp,
                            port=port))
    return out
