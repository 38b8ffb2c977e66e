"""Packet construction with correct lengths and checksums.

The traffic generators synthesize real frames with these helpers, so the
parsing path is exercised against byte-accurate packets (including IPv4
header checksums and TCP/UDP pseudo-header checksums).

There is one builder, :class:`Direction`: the ``src → dst`` half of a
flow, with everything that does not change from frame to frame resolved
once. The ``build_*`` functions make a ``Direction`` for a single use.
"""

from __future__ import annotations

import ipaddress
import struct
from copy import copy
from typing import Optional, Union

from repro.packet.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.packet.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP

#: Text and ``ipaddress`` forms are parsed; packed 4/16 ``bytes`` used as is.
IPAddr = Union[str, bytes, ipaddress.IPv4Address, ipaddress.IPv6Address]

_DEFAULT_SRC_MAC = bytes.fromhex("02aabbccdd01")
_DEFAULT_DST_MAC = bytes.fromhex("02aabbccdd02")

_PACK_H = struct.Struct("!H").pack
_ETH_IPV4 = _DEFAULT_DST_MAC + _DEFAULT_SRC_MAC + _PACK_H(ETHERTYPE_IPV4)
_ETH_IPV6 = _DEFAULT_DST_MAC + _DEFAULT_SRC_MAC + _PACK_H(ETHERTYPE_IPV6)
_PACK_IPV4 = struct.Struct("!BBHHHBBH8s").pack
_PACK_IPV6 = struct.Struct("!IHBB32s").pack
_PACK_TCP = struct.Struct("!HHIIHHHH").pack
_PACK_UDP = struct.Struct("!HHHH").pack
_PACK_ICMP_ECHO = struct.Struct("!BBHHH").pack


def word_sum(data) -> int:
    """An integer congruent, modulo 0xFFFF, to the sum of ``data``'s
    big-endian 16-bit words (an odd last byte zero-padded), and zero only
    when every byte is zero: ``data`` read as one integer is
    ``Σ wordᵢ · 65536ⁱ`` and 65536 ≡ 1, so C does the adding. Sums of
    parts add, provided every part but the last has even length."""
    total = int.from_bytes(data, "big")
    return total << 8 if len(data) & 1 else total


def fold_checksum(total: int) -> int:
    """The RFC 1071 checksum of a word sum: fold the carries back in
    (end-around), then complement. Folding a non-zero multiple of 0xFFFF
    leaves 0xFFFF, not 0 — the one case where ``% 0xFFFF`` alone is
    wrong."""
    return 0xFFFF - (total % 0xFFFF or (0xFFFF if total else 0))


def checksum16(data) -> int:
    """RFC 1071 ones'-complement 16-bit checksum."""
    return fold_checksum(word_sum(data))


def _ip_bytes(addr: IPAddr) -> bytes:
    if not isinstance(addr, bytes):
        return ipaddress.ip_address(addr).packed
    if len(addr) not in (4, 16):
        raise ValueError(f"packed address of {len(addr)} bytes, not 4/16")
    return addr


class Direction:
    """One direction (``src → dst``) of a flow.

    Resolved once, here: the packed addresses, their family, Ethernet
    header and word sum. A frame is then one ``struct`` pack per header,
    checksums added up from partial sums (addresses + protocol/length +
    header fields + payload) and a single ``join``, so the payload is
    copied once. The state dies with the flow that made it: there is
    deliberately no process-wide address memo (docs/PERFORMANCE.md,
    "Trace synthesis").
    """

    __slots__ = ("addrs", "v4", "eth", "addr_sum", "src_port", "dst_port",
                 "_reverse")

    def __init__(self, src: IPAddr, dst: IPAddr, src_port: int = 0,
                 dst_port: int = 0) -> None:
        src_b = _ip_bytes(src)
        self.addrs = src_b + _ip_bytes(dst)
        self.v4 = len(src_b) == 4
        self.eth = _ETH_IPV4 if self.v4 else _ETH_IPV6
        self.addr_sum = word_sum(self.addrs) % 0xFFFF
        self.src_port = src_port
        self.dst_port = dst_port
        self._reverse: Optional[Direction] = None

    @property
    def reverse(self) -> "Direction":
        """The ``dst → src`` direction, built on first use (a lone SYN
        never pays for it) without parsing anything again."""
        if self._reverse is None:
            # The copy carries ``_reverse = None``: no cycle, so the pair
            # is freed by reference count when the flow is done.
            other = self._reverse = copy(self)
            half = len(self.addrs) // 2
            other.addrs = self.addrs[half:] + self.addrs[:half]
            other.src_port, other.dst_port = self.dst_port, self.src_port
        return self._reverse

    def ip_header(self, protocol: int, l4_len: int, ttl: int = 64,
                  identification: int = 0, dscp: int = 0,
                  flow_label: int = 0) -> bytes:
        """IPv4 (no options) or fixed IPv6 header, by address family."""
        if not self.v4:
            return _PACK_IPV6((6 << 28) | (flow_label & 0xFFFFF), l4_len,
                              protocol, ttl, self.addrs)
        tos = dscp << 2
        total_length = 20 + l4_len
        csum = fold_checksum(0x4500 + tos + total_length + identification
                             + (ttl << 8 | protocol) + self.addr_sum)
        return _PACK_IPV4(0x45, tos, total_length, identification, 0, ttl,
                          protocol, csum, self.addrs)

    def tcp_header(self, payload: bytes, seq: int, ack: int, flags: int,
                   window: int = 65535) -> bytes:
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        offset_flags = (5 << 12) | flags
        csum = fold_checksum(
            self.addr_sum + PROTO_TCP + 20 + len(payload)
            + self.src_port + self.dst_port + seq + ack + offset_flags
            + window + word_sum(payload))
        return _PACK_TCP(self.src_port, self.dst_port, seq, ack,
                         offset_flags, window, csum, 0)

    def udp_header(self, payload: bytes) -> bytes:
        length = 8 + len(payload)
        # The length counts twice: pseudo-header and UDP header.
        csum = fold_checksum(
            self.addr_sum + PROTO_UDP + 2 * length + self.src_port
            + self.dst_port + word_sum(payload))
        return _PACK_UDP(self.src_port, self.dst_port, length,
                         csum or 0xFFFF)

    def frame(self, protocol: int, l4_header: bytes, payload: bytes,
              ttl: int = 64) -> bytes:
        """Ethernet + IP + ``l4_header`` + ``payload``."""
        return b"".join((
            self.eth,
            self.ip_header(protocol, len(l4_header) + len(payload), ttl),
            l4_header, payload))

    def tcp_frame(self, payload: bytes, seq: int, ack: int, flags: int,
                  ttl: int = 64, window: int = 65535) -> bytes:
        return self.frame(
            PROTO_TCP, self.tcp_header(payload, seq, ack, flags, window),
            payload, ttl)

    def udp_frame(self, payload: bytes, ttl: int = 64) -> bytes:
        return self.frame(PROTO_UDP, self.udp_header(payload), payload, ttl)

    def icmp_echo_frame(self, identifier: int, sequence: int,
                        reply: bool = False, payload: bytes = b"\x00" * 32,
                        ttl: int = 64) -> bytes:
        icmp_type = 0 if reply else 8
        csum = fold_checksum((icmp_type << 8) + identifier + sequence
                             + word_sum(payload))
        return self.frame(
            PROTO_ICMP,
            _PACK_ICMP_ECHO(icmp_type, 0, csum, identifier, sequence),
            payload, ttl)


def build_ethernet(payload: bytes, ethertype: int,
                   src_mac: bytes = _DEFAULT_SRC_MAC,
                   dst_mac: bytes = _DEFAULT_DST_MAC) -> bytes:
    """Wrap ``payload`` in an Ethernet II header."""
    return dst_mac + src_mac + _PACK_H(ethertype) + payload


def build_ipv4(payload: bytes, src: IPAddr, dst: IPAddr, protocol: int,
               ttl: int = 64, identification: int = 0,
               dscp: int = 0) -> bytes:
    """Build an IPv4 header (no options) with a valid header checksum."""
    return Direction(src, dst).ip_header(
        protocol, len(payload), ttl, identification, dscp) + payload


def build_ipv6(payload: bytes, src: IPAddr, dst: IPAddr, next_header: int,
               hop_limit: int = 64, flow_label: int = 0) -> bytes:
    """Build a fixed IPv6 header (no extension headers)."""
    return Direction(src, dst).ip_header(
        next_header, len(payload), hop_limit, flow_label=flow_label) + payload


def build_tcp(payload: bytes, src: IPAddr, dst: IPAddr, src_port: int,
              dst_port: int, seq: int = 0, ack: int = 0, flags: int = 0x10,
              window: int = 65535) -> bytes:
    """Build a TCP segment with a valid pseudo-header checksum."""
    return Direction(src, dst, src_port, dst_port).tcp_header(
        payload, seq, ack, flags, window) + payload


def build_udp(payload: bytes, src: IPAddr, dst: IPAddr, src_port: int,
              dst_port: int) -> bytes:
    """Build a UDP datagram with a valid pseudo-header checksum."""
    return Direction(src, dst, src_port, dst_port).udp_header(payload) \
        + payload


def build_tcp_packet(src: IPAddr, dst: IPAddr, src_port: int, dst_port: int,
                     payload: bytes = b"", seq: int = 0, ack: int = 0,
                     flags: int = 0x10, ttl: int = 64,
                     window: int = 65535) -> bytes:
    """Build a full Ethernet/IP/TCP frame (IPv4 or IPv6 by address type)."""
    return Direction(src, dst, src_port, dst_port).tcp_frame(
        payload, seq, ack, flags, ttl, window)


def build_udp_packet(src: IPAddr, dst: IPAddr, src_port: int, dst_port: int,
                     payload: bytes = b"", ttl: int = 64) -> bytes:
    """Build a full Ethernet/IP/UDP frame (IPv4 or IPv6 by address type)."""
    return Direction(src, dst, src_port, dst_port).udp_frame(payload, ttl)


def build_icmp_echo(src: IPAddr, dst: IPAddr, identifier: int = 1,
                    sequence: int = 1, reply: bool = False,
                    payload: bytes = b"\x00" * 32, ttl: int = 64) -> bytes:
    """Build a full Ethernet/IPv4/ICMP echo request or reply frame."""
    return Direction(src, dst).icmp_echo_frame(
        identifier, sequence, reply, payload, ttl)
