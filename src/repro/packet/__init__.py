"""Byte-level packet substrate.

This package provides the packet representation used throughout the
framework: an :class:`~repro.packet.mbuf.Mbuf` wrapping raw frame bytes
plus receive metadata, and lazily parsed protocol header views for
Ethernet, IPv4, IPv6, TCP, and UDP.

The parsing model mirrors Retina's ``PacketParsable`` trait: each header
type knows how to parse itself from the payload of an encapsulating
header, reports its own header length, and exposes the IANA protocol
number (or EtherType) of the next layer.
"""

from repro.packet.mbuf import Mbuf
from repro.packet.ethernet import Ethernet, ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.packet.icmp import Icmp
from repro.packet.ipv4 import Ipv4
from repro.packet.ipv6 import Ipv6
from repro.packet.tcp import Tcp, TcpFlags
from repro.packet.udp import Udp
from repro.packet.stack import PacketStack, parse_stack
from repro.packet.builder import (
    build_ethernet,
    build_icmp_echo,
    build_ipv4,
    build_ipv6,
    build_tcp,
    build_udp,
    build_tcp_packet,
    build_udp_packet,
    checksum16,
)

__all__ = [
    "Mbuf",
    "PacketStack",
    "parse_stack",
    "Ethernet",
    "Icmp",
    "Ipv4",
    "Ipv6",
    "Tcp",
    "TcpFlags",
    "Udp",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "build_ethernet",
    "build_icmp_echo",
    "build_ipv4",
    "build_ipv6",
    "build_tcp",
    "build_udp",
    "build_tcp_packet",
    "build_udp_packet",
    "checksum16",
]
