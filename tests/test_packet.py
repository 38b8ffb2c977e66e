"""Unit tests for the packet substrate (mbuf, headers, builder)."""

import ipaddress
import struct

import pytest

from repro.errors import PacketParseError
from repro.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    Ethernet,
    Ipv4,
    Ipv6,
    Mbuf,
    Tcp,
    TcpFlags,
    Udp,
    build_ethernet,
    build_tcp_packet,
    build_udp_packet,
    checksum16,
    parse_stack,
)
from repro.packet.ethernet import ETHERTYPE_VLAN


def make_tcp_mbuf(**kwargs):
    defaults = dict(
        src="10.0.0.1", dst="192.168.1.2", src_port=12345, dst_port=443,
        payload=b"hello", seq=1000, flags=int(TcpFlags.PSH | TcpFlags.ACK),
    )
    defaults.update(kwargs)
    return Mbuf(build_tcp_packet(**defaults))


class TestEthernet:
    def test_parse_fields(self):
        mbuf = make_tcp_mbuf()
        eth = Ethernet.parse(mbuf)
        assert eth.next_protocol() == ETHERTYPE_IPV4
        assert eth.header_len() == 14
        assert len(eth.src_mac()) == 6
        assert len(eth.dst_mac()) == 6

    def test_truncated_frame_raises(self):
        with pytest.raises(PacketParseError):
            Ethernet.parse(Mbuf(b"\x00" * 10))

    def test_vlan_tag_skipped(self):
        inner = build_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)[14:]
        tag = struct.pack("!HH", 100, ETHERTYPE_IPV4)  # TCI=100, inner type
        frame = build_ethernet(tag + inner, ETHERTYPE_VLAN)
        eth = Ethernet.parse(Mbuf(frame))
        assert eth.vlan_ids() == (100,)
        assert eth.header_len() == 18
        assert eth.next_protocol() == ETHERTYPE_IPV4
        ip = Ipv4.parse_from(eth)
        assert str(ip.src_addr()) == "10.0.0.1"


class TestIpv4:
    def test_fields(self):
        mbuf = make_tcp_mbuf(ttl=17)
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        assert ip.version() == 4
        assert ip.ttl() == 17
        assert ip.protocol() == 6
        assert str(ip.src_addr()) == "10.0.0.1"
        assert str(ip.dst_addr()) == "192.168.1.2"
        assert ip.total_length() == len(mbuf.data) - 14

    def test_checksum_valid(self):
        mbuf = make_tcp_mbuf()
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        header = mbuf.data[14:14 + ip.header_len()]
        assert checksum16(header) == 0

    def test_wrong_ethertype_raises(self):
        frame = build_ethernet(b"\x00" * 40, 0x1234)
        with pytest.raises(PacketParseError):
            Ipv4.parse_from(Ethernet.parse(Mbuf(frame)))

    def test_bad_version_raises(self):
        payload = bytearray(build_tcp_packet("1.2.3.4", "5.6.7.8", 1, 2))
        payload[14] = (6 << 4) | 5  # corrupt version nibble
        with pytest.raises(PacketParseError):
            Ipv4.parse_from(Ethernet.parse(Mbuf(bytes(payload))))

    def test_addr_u32(self):
        mbuf = make_tcp_mbuf(src="1.2.3.4")
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        assert ip.src_addr_u32() == 0x01020304


class TestIpv6:
    def test_fields(self):
        mbuf = Mbuf(build_tcp_packet("2001:db8::1", "2001:db8::2", 1, 443))
        eth = Ethernet.parse(mbuf)
        assert eth.next_protocol() == ETHERTYPE_IPV6
        ip = Ipv6.parse_from(eth)
        assert ip.version() == 6
        assert str(ip.src_addr()) == "2001:db8::1"
        assert ip.next_protocol() == 6
        assert ip.header_len() == 40
        tcp = Tcp.parse_from(ip)
        assert tcp.dst_port() == 443

    def test_extension_header_skipped(self):
        # Hand-build: IPv6 fixed header (next=0 hop-by-hop) + 8-byte ext
        # (next=6 TCP) + minimal TCP header.
        tcp_hdr = struct.pack("!HHIIBBHHH", 1, 2, 0, 0, 5 << 4, 0x02, 0, 0, 0)
        ext = struct.pack("!BB6x", 6, 0)
        src = ipaddress.ip_address("2001:db8::1").packed
        dst = ipaddress.ip_address("2001:db8::2").packed
        fixed = struct.pack("!IHBB16s16s", 6 << 28, len(ext) + len(tcp_hdr),
                            0, 64, src, dst)
        frame = build_ethernet(fixed + ext + tcp_hdr, ETHERTYPE_IPV6)
        ip = Ipv6.parse_from(Ethernet.parse(Mbuf(frame)))
        assert ip.next_header() == 0
        assert ip.next_protocol() == 6
        assert ip.header_len() == 48
        assert Tcp.parse_from(ip).src_port() == 1


class TestTcp:
    def test_fields(self):
        mbuf = make_tcp_mbuf(seq=7777, ack=8888)
        tcp = Tcp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert tcp.src_port() == 12345
        assert tcp.dst_port() == 443
        assert tcp.seq_no() == 7777
        assert tcp.ack_no() == 8888
        assert tcp.flags() == TcpFlags.PSH | TcpFlags.ACK

    def test_synack_detection(self):
        mbuf = make_tcp_mbuf(flags=int(TcpFlags.SYN | TcpFlags.ACK))
        tcp = Tcp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert tcp.synack()
        mbuf = make_tcp_mbuf(flags=int(TcpFlags.SYN))
        tcp = Tcp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert not tcp.synack()

    def test_checksum_valid(self):
        mbuf = make_tcp_mbuf(payload=b"data bytes here")
        stack = parse_stack(mbuf)
        segment = mbuf.data[stack.tcp.offset:]
        pseudo = (bytes([10, 0, 0, 1, 192, 168, 1, 2])
                  + struct.pack("!BBH", 0, 6, len(segment)))
        assert checksum16(pseudo + segment) == 0

    def test_not_tcp_raises(self):
        mbuf = Mbuf(build_udp_packet("1.1.1.1", "2.2.2.2", 53, 53))
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        with pytest.raises(PacketParseError):
            Tcp.parse_from(ip)


class TestUdp:
    def test_fields(self):
        mbuf = Mbuf(build_udp_packet("1.1.1.1", "8.8.8.8", 5353, 53,
                                     payload=b"q" * 20))
        udp = Udp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert udp.src_port() == 5353
        assert udp.dst_port() == 53
        assert udp.length() == 28
        assert udp.header_len() == 8


class TestParseStack:
    def test_tcp_stack(self):
        stack = parse_stack(make_tcp_mbuf(payload=b"abcdef"))
        assert stack.eth is not None
        assert stack.ip is not None
        assert stack.tcp is not None
        assert stack.udp is None
        assert stack.transport is stack.tcp
        assert stack.l4_payload() == b"abcdef"

    def test_udp_stack(self):
        mbuf = Mbuf(build_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"xy"))
        stack = parse_stack(mbuf)
        assert stack.udp is not None and stack.tcp is None
        assert stack.l4_payload() == b"xy"

    def test_l4_payload_ignores_padding(self):
        # Ethernet frames can be padded; l4_payload must honor IP length.
        frame = build_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload=b"ab")
        stack = parse_stack(Mbuf(frame + b"\x00" * 10))
        assert stack.l4_payload() == b"ab"

    def test_garbage_is_partial(self):
        stack = parse_stack(Mbuf(b"\xff" * 64))
        assert stack.eth is not None  # ethernet always "parses"
        assert stack.ip is None

    def test_short_frame(self):
        stack = parse_stack(Mbuf(b"\x01"))
        assert stack.eth is None


class TestChecksum16:
    def test_known_vector(self):
        # Classic example from RFC 1071 discussions.
        data = bytes.fromhex("00010f2000348802")
        assert checksum16(data) == 0xFFFF - ((0x0001 + 0x0F20 + 0x0034 + 0x8802) % 0xFFFF)

    def test_odd_length_padded(self):
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")
