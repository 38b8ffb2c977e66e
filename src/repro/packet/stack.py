"""Parse-once decoding of a full frame into a layered view.

:func:`parse_stack` walks Ethernet → IP → transport once and memoizes
the resulting :class:`PacketStack` on ``mbuf.stack``. Every later
consumer — RSS dispatch, the software packet filter (generated and
interpreted), the connection filter, conntrack keying — reads the same
decoded fields instead of re-running ``struct.unpack_from`` per layer.
The stack also carries per-packet caches for the canonical 5-tuple and
the symmetric-RSS input bytes so those are computed at most once.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import PacketParseError
from repro.packet.ethernet import Ethernet, ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.packet.icmp import Icmp
from repro.packet.ipv4 import Ipv4, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.packet.ipv6 import Ipv6
from repro.packet.mbuf import Mbuf
from repro.packet.tcp import Tcp
from repro.packet.udp import Udp


class PacketStack:
    """Parsed layers of a single frame; absent layers are ``None``.

    ``ipv4``/``ipv6`` alias ``ip`` split by version so filter closures
    can branch on protocol without calling ``version()`` per packet.
    ``_five_tuple``/``_rss_input`` are lazily filled caches owned by
    :mod:`repro.conntrack.five_tuple` and :mod:`repro.nic.rss`.
    """

    __slots__ = ("mbuf", "eth", "ip", "ipv4", "ipv6", "tcp", "udp", "icmp",
                 "_five_tuple", "_rss_input")

    def __init__(self, mbuf: Mbuf) -> None:
        self.mbuf = mbuf
        self.eth: Optional[Ethernet] = None
        self.ip: Optional[Union[Ipv4, Ipv6]] = None
        self.ipv4: Optional[Ipv4] = None
        self.ipv6: Optional[Ipv6] = None
        self.tcp: Optional[Tcp] = None
        self.udp: Optional[Udp] = None
        self.icmp: Optional[Icmp] = None
        self._five_tuple = None
        self._rss_input: Optional[bytes] = None

    @property
    def transport(self) -> Optional[Union[Tcp, Udp]]:
        return self.tcp if self.tcp is not None else self.udp

    def l4_payload(self) -> bytes:
        """Bytes above the transport layer, honoring the IP total length."""
        transport = self.transport
        if transport is None or self.ip is None:
            return b""
        start = transport.payload_offset()
        if self.ipv4 is not None:
            end = self.ipv4.offset + self.ipv4.total_length()
        else:
            end = self.ip.payload_offset() + self.ip.payload_length()
        data = self.mbuf.data
        end = min(end, len(data))
        # bytes() is a no-op for bytes-backed mbufs and normalizes
        # memoryview- or bytearray-backed ones.
        return bytes(data[start:end])

    def l4_payload_len(self) -> int:
        """Length of :meth:`l4_payload` without materializing the bytes.

        The hot path needs only the payload *size* for connection
        accounting; the bytes themselves are sliced lazily, and only
        for connections still probing/parsing/streaming.
        """
        transport = self.transport
        if transport is None or self.ip is None:
            return 0
        start = transport.payload_offset()
        if self.ipv4 is not None:
            end = self.ipv4.offset + self.ipv4.total_length()
        else:
            end = self.ip.payload_offset() + self.ip.payload_length()
        end = min(end, len(self.mbuf.data))
        return end - start if end > start else 0


def parse_stack(mbuf: Mbuf) -> PacketStack:
    """Parse as many layers as the frame contains; never raises.

    The result is memoized on ``mbuf.stack``: the first caller pays for
    the layer walk, every later layer reads the cached views.
    """
    stack = mbuf.stack
    if stack is not None:
        return stack
    stack = PacketStack(mbuf)
    mbuf.stack = stack
    # Constructors are invoked directly (not via the parse_from
    # classmethods) because this walk has already validated what those
    # wrappers re-check: the EtherType / IP protocol dispatch below IS
    # the check, and each layer's offset comes from the previous
    # layer's cached header length.
    try:
        eth = stack.eth = Ethernet(mbuf, 0)
    except PacketParseError:
        return stack
    ethertype = eth._next_proto
    try:
        if ethertype == ETHERTYPE_IPV4:
            ip = stack.ip = stack.ipv4 = Ipv4(mbuf, eth._hdr_len)
        elif ethertype == ETHERTYPE_IPV6:
            ip = stack.ip = stack.ipv6 = Ipv6(mbuf, eth._hdr_len)
        else:
            return stack
    except PacketParseError:
        return stack
    if stack.ipv4 is not None and ip.fragment_offset() > 0:
        # Non-first fragment: the transport header lives in fragment 0;
        # whatever bytes sit here are mid-payload, not a header.
        return stack
    proto = ip.next_protocol()
    transport_offset = ip.offset + ip._hdr_len
    try:
        if proto == PROTO_TCP:
            stack.tcp = Tcp(mbuf, transport_offset)
        elif proto == PROTO_UDP:
            stack.udp = Udp(mbuf, transport_offset)
        elif proto == PROTO_ICMP and stack.ipv4 is not None:
            stack.icmp = Icmp(mbuf, transport_offset)
    except PacketParseError:
        pass
    return stack
