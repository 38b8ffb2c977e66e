"""Direction-canonical connection keys.

A key is one ``bytes``, ``ip‖port‖ip‖port‖proto`` in network order with
the lower endpoint first: 13 bytes for IPv4, 37 for IPv6.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.packet.stack import PacketStack

#: Cache sentinel for "computed: this frame has no five-tuple".
_NO_TUPLE = "no-tuple"

_KEY4 = struct.Struct("!4sH4sHB")
_KEY6 = struct.Struct("!16sH16sHB")
#: Each family's packer, for a hot path that picks one by address length.
PACK_KEY4, PACK_KEY6 = _KEY4.pack, _KEY6.pack


def pack_key(a_ip: bytes, a_port: int, b_ip: bytes, b_port: int,
             proto: int) -> bytes:
    """The key of endpoints ``a`` and ``b``, ``a`` the lower one."""
    return (PACK_KEY4 if len(a_ip) == 4 else PACK_KEY6)(
        a_ip, a_port, b_ip, b_port, proto)


def unpack_key(key: bytes) -> Tuple[bytes, int, bytes, int, int]:
    """The key's five fields. Keys of one family sort as these tuples
    do; across families only the tuples keep the old order."""
    return (_KEY4 if len(key) == 13 else _KEY6).unpack(key)


@dataclass(frozen=True)
class FiveTuple:
    """(src, dst, sport, dport, proto) identifying one connection.

    ``orig`` fields record the *originator* — the endpoint that sent the
    first packet the tracker saw. :meth:`canonical` produces a
    direction-insensitive key so both directions of a flow map to the
    same table entry (which symmetric RSS guarantees land on the same
    core). Slotted by hand (``dataclass(slots=True)`` needs 3.10): the
    five fields plus the :meth:`canonical` cache.
    """

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                 "_canonical")

    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    protocol: int

    @classmethod
    def from_stack(cls, stack: PacketStack) -> Optional["FiveTuple"]:
        """Extract the five-tuple, or None for non-IP/transport frames.

        Memoized on the stack: conntrack keying, the overload admission
        gate, and subscription callbacks all see the same object, built
        from raw address bytes (no ``ipaddress`` round-trip).
        """
        cached = stack._five_tuple
        if cached is not None:
            return None if cached is _NO_TUPLE else cached
        ip = stack.ip
        transport = stack.tcp if stack.tcp is not None else stack.udp
        if ip is None or transport is None:
            stack._five_tuple = _NO_TUPLE
            return None
        tup = cls(
            ip.src_addr_bytes(),
            ip.dst_addr_bytes(),
            transport.src_port(),
            transport.dst_port(),
            ip.next_protocol(),
        )
        stack._five_tuple = tup
        return tup

    @classmethod
    def from_key(cls, key: bytes, orig_first: bool) -> "FiveTuple":
        """The originator-to-responder tuple of a canonical ``key``,
        whose originator is the key's first endpoint iff
        ``orig_first``; its :meth:`canonical` is ``key`` itself."""
        a_ip, a_port, b_ip, b_port, protocol = unpack_key(key)
        if orig_first:
            tup = cls(a_ip, b_ip, a_port, b_port, protocol)
        else:
            tup = cls(b_ip, a_ip, b_port, a_port, protocol)
        object.__setattr__(tup, "_canonical", key)
        return tup

    def canonical(self) -> bytes:
        """Direction-insensitive packed key (computed once, cached)."""
        try:
            return self._canonical
        except AttributeError:
            pass
        if self.src_is_first():
            canon = pack_key(self.src_ip, self.src_port, self.dst_ip,
                             self.dst_port, self.protocol)
        else:
            canon = pack_key(self.dst_ip, self.dst_port, self.src_ip,
                             self.src_port, self.protocol)
        object.__setattr__(self, "_canonical", canon)
        return canon

    def __reduce__(self):
        # A frozen class cannot take pickle's default slot-by-slot
        # ``setattr``; the cache is cheaper to rebuild than to ship.
        return (type(self), (self.src_ip, self.dst_ip, self.src_port,
                             self.dst_port, self.protocol))

    def src_is_first(self) -> bool:
        """True if the source is the canonical key's first endpoint."""
        return (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port)

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port,
                         self.src_port, self.protocol)

    def same_direction(self, other: "FiveTuple") -> bool:
        """True if ``other`` flows in this tuple's direction."""
        return (self.src_ip, self.src_port) == (other.src_ip, other.src_port)

    def __str__(self) -> str:
        import ipaddress

        src = ipaddress.ip_address(self.src_ip)
        dst = ipaddress.ip_address(self.dst_ip)
        proto = {6: "tcp", 17: "udp"}.get(self.protocol, str(self.protocol))
        return f"{src}:{self.src_port} -> {dst}:{self.dst_port}/{proto}"
