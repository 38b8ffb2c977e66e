"""Common machinery for lazily parsed protocol header views.

Each header class is a lightweight view over an :class:`~repro.packet.mbuf.Mbuf`
at a fixed byte offset. Construction validates only that enough bytes are
present for the fixed header; field accessors decode on demand with
``struct.unpack_from`` so untouched fields cost nothing — the Python
analogue of Retina parsing headers in place inside the mbuf.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import PacketParseError
from repro.packet.mbuf import Mbuf

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


class HeaderView:
    """A protocol header parsed in place at ``offset`` within an mbuf."""

    __slots__ = ("mbuf", "offset")

    #: Minimum number of bytes the fixed header occupies.
    MIN_LEN = 0

    def __init__(self, mbuf: Mbuf, offset: int) -> None:
        if offset + self.MIN_LEN > len(mbuf.data):
            raise PacketParseError(
                f"{type(self).__name__}: need {self.MIN_LEN} bytes at "
                f"offset {offset}, frame has {len(mbuf.data)}"
            )
        self.mbuf = mbuf
        self.offset = offset

    # -- PacketParsable-style interface ---------------------------------
    def header_len(self) -> int:
        """Length of this header in bytes (including options)."""
        raise NotImplementedError

    def next_protocol(self) -> Optional[int]:
        """EtherType or IANA protocol number of the encapsulated layer."""
        raise NotImplementedError

    def payload_offset(self) -> int:
        """Offset from the start of the frame to this header's payload."""
        return self.offset + self.header_len()

    def payload(self) -> memoryview:
        """Zero-copy view of the bytes following this header."""
        return memoryview(self.mbuf.data)[self.payload_offset():]

    # -- decoding helpers ------------------------------------------------
    def _u8(self, rel: int) -> int:
        # Indexing bytes/memoryview yields the int directly; going
        # through struct would cost a C-call plus tuple per field.
        return self.mbuf.data[self.offset + rel]

    def _u16(self, rel: int) -> int:
        return _U16.unpack_from(self.mbuf.data, self.offset + rel)[0]

    def _u32(self, rel: int) -> int:
        return _U32.unpack_from(self.mbuf.data, self.offset + rel)[0]

    def _bytes(self, rel: int, length: int) -> bytes:
        start = self.offset + rel
        # ``bytes()`` is a no-op for bytes-backed mbufs and normalizes
        # memoryview- or bytearray-backed ones so callers can hash,
        # compare, and pickle the result.
        return bytes(self.mbuf.data[start:start + length])
