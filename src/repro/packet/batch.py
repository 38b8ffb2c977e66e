"""The burst wire form: one slot image per burst.

Retina moves packets between the NIC and cores as *bursts of mbufs
inside a contiguous ring*, never as individually allocated messages.
Here a burst is a list of :class:`~repro.packet.mbuf.Mbuf` in memory
and, across the parallel backend's feeder→worker pipe, one *slot
image*: a header (rows, frames length, RSS queue, flags, scalar port,
span trace context), then the frame lengths, the float64 timestamps,
the ports unless they are uniform, and the concatenated frames.

:func:`slot_write_mbufs` is the one writer; :func:`slot_image` has it
append the image to a private ``bytearray`` that starts with the
pipe's one-byte kind tag, so the message is built in place and sent as
is.
:func:`slot_read` is the one reader: it rebuilds the burst as mbufs
whose ``data`` is a zero-copy ``memoryview`` slice of the image.
Timestamps travel as float64, an exact round trip, so the bit-identical
cross-backend stats guarantee survives the boundary.
"""

from __future__ import annotations

import struct
from array import array
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from repro.packet.mbuf import Mbuf

#: The image header: rows, frames length, the RSS queue (-1 for None),
#: flags, the collapsed scalar port, and the span trace context.
#: Hoisted to module level like the columnar prefix structs: it is
#: packed and unpacked once per burst on the hot path.
_SLOT_HEADER = struct.Struct("<IIhHHiq")
SLOT_HEADER_BYTES = _SLOT_HEADER.size
#: Header flag bits.
_F_WIDE = 1          # frame lengths are u32 (a frame exceeded 64 KiB)
_F_SCALAR_PORT = 2   # uniform burst: one port value, no port column
_F_TRACE = 4         # trace_ctx fields are meaningful


def slot_write_mbufs(buf: bytearray, mbufs: Sequence[Mbuf],
                     queue: Optional[int],
                     trace_ctx: Optional[tuple] = None) -> int:
    """Append a burst's image to ``buf``.

    Frames are copied from the mbufs into the buffer exactly once — no
    intermediate blob join, no pickle. Returns the bytes appended.
    """
    start = len(buf)
    n = len(mbufs)
    lengths = [len(m.data) for m in mbufs]
    wide = bool(lengths) and max(lengths) > 0xFFFF
    flags = _F_WIDE if wide else 0
    port0 = mbufs[0].port if n else 0
    scalar = True
    for m in mbufs:
        if m.port != port0:
            scalar = False
            break
    if scalar:
        flags |= _F_SCALAR_PORT
    tq = ts_ = 0
    if trace_ctx is not None:
        flags |= _F_TRACE
        tq, ts_ = trace_ctx
    buf += _SLOT_HEADER.pack(n, sum(lengths),
                             -1 if queue is None else queue, flags,
                             port0 if scalar else 0, tq, ts_)
    buf += array("I" if wide else "H", lengths)
    buf += array("d", [m.timestamp for m in mbufs])
    if not scalar:
        buf += array("H", [m.port for m in mbufs])
    for m in mbufs:
        buf += m.data
    return len(buf) - start


def slot_image(mbufs: Sequence[Mbuf], queue: Optional[int],
               trace_ctx: Optional[tuple] = None,
               head: bytes = b"") -> bytearray:
    """``head`` (the pipe's kind tag), then the burst's image, in one
    private ``bytearray``."""
    image = bytearray(head)
    slot_write_mbufs(image, mbufs, queue, trace_ctx)
    return image


def slot_read(buf, offset: int
              ) -> Tuple[List[Mbuf], Optional[tuple]]:
    """Rebuild the burst imaged at ``offset`` (worker side).

    Each mbuf's ``data`` is a zero-copy ``memoryview`` of ``buf``,
    valid while the image is. The pipeline already honors that lifetime
    (values that outlive the packet are ``bytes()``-normalized at the
    boundary). Returns ``(mbufs,
    trace_ctx)``; ``trace_ctx`` is None when spans are off.
    """
    (n, _blob_len, queue, flags, port0, tq,
     ts_) = _SLOT_HEADER.unpack_from(buf, offset)
    view = memoryview(buf)
    pos = offset + SLOT_HEADER_BYTES
    lens = array("I" if flags & _F_WIDE else "H")
    end = pos + n * lens.itemsize
    lens.frombytes(view[pos:end])
    pos = end
    stamps = array("d")
    end = pos + n * 8
    stamps.frombytes(view[pos:end])
    pos = end
    if flags & _F_SCALAR_PORT:
        ports = repeat(port0)
    else:
        ports = array("H")
        end = pos + n * 2
        ports.frombytes(view[pos:end])
        pos = end
    if queue < 0:
        queue = None
    mbufs: List[Mbuf] = []
    append = mbufs.append
    for length, ts, port in zip(lens, stamps, ports):
        end = pos + length
        append(Mbuf(view[pos:end], ts, port, queue))
        pos = end
    return mbufs, (tq, ts_) if flags & _F_TRACE else None
