"""Flat-buffer packet batches: one blob per burst instead of N objects.

Retina moves packets between the NIC and cores as *bursts of mbufs
inside a contiguous ring*, never as individually allocated messages.
:class:`PackedBatch` is the reproduction's analogue for process
boundaries: a burst of frames packed into one ``bytes`` blob plus three
primitive arrays (frame offsets, float64 timestamps, ingress ports).

Pickling a ``PackedBatch`` serializes four flat buffers regardless of
how many packets it carries — O(bytes), not O(objects) — which is what
makes the parallel backend's feeder→worker IPC cheap. On the receiving
side :meth:`unpack` rebuilds :class:`~repro.packet.mbuf.Mbuf` views
whose ``data`` is a zero-copy ``memoryview`` slice of the shared blob;
header parsing works on those views in place, and the few places that
must materialize bytes (5-tuple keys, RSS input, L4 payloads) normalize
with ``bytes()`` at the boundary.

Timestamps travel as ``array('d')`` — exact IEEE-754 float64 round-trip
— so the bit-identical cross-backend stats guarantee survives packing.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate, chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, \
    Union

from repro.packet.mbuf import Mbuf

#: Default packets-per-batch for generator-side packing; matches the
#: runtime's default ``parallel_batch_size`` order of magnitude.
DEFAULT_BATCH_SIZE = 256

#: Shared-memory slot header (repro.core.shm): rows, blob length, the
#: supervised batch seq (-1 when unsupervised), the RSS queue (-1 for
#: None), flags, the collapsed scalar port, and the span trace context.
#: Hoisted to module level like the columnar prefix structs — the slot
#: codec packs/unpacks one of these per burst on the hot path.
_SLOT_HEADER = struct.Struct("<IIqhHHiq")
SLOT_HEADER_BYTES = _SLOT_HEADER.size
#: Slot header flag bits.
_F_WIDE = 1          # frame lengths are u32 (a frame exceeded 64 KiB)
_F_SCALAR_PORT = 2   # uniform batch: one port value, no port column
_F_TRACE = 4         # trace_ctx fields are meaningful


def _rebuild(blob: bytes, lengths: bytes, length_code: str,
             timestamps: bytes, ports: Union[int, bytes],
             queue: Optional[int], trace_ctx: Optional[tuple],
             epoch: Optional[tuple]) -> "PackedBatch":
    """Unpickle helper: reconstruct the arrays from the wire fields.

    The wire carries per-frame *lengths* (u16 unless a frame exceeds
    64 KiB) and either a scalar port (uniform batch, the common case)
    or the raw port array; offsets and the in-memory port array are
    rebuilt here.
    """
    lens = array(length_code)
    lens.frombytes(lengths)
    offsets = array("I", chain((0,), accumulate(lens)))
    ts = array("d")
    ts.frombytes(timestamps)
    if isinstance(ports, int):
        pt = array("H", (ports,)) * len(ts)
    else:
        pt = array("H")
        pt.frombytes(ports)
    return PackedBatch(blob, offsets, ts, pt, queue, trace_ctx, epoch)


class PackedBatch:
    """A burst of frames as one blob + primitive offset/metadata arrays.

    Attributes:
        blob: Concatenated raw frame bytes of every packet in order.
        offsets: ``array('I')`` of ``n + 1`` byte offsets into ``blob``;
            frame *i* spans ``blob[offsets[i]:offsets[i + 1]]``.
        timestamps: ``array('d')`` of receive timestamps (exact float64).
        ports: ``array('H')`` of ingress port indices.
        queue: RSS receive queue shared by the whole batch (set when the
            feeder packs an already-sharded per-queue burst), or ``None``
            for pre-dispatch batches from a traffic generator.
        trace_ctx: Optional span context — ``(queue, seq)`` stamped by
            the parallel feeder when burst span tracing is on, so the
            worker's burst spans stitch into the parent's trace
            (:mod:`repro.telemetry.spans`). ``None`` when spans are off;
            costs nothing on the wire then (pickled as a None slot).
        epoch: Optional filter-table epoch bump —
            ``(epoch_number, actions_tuple)`` stamped by a multi-tenant
            feeder on the (usually empty) batch that publishes a new
            :class:`~repro.tenancy.table.FilterTable` epoch to every
            worker (:mod:`repro.tenancy`). ``None`` on ordinary batches
            and in single-tenant runs; costs nothing on the wire then.
    """

    __slots__ = ("blob", "offsets", "timestamps", "ports", "queue",
                 "trace_ctx", "epoch")

    def __init__(self, blob: bytes, offsets: array, timestamps: array,
                 ports: array, queue: Optional[int] = None,
                 trace_ctx: Optional[tuple] = None,
                 epoch: Optional[tuple] = None) -> None:
        self.blob = blob
        self.offsets = offsets
        self.timestamps = timestamps
        self.ports = ports
        self.queue = queue
        self.trace_ctx = trace_ctx
        self.epoch = epoch

    @classmethod
    def pack(cls, mbufs: Sequence[Mbuf],
             queue: Optional[int] = None) -> "PackedBatch":
        """Pack a burst of mbufs into one flat buffer.

        ``queue`` stamps the whole batch (per-queue IPC batches are
        uniform by construction); pass ``None`` for generator output
        that has not been through RSS yet. Derived per-packet scratch
        state (``stack``, ``pkt_term_node``) is not carried — it is
        recomputed after unpacking, exactly as ``Mbuf.__reduce__``
        drops it for object pickling.
        """
        offsets = array("I", (0,))
        append_offset = offsets.append
        parts: List[bytes] = []
        total = 0
        for mbuf in mbufs:
            data = mbuf.data
            if type(data) is not bytes:
                data = bytes(data)  # memoryview-backed frame
            parts.append(data)
            total += len(data)
            append_offset(total)
        return cls(
            b"".join(parts),
            offsets,
            array("d", [m.timestamp for m in mbufs]),
            array("H", [m.port for m in mbufs]),
            queue,
        )

    @classmethod
    def from_rows(cls, rows: Sequence[tuple],
                  queue: Optional[int] = None) -> "PackedBatch":
        """Assemble a batch from ``(frame_bytes, timestamp, port)`` rows.

        The surgery constructor: drop/duplicate/reorder a batch by
        building a row list of blob slices (``memoryview`` slices of a
        source batch pass straight through) and joining them — no
        per-packet :class:`Mbuf` graph, no pickling, O(bytes) copying
        into the one new blob. The impairment layer
        (:mod:`repro.netem.impair`) rewrites packed streams this way.
        """
        offsets = array("I", (0,))
        append_offset = offsets.append
        parts: List[bytes] = []
        timestamps = array("d")
        ports = array("H")
        total = 0
        for data, ts, port in rows:
            if type(data) is not bytes:
                data = bytes(data)
            parts.append(data)
            total += len(data)
            append_offset(total)
            timestamps.append(ts)
            ports.append(port)
        return cls(b"".join(parts), offsets, timestamps, ports, queue)

    def frames(self) -> Iterator[tuple]:
        """Iterate ``(frame_view, timestamp, port)`` rows zero-copy —
        the read side of :meth:`from_rows` surgery."""
        view = memoryview(self.blob)
        offsets = self.offsets
        start = offsets[0]
        for i, ts in enumerate(self.timestamps):
            end = offsets[i + 1]
            yield view[start:end], ts, self.ports[i]
            start = end

    def unpack(self) -> List[Mbuf]:
        """Rebuild the burst as memoryview-backed :class:`Mbuf` views.

        Each mbuf's ``data`` is a zero-copy slice of the shared blob;
        header parsing (indexing and ``struct.unpack_from``) works on
        it unchanged.
        """
        view = memoryview(self.blob)
        offsets = self.offsets
        queue = self.queue
        out: List[Mbuf] = []
        append = out.append
        start = offsets[0]
        i = 0
        for ts in self.timestamps:
            end = offsets[i + 1]
            append(Mbuf(view[start:end], ts, self.ports[i], queue))
            start = end
            i += 1
        return out

    def __len__(self) -> int:
        """Packet count (feeder health accounting reads this)."""
        return len(self.timestamps)

    def _wire_fields(self):
        """The compact wire encoding: (lengths, code, ports-or-scalar).

        Frame lengths ship as u16 (u32 only if a frame exceeds 64 KiB)
        and a port array that is uniform — every batch packed after RSS
        dispatch, and most generator output — collapses to one int.
        """
        offsets = self.offsets
        n = len(self.timestamps)
        lengths = [offsets[i + 1] - offsets[i] for i in range(n)]
        code = "I" if lengths and max(lengths) > 0xFFFF else "H"
        ports = self.ports
        first = ports[0] if n else 0
        for port in ports:
            if port != first:
                return array(code, lengths), code, ports.tobytes()
        return array(code, lengths), code, first

    @property
    def nbytes(self) -> int:
        """Serialized payload size: what crosses the process boundary
        (plus a small constant pickle frame) — the numerator of the
        backend-health ``ipc_bytes_per_packet`` metric."""
        lengths, _code, ports = self._wire_fields()
        port_bytes = 0 if isinstance(ports, int) else len(ports)
        return (len(self.blob) + lengths.itemsize * len(lengths)
                + self.timestamps.itemsize * len(self.timestamps)
                + port_bytes)

    def __reduce__(self):
        # Flat buffers only; unpickling rebuilds the arrays with
        # frombytes. No per-packet object graph ever hits the pickler.
        lengths, code, ports = self._wire_fields()
        return (_rebuild, (self.blob, lengths.tobytes(), code,
                           self.timestamps.tobytes(), ports, self.queue,
                           self.trace_ctx, self.epoch))

    def __repr__(self) -> str:
        return (f"PackedBatch(n={len(self)}, bytes={len(self.blob)}, "
                f"queue={self.queue})")


def pack_stream(mbufs: Iterable[Mbuf],
                batch_size: int = DEFAULT_BATCH_SIZE
                ) -> Iterator[PackedBatch]:
    """Pack an mbuf stream into successive :class:`PackedBatch` chunks."""
    batch: List[Mbuf] = []
    for mbuf in mbufs:
        batch.append(mbuf)
        if len(batch) >= batch_size:
            yield PackedBatch.pack(batch)
            batch = []
    if batch:
        yield PackedBatch.pack(batch)


def _flatten(traffic: Iterable[Union[Mbuf, PackedBatch]]) -> Iterator[Mbuf]:
    for item in traffic:
        if type(item) is PackedBatch:
            for mbuf in item.unpack():
                yield mbuf
        else:
            yield item


def iter_mbufs(traffic: Iterable[Union[Mbuf, PackedBatch]]
               ) -> Iterable[Mbuf]:
    """Normalize a traffic source to a per-mbuf iterable.

    Accepts plain mbuf iterables, :class:`PackedBatch` iterables, or a
    mix. A list containing no batches — the common benchmark shape — is
    returned as-is so the hot sequential loop iterates it directly with
    no generator frame per packet.
    """
    if type(traffic) is list:
        for item in traffic:
            if type(item) is PackedBatch:
                break
        else:
            return traffic
    return _flatten(traffic)


# ---------------------------------------------------------------------------
# shared-memory slot codec (repro.core.shm)
#
# The same wire fields __reduce__ ships through a pickled queue —
# frames blob, u16/u32 lengths, f64 timestamps, scalar-or-column ports,
# trace context — laid out in place inside a pre-allocated shared-memory
# slot: header, lengths, timestamps, ports, blob. The feeder writes a
# slot with one of the two writers below; the worker maps it back with
# slot_read, whose blob is a zero-copy memoryview of the slot. Epoch
# bumps never ride slots (they use the transport's ordered control
# channel), so the header carries no epoch field.
# ---------------------------------------------------------------------------

def slot_write_mbufs(buf, offset: int, limit: int, mbufs: Sequence[Mbuf],
                     queue: Optional[int],
                     trace_ctx: Optional[tuple] = None,
                     seq: int = -1) -> int:
    """Pack a burst of mbufs straight into a shared-memory slot.

    The unsupervised hot path: frames are copied from the mbufs into
    the slot exactly once — no intermediate blob join, no pickle.
    Returns the bytes written, or -1 when the burst does not fit in
    ``limit`` bytes (or exceeds the descriptor's u16 row field); the
    caller falls back to the control channel then.
    """
    n = len(mbufs)
    lengths = [len(m.data) for m in mbufs]
    blob_len = sum(lengths)
    wide = bool(lengths) and max(lengths) > 0xFFFF
    item = 4 if wide else 2
    flags = _F_WIDE if wide else 0
    port0 = mbufs[0].port if n else 0
    scalar = True
    for m in mbufs:
        if m.port != port0:
            scalar = False
            break
    if scalar:
        flags |= _F_SCALAR_PORT
    need = (SLOT_HEADER_BYTES + n * item + n * 8
            + (0 if scalar else n * 2) + blob_len)
    if need > limit or n > 0xFFFF:
        return -1
    tq = ts_ = 0
    if trace_ctx is not None:
        flags |= _F_TRACE
        tq, ts_ = trace_ctx
    _SLOT_HEADER.pack_into(buf, offset, n, blob_len, seq,
                           -1 if queue is None else queue, flags,
                           port0 if scalar else 0, tq, ts_)
    pos = offset + SLOT_HEADER_BYTES
    end = pos + n * item
    buf[pos:end] = array("I" if wide else "H", lengths).tobytes()
    pos = end
    end = pos + n * 8
    buf[pos:end] = array("d", [m.timestamp for m in mbufs]).tobytes()
    pos = end
    if not scalar:
        end = pos + n * 2
        buf[pos:end] = array("H", [m.port for m in mbufs]).tobytes()
        pos = end
    for m, length in zip(mbufs, lengths):
        end = pos + length
        buf[pos:end] = m.data
        pos = end
    return need


def slot_write_packed(buf, offset: int, limit: int, batch: PackedBatch,
                      seq: int = -1) -> int:
    """Write an already-packed batch into a shared-memory slot.

    The supervised path: the feeder packs once (the redo log keeps the
    slot-independent ``PackedBatch``), then copies the same wire fields
    here — so a post-crash replay rewrites the identical slot contents
    under the batch's original seq. Returns bytes written or -1 when
    the batch does not fit (caller falls back to the control channel).
    """
    lengths, code, ports = batch._wire_fields()
    n = len(batch.timestamps)
    blob = batch.blob
    scalar = isinstance(ports, int)
    flags = (_F_WIDE if code == "I" else 0) \
        | (_F_SCALAR_PORT if scalar else 0)
    need = (SLOT_HEADER_BYTES + n * lengths.itemsize + n * 8
            + (0 if scalar else n * 2) + len(blob))
    if need > limit or n > 0xFFFF:
        return -1
    trace_ctx = batch.trace_ctx
    tq = ts_ = 0
    if trace_ctx is not None:
        flags |= _F_TRACE
        tq, ts_ = trace_ctx
    queue = batch.queue
    _SLOT_HEADER.pack_into(buf, offset, n, len(blob), seq,
                           -1 if queue is None else queue, flags,
                           ports if scalar else 0, tq, ts_)
    pos = offset + SLOT_HEADER_BYTES
    end = pos + n * lengths.itemsize
    buf[pos:end] = lengths.tobytes()
    pos = end
    end = pos + n * 8
    buf[pos:end] = batch.timestamps.tobytes()
    pos = end
    if not scalar:
        end = pos + n * 2
        buf[pos:end] = ports
        pos = end
    end = pos + len(blob)
    buf[pos:end] = blob
    return need


def slot_read(buf, offset: int) -> Tuple[PackedBatch, int]:
    """Map a slot back to a ``PackedBatch`` (worker side).

    The small lengths/timestamps/ports arrays are copied out (they are
    rebuilt as ``array`` objects anyway); the frames blob stays a
    zero-copy ``memoryview`` of the slot, valid until the worker
    retires the descriptor and the slot is recycled — the same
    lifetime discipline the pipeline already honors for unpacked batch
    views (values that outlive the packet are ``bytes()``-normalized
    at the boundary). Returns ``(batch, seq)``; ``seq`` is -1 for
    unsupervised batches.
    """
    (n, blob_len, seq, queue, flags, port0, tq,
     ts_) = _SLOT_HEADER.unpack_from(buf, offset)
    pos = offset + SLOT_HEADER_BYTES
    lens = array("I" if flags & _F_WIDE else "H")
    end = pos + n * lens.itemsize
    lens.frombytes(buf[pos:end])
    pos = end
    ts = array("d")
    end = pos + n * 8
    ts.frombytes(buf[pos:end])
    pos = end
    if flags & _F_SCALAR_PORT:
        ports = array("H", (port0,)) * n
    else:
        ports = array("H")
        end = pos + n * 2
        ports.frombytes(buf[pos:end])
        pos = end
    offsets = array("I", chain((0,), accumulate(lens)))
    batch = PackedBatch(buf[pos:pos + blob_len], offsets, ts, ports,
                        None if queue < 0 else queue)
    if flags & _F_TRACE:
        batch.trace_ctx = (tq, ts_)
    return batch, seq
