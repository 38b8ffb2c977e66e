"""Shared-memory mempool + ring transport for the parallel backend.

Retina's 100GbE numbers rest on DPDK's zero-copy mempools and lockless
rings: the NIC DMA-writes bursts into pre-allocated mbuf slots and the
core pipelines consume descriptors, never copies. This module is the
reproduction's process-boundary analogue, and the parallel backend's
only feeder→worker data path:

- a **mempool** of fixed pre-allocated batch slots per core inside one
  ``multiprocessing.shared_memory`` segment — the feeder lays a burst's
  slot image down in place (:func:`~repro.packet.batch.slot_write_mbufs`,
  or a verbatim copy of an image the supervisor's redo log already
  holds) and the worker maps it back as ``memoryview``-backed mbufs
  (:func:`~repro.packet.batch.slot_read`) — no pickle, no pipe copy,
  on either side;
- a per-core **SPSC descriptor ring** whose entries are a single
  aligned 8-byte word packing (kind, slot index, row count, seq tag),
  so publication is one store and the consumer can never observe a
  torn multi-field descriptor;
- **credit-based slot recycling**: the worker publishes a cumulative
  consumed-ordinal counter (one u64 in the segment) after each
  descriptor it retires; a slot returns to the feeder's free pool
  exactly when the counter passes the entry that carried it;
- an ordered **control path** for everything that is not a hot batch
  (FINISH, epoch bumps, and the image of a burst too large for a
  slot): a CTRL descriptor keeps the event's exact position in the
  ring order while its payload rides a pickle queue, so the strict
  per-core FIFO the parent-clocked memory sampling (a payload-less
  SAMPLE descriptor) and tenancy epoch swaps rely on survives the
  split into two channels.

Descriptor word layout (little-endian u64)::

    bits 60-63  kind      (0 = empty, 1 = batch, 2 = control, 3 = sample)
    bits 40-59  rows      (batch row count; 0 for control/sample)
    bits 24-39  slot      (mempool slot index; 0 for control/sample)
    bits  0-23  tag       (consumer ordinal & 0xFFFFFF: lap validation)

The consumer at ordinal *i* reads ring position ``i % ring_size`` and
accepts the word only when ``kind != 0`` and the tag matches
``i & 0xFFFFFF`` — a stale entry from the previous lap carries the tag
of ordinal ``i - ring_size`` and is rejected, so the ring needs no
explicit clear between laps.

Everything here is deliberately dependency-free and importable by
worker processes. There is no second transport: on a platform without
``multiprocessing.shared_memory`` (or without a usable ``/dev/shm``)
:class:`ShmTransport` raises ``OSError`` and the pool reports that the
parallel backend cannot run there (the sequential backend produces the
same ``AggregateStats``).
"""

from __future__ import annotations

import itertools
import os
import struct
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.packet.batch import slot_read, slot_rows, slot_write_mbufs

try:  # pragma: no cover - import guard exercised via shm_available()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - python built without _posixshmem
    _shared_memory = None

#: Descriptor kinds (bits 60-63 of the ring word).
KIND_BATCH = 1
KIND_CTRL = 2
KIND_SAMPLE = 3

_U64 = struct.Struct("<Q")
_TAG_MASK = 0xFFFFFF

#: Segment offsets: the consumed counter lives in its own cache line,
#: the ring starts at the next one, and slots are page-aligned.
_RING_BASE = 64
_PAGE = 4096

#: How long the feeder sleeps between capacity polls while every ring
#: entry (and therefore every slot) is in flight, and how long it may
#: wait in total before re-checking worker liveness.
_WAIT_SLEEP = 0.0002
_LIVENESS_EVERY = 0.25


def shm_available() -> bool:
    """True when this platform can host the shared-memory transport."""
    return _shared_memory is not None


_name_counter = itertools.count()


def _segment_name(core_id: int) -> str:
    # Short (macOS caps shm names at ~30 chars) but unique per process
    # and per pool within the process.
    return f"rpr{os.getpid():x}c{core_id}n{next(_name_counter):x}"


class ShmLayout:
    """Geometry of one core's segment: ring + slot pool offsets."""

    __slots__ = ("ring_size", "slot_bytes", "slots_base", "total_bytes")

    def __init__(self, ring_size: int, slot_bytes: int) -> None:
        self.ring_size = ring_size
        self.slot_bytes = slot_bytes
        base = _RING_BASE + 8 * ring_size
        self.slots_base = (base + _PAGE - 1) // _PAGE * _PAGE
        self.total_bytes = self.slots_base + ring_size * slot_bytes

    def slot_offset(self, slot: int) -> int:
        return self.slots_base + slot * self.slot_bytes

    def wire(self) -> Tuple[int, int]:
        """The picklable layout parameters a worker spec carries."""
        return (self.ring_size, self.slot_bytes)


def default_layout(config) -> ShmLayout:
    """Size the pool from the runtime config.

    One slot per ring entry — ring capacity and slot availability are
    then the same backpressure condition, ``parallel_queue_depth``
    batches deep. Slots hold one batch at a generous ~2 KiB/frame;
    bursts that still do not fit (jumbo-heavy traffic) cross the
    control channel as the same image. tmpfs commits pages on first
    write, so unwritten slot capacity costs address space, not memory.
    """
    return ShmLayout(config.parallel_queue_depth,
                     max(65536, config.parallel_batch_size * 2048))


class ShmFeederChannel:
    """Parent-side producer for one core: slot pool + descriptor ring.

    Single-producer by construction (only the feeder thread of the
    parent dispatches); the matching single consumer is the worker's
    :class:`ShmWorkerChannel`.
    """

    def __init__(self, core_id: int, layout: ShmLayout) -> None:
        self.core_id = core_id
        self.layout = layout
        self.name = _segment_name(core_id)
        self._shm = _shared_memory.SharedMemory(
            self.name, create=True, size=layout.total_bytes)
        self._buf = self._shm.buf
        # Zero the control region (consumed counter + ring words). The
        # kernel gives fresh segments zeroed pages, but reset() reuses
        # this for worker restarts, so do it explicitly.
        self._buf[:_RING_BASE + 8 * layout.ring_size] = \
            bytes(_RING_BASE + 8 * layout.ring_size)
        #: Next ring ordinal to publish.
        self.ordinal = 0
        self._consumed = 0
        self._free: deque = deque(range(layout.ring_size))
        #: (retire_ordinal, slot) for every slot-carrying entry in
        #: flight; a slot is free once consumed > retire_ordinal.
        self._in_flight: deque = deque()
        # -- volatile health counters (read by backend_health) ---------
        self.ring_highwater = 0
        self.slot_starvation_waits = 0
        self.slot_starvation_seconds = 0.0
        self.slot_bytes_written = 0

    # -- credit return -------------------------------------------------
    def _refresh_consumed(self) -> int:
        consumed = _U64.unpack_from(self._buf, 0)[0]
        if consumed != self._consumed:
            self._consumed = consumed
            in_flight = self._in_flight
            free = self._free
            while in_flight and in_flight[0][0] < consumed:
                free.append(in_flight.popleft()[1])
        return consumed

    def _wait_capacity(self, alive: Callable[[], bool]) -> None:
        """Block until the ring (== slot pool) has room — the
        transport's one backpressure condition, accounted in
        ``slot_starvation_waits`` / ``slot_starvation_seconds``.

        ``alive`` is polled so a dead worker surfaces as an error
        instead of a deadlock.
        """
        ring_size = self.layout.ring_size
        if self.ordinal - self._refresh_consumed() < ring_size:
            return
        self.slot_starvation_waits += 1
        blocked_from = time.monotonic()
        next_liveness = blocked_from + _LIVENESS_EVERY
        try:
            while self.ordinal - self._refresh_consumed() >= ring_size:
                time.sleep(_WAIT_SLEEP)
                now = time.monotonic()
                if now >= next_liveness:
                    next_liveness = now + _LIVENESS_EVERY
                    if not alive():
                        raise WorkerGone()
        finally:
            self.slot_starvation_seconds += \
                time.monotonic() - blocked_from

    # -- publishing ----------------------------------------------------
    def _publish(self, kind: int, slot: int, rows: int) -> None:
        ordinal = self.ordinal
        word = ((kind << 60) | (rows << 40) | (slot << 24)
                | (ordinal & _TAG_MASK))
        _U64.pack_into(self._buf, _RING_BASE
                       + 8 * (ordinal % self.layout.ring_size), word)
        self.ordinal = ordinal + 1
        depth = self.ordinal - self._consumed
        if depth > self.ring_highwater:
            self.ring_highwater = depth

    def send_mbufs(self, mbufs: Sequence, queue_id: int,
                   trace_ctx: Optional[tuple], alive) -> bool:
        """Write a burst straight into a free slot and publish it.

        Returns False when the burst does not fit a slot (the caller
        falls back to the control channel).
        """
        self._wait_capacity(alive)
        slot = self._free[0]
        written = slot_write_mbufs(
            self._buf, self.layout.slot_offset(slot),
            self.layout.slot_bytes, mbufs, queue_id, trace_ctx)
        if written < 0:
            return False
        self._free.popleft()
        self._in_flight.append((self.ordinal, slot))
        self.slot_bytes_written += written
        self._publish(KIND_BATCH, slot, len(mbufs))
        return True

    def send_image(self, image: bytes, alive) -> bool:
        """Copy a burst's slot image verbatim into a free slot and
        publish it (supervised dispatch and redo-log replay: a replay
        lays down the bytes the first send did). Returns False when the
        image does not fit a slot."""
        size = len(image)
        if size > self.layout.slot_bytes:
            return False
        self._wait_capacity(alive)
        slot = self._free.popleft()
        offset = self.layout.slot_offset(slot)
        self._buf[offset:offset + size] = image
        self._in_flight.append((self.ordinal, slot))
        self.slot_bytes_written += size
        self._publish(KIND_BATCH, slot, slot_rows(image))
        return True

    def send_ctrl(self, alive) -> None:
        """Publish a control descriptor; the payload must already be on
        (or about to enter) the pickle control queue. The descriptor
        pins the payload's position in the per-core total order."""
        self._wait_capacity(alive)
        self._publish(KIND_CTRL, 0, 0)

    def send_sample(self, alive) -> None:
        """Publish a payload-less parent-clocked memory-sample point."""
        self._wait_capacity(alive)
        self._publish(KIND_SAMPLE, 0, 0)

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Re-arm the channel for a restarted worker: zero the counter
        and ring, reclaim every in-flight slot (the dead worker will
        never retire them; the redo log owns their contents)."""
        self._buf[:_RING_BASE + 8 * self.layout.ring_size] = \
            bytes(_RING_BASE + 8 * self.layout.ring_size)
        self.ordinal = 0
        self._consumed = 0
        self._free = deque(range(self.layout.ring_size))
        self._in_flight = deque()

    def close(self) -> None:
        buf, self._buf = self._buf, None
        if buf is not None:
            buf.release()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported views remain
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class WorkerGone(Exception):
    """Raised out of a capacity wait when the worker died; the pool
    translates it into its usual ParallelExecutionError."""


class FeederGone(Exception):
    """Raised out of a descriptor wait when the feeder process died:
    nothing will ever be published again, so the worker exits."""


class ShmWorkerChannel:
    """Worker-side consumer: attach by name, poll descriptors, map
    slots, publish consumed credits."""

    def __init__(self, name: str, ring_size: int,
                 slot_bytes: int) -> None:
        self._shm = _shared_memory.SharedMemory(name)
        self._buf = self._shm.buf
        self.layout = ShmLayout(ring_size, slot_bytes)
        #: The feeder: a worker re-parented away from it is orphaned.
        self._feeder_pid = os.getppid()

    def wait_descriptor(self, ordinal: int,
                        on_idle: Optional[Callable[[], None]] = None
                        ) -> Tuple[int, int, int]:
        """Spin-then-sleep until the entry for ``ordinal`` is published;
        returns ``(kind, slot, rows)``. ``on_idle`` fires once when the
        first poll misses (the ring is momentarily empty) — the worker
        hooks its coalesced-ack flush there, so acks drain whenever the
        feeder is not saturating the core. A long wait re-checks the
        feeder's liveness on the cadence the feeder checks the worker's
        and raises :class:`FeederGone` once it is dead."""
        buf = self._buf
        offset = _RING_BASE + 8 * (ordinal % self.layout.ring_size)
        tag = ordinal & _TAG_MASK
        unpack_from = _U64.unpack_from
        spins = 0
        sleep = _WAIT_SLEEP / 4
        next_liveness = 0.0
        while True:
            word = unpack_from(buf, offset)[0]
            if (word >> 60) and (word & _TAG_MASK) == tag:
                return ((word >> 60) & 0xF, (word >> 24) & 0xFFFF,
                        (word >> 40) & 0xFFFFF)
            spins += 1
            if spins == 1 and on_idle is not None:
                on_idle()
            if spins > 100:
                time.sleep(sleep)
                if sleep < 0.002:
                    sleep *= 2
                now = time.monotonic()
                if now >= next_liveness:
                    next_liveness = now + _LIVENESS_EVERY
                    if os.getppid() != self._feeder_pid:
                        raise FeederGone()

    def read_batch(self, slot: int) -> Tuple[list, int, Optional[tuple]]:
        """Map the slot back to ``(mbufs, seq, trace_ctx)``; each
        frame is a zero-copy view into the slot, valid until
        :meth:`mark_consumed` retires this descriptor."""
        return slot_read(self._buf, self.layout.slot_offset(slot))

    def mark_consumed(self, ordinal: int) -> None:
        """Publish the cumulative credit: every descriptor below
        ``ordinal`` is fully processed and its slot may be recycled."""
        _U64.pack_into(self._buf, 0, ordinal)

    def unlink(self) -> None:
        """Remove the segment's name. The feeder owns that on every
        normal exit; an orphaned worker does it for the feeder that no
        longer can."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        # Slot memoryviews may still be referenced from pipeline
        # internals (or the consume loop's last batch) at FINISH time;
        # never let a BufferError out of the worker's happy path — the
        # mapping dies with the process. SharedMemory.__del__ would
        # retry close() at interpreter shutdown and print the same
        # BufferError as an ignored exception, so neutralize it too.
        buf, self._buf = self._buf, None
        try:
            if buf is not None:
                buf.release()
            self._shm.close()
        except BufferError:
            self._shm.close = lambda: None


class ShmTransport:
    """The pool-level bundle: one feeder channel per core."""

    def __init__(self, cores: int, layout: ShmLayout) -> None:
        self.layout = layout
        self.channels: List[ShmFeederChannel] = []
        if not shm_available():
            raise OSError("multiprocessing.shared_memory is unavailable "
                          "on this platform")
        try:
            for core_id in range(cores):
                self.channels.append(ShmFeederChannel(core_id, layout))
        except Exception:
            self.close()
            raise

    def spec_args(self, core_id: int) -> Tuple[str, int, int]:
        """What a worker spec carries: (segment name, ring, slot size).
        Strings and ints only — picklable under spawn, trivially
        inherited under fork."""
        return (self.channels[core_id].name,) + self.layout.wire()

    def reset_core(self, core_id: int) -> None:
        self.channels[core_id].reset()

    def close(self) -> None:
        # Idempotent, and the channel objects (with their volatile
        # health counters) outlive the segments — backend_health reads
        # them after the pool context has already closed the transport.
        for channel in self.channels:
            channel.close()
