"""Retina's lazy pass-through stream reassembler.

Traditional reassembly copies every payload into a per-flow receive
buffer. The paper observes that 94% of flows arrive fully in order and
the median hole fills after a single packet, so Retina instead only
*reorders*: the next expected sequence number is tracked per direction,
in-sequence segments are forwarded immediately, and out-of-order
segments are held *by reference* in a bounded ring (default 500
packets) flushed when the expected segment arrives. Most packets
simply pass through.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.stream.pdu import L4Pdu, StreamSegment

#: Paper default: maximum out-of-order packets held per direction.
DEFAULT_OOO_CAPACITY = 500

_SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31


def seq_diff(a: int, b: int) -> int:
    """Signed circular difference ``a - b`` over 32-bit sequence space."""
    diff = (a - b) % _SEQ_MOD
    if diff >= _SEQ_HALF:
        diff -= _SEQ_MOD
    return diff


#: In-order segments on one direction before an adaptive window shrinks.
ADAPTIVE_SHRINK_STREAK = 512
#: The runtime's adaptive window bounds (segments per direction): it
#: never shrinks below the floor nor grows past the ceiling.
ADAPTIVE_MIN_CAPACITY = 64
ADAPTIVE_MAX_CAPACITY = 4096


class FlowDirectionState:
    """Reorder state for one direction of one flow."""

    __slots__ = ("expected", "held", "held_bytes", "ooo_events",
                 "dup_segments", "overlap_segments", "stale_retransmits",
                 "overflow_drops", "capacity", "adaptive",
                 "min_capacity", "max_capacity", "inorder_streak",
                 "window_grows", "window_shrinks", "stats")

    def __init__(self, capacity: int, adaptive: bool = False,
                 min_capacity: int = 1,
                 max_capacity: Optional[int] = None,
                 stats=None) -> None:
        self.expected: Optional[int] = None
        #: Held out-of-order PDUs keyed by sequence number.
        self.held: Dict[int, L4Pdu] = {}
        self.held_bytes = 0
        self.ooo_events = 0
        #: Fresh full retransmits of already-delivered data, discarded.
        self.dup_segments = 0
        #: Partial overlaps with delivered data (only the new tail was
        #: forwarded) — previously discarded bytes went uncounted.
        self.overlap_segments = 0
        #: Held segments wholly superseded before their flush slot (the
        #: "retransmit raced the hole fill" path) — previously silent.
        self.stale_retransmits = 0
        self.overflow_drops = 0
        self.capacity = capacity
        #: Adaptive out-of-order window: grow (×2 up to max_capacity)
        #: instead of dropping on overflow, shrink (÷2 down to
        #: min_capacity) after a long fully-in-order streak. Driven by
        #: packet events only, so it is deterministic across backends.
        self.adaptive = adaptive
        self.min_capacity = min_capacity
        self.max_capacity = capacity if max_capacity is None \
            else max_capacity
        self.inorder_streak = 0
        self.window_grows = 0
        self.window_shrinks = 0
        #: Optional per-core :class:`~repro.core.stats.CoreStats` sink;
        #: the rare-path counters above are mirrored onto it so the
        #: filter-funnel telemetry can distinguish loss from
        #: dup-discard. None for standalone use.
        self.stats = stats

    @property
    def has_hole(self) -> bool:
        return bool(self.held)

    def push(self, pdu: L4Pdu) -> List[StreamSegment]:
        """Insert one PDU; return the in-order segments now released."""
        if self.expected is None:
            # First segment seen in this direction anchors the stream.
            self.expected = (pdu.seq + pdu.seq_span) % _SEQ_MOD
            return self._emit(pdu, held=False)
        diff = seq_diff(pdu.seq, self.expected)
        if diff == 0:
            self.expected = (pdu.seq + pdu.seq_span) % _SEQ_MOD
            out = self._emit(pdu, held=False)
            out.extend(self._flush())
            if self.adaptive and not self.held:
                self.inorder_streak += 1
                if self.inorder_streak >= ADAPTIVE_SHRINK_STREAK and \
                        self.capacity > self.min_capacity:
                    self.capacity = max(self.capacity // 2,
                                        self.min_capacity)
                    self.window_shrinks += 1
                    if self.stats is not None:
                        self.stats.reasm_window_shrinks += 1
                    self.inorder_streak = 0
            return out
        if diff < 0:
            return self._handle_old(pdu, diff)
        # Future segment: hole. Hold by reference if the ring has room.
        self.ooo_events += 1
        self.inorder_streak = 0
        if len(self.held) >= self.capacity:
            if self.adaptive and self.capacity < self.max_capacity:
                # Observed reorder depth exceeds the window: widen it
                # instead of truncating the stream.
                self.capacity = min(self.capacity * 2,
                                    self.max_capacity)
                self.window_grows += 1
                if self.stats is not None:
                    self.stats.reasm_window_grows += 1
            else:
                self.overflow_drops += 1
                if self.stats is not None:
                    self.stats.reasm_overflow_drops += 1
                return []
        if pdu.seq not in self.held:
            self.held[pdu.seq] = pdu
            self.held_bytes += len(pdu.mbuf)
        return []

    def _handle_old(self, pdu: L4Pdu, diff: int) -> List[StreamSegment]:
        """Retransmission or partial overlap with delivered data."""
        tail_len = len(pdu.payload) + diff  # bytes beyond `expected`
        if tail_len <= 0:
            self.dup_segments += 1
            if self.stats is not None:
                self.stats.reasm_dup_segments += 1
            return []
        self.overlap_segments += 1
        if self.stats is not None:
            self.stats.reasm_overlap_segments += 1
        new_payload = pdu.payload[-tail_len:]
        self.expected = (self.expected + tail_len +
                         (1 if pdu.is_fin else 0)) % _SEQ_MOD
        out = [StreamSegment(new_payload, pdu.from_orig, pdu.timestamp)]
        out.extend(self._flush())
        return out

    def _flush(self) -> List[StreamSegment]:
        """Release held segments made contiguous by the last arrival."""
        out: List[StreamSegment] = []
        while self.held:
            pdu = self.held.pop(self.expected, None)
            if pdu is not None:
                self.held_bytes -= len(pdu.mbuf)
                self.expected = (pdu.seq + pdu.seq_span) % _SEQ_MOD
                out.extend(self._emit(pdu, held=True))
                continue
            # No exact match: check for a held segment overlapping the
            # expected point (rare: retransmit raced the hole fill).
            overlap = None
            stale = False
            for seq, held_pdu in self.held.items():
                diff = seq_diff(seq, self.expected)
                if diff < 0 and diff + len(held_pdu.payload) > 0:
                    overlap = seq
                    break
                if diff < 0 and diff + held_pdu.seq_span <= 0:
                    overlap = seq  # fully stale, discard below
                    stale = True
                    break
            if overlap is None:
                break
            pdu = self.held.pop(overlap)
            self.held_bytes -= len(pdu.mbuf)
            if stale:
                # A held copy wholly superseded while it waited: the
                # hole it guarded was filled by a retransmit. Count it
                # distinctly — these discards used to vanish silently.
                self.stale_retransmits += 1
                if self.stats is not None:
                    self.stats.reasm_stale_retransmits += 1
                continue
            out.extend(self._handle_old(pdu, seq_diff(pdu.seq,
                                                      self.expected)))
        return out

    @staticmethod
    def _emit(pdu: L4Pdu, held: bool) -> List[StreamSegment]:
        if not pdu.payload:
            return []
        return [StreamSegment(pdu.payload, pdu.from_orig, pdu.timestamp,
                              was_held=held)]

    @property
    def memory_bytes(self) -> int:
        """Held mbuf bytes (segments are stored by reference; the cost
        is the retained packet memory)."""
        return self.held_bytes


class LazyReassembler:
    """Two-direction lazy reassembler for one connection."""

    def __init__(self, capacity: int = DEFAULT_OOO_CAPACITY,
                 adaptive: bool = False, min_capacity: int = 1,
                 max_capacity: Optional[int] = None,
                 stats=None) -> None:
        self.orig = FlowDirectionState(capacity, adaptive, min_capacity,
                                       max_capacity, stats)
        self.resp = FlowDirectionState(capacity, adaptive, min_capacity,
                                       max_capacity, stats)

    def push(self, pdu: L4Pdu) -> List[StreamSegment]:
        state = self.orig if pdu.from_orig else self.resp
        return state.push(pdu)

    @property
    def ooo_events(self) -> int:
        return self.orig.ooo_events + self.resp.ooo_events

    @property
    def dup_segments(self) -> int:
        return self.orig.dup_segments + self.resp.dup_segments

    @property
    def overlap_segments(self) -> int:
        return self.orig.overlap_segments + self.resp.overlap_segments

    @property
    def stale_retransmits(self) -> int:
        return self.orig.stale_retransmits + self.resp.stale_retransmits

    @property
    def overflow_drops(self) -> int:
        return self.orig.overflow_drops + self.resp.overflow_drops

    @property
    def memory_bytes(self) -> int:
        return self.orig.memory_bytes + self.resp.memory_bytes

    @property
    def has_hole(self) -> bool:
        return self.orig.has_hole or self.resp.has_hole
