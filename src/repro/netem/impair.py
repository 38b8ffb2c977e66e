"""The impaired link: wrap any traffic source in seeded misbehavior.

:class:`ImpairedLink` sits between a traffic source and the runtime —
in the parent process, before RSS dispatch, exactly where
:class:`~repro.resilience.faults.PacketFaultInjector` runs — so the
impaired stream is byte-identical across backends and worker counts.
It takes and yields mbufs; an untouched frame passes through as the
same object.

Two halves:

* the **link model** (loss, corruption, duplication, jitter, bounded
  reordering) driven by :class:`~repro.netem.model.ImpairmentConfig`
  or a replayed :class:`~repro.netem.trace.ImpairmentTrace`;
* the **receiver mitigations**: checksum quarantine (drop frames that
  fail real IPv4/TCP/UDP checksum verification — silent corruption,
  with recomputed checksums, sails through by construction) and
  LinkGuardian-style disable-and-repair (a link exceeding a bad-frame
  threshold within a sliding window is administratively disabled for a
  repair period, every shed frame attributed in the ledger).
"""

from __future__ import annotations

import struct
from collections import deque
from heapq import heappop, heappush
from random import Random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.netem.ledger import ImpairmentLedger
from repro.netem.model import GilbertElliottChain, ImpairmentConfig
from repro.netem.trace import CLEAN, Decision, ImpairmentTrace
from repro.packet.builder import checksum16, fold_checksum, word_sum
from repro.packet.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP
from repro.packet.mbuf import Mbuf

_ETH_HLEN = 14
_VLAN_TYPES = (0x8100, 0x88A8)
_PACK_H = struct.Struct("!H").pack


def _walk_headers(data: bytes) -> Optional[Tuple[int, int, int, int,
                                                 int, bool]]:
    """Minimal L2/L3 walk: (ip_off, ip_hlen, proto, l4_off, l4_len,
    is_v4), or None when the frame is not a verifiable IP packet
    (non-IP ethertype, truncation, fragments, v6 extension ambiguity
    is ignored — proto is taken as the next header)."""
    n = len(data)
    if n < _ETH_HLEN:
        return None
    ethertype = (data[12] << 8) | data[13]
    off = _ETH_HLEN
    while ethertype in _VLAN_TYPES:
        if n < off + 4:
            return None
        ethertype = (data[off + 2] << 8) | data[off + 3]
        off += 4
    if ethertype == ETHERTYPE_IPV4:
        if n < off + 20:
            return None
        vihl = data[off]
        if vihl >> 4 != 4:
            return None
        ihl = (vihl & 0xF) * 4
        if ihl < 20 or n < off + ihl:
            return None
        total = (data[off + 2] << 8) | data[off + 3]
        if total < ihl or off + total > n:
            return None
        # Fragments cannot be L4-verified (payload split across frames).
        if data[off + 6] & 0x20 or \
                ((data[off + 6] & 0x1F) << 8) | data[off + 7]:
            return None
        return off, ihl, data[off + 9], off + ihl, total - ihl, True
    if ethertype == ETHERTYPE_IPV6:
        if n < off + 40:
            return None
        plen = (data[off + 4] << 8) | data[off + 5]
        if off + 40 + plen > n:
            return None
        return off, 40, data[off + 6], off + 40, plen, False
    return None


def _l4_checksum(view: memoryview, off: int, is_v4: bool, proto: int,
                 l4_off: int, l4_len: int) -> int:
    """TCP/UDP checksum of pseudo-header + segment, summed part by part
    where they lie (the builder's kernel): no copy of the segment."""
    addrs = view[off + 12:off + 20] if is_v4 else view[off + 8:off + 40]
    return fold_checksum(word_sum(addrs) + proto + l4_len
                         + word_sum(view[l4_off:l4_off + l4_len]))


def frame_checksums_ok(data) -> Optional[bool]:
    """Verify the frame's IPv4 header and TCP/UDP checksums.

    Returns False on any failed verifiable checksum, True when at
    least one checksum verified clean, and None when nothing on the
    frame is verifiable (non-IP, truncated, fragmented, or a UDP/IPv4
    datagram with checksumming disabled). Quarantine only acts on an
    explicit False — unverifiable traffic is never punished.
    """
    if type(data) is not bytes:
        data = bytes(data)
    walked = _walk_headers(data)
    if walked is None:
        return None
    off, ihl, proto, l4_off, l4_len, is_v4 = walked
    view = memoryview(data)
    verified = False
    if is_v4:
        if checksum16(view[off:off + ihl]) != 0:
            return False
        verified = True
    if proto == PROTO_TCP and l4_len >= 20:
        if _l4_checksum(view, off, is_v4, proto, l4_off, l4_len) != 0:
            return False
        verified = True
    elif proto == PROTO_UDP and l4_len >= 8:
        if not (is_v4 and data[l4_off + 6:l4_off + 8] == b"\x00\x00"):
            if _l4_checksum(view, off, is_v4, proto, l4_off, l4_len) != 0:
                return False
            verified = True
    return True if verified else None


def fix_checksums(frame: bytearray) -> None:
    """Recompute the IPv4 header and TCP/UDP checksums in place.

    Best-effort: a frame whose headers no longer walk (corruption hit
    a length field) is left alone — it will read as detectably bad,
    which is the honest outcome.
    """
    walked = _walk_headers(frame)
    if walked is None:
        return
    off, ihl, proto, l4_off, l4_len, is_v4 = walked
    view = memoryview(frame)
    if is_v4:
        frame[off + 10:off + 12] = b"\x00\x00"
        frame[off + 10:off + 12] = _PACK_H(checksum16(view[off:off + ihl]))
    if proto == PROTO_TCP and l4_len >= 20:
        csum_off = l4_off + 16
    elif proto == PROTO_UDP and l4_len >= 8:
        csum_off = l4_off + 6
    else:
        return
    frame[csum_off:csum_off + 2] = b"\x00\x00"
    csum = _l4_checksum(view, off, is_v4, proto, l4_off, l4_len)
    if proto == PROTO_UDP and csum == 0:
        csum = 0xFFFF
    frame[csum_off:csum_off + 2] = _PACK_H(csum)


def corrupt_frame(data: bytes, flips: int, silent: bool,
                  rng: Random) -> bytes:
    """Flip ``flips`` random bits; optionally re-checksum (silent).

    Flips land in the L4 payload when one exists (so detectable
    corruption is exactly what a checksum catches), else anywhere past
    the Ethernet header.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if not data:
        return data
    frame = bytearray(data)
    start = min(_ETH_HLEN, len(frame) - 1)
    walked = _walk_headers(data)
    if walked is not None:
        off, ihl, proto, l4_off, l4_len, is_v4 = walked
        if proto == PROTO_TCP and l4_len >= 20:
            payload_off = l4_off + ((data[l4_off + 12] >> 4) * 4)
        elif proto == PROTO_UDP and l4_len >= 8:
            payload_off = l4_off + 8
        else:
            payload_off = l4_off
        if payload_off < len(frame):
            start = payload_off
        elif l4_off < len(frame):
            start = l4_off
    for _ in range(flips):
        pos = rng.randrange(start, len(frame))
        frame[pos] ^= 1 << rng.randrange(8)
    if silent:
        fix_checksums(frame)
    return bytes(frame)


class _LinkState:
    """Disable-and-repair state for one ingress link (port)."""

    __slots__ = ("window", "bad_in_window", "disabled_until")

    def __init__(self) -> None:
        self.window: deque = deque()
        self.bad_in_window = 0
        self.disabled_until: Optional[float] = None


class ImpairedLink:
    """Seeded link impairment + receiver mitigation over a traffic
    source. Construct one per run; :meth:`wrap` is single-use."""

    def __init__(self, config: ImpairmentConfig,
                 ledger: Optional[ImpairmentLedger] = None) -> None:
        self.config = config
        self.ledger = ledger if ledger is not None \
            else ImpairmentLedger(config.to_dict())
        self._trace: Optional[ImpairmentTrace] = None
        if config.trace_path is not None:
            self._trace = ImpairmentTrace.load(config.trace_path)
        #: Seed governing corruption *content*: the replayed trace's
        #: recorded seed when replaying, else the config seed — so a
        #: replay reproduces the exact flipped bits.
        self._content_seed = self._trace.seed if self._trace is not None \
            else config.seed
        self._decision_rng = Random(f"repro.netem:{config.seed}:model")
        self._chain: Optional[GilbertElliottChain] = None
        if config.burst is not None:
            self._chain = GilbertElliottChain(config.burst,
                                              self._decision_rng)
        self._record: Optional[ImpairmentTrace] = None
        if config.record_path is not None:
            self._record = ImpairmentTrace(config.seed)
        self._impairing = config.impairs
        self._verify = config.mitigates
        self._links: Dict[int, _LinkState] = {}
        self._index = 0       # global offered-packet index
        self._next_pos = 0    # next base emission position
        self._tie = 0         # heap tiebreak
        # Pending (pos, tie, data, ts, port, mbuf) entries awaiting
        # their emission slot (reordering / duplication lookahead).
        self._heap: List[tuple] = []
        self._last_out_ts = float("-inf")
        self._closed = False

    # -- the wrap ------------------------------------------------------
    def wrap(self, traffic: Iterable[Mbuf]) -> Iterator[Mbuf]:
        """Yield the impaired stream."""
        out: List[tuple] = []
        for mbuf in traffic:
            del out[:]
            self._offer(mbuf.data, mbuf.timestamp, mbuf.port, mbuf, out)
            for entry in out:
                yield self._as_mbuf(entry)
        del out[:]
        self._drain(out)
        for entry in out:
            yield self._as_mbuf(entry)
        self.close()

    @staticmethod
    def _as_mbuf(entry: tuple) -> Mbuf:
        data, ts, port, mbuf = entry
        if mbuf is not None and mbuf.timestamp == ts:
            return mbuf  # untouched: pass the original object through
        return Mbuf(data, ts, port)

    def close(self) -> None:
        """Flush the recorded trace (idempotent; runtime calls this
        even when the run aborts mid-stream)."""
        if self._closed:
            return
        self._closed = True
        if self._record is not None and \
                self.config.record_path is not None:
            self._record.save(self.config.record_path)

    # -- per-packet model ----------------------------------------------
    def _decide(self, index: int) -> Decision:
        config = self.config
        if self._trace is not None:
            return self._trace.decision_for(index)
        rng = self._decision_rng
        drop = False
        if self._chain is not None and self._chain.step():
            drop = True
        if not drop and config.loss_rate and \
                rng.random() < config.loss_rate:
            drop = True
        if drop:
            decision = Decision(drop=True)
        else:
            flips = 0
            dup = False
            delay = 0.0
            displace = 0
            if config.corrupt_rate and \
                    rng.random() < config.corrupt_rate:
                flips = 1 + rng.randrange(8)
            if config.duplicate_rate and \
                    rng.random() < config.duplicate_rate:
                dup = True
            if config.reorder_rate and \
                    rng.random() < config.reorder_rate:
                displace = 1 + rng.randrange(config.reorder_depth)
            if config.jitter_s and rng.random() < 0.5:
                delay = rng.random() * config.jitter_s
            if not (flips or dup or delay or displace):
                decision = CLEAN
            else:
                decision = Decision(
                    corrupt_flips=flips,
                    corrupt_silent=config.corrupt_silent and flips > 0,
                    dup=dup, delay=delay, displace=displace)
        if self._record is not None:
            self._record.record(index, decision)
        return decision

    def _offer(self, data, ts: float, port: int, mbuf: Optional[Mbuf],
               out: List[tuple]) -> None:
        """Run one source packet through the link; emissions whose
        slot is due are appended to ``out`` as (data, ts, port, mbuf)."""
        ledger = self.ledger
        size = len(data)
        index = self._index
        self._index += 1
        ledger.record_offered(port, size)
        decision = self._decide(index) if self._impairing else CLEAN
        if decision.drop:
            ledger.record_drop(port, size, "loss")
            return
        if decision.corrupt_flips:
            data = corrupt_frame(
                bytes(data), decision.corrupt_flips,
                decision.corrupt_silent,
                Random(f"repro.netem:{self._content_seed}:"
                       f"corrupt:{index}"))
            mbuf = None
            ledger.record_corrupted(port, decision.corrupt_silent)
        if decision.delay:
            ts += decision.delay
            mbuf = None
            ledger.delayed += 1
        base = self._next_pos
        self._next_pos += 1
        pos = base + decision.displace
        if decision.displace:
            ledger.reordered += 1
        heappush(self._heap, (pos, self._tie, data, ts, port, mbuf))
        self._tie += 1
        if decision.dup:
            ledger.duplicated += 1
            heappush(self._heap,
                     (pos + 1, self._tie, data, ts, port, mbuf))
            self._tie += 1
        heap = self._heap
        while heap and heap[0][0] <= base:
            self._emit(heappop(heap), out)

    def _drain(self, out: List[tuple]) -> None:
        heap = self._heap
        while heap:
            self._emit(heappop(heap), out)

    def _emit(self, entry: tuple, out: List[tuple]) -> None:
        """Receiver side: clamp the timestamp monotonic, run the
        mitigation policies, deliver or attribute the drop."""
        _pos, _tie, data, ts, port, mbuf = entry
        if ts < self._last_out_ts:
            ts = self._last_out_ts  # displaced into the past: clamp
            mbuf = None
        else:
            self._last_out_ts = ts
        if self._verify and not self._admit(data, ts, port):
            return
        self.ledger.record_delivered(port, len(data))
        out.append((data, ts, port, mbuf))

    # -- receiver mitigation -------------------------------------------
    def _link_state(self, port: int) -> _LinkState:
        link = self._links.get(port)
        if link is None:
            link = self._links[port] = _LinkState()
        return link

    def _admit(self, data, ts: float, port: int) -> bool:
        config = self.config
        ledger = self.ledger
        link = self._link_state(port)
        if link.disabled_until is not None:
            if ts >= link.disabled_until:
                link.disabled_until = None
                link.window.clear()
                link.bad_in_window = 0
                ledger.record_link_event(ts, port, "enable",
                                         "repair complete")
            else:
                ledger.record_drop(port, len(data), "link_disabled")
                return False
        bad = frame_checksums_ok(data) is False
        if config.disable_threshold:
            window = link.window
            window.append(1 if bad else 0)
            link.bad_in_window += 1 if bad else 0
            if len(window) > config.disable_window:
                link.bad_in_window -= window.popleft()
            if bad and link.bad_in_window >= config.disable_threshold:
                link.disabled_until = ts + config.repair_time
                ledger.record_link_event(
                    ts, port, "disable",
                    f"{link.bad_in_window} bad frames in last "
                    f"{len(window)}")
        if bad and config.quarantine:
            ledger.record_drop(port, len(data), "quarantine")
            return False
        return True
