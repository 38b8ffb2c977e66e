"""The loss ledger: precise accounting of everything *not* analyzed.

The contract of graceful degradation is that degraded output is always
accompanied by a statement of what was shed. A :class:`LossLedger`
lives on each core's :class:`~repro.core.stats.CoreStats` (so it
travels in worker-process snapshots exactly like every other counter)
and attributes each shed packet to a ladder rung and a filter-funnel
layer. The merged, all-cores view is surfaced on
``RuntimeReport.overload`` and in the Prometheus/NDJSON exports.

Invariant (tested): ``packets_seen == packets_analyzed +
packets_shed`` — the per-rung shed counts sum to total arrivals minus
analyzed packets, on every backend and worker count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Human-readable rung names, indexed by rung number. Mirrors
#: :mod:`repro.overload.controller`'s RUNG_* constants (duplicated here
#: so the ledger stays importable without the controller).
RUNG_NAMES = (
    "normal",
    "shed_packet_level",
    "shed_new_conns",
    "downgrade_heavy",
    "failfast",
)
_NUM_RUNGS = len(RUNG_NAMES)


class LossLedger:
    """Per-core (then merged) record of shed/downgraded work.

    Plain ints, floats, lists and dicts only — the whole object must
    pickle cheaply inside a worker's :class:`CoreStats` snapshot.
    """

    def __init__(self, core_id: int = 0) -> None:
        self.core_id = core_id
        #: Packets that entered this core's pipeline (shed or not).
        self.packets_seen = 0
        #: Per-rung refusals: packets of connections the admission gate
        #: refused while the ladder stood at that rung, and their wire
        #: bytes. Indexed by rung number.
        self.shed_packets: List[int] = [0] * _NUM_RUNGS
        self.shed_bytes: List[int] = [0] * _NUM_RUNGS
        #: Shed packets attributed to the filter-funnel layer whose
        #: work the shed avoided (rung 1 sheds flows with only
        #: packet-layer relevance; rung 2 sheds at the connection
        #: layer; downgrades forgo session-layer work).
        self.layer_packets: Dict[str, int] = {}
        #: Established connections whose heavy processing (reassembly /
        #: session parsing) the rung-3 circuit breaker disabled.
        self.conns_downgraded = 0
        #: BufferedReassembler per-direction buffer overflows recorded
        #: while the ledger was active (see repro.stream.buffered).
        self.reasm_truncations = 0
        self.reasm_truncated_bytes = 0
        #: Rung transitions: (virtual ts, from, to, reason, core_id).
        self.transitions: List[Tuple[float, int, int, str, int]] = []
        #: Virtual seconds spent at each rung (between controller
        #: evaluation ticks).
        self.rung_time: List[float] = [0.0] * _NUM_RUNGS
        #: Virtual timestamp of the fail-fast trip, or None.
        self.failfast_at: Optional[float] = None
        self.max_rung_seen = 0

    # -- recording -----------------------------------------------------
    def record_shed(self, rung: int, layer: str, wire_bytes: int) -> None:
        self.shed_packets[rung] += 1
        self.shed_bytes[rung] += wire_bytes
        self.layer_packets[layer] = self.layer_packets.get(layer, 0) + 1

    def record_downgrade(self, layer: str = "session_filter") -> None:
        self.conns_downgraded += 1
        self.layer_packets[layer] = self.layer_packets.get(layer, 0)

    def record_truncation(self, dropped_bytes: int) -> None:
        self.reasm_truncations += 1
        self.reasm_truncated_bytes += dropped_bytes

    def record_transition(self, ts: float, from_rung: int, to_rung: int,
                          reason: str) -> None:
        self.transitions.append(
            (ts, from_rung, to_rung, reason, self.core_id))
        if to_rung > self.max_rung_seen:
            self.max_rung_seen = to_rung

    # -- derived -------------------------------------------------------
    @property
    def packets_shed(self) -> int:
        return sum(self.shed_packets)

    @property
    def bytes_shed(self) -> int:
        return sum(self.shed_bytes)

    @property
    def packets_analyzed(self) -> int:
        """Packets that got full (non-shed) pipeline treatment."""
        return self.packets_seen - self.packets_shed

    @property
    def engaged(self) -> bool:
        """True when the ladder ever left rung 0 or anything was shed."""
        return bool(self.transitions or self.packets_shed
                    or self.conns_downgraded
                    or self.failfast_at is not None)

    # -- merge / export ------------------------------------------------
    def merge(self, other: "LossLedger") -> None:
        """Fold another core's ledger into this one. Transitions stay
        tagged with their originating core and are re-sorted into
        global virtual-time order, so the merged history is identical
        whatever order cores are merged in."""
        self.packets_seen += other.packets_seen
        for i in range(_NUM_RUNGS):
            self.shed_packets[i] += other.shed_packets[i]
            self.shed_bytes[i] += other.shed_bytes[i]
            self.rung_time[i] += other.rung_time[i]
        for layer, count in other.layer_packets.items():
            self.layer_packets[layer] = \
                self.layer_packets.get(layer, 0) + count
        self.conns_downgraded += other.conns_downgraded
        self.reasm_truncations += other.reasm_truncations
        self.reasm_truncated_bytes += other.reasm_truncated_bytes
        self.transitions.extend(other.transitions)
        self.transitions.sort(key=lambda t: (t[0], t[4], t[1], t[2]))
        if other.failfast_at is not None and (
                self.failfast_at is None
                or other.failfast_at < self.failfast_at):
            self.failfast_at = other.failfast_at
        if other.max_rung_seen > self.max_rung_seen:
            self.max_rung_seen = other.max_rung_seen

    def to_dict(self) -> Dict:
        """Deterministic, JSON-serializable snapshot (feeds parity
        tests and the NDJSON export)."""
        return {
            "packets_seen": self.packets_seen,
            "packets_analyzed": self.packets_analyzed,
            "packets_shed": self.packets_shed,
            "bytes_shed": self.bytes_shed,
            "shed_by_rung": {
                RUNG_NAMES[i]: {"packets": self.shed_packets[i],
                                "bytes": self.shed_bytes[i]}
                for i in range(_NUM_RUNGS) if self.shed_packets[i]
            },
            "shed_by_layer": dict(sorted(self.layer_packets.items())),
            "conns_downgraded": self.conns_downgraded,
            "reasm_truncations": self.reasm_truncations,
            "reasm_truncated_bytes": self.reasm_truncated_bytes,
            "rung_time_s": {
                RUNG_NAMES[i]: self.rung_time[i]
                for i in range(_NUM_RUNGS) if self.rung_time[i] > 0.0
            },
            "max_rung_seen": self.max_rung_seen,
            "transitions": [
                {"ts": ts, "from": frm, "to": to, "reason": reason,
                 "core": core}
                for ts, frm, to, reason, core in self.transitions
            ],
            "failfast_at": self.failfast_at,
        }

    def describe(self) -> str:
        """One status line for the CLI."""
        parts = [f"shed={self.packets_shed}pkts/{self.bytes_shed}B",
                 f"downgraded={self.conns_downgraded}",
                 f"max_rung={self.max_rung_seen}"
                 f"({RUNG_NAMES[self.max_rung_seen]})"]
        if self.reasm_truncations:
            parts.append(f"truncations={self.reasm_truncations}")
        if self.failfast_at is not None:
            parts.append(f"FAILFAST@{self.failfast_at:.3f}s")
        return "overload: " + " ".join(parts)


def merge_ledgers(ledgers) -> Optional["LossLedger"]:
    """Merge per-core ledgers into the run-level view (None when no
    core carried one — i.e. the overload policy was off)."""
    merged: Optional[LossLedger] = None
    for ledger in ledgers:
        if ledger is None:
            continue
        if merged is None:
            merged = LossLedger(core_id=-1)
        merged.merge(ledger)
    return merged
