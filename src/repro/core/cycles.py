"""Virtual CPU-cycle accounting (the substitution for wall-clock time).

The paper's throughput results are, at bottom, cycles-per-packet
arithmetic on a 3 GHz Xeon: a stage that runs on fewer packets or burns
fewer cycles leaves budget for callbacks, and the zero-loss throughput
is the ingress rate at which per-core cycle demand meets capacity.
Because a Python reproduction cannot move 100 Gbps of real bits, every
pipeline stage has a calibrated per-invocation cost, and a
:class:`CycleLedger` prices the pipeline's own counts with it; the
benchmarks convert ledger totals into the paper's Gbps axes.

Default per-invocation costs are calibrated to Figure 7's measured
per-stage averages (the Netflix connection-record workload).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, Optional


class Stage(enum.Enum):
    """Pipeline stages, in Figure 7's order (plus CAPTURE, the DPDK
    RX/mbuf cost that precedes Figure 7's first software stage)."""

    CAPTURE = "capture"
    HARDWARE_FILTER = "hardware_filter"
    PACKET_FILTER = "packet_filter"
    CONN_TRACK = "conn_track"
    REASSEMBLY = "reassembly"
    PARSING = "parsing"
    SESSION_FILTER = "session_filter"
    CALLBACK = "callback"

    # Ledger dicts are keyed by Stage on the per-packet hot path;
    # Enum's default __hash__ is a Python-level function that rehashes
    # the (string) value on every dict access. Members are singletons,
    # so the C-level identity hash is equivalent and far cheaper.
    __hash__ = object.__hash__


def to_centi(cycles: float) -> int:
    """Cycles → the ledger's integer unit, centi-cycles (1/100 cycle)."""
    return round(cycles * 100)


@dataclass(frozen=True)
class CostModel:
    """Per-invocation cycle costs for each pipeline stage.

    Figure 7 calibration (cycles): hardware 0, software packet filter
    102.9, connection tracking 41.6, stream reassembly 353.8,
    application-layer parsing 2122.9, session filter 702.3. The
    callback cost is supplied per subscription (the paper busy-loops a
    configurable number of cycles to emulate analysis complexity).

    **Unit and rounding.** Costs are written in cycles; the ledger
    counts in integer *centi-cycles* and rounds every cost **once**,
    when a :class:`CycleLedger` (with the executor's per-delivery
    ``callback_cycles`` / ``enqueue_cycles``) is constructed —
    ``160.0 → 16000``, ``102.9 → 10290``, ``0.75 → 75``. An overridden
    cost finer than 0.01 cycle is rounded to the nearest centi-cycle
    there, never per charge; every total is then an exact integer and is
    converted back to float cycles by one division where it is reported.
    """

    #: Kernel-bypass receive cost per packet (descriptor ring poll, mbuf
    #: bookkeeping). Not part of Figure 7's stage list; calibrated so
    #: the raw-packet fast path lands near Figure 5a's 2-core ceiling.
    capture: float = 160.0
    hardware_filter: float = 0.0
    packet_filter: float = 102.9
    conn_track: float = 41.6
    reassembly: float = 353.8
    #: Extra cost for the *buffered* reassembly ablation: traditional
    #: reassembly memcpys every payload byte into a stream buffer.
    reassembly_copy_per_byte: float = 0.75
    parsing: float = 2122.9
    session_filter: float = 702.3
    #: Per-delivery cycles charged on top of the subscription's own
    #: callback cost (``RuntimeConfig.callback_cycles``).
    callback: float = 0.0
    #: CPU frequency used to convert cycles into (virtual) seconds.
    cpu_hz: float = 3.0e9

    def cost_of(self, stage: Stage) -> float:
        return getattr(self, stage.value)

    def with_callback(self, cycles: float) -> "CostModel":
        return replace(self, callback=cycles)


#: Upper bucket bounds (cycles) for the per-stage cost histograms; one
#: implicit +Inf bucket follows. Spans the Figure 7 calibration range —
#: conn-track (~42) up to multi-segment parses and 12K-cycle callbacks.
CYCLE_HIST_BOUNDS = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0,
                     6400.0, 12800.0, 25600.0)
_HIST_BOUNDS_CENTI = tuple(to_centi(b) for b in CYCLE_HIST_BOUNDS)


def hist_index(centi: int) -> int:
    """Bucket of one invocation costing ``centi`` centi-cycles."""
    return bisect_left(_HIST_BOUNDS_CENTI, centi)


class CycleLedger:
    """Per-core virtual clock, exact: integers only.

    A view over counts the core keeps anyway — ``stats.packets``
    (capture, packet filter), ``sessions_parsed`` (session filter),
    ``callbacks`` (callback: the model's ``callback`` plus the
    executor's per-delivery ``rx_cycles``) — and ``counts``, the three
    stages no counter matches once several pipelines merge. A stage's
    cycles are its count × its centi-cycle cost, computed when read,
    plus ``extra[stage]``: the buffered reassembler's per-byte copy.
    Integer sums are associative, so any burst shape, worker count or
    merge order yields the same totals; floats appear only where a
    total is reported (one division).

    With ``record_hist=True`` every :meth:`charge_copy` also lands in
    a fixed-bucket per-stage histogram (``hist``). Fixed-cost charges
    are not bucketed: all of them fall in the cost's bucket, which
    ``Runtime.aggregate`` fills in from the counts.
    """

    __slots__ = ("stats", "model", "cost", "copy", "counts", "extra", "hist")

    def __init__(self, stats, model: CostModel = CostModel(),
                 rx_cycles: float = 0.0, record_hist: bool = False) -> None:
        self.stats = stats
        self.model = model
        #: Centi-cycles per invocation: rounded now, never per charge.
        self.cost: Dict[Stage, int] = {
            s: to_centi(model.cost_of(s)) for s in Stage}
        self.cost[Stage.CALLBACK] += to_centi(rx_cycles)
        self.copy = to_centi(model.reassembly_copy_per_byte)
        self.counts: Dict[Stage, int] = dict.fromkeys(
            (Stage.CONN_TRACK, Stage.REASSEMBLY, Stage.PARSING), 0)
        self.extra: Dict[Stage, int] = {s: 0 for s in Stage}
        self.hist: Optional[Dict[Stage, list]] = (
            {s: [0] * (len(CYCLE_HIST_BOUNDS) + 1) for s in Stage}
            if record_hist else None
        )

    @property
    def invocations(self) -> Dict[Stage, int]:
        """Every stage's count, in :class:`Stage` order."""
        stats = self.stats
        return {Stage.CAPTURE: stats.packets, Stage.HARDWARE_FILTER: 0,
                Stage.PACKET_FILTER: stats.packets, **self.counts,
                Stage.SESSION_FILTER: stats.sessions_parsed,
                Stage.CALLBACK: stats.callbacks}

    def charge_copy(self, nbytes: int) -> None:
        """Count one buffered reassembly that also copied ``nbytes``
        payload bytes (the one cost that is not a function of a count)."""
        centi = self.copy * nbytes
        self.counts[Stage.REASSEMBLY] += 1
        self.extra[Stage.REASSEMBLY] += centi
        if self.hist is not None:
            self.hist[Stage.REASSEMBLY][bisect_left(
                _HIST_BOUNDS_CENTI, self.cost[Stage.REASSEMBLY] + centi)] += 1

    def centi_cycles(self, stage: Stage) -> int:
        return self.invocations[stage] * self.cost[stage] + \
            self.extra[stage]

    @property
    def total_centi_cycles(self) -> int:
        return sum(map(self.centi_cycles, Stage))

    def cycles(self, stage: Stage) -> float:
        return self.centi_cycles(stage) / 100

    @property
    def busy_seconds(self) -> float:
        """Virtual seconds of CPU time consumed on this core."""
        return self.total_centi_cycles / (100 * self.model.cpu_hz)

    def merge(self, other: "CycleLedger") -> None:
        """Integer sums of the ledgers' own counts (the stats merge the
        rest). A runtime's ledgers share one cost table: take it."""
        self.cost = other.cost
        for stage, count in other.counts.items():
            self.counts[stage] += count
        for stage in Stage:
            self.extra[stage] += other.extra[stage]
        if self.hist is not None and other.hist is not None:
            for stage in Stage:
                mine, theirs = self.hist[stage], other.hist[stage]
                for i, count in enumerate(theirs):
                    mine[i] += count
        elif self.hist is None and other.hist is not None:
            self.hist = {s: list(b) for s, b in other.hist.items()}

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            stage.value: {
                "invocations": self.invocations[stage],
                "cycles": self.cycles(stage),
            }
            for stage in Stage
        }
