"""Virtual CPU-cycle accounting (the substitution for wall-clock time).

The paper's throughput results are, at bottom, cycles-per-packet
arithmetic on a 3 GHz Xeon: a stage that runs on fewer packets or burns
fewer cycles leaves budget for callbacks, and the zero-loss throughput
is the ingress rate at which per-core cycle demand meets capacity.
Because a Python reproduction cannot move 100 Gbps of real bits, every
pipeline stage charges a calibrated per-invocation cost to a
:class:`CycleLedger` instead; the benchmarks convert ledger totals into
the paper's Gbps axes.

Default per-invocation costs are calibrated to Figure 7's measured
per-stage averages (the Netflix connection-record workload).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class CostModel:
    """Per-invocation cycle costs for each pipeline stage.

    Figure 7 calibration (cycles): hardware 0, software packet filter
    102.9, connection tracking 41.6, stream reassembly 353.8,
    application-layer parsing 2122.9, session filter 702.3. The
    callback cost is supplied per subscription (the paper busy-loops a
    configurable number of cycles to emulate analysis complexity).
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
    #: Default per-callback cycles when the subscription specifies none.
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


def _hist_index(value: float) -> int:
    for i, bound in enumerate(CYCLE_HIST_BOUNDS):
        if value <= bound:
            return i
    return len(CYCLE_HIST_BOUNDS)


class CycleLedger:
    """Per-core counters: invocations and cycles per stage.

    With ``record_hist=True`` every explicit charge additionally lands
    in a fixed-bucket per-stage histogram (``hist``) — the telemetry
    subsystem's per-invocation cost distribution. Disabled ledgers
    carry ``hist=None`` and skip the bucketing entirely. The batched
    hot path (capture / packet filter in ``process_batch``) bypasses
    ``charge``; those stages have constant per-invocation cost, so the
    exporter synthesizes their single-bucket histograms from the
    invocation counts.
    """

    __slots__ = ("model", "invocations", "cycles", "hist")

    def __init__(self, model: CostModel = CostModel(),
                 record_hist: bool = False) -> None:
        self.model = model
        self.invocations: Dict[Stage, int] = {s: 0 for s in Stage}
        self.cycles: Dict[Stage, float] = {s: 0.0 for s in Stage}
        self.hist: Optional[Dict[Stage, list]] = (
            {s: [0] * (len(CYCLE_HIST_BOUNDS) + 1) for s in Stage}
            if record_hist else None
        )

    def charge(self, stage: Stage, invocations: int = 1) -> None:
        """Charge ``invocations`` runs of ``stage`` at the model cost."""
        self.invocations[stage] += invocations
        cost = self.model.cost_of(stage)
        self.cycles[stage] += cost * invocations
        if self.hist is not None:
            self.hist[stage][_hist_index(cost)] += invocations

    def charge_cycles(self, stage: Stage, cycles: float,
                      invocations: int = 1) -> None:
        """Charge an explicit cycle amount (callbacks, ablations)."""
        self.invocations[stage] += invocations
        self.cycles[stage] += cycles
        if self.hist is not None and invocations:
            self.hist[stage][_hist_index(cycles / invocations)] += \
                invocations

    def observe_batched(self, stage: Stage, invocations: int) -> None:
        """Record histogram observations for a *batched* stage.

        The per-row loop (``CorePipeline.process_batch_rows``) and
        the tenant fan-out prelude charge capture and the packet filter
        outside ``charge`` and settle the histogram here, once per
        burst: the stages have constant per-invocation cost, so
        ``invocations`` observations all land in the model-cost
        bucket. Keeps histogram totals in parity with the ledger (see
        :meth:`check_hist_parity`).
        """
        if self.hist is not None and invocations:
            cost = self.model.cost_of(stage)
            self.hist[stage][_hist_index(cost)] += invocations

    def check_hist_parity(self) -> None:
        """Assert per-stage histogram totals match the ledger.

        Every invocation charged while ``record_hist`` was on must
        appear in exactly one histogram bucket, whatever the burst
        shape. Raises ``AssertionError`` naming the stages that
        disagree.
        """
        if self.hist is None:
            return
        bad = []
        for stage in Stage:
            total = sum(self.hist[stage])
            if total != self.invocations[stage]:
                bad.append("%s: hist=%d ledger=%d" %
                           (stage.value, total, self.invocations[stage]))
        assert not bad, \
            "cycle-histogram/ledger parity broken: " + "; ".join(bad)

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles.values())

    @property
    def busy_seconds(self) -> float:
        """Virtual seconds of CPU time consumed on this core."""
        return self.total_cycles / self.model.cpu_hz

    def merge(self, other: "CycleLedger") -> None:
        for stage in Stage:
            self.invocations[stage] += other.invocations[stage]
            self.cycles[stage] += other.cycles[stage]
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
                "cycles": self.cycles[stage],
            }
            for stage in Stage
        }
