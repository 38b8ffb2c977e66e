"""Runtime statistics and monitoring (Section 5.3's feedback signals).

Retina exposes real-time logs of packet loss, throughput, and memory
usage so users can tune filters and callbacks. :class:`CoreStats`
tracks one core; :class:`AggregateStats` merges cores for reports.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.cycles import CostModel, CycleLedger, Stage


#: Upper bucket bounds (bytes) for reassembly-buffer occupancy
#: histograms; one implicit +Inf bucket follows.
REASM_HIST_BOUNDS = (1024, 4096, 16384, 65536, 262144, 1048576, 4194304)


#: Every additive integer counter a core keeps, declared once:
#: :class:`CoreStats` zeroes, snapshots and merges them by iterating
#: this tuple, and ``Runtime.aggregate`` hands the merged values to
#: :class:`AggregateStats` under the same names (except
#: :data:`AGGREGATE_NAMES`).
COUNTERS = (
    "packets", "bytes", "callbacks", "sessions_parsed",
    "sessions_matched", "conns_created", "conns_delivered",
    "probe_giveups",
    # Filter-funnel survivors: packets and wire bytes surviving the
    # software packet filter, the connection-filter layer, and the full
    # filter respectively; see repro.telemetry.funnel for the exact
    # semantics.
    "pf_packets", "pf_bytes", "connf_packets", "connf_bytes",
    "sessf_packets", "sessf_bytes",
    # Connections the filter rejected (or that had nothing more to
    # deliver) and connections harvested by the timer wheels.
    "conns_discarded", "conns_expired",
    # Resilience (repro.resilience): callback exceptions absorbed by
    # the "isolate" policy, deliveries whose user callback was skipped
    # post-quarantine, whether this core's callback is quarantined,
    # parser exceptions absorbed at the probe/parse boundary, and
    # memory-policy actions (evictions / refused new connections).
    "callback_errors", "callbacks_suppressed", "callback_quarantined",
    "parser_exceptions", "conns_evicted", "conns_shed",
    # BufferedReassembler per-direction buffer overflows: segments
    # dropped (truncating the reconstructed stream) and their payload
    # bytes. Zero under the lazy reassembler, which never copies into a
    # bounded buffer.
    "reasm_truncations", "reasm_truncated_bytes",
    # Lazy-reassembler discard accounting (repro.stream.reassembly
    # mirrors its rare-path counters here so impairment runs can
    # distinguish link loss from dup-discard): fresh full retransmits
    # of delivered data, partial overlaps (trimmed), held segments
    # wholly superseded before their flush slot, and out-of-order ring
    # overflows; then adaptive out-of-order window resizes
    # (config.ooo_adaptive).
    "reasm_dup_segments", "reasm_overlap_segments",
    "reasm_stale_retransmits", "reasm_overflow_drops",
    "reasm_window_grows", "reasm_window_shrinks",
)
#: The counters a whole-runtime report names differently.
AGGREGATE_NAMES = {"packets": "processed_packets",
                   "bytes": "processed_bytes",
                   "callback_quarantined": "quarantined_cores"}
#: Counters ``AggregateStats.to_dict`` reports as ``filter_funnel``
#: rows rather than under their own keys.
_FUNNEL_COUNTERS = frozenset(
    name for name in COUNTERS
    if name == "bytes" or name.startswith(("pf_", "connf_", "sessf_")))


class MemorySeries(Sequence):
    """A Figure 8 memory series: one ``(ts, live connections, bytes)``
    sample per sample point, kept as three flat columns — 24 bytes a
    sample, where a tuple of three objects costs ~100. It reads as the
    sequence of those tuples, built on read."""

    __slots__ = ("ts", "conns", "memory")

    def __init__(self, samples: Iterable[Tuple[float, int, int]] = ()
                 ) -> None:
        self.ts = array("d")
        self.conns = array("q")
        self.memory = array("q")
        for ts, conns, memory in samples:
            self.append(ts, conns, memory)

    def append(self, ts: float, conns: int, memory: int) -> None:
        self.ts.append(ts)
        self.conns.append(conns)
        self.memory.append(memory)

    def extend(self, other: "MemorySeries") -> None:
        self.ts.extend(other.ts)
        self.conns.extend(other.conns)
        self.memory.extend(other.memory)

    def copy(self) -> "MemorySeries":
        out = MemorySeries()
        out.extend(self)
        return out

    def sorted(self) -> "MemorySeries":
        """A copy in timestamp order; samples of one timestamp keep
        their order."""
        ts = self.ts
        order = sorted(range(len(ts)), key=ts.__getitem__)
        out = MemorySeries()
        out.ts = array("d", [ts[i] for i in order])
        out.conns = array("q", [self.conns[i] for i in order])
        out.memory = array("q", [self.memory[i] for i in order])
        return out

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.ts[index], self.conns[index],
                            self.memory[index]))
        return self.ts[index], self.conns[index], self.memory[index]

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        return zip(self.ts, self.conns, self.memory)

    def __eq__(self, other) -> bool:
        if isinstance(other, MemorySeries):
            return (self.ts == other.ts and self.conns == other.conns
                    and self.memory == other.memory)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MemorySeries({list(self)!r})"


class CoreStats:
    """Counters for one processing core."""

    def __init__(self, cost_model: CostModel, telemetry: bool = False,
                 rx_cycles: float = 0.0) -> None:
        #: A view over these counters (``rx_cycles``: per delivery).
        self.ledger = CycleLedger(self, cost_model, rx_cycles,
                                  record_hist=telemetry)
        for name in COUNTERS:
            setattr(self, name, 0)
        #: Injected-fault counts by kind (repro.resilience.faults).
        self.fault_counters: Dict[str, int] = {}
        #: The core's overload loss ledger (repro.overload), attached
        #: by the pipeline when an overload policy is active; None
        #: otherwise. Travels with the snapshot like every counter.
        self.overload = None
        #: The memory series: a lane's own samples, or a core's (empty
        #: where no lane can hold state; see ``Lane.stateful``).
        self.memory_samples = MemorySeries()
        #: Sampled connection-lifecycle events (repro.telemetry.trace).
        self.trace_events: List[Tuple] = []
        #: Reassembly-buffer occupancy histogram (telemetry only):
        #: bucket counts over REASM_HIST_BOUNDS + Inf, observed at each
        #: memory-sample point, plus the peak occupancy seen.
        self.reasm_hist: Optional[List[int]] = (
            [0] * (len(REASM_HIST_BOUNDS) + 1) if telemetry else None
        )
        self.reasm_occ_sum = 0
        self.reasm_peak_bytes = 0
        #: Span-recorder snapshot (repro.telemetry.spans), attached by
        #: the pipeline at fold time when spans are enabled. Travels
        #: with the pickled snapshot like every other field but is
        #: deliberately *excluded* from :meth:`to_dict` and from
        #: ``AggregateStats`` — span data lands on
        #: ``RuntimeReport.spans`` so aggregate stats stay
        #: byte-identical with spans on or off.
        self.spans: Optional[Dict] = None

    def observe_reasm_occupancy(self, occupancy_bytes: int) -> None:
        if occupancy_bytes > self.reasm_peak_bytes:
            self.reasm_peak_bytes = occupancy_bytes
        if self.reasm_hist is not None:
            self.reasm_occ_sum += occupancy_bytes
            for i, bound in enumerate(REASM_HIST_BOUNDS):
                if occupancy_bytes <= bound:
                    self.reasm_hist[i] += 1
                    return
            self.reasm_hist[-1] += 1

    def to_dict(self) -> Dict:
        """Deterministic, comparable snapshot of one core's counters.

        Used by the crash-recovery tests to show that cores unaffected
        by a worker fault are *bit-identical* to a fault-free run, and
        available to callers via ``RuntimeReport.core_stats``.
        """
        out = {name: getattr(self, name) for name in COUNTERS}
        out["fault_counters"] = dict(sorted(self.fault_counters.items()))
        out["overload"] = (self.overload.to_dict()
                           if self.overload is not None else None)
        out["memory_samples"] = list(self.memory_samples)
        out["cycles"] = self.ledger.snapshot()
        return out

    def merge(self, other: "CoreStats") -> None:
        """Fold another core's counters into this one.

        Used by the parallel backend: each worker process returns its
        pipeline's ``CoreStats`` snapshot (the whole object pickles —
        the ledger holds enum-keyed dicts, the cost model and these
        stats) and the parent merges them into the aggregate report.
        """
        self.ledger.merge(other.ledger)
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for kind, count in other.fault_counters.items():
            self.fault_counters[kind] = \
                self.fault_counters.get(kind, 0) + count
        if other.overload is not None:
            if self.overload is None:
                from repro.overload.ledger import LossLedger
                self.overload = LossLedger(core_id=-1)
            self.overload.merge(other.overload)
        self.memory_samples.extend(other.memory_samples)
        self.trace_events.extend(other.trace_events)
        if other.reasm_hist is not None:
            if self.reasm_hist is None:
                self.reasm_hist = list(other.reasm_hist)
            else:
                for i, count in enumerate(other.reasm_hist):
                    self.reasm_hist[i] += count
        self.reasm_occ_sum += other.reasm_occ_sum
        if other.reasm_peak_bytes > self.reasm_peak_bytes:
            self.reasm_peak_bytes = other.reasm_peak_bytes


class TenantStatsBundle(CoreStats):
    """One core's snapshot: the :class:`CoreStats` face every consumer
    of a per-core snapshot reads, plus the per-tenant breakdown, which
    ``Runtime`` reads core by core:

    * ``per_tenant``: tenant name → that tenant's CoreStats (its solo
      view; a re-added tenant's drained and live lanes merged).
    * ``tenant_shed``: tenant name → the quota/pressure loss ledger of
      a tenant that was actually metered.
    * ``epoch``: the filter-table epoch the core had adopted.
    * ``not_subscribed``: tenant name → the packets the core was handed
      while the tenant was out of the table (before an ``add``, after a
      ``drop``), so the fate table accounts for the whole link.
    """

    def __init__(self, cost_model: CostModel,
                 telemetry: bool = False) -> None:
        super().__init__(cost_model, telemetry=telemetry)
        self.per_tenant: Dict[str, CoreStats] = {}
        self.tenant_shed: Dict[str, object] = {}
        self.epoch = 0
        self.not_subscribed: Dict[str, int] = {}

    def to_dict(self) -> Dict:
        out = super().to_dict()
        # The tenant breakdown joins the snapshot only when the run is
        # observably multi-tenant — a single unmetered tenant's
        # snapshot must stay byte-identical to a non-tenancy run.
        if len(self.per_tenant) > 1 or self.tenant_shed:
            out["epoch"] = self.epoch
            out["not_subscribed"] = dict(sorted(
                self.not_subscribed.items()))
            out["tenants"] = {
                name: stats.to_dict()
                for name, stats in sorted(self.per_tenant.items())
            }
            out["tenant_shed"] = {
                name: ledger.to_dict()
                for name, ledger in sorted(self.tenant_shed.items())
            }
        return out


@dataclass
class AggregateStats:
    """Whole-runtime view across cores, with derived metrics."""

    cores: int
    cost_model: CostModel
    duration: float
    ingress_packets: int
    ingress_bytes: int
    hw_dropped_packets: int
    sink_dropped_packets: int
    processed_packets: int
    processed_bytes: int
    callbacks: int
    sessions_parsed: int
    sessions_matched: int
    conns_created: int
    conns_delivered: int
    stage_invocations: Dict[Stage, int]
    #: Cycles and busy seconds are each an exact integer centi-cycle
    #: total (see :class:`CycleLedger`) divided once, by the aggregator.
    stage_cycles: Dict[Stage, float]
    per_core_busy_seconds: List[float]
    #: Every core's samples in timestamp order (a list of
    #: ``(ts, conns, bytes)`` tuples is taken as one).
    memory_samples: MemorySeries
    # -- telemetry (filter funnel, tracing, histograms) ----------------------
    pf_packets: int = 0
    pf_bytes: int = 0
    connf_packets: int = 0
    connf_bytes: int = 0
    sessf_packets: int = 0
    sessf_bytes: int = 0
    probe_giveups: int = 0
    conns_discarded: int = 0
    conns_expired: int = 0
    # -- resilience (repro.resilience) ---------------------------------------
    callback_errors: int = 0
    callbacks_suppressed: int = 0
    quarantined_cores: int = 0
    parser_exceptions: int = 0
    conns_evicted: int = 0
    conns_shed: int = 0
    fault_counters: Dict[str, int] = field(default_factory=dict)
    # -- overload / stream truncation (repro.overload) -------------------
    reasm_truncations: int = 0
    reasm_truncated_bytes: int = 0
    # -- reassembly discard/window accounting (repro.stream) --------------
    reasm_dup_segments: int = 0
    reasm_overlap_segments: int = 0
    reasm_stale_retransmits: int = 0
    reasm_overflow_drops: int = 0
    reasm_window_grows: int = 0
    reasm_window_shrinks: int = 0
    #: Merged per-stage cycle histograms (None unless telemetry ran).
    stage_cycle_hist: Optional[Dict[Stage, List[int]]] = None
    #: Merged reassembly occupancy histogram (None unless telemetry ran).
    reasm_hist: Optional[List[int]] = None
    reasm_occ_sum: int = 0
    reasm_peak_bytes: int = 0
    #: Merged (unsorted) trace events; see repro.telemetry.trace.
    trace_events: List[Tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.memory_samples, MemorySeries):
            self.memory_samples = MemorySeries(self.memory_samples)

    # -- derived -------------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        return sum(self.stage_cycles.values())

    @property
    def cycles_per_ingress_packet(self) -> float:
        if not self.ingress_packets:
            return 0.0
        return self.total_cycles / self.ingress_packets

    @property
    def cycles_per_ingress_byte(self) -> float:
        if not self.ingress_bytes:
            return 0.0
        return self.total_cycles / self.ingress_bytes

    @property
    def offered_rate_gbps(self) -> float:
        """Ingress rate over the traffic's (virtual) duration."""
        if self.duration <= 0:
            return 0.0
        return self.ingress_bytes * 8 / self.duration / 1e9

    def max_zero_loss_gbps(self, cores: Optional[int] = None) -> float:
        """The headline metric: the highest ingress bit-rate this
        pipeline could sustain with zero packet loss.

        Per-core capacity is ``cpu_hz`` cycles/second; the pipeline
        consumes ``cycles_per_ingress_byte``. With load balanced over
        ``cores``, the zero-loss ceiling is
        ``cores * cpu_hz / cycles_per_byte * 8`` bits/s. The bound uses
        the *most loaded* core to respect imperfect RSS balance.
        """
        cores = cores if cores is not None else self.cores
        if self.ingress_bytes == 0 or self.total_cycles == 0:
            return float("inf")
        busiest = max(self.per_core_busy_seconds) if \
            self.per_core_busy_seconds else 0.0
        if busiest <= 0:
            return float("inf")
        # Normalize: the busiest core consumed `busiest` CPU-seconds for
        # its share; scale capacity accordingly.
        per_core_share = self.ingress_bytes / self.cores
        bytes_per_second_per_core = per_core_share / busiest
        return bytes_per_second_per_core * cores * 8 / 1e9

    @property
    def loss_fraction(self) -> float:
        """Packet loss implied by cycle demand vs. capacity over the
        run's virtual duration (0.0 = kept up with ingress)."""
        if self.duration <= 0:
            return 0.0
        capacity = self.duration  # seconds of CPU per core
        worst = max(self.per_core_busy_seconds, default=0.0)
        if worst <= capacity:
            return 0.0
        return 1.0 - capacity / worst

    @property
    def peak_memory_bytes(self) -> int:
        """The largest single-core sample (Figure 8 sums the cores)."""
        return max(self.memory_samples.memory, default=0)

    @property
    def peak_live_connections(self) -> int:
        """The most connections one core held at a sample point."""
        return max(self.memory_samples.conns, default=0)

    def stage_fractions(self) -> Dict[Stage, float]:
        """Fraction of ingress packets that triggered each stage
        (Figure 7's x-axis)."""
        if not self.ingress_packets:
            return {stage: 0.0 for stage in Stage}
        return {
            stage: self.stage_invocations[stage] / self.ingress_packets
            for stage in Stage
        }

    def filter_funnel(self):
        """The four-layer filter funnel (packets/bytes surviving the
        NIC hardware filter, software packet filter, connection filter,
        and session filter). Returns ``FunnelLayer`` rows; see
        :mod:`repro.telemetry.funnel`."""
        from repro.telemetry.funnel import build_funnel
        return build_funnel(self)

    def funnel_table(self) -> str:
        """Human-readable funnel table (the §5.3 feedback view)."""
        from repro.telemetry.funnel import funnel_table
        return funnel_table(self)

    def stage_mean_cycles(self) -> Dict[Stage, float]:
        """Average cycles per invocation per stage (Figure 7's labels)."""
        out: Dict[Stage, float] = {}
        for stage in Stage:
            n = self.stage_invocations[stage]
            out[stage] = self.stage_cycles[stage] / n if n else 0.0
        return out

    def to_dict(self) -> Dict:
        """JSON-serializable summary (for tooling and the CLI)."""
        out = {
            "cores": self.cores,
            "duration_s": self.duration,
            "ingress_packets": self.ingress_packets,
            "ingress_bytes": self.ingress_bytes,
            "hw_dropped_packets": self.hw_dropped_packets,
            "sink_dropped_packets": self.sink_dropped_packets,
            "offered_rate_gbps": self.offered_rate_gbps,
            "max_zero_loss_gbps": self.max_zero_loss_gbps(),
            "loss_fraction": self.loss_fraction,
            "cycles_per_ingress_packet": self.cycles_per_ingress_packet,
            "stage_invocations": {
                stage.value: count
                for stage, count in self.stage_invocations.items()
            },
            "stage_cycles": {
                stage.value: cycles
                for stage, cycles in self.stage_cycles.items()
            },
            "peak_memory_bytes": self.peak_memory_bytes,
            "peak_live_connections": self.peak_live_connections,
            "fault_counters": dict(sorted(self.fault_counters.items())),
            "filter_funnel": [layer.to_dict()
                              for layer in self.filter_funnel()],
        }
        for name in COUNTERS:
            if name not in _FUNNEL_COUNTERS:
                name = AGGREGATE_NAMES.get(name, name)
                out[name] = getattr(self, name)
        return out

    def describe(self) -> str:
        lines = [
            f"ingress: {self.ingress_packets} pkts / "
            f"{self.ingress_bytes} B over {self.duration:.3f}s "
            f"({self.offered_rate_gbps:.2f} Gbps offered)",
            f"hw-dropped: {self.hw_dropped_packets}, "
            f"sink-dropped: {self.sink_dropped_packets}, "
            f"processed: {self.processed_packets}",
            f"callbacks: {self.callbacks}, sessions parsed: "
            f"{self.sessions_parsed} (matched {self.sessions_matched})",
            f"connections: {self.conns_created} created, "
            f"{self.conns_delivered} delivered",
            f"cycles/pkt: {self.cycles_per_ingress_packet:.1f}, "
            f"zero-loss ceiling: {self.max_zero_loss_gbps():.1f} Gbps "
            f"on {self.cores} cores",
            "filter funnel:",
            self.funnel_table(),
        ]
        return "\n".join(lines)
