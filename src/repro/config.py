"""Runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.conntrack.table import TimeoutConfig
from repro.core.cycles import CostModel
from repro.errors import ConfigError
from repro.netem.model import ImpairmentConfig
from repro.resilience.faults import FaultPlan


@dataclass
class RuntimeConfig:
    """Everything a Retina deployment configures.

    Defaults mirror the paper's: ConnectX-5-class NIC, 5 s establish /
    5 min inactivity timeouts, 500-packet out-of-order ring, hardware
    filtering on, 3 GHz cores.
    """

    #: Receive cores (one RSS queue each).
    cores: int = 4
    #: Connection timeout scheme (Figure 8 ablations swap this).
    timeouts: TimeoutConfig = field(default_factory=TimeoutConfig)
    #: Adaptive out-of-order window (repro.stream.reassembly): the
    #: per-direction ring (``DEFAULT_OOO_CAPACITY``, 500 packets) grows
    #: (×2, up to ``ADAPTIVE_MAX_CAPACITY``) instead of dropping when
    #: observed reorder depth exceeds it, and shrinks (÷2, down to
    #: ``ADAPTIVE_MIN_CAPACITY``) after a long fully in-order streak.
    #: Off by default — the fixed ring is the paper's design; the
    #: adaptive window is the degraded-link mitigation.
    ooo_adaptive: bool = False
    #: Install the hardware filter (Section 6.1 disables it).
    hardware_filter: bool = True
    #: Fraction of four-tuples redirected to the sink queue (Section 6.1
    #: flow sampling; 0.0 = analyze everything).
    sink_fraction: float = 0.0
    #: Simulated per-callback cost in CPU cycles (the paper's busy-loop
    #: proxy for callback complexity).
    callback_cycles: float = 0.0
    #: Stage cost model (Figure 7 calibration).
    cost_model: CostModel = field(default_factory=CostModel)
    #: Filter execution backend: "codegen" or "interp" (Appendix B).
    filter_mode: str = "codegen"
    #: Stream reassembly strategy: "lazy" (the paper's pass-through
    #: reorderer) or "buffered" (the traditional copy-based baseline,
    #: for the ablation benchmark). The buffered strategy charges the
    #: reassembly stage per payload byte copied rather than per packet.
    reassembler: str = "lazy"
    #: Callback execution model: "inline" (the paper's design — the
    #: callback runs on the receive core) or "queued" (the future-work
    #: model — a dedicated worker pool behind a hand-off queue).
    callback_execution: str = "inline"
    #: Worker cores for the queued execution model.
    callback_workers: int = 2
    #: Reassemble fragmented IPv4 datagrams before filtering. Off by
    #: default — like Retina (and kernel-bypass pipelines generally),
    #: non-first fragments simply fail port-based filters.
    reassemble_fragments: bool = False
    #: Memory ceiling for the Figure 8 OOM experiment (bytes); None
    #: disables the check.
    memory_limit_bytes: Optional[int] = None
    #: Execute cores as real OS worker processes. The sequential
    #: backend models per-core pipelines on one thread; the parallel
    #: backend shards packets to one process per core by the same
    #: symmetric-RSS hash and runs the pipelines concurrently. For a
    #: fixed traffic source both backends produce identical
    #: filter/connection/session/callback counts.
    parallel: bool = False
    #: Reference switch, not a user option (no CLI flag): False means
    #: "no row of a decoded burst is fast" — every burst is decoded
    #: with only ``wire`` and an all-False ``fast`` mask
    #: (:func:`repro.packet.columnar.decode_mbufs`), so every frame
    #: takes the per-packet ``parse_stack`` fallback the columnar decoder
    #: already uses for frames it cannot prove simple (VLAN, options,
    #: extension headers, fragments, ICMP, truncation). The parity
    #: tests and benchmarks compare the columns against it.
    columnar: bool = True
    #: Packets per dispatch batch. Batches amortize the per-message
    #: pipe cost in the parallel backend (DPDK-burst style) and
    #: per-packet dispatch overhead in the sequential backend.
    parallel_batch_size: int = 256
    #: Enable the extended telemetry recorders: per-stage cycle
    #: histograms, reassembly-buffer occupancy histograms, and parallel
    #: backend health metrics. The filter-funnel counters are always on
    #: (plain integer increments); this flag only gates the heavier
    #: recorders, so disabled runs stay at full speed.
    telemetry: bool = False
    #: Fraction of connections to trace through their lifecycle
    #: (created → probed → parsed → matched/discarded → delivered/
    #: expired). Sampling keys on a stable hash of the canonical
    #: five-tuple, so the sampled set — and the exported trace — is
    #: identical across backends and worker counts. 0.0 disables.
    trace_sample: float = 0.0
    #: Burst span tracing / continuous profiler (repro.telemetry.spans):
    #: 0 disables the recorder entirely (the batch loops keep a single
    #: ``is None`` check per burst); K >= 1 records every burst's span
    #: tree boundaries and profiles (and keeps the full tree of) every
    #: Kth burst per core. Sampling keys on the per-core burst ordinal,
    #: so the sampled set is identical across backends and worker
    #: counts.
    span_sample: int = 0
    #: Flight recorder: keep the last N burst span-trees per core in a
    #: bounded ring, dumped with the triggering event on overload rung
    #: escalation, callback quarantine and parser faults. 0 disables
    #: the ring. Either this or ``span_sample`` being nonzero enables
    #: the span recorder.
    flight_recorder_depth: int = 0
    # -- resilience (repro.resilience) ---------------------------------
    #: Deterministic fault plan to inject into the run; None disables
    #: every injection hook (the hot path carries no fault checks).
    fault_plan: Optional[FaultPlan] = None
    #: What a raising subscription callback does: "raise" wraps the
    #: exception in :class:`~repro.errors.CallbackError` and aborts the
    #: run (the historical behavior, now typed); "isolate" absorbs it,
    #: counts it against ``callback_error_budget``, and — once the
    #: budget is exhausted — quarantines the callback on that core
    #: (deliveries keep being counted and charged, the user function is
    #: no longer invoked).
    callback_error_policy: str = "raise"
    #: Callback errors tolerated per core before quarantine under the
    #: "isolate" policy.
    callback_error_budget: int = 3
    #: What hitting ``memory_limit_bytes`` does: "record" stops the run
    #: and records ``oom_at`` (the historical Figure 8 behavior);
    #: "evict" force-expires idle connections (oldest-activity-first,
    #: via the connection table) until each core is back under its
    #: share of the limit; "shed" refuses *new* connections while a
    #: core is over its share. Both degradation policies keep the run
    #: alive and count their actions in ``RuntimeReport.faults``.
    memory_policy: str = "record"
    # -- overload control (repro.overload) ------------------------------
    #: What a core does when it cannot keep up with arrivals: "off"
    #: (keep absorbing load, the historical behavior), "ladder" (the
    #: AIMD degradation ladder: shed new packet-level connections, then
    #: all new connections, then downgrade the heaviest established
    #: ones — established connections are preserved bit-exactly), or
    #: "failfast" (the paper's §7 behavior as an explicit policy: never
    #: shed, abort the run on sustained overload). Every shed packet
    #: and downgraded connection is attributed in the run's
    #: :class:`~repro.overload.LossLedger`.
    overload_policy: str = "off"
    #: Virtual seconds of cycle backlog (arrival clock minus the cycle
    #: ledger's budget) a core tolerates before the controller counts
    #: it as overloaded. The ladder's primary pressure signal.
    overload_target_lag: float = 0.05
    #: Highest rung the ladder may climb to (1-4; 4 enables the
    #: fail-fast last resort at the top of the ladder).
    overload_max_rung: int = 3
    #: Rung 3's per-connection circuit breaker: established probing/
    #: parsing connections holding more than this many bytes of heavy
    #: state (reassembly buffers + packet buffers) get their lazy
    #: reassembly and session parsing disabled.
    overload_heavy_bytes: int = 65536
    # -- multi-tenancy (repro.tenancy) ----------------------------------
    #: Aggregate tenant-load budget in megabits per virtual second for
    #: multi-tenant runs. When a virtual-second window's offered bytes
    #: exceed each core's share of this budget, the *heaviest* tenants
    #: (by offered bytes, ties by name) are shed for the next window
    #: until the remainder fits — the tenant-granular analogue of the
    #: overload ladder's rung-3 downgrade. None disables pressure
    #: accounting entirely.
    tenancy_pressure_mbps: Optional[float] = None
    # -- link impairment (repro.netem) ----------------------------------
    #: Seeded link-impairment layer wrapping the traffic source (burst
    #: loss, corruption, duplication, jitter, bounded reordering) plus
    #: receiver mitigations (checksum quarantine, per-link
    #: disable-and-repair). None disables the layer entirely: the
    #: traffic source is not even wrapped, so the clean path is
    #: byte-identical with or without this feature built.
    impairment: Optional[ImpairmentConfig] = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("need at least one core")
        if not 0.0 <= self.sink_fraction <= 1.0:
            raise ConfigError("sink_fraction must be in [0, 1]")
        if self.filter_mode not in ("codegen", "interp"):
            raise ConfigError(f"unknown filter_mode {self.filter_mode!r}")
        if self.reassembler not in ("lazy", "buffered"):
            raise ConfigError(f"unknown reassembler {self.reassembler!r}")
        if self.callback_execution not in ("inline", "queued"):
            raise ConfigError(
                f"unknown callback_execution {self.callback_execution!r}")
        if self.callback_workers < 1:
            raise ConfigError("callback_workers must be >= 1")
        if self.parallel_batch_size < 1:
            raise ConfigError("parallel_batch_size must be >= 1")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigError("trace_sample must be in [0, 1]")
        if self.span_sample < 0:
            raise ConfigError("span_sample must be >= 0 "
                              "(0 disables, K profiles every Kth burst)")
        if self.flight_recorder_depth < 0:
            raise ConfigError("flight_recorder_depth must be >= 0 "
                              "(0 disables the ring)")
        if self.callback_error_policy not in ("raise", "isolate"):
            raise ConfigError(
                f"unknown callback_error_policy "
                f"{self.callback_error_policy!r} (want 'raise' or "
                f"'isolate')")
        if self.callback_error_budget < 1:
            raise ConfigError("callback_error_budget must be >= 1")
        if self.memory_policy not in ("record", "evict", "shed"):
            raise ConfigError(
                f"unknown memory_policy {self.memory_policy!r} "
                f"(want 'record', 'evict', or 'shed')")
        if self.overload_policy not in ("off", "ladder", "failfast"):
            raise ConfigError(
                f"unknown overload_policy {self.overload_policy!r} "
                f"(want 'off', 'ladder', or 'failfast')")
        if self.overload_target_lag <= 0:
            raise ConfigError("overload_target_lag must be > 0")
        if not 1 <= self.overload_max_rung <= 4:
            raise ConfigError("overload_max_rung must be in [1, 4]")
        if self.overload_heavy_bytes < 0:
            raise ConfigError("overload_heavy_bytes must be >= 0")
        if self.overload_policy != "off" and \
                self.memory_policy in ("evict", "shed"):
            raise ConfigError(
                f"overload_policy={self.overload_policy!r} conflicts "
                f"with memory_policy={self.memory_policy!r}: the "
                f"overload ladder already owns admission control under "
                f"memory pressure (it senses table occupancy against "
                f"memory_limit_bytes itself); use memory_policy="
                f"'record' or overload_policy='off'")
        if self.tenancy_pressure_mbps is not None and \
                self.tenancy_pressure_mbps <= 0:
            raise ConfigError("tenancy_pressure_mbps must be > 0 "
                              "(None disables pressure accounting)")
        if self.impairment is not None and self.fault_plan is not None \
                and self.fault_plan.has_packet_faults:
            raise ConfigError(
                "impairment conflicts with fault-plan packet-corruption "
                "entries (corrupt_packet/truncate_packet): both mutate "
                "frames before RSS dispatch from independent seeded "
                "streams, making ledger attribution ambiguous; move "
                "the corruption into the impairment layer "
                "(corrupt_rate) or strip packet faults from the plan")
        if self.parallel and self.callback_execution != "inline":
            raise ConfigError(
                "the parallel backend supports inline callback execution "
                "only (queued-pool accounting is global, not per-shard)")

    def with_(self, **kwargs) -> "RuntimeConfig":
        """A modified copy (convenience for benchmark sweeps)."""
        return replace(self, **kwargs)
