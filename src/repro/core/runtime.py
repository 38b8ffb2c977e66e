"""The Runtime: NIC + per-core pipelines + reporting (Figure 1's API).

A :class:`Runtime` wires a subscription (filter, data type, callback)
to the simulated NIC and one pipeline per core, then consumes a traffic
source — any iterable of :class:`~repro.packet.mbuf.Mbuf` in timestamp
order — and produces an :class:`AggregateStats` report with the
paper's metrics (offered rate, zero-loss ceiling, per-stage fractions,
memory samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # avoid a config<->core import cycle at runtime
    from repro.config import RuntimeConfig
from repro.core.cycles import Stage, hist_index
from repro.core.monitor import CoreProgress
from repro.core.pipeline import CorePipeline
from repro.core.stats import AGGREGATE_NAMES, COUNTERS, AggregateStats, \
    CoreStats
from repro.core.subscription import Subscription
from repro.nic.device import SimNic
from repro.packet.columnar import HELD, ingress_rows
from repro.packet.mbuf import Mbuf
from repro.resilience.faults import FaultReport, PacketFaultInjector, \
    build_fault_report


@dataclass
class RuntimeReport:
    """Outcome of one run."""

    stats: AggregateStats
    #: Virtual timestamp at which the memory limit was exceeded, or None.
    oom_at: Optional[float] = None
    #: Parallel-backend health snapshot (ring high-water marks, batch
    #: occupancy, feeder block time, feeder and per-worker CPU seconds)
    #: when ``config.telemetry`` is on; None otherwise. Volatile — in
    #: a run bundle it is in the manifest and nowhere else.
    backend_health: Optional[dict] = None
    #: Resilience outcome (injections, policy actions, supervisor
    #: recovery), or None when nothing was configured and nothing
    #: happened. Deterministic for a fixed ``(seed, FaultPlan)``.
    faults: Optional[FaultReport] = None
    #: Final per-core stats snapshots by core id. On a degraded
    #: parallel run, lost cores are absent.
    core_stats: Optional[Dict[int, CoreStats]] = None
    #: Merged overload loss ledger (:class:`repro.overload.LossLedger`)
    #: when an overload policy was active; None otherwise. Attributes
    #: every shed packet / downgraded connection to a ladder rung and
    #: filter-funnel layer.
    overload: Optional[object] = None
    #: Link-impairment ledger (:class:`repro.netem.ImpairmentLedger`)
    #: when ``config.impairment`` was enabled; None otherwise. Every
    #: packet the impaired link dropped, corrupted, duplicated or
    #: displaced is attributed here by cause and ingress link
    #: (:func:`repro.telemetry.check` chains it with every later fate).
    impairment: Optional[object] = None
    #: Merged burst-span report (:class:`repro.telemetry.spans
    #: .SpanReport`) when span tracing / the flight recorder / the
    #: continuous profiler were enabled; None otherwise. Carries the
    #: sampled span trees, per-stage self-time histograms, the
    #: hottest stage×filter-node table, and flight-recorder dumps.
    #: Span data lives here — never on ``stats`` — so
    #: ``AggregateStats`` stays byte-identical with spans on or off.
    spans: Optional[object] = None
    #: The per-tenant breakdown of a multi-tenant run, filled by
    #: :class:`repro.tenancy.TenantRuntime` (None on a plain runtime):
    #: ``epoch`` and ``active`` at the end of the run; by tenant name
    #: ``tenants`` (:class:`AggregateStats`), ``ladders`` (its
    #: pipelines' :class:`repro.overload.LossLedger` or None),
    #: ``metered`` (the multiplexer's quota/pressure ledger, metered
    #: tenants only), ``shed`` (the two merged) and ``not_subscribed``
    #: (packets that came while it was out of the table); ``offered``
    #: is what the multiplexers were handed.
    tenancy: Optional[dict] = None

    @property
    def out_of_memory(self) -> bool:
        return self.oom_at is not None

    @property
    def failed_fast(self) -> bool:
        """True when the overload policy aborted the run (the paper's
        §7 fail-fast exit, as an explicit opt-in policy)."""
        return self.overload is not None and \
            self.overload.failfast_at is not None

    @property
    def degraded(self) -> bool:
        """True when the run completed with partial results (one or
        more worker cores were lost past their restart budget)."""
        return self.faults is not None and self.faults.degraded


class Runtime:
    """One deployed subscription over a simulated NIC and CPU cores."""

    def __init__(
        self,
        config: "RuntimeConfig",
        filter_str: str = "",
        datatype="packet",
        callback: Optional[Callable] = None,
        subscription: Optional[Subscription] = None,
        identify_services: bool = False,
        ports: int = 1,
    ) -> None:
        if subscription is None:
            subscription = Subscription(
                filter_str,
                datatype,
                callback,
                filter_mode=config.filter_mode,
                nic=config.nic,
                identify_services=identify_services,
            )
        self.subscription = subscription
        if config.callback_execution == "queued":
            from repro.core.executor import QueuedExecutor
            self.executor = QueuedExecutor(
                subscription.callback, config.callback_cycles,
                workers=config.callback_workers,
                enqueue_cycles=config.enqueue_cycles,
            )
        else:
            from repro.core.executor import InlineExecutor
            self.executor = InlineExecutor(subscription.callback,
                                           config.callback_cycles)
        self._deploy(config, ports, subscription.filter.hardware, [
            CorePipeline(core, subscription, config, executor=self.executor)
            for core in range(config.cores)
        ])

    def _deploy(self, config: "RuntimeConfig", ports: int, hardware,
                pipelines: list) -> None:
        """What every kind of runtime is made of: the NICs with their
        flow rules installed (once), one pipeline per core, and the
        run's clocks."""
        self.config = config
        # The paper's testbed tapped two 100GbE links through two NICs
        # whose queues feed the same cores; `ports` models that. Port
        # *i* of every frame selects its NIC; symmetric RSS keeps flow
        # affinity regardless of which port a flow arrives on.
        self.nics: List[SimNic] = [
            SimNic(num_queues=config.cores) for _ in range(max(ports, 1))
        ]
        self.nic = self.nics[0]  # single-port convenience alias
        for nic in self.nics:
            if config.hardware_filter:
                nic.install_hardware_filter(hardware)
            if config.sink_fraction > 0:
                nic.set_sink_fraction(config.sink_fraction)
        self.pipelines = pipelines
        if config.reassemble_fragments:
            from repro.packet.fragments import FragmentReassembler
            self.fragment_reassembler = FragmentReassembler()
        else:
            self.fragment_reassembler = None
        self._first_ts: Optional[float] = None
        self._last_ts = 0.0
        self._last_memory_sample = 0.0

    # -- table swaps: a plain runtime schedules none --------------------
    #: Virtual time of the next scheduled reconfiguration, or None.
    next_reconfigure_ts: Optional[float] = None

    def publish_tenancy_events(self, ts: float) -> list:
        """The ``(epoch, actions)`` bumps due at virtual time ``ts``."""
        return []

    def tenant_wire_state(self) -> Optional[dict]:
        """The tenant table parallel workers rebuild, or None."""
        return None

    # ------------------------------------------------------------------
    def run(
        self,
        traffic: Iterable[Mbuf],
        drain: bool = True,
        memory_sample_interval: float = 1.0,
        monitor=None,
    ) -> RuntimeReport:
        """Process a traffic source to completion.

        With ``config.parallel`` set, the per-core pipelines execute on
        real OS worker processes (see :mod:`repro.core.parallel`);
        otherwise they run batched on the calling thread. Both backends
        produce identical filter/connection/session/callback counts for
        the same traffic.

        Args:
            traffic: Mbufs — or :class:`~repro.packet.batch.PackedBatch`
                chunks of them — in non-decreasing timestamp order.
            drain: Deliver still-live matched connections at the end
                (set False to model an ongoing live capture).
            memory_sample_interval: Virtual seconds between memory
                samples (Figure 8's time series).
            monitor: Optional
                :class:`~repro.core.monitor.StatsMonitor` receiving
                periodic snapshots (Section 5.3's live feedback).
        """
        # Accept batched sources: a traffic iterable may yield
        # PackedBatch chunks (a generator's flat-buffer output) instead
        # of — or mixed with — individual mbufs. Plain mbuf lists pass
        # through untouched, keeping the hot loop generator-free.
        # The impaired link wraps the source first — the physical link
        # precedes everything — and in this (parent) process, so the
        # impaired stream is identical across backends and worker
        # counts. Batched sources keep their shape: the link performs
        # PackedBatch surgery rather than flattening.
        impairment = self.config.impairment
        link = None
        if impairment is not None and impairment.enabled:
            from repro.netem import ImpairedLink
            link = ImpairedLink(impairment)
            traffic = link.wrap(traffic)
        from repro.packet.batch import iter_mbufs
        traffic = iter_mbufs(traffic)
        # Packet faults are injected here — in the feeding process,
        # before RSS dispatch — so the mutated stream is identical
        # across backends and worker counts.
        plan = self.config.fault_plan
        injector: Optional[PacketFaultInjector] = None
        if plan is not None and plan.has_packet_faults:
            injector = PacketFaultInjector(plan)
            traffic = injector.wrap(traffic)
        if self.config.parallel:
            from repro.core.parallel import run_parallel
            report = run_parallel(
                self, traffic, drain=drain,
                memory_sample_interval=memory_sample_interval,
                monitor=monitor, packet_injector=injector)
        else:
            report = self._run_sequential(traffic, drain,
                                          memory_sample_interval,
                                          monitor,
                                          packet_injector=injector)
        if link is not None:
            link.close()  # flush a recorded trace even on an abort
            report.impairment = link.ledger
        return report

    def _run_sequential(
        self,
        traffic: Iterable[Mbuf],
        drain: bool,
        memory_sample_interval: float,
        monitor,
        packet_injector: Optional[PacketFaultInjector] = None,
    ) -> RuntimeReport:
        oom_at: Optional[float] = None
        failfast_at: Optional[float] = None
        config = self.config
        # Fail-fast can only trip under the failfast policy or a ladder
        # allowed to climb to rung 4; skip the per-batch poll otherwise.
        ff_possible = config.overload_policy == "failfast" or (
            config.overload_policy == "ladder"
            and config.overload_max_rung >= 4)
        batch_size = config.parallel_batch_size
        pipelines = self.pipelines
        # The evict/shed policies keep cores under their share of the
        # limit themselves (at sample cadence, inside the pipelines);
        # only the historical "record" policy stops the run.
        memory_limit = config.memory_limit_bytes \
            if config.memory_policy == "record" else None
        # Per-queue pending rows: packets are routed immediately
        # (preserving per-flow arrival order even across ports) but run
        # through the pipeline in bursts, amortizing per-packet
        # dispatch overhead exactly like the parallel backend's IPC
        # batches.
        pending: List[list] = [[] for _ in pipelines]

        def flush() -> None:
            """Run every queued burst through its pipeline (sample
            points, table swaps and end-of-trace must see fully current
            pipeline state)."""
            for pipeline, rows in zip(pipelines, pending):
                if rows:
                    pipeline.process_batch_rows(rows)
                    rows.clear()

        # Monitoring is O(samples), not O(packets): the next virtual
        # deadline is tracked here and only compared per packet.
        next_monitor_ts: Optional[float] = \
            None if monitor is not None else float("inf")
        first = self._first_ts is None
        # Each ingress burst is decoded exactly *once* and — when the
        # filter is batch-expressible — filtered once: the columns are
        # shared with NIC dispatch and ride each row into its pipeline,
        # which decodes and filters nothing again. Every pipeline holds
        # the same compiled filter, so one verdict vector is valid for
        # all queues.
        ingress = ingress_rows(
            traffic, self.nics, batch_size, self.fragment_reassembler,
            config.columnar, pipelines[0]._pf_batch)
        # Live reconfiguration, exactly as the parallel feeder does it:
        # when virtual time reaches a scheduled event, flush every
        # pending burst (pre-event packets classify under the old
        # table), publish, and have every pipeline adopt the new
        # epoch(s) — so the first packet with ``timestamp >=
        # event.time`` observes the new table on both backends. The
        # NICs never reconfigure mid-run.
        next_event_ts = self.next_reconfigure_ts
        for row in ingress:  # (mbuf, queue, cols, i, verdict)
            ts = row[0].timestamp
            if first:
                first = False
                if self._first_ts is None:
                    self._first_ts = ts
                    self._last_memory_sample = ts
            if ts > self._last_ts:
                self._last_ts = ts
            if next_event_ts is not None and ts >= next_event_ts:
                flush()
                for epoch, actions in self.publish_tenancy_events(ts):
                    for pipeline in pipelines:
                        pipeline.apply_epoch(epoch, actions)
                next_event_ts = self.next_reconfigure_ts
            queue = row[1]
            if queue is HELD:
                continue  # fragment held pending completion
            if queue is not None:
                rows = pending[queue]
                rows.append(row)
                if len(rows) >= batch_size:
                    pipelines[queue].process_batch_rows(rows)
                    rows.clear()
                    if ff_possible and \
                            pipelines[queue].overload_failfast_at \
                            is not None:
                        # Sustained overload under the fail-fast policy:
                        # abort rather than silently corrupt results
                        # (PAPER §7), like the OOM cutoff below.
                        failfast_at = \
                            pipelines[queue].overload_failfast_at
                        break
            if next_monitor_ts is None or ts >= next_monitor_ts:
                flush()
                monitor.observe(self, ts)
                next_monitor_ts = ts + monitor.interval
            if ts - self._last_memory_sample >= memory_sample_interval:
                flush()
                self._last_memory_sample = ts
                self._sample_memory(ts)
                if memory_limit is not None and \
                        self.memory_bytes > memory_limit:
                    oom_at = ts
                    break
        flush()
        if ff_possible and failfast_at is None:
            # A trip on the final (or a monitor-flushed) partial batch.
            trips = [p.overload_failfast_at for p in pipelines
                     if p.overload_failfast_at is not None]
            if trips:
                failfast_at = min(trips)
        if oom_at is None and failfast_at is None:
            for pipeline in pipelines:
                pipeline.advance_time(self._last_ts)
            self._sample_memory(self._last_ts)
            if drain:
                for pipeline in pipelines:
                    pipeline.drain()
        if monitor is not None:
            # Flush the final partial interval — a run ending between
            # interval boundaries must not silently drop its tail.
            monitor.finalize(self._last_ts, self)
        if hasattr(self.executor, "finalize") and self._first_ts is not None:
            self.executor.finalize(
                max(self._last_ts - self._first_ts, 1e-9),
                config.cost_model.cpu_hz,
            )
        for pipeline in pipelines:
            pipeline.fold_fault_counters()
        return self.report({p.core_id: p.stats for p in pipelines},
                           oom_at, packet_injector)

    def report(self, core_stats: Dict[int, CoreStats],
               oom_at: Optional[float], packet_injector,
               supervisor=None,
               backend_health: Optional[dict] = None) -> RuntimeReport:
        """A finished run's report from its per-core stats: where both
        backends end. ``supervisor`` is the parallel backend's, whose
        restart events join the spans and the fault report."""
        config = self.config
        cores = [core_stats[core] for core in sorted(core_stats)]
        overload = spans = None
        if config.overload_policy != "off":
            from repro.overload import merge_ledgers
            overload = merge_ledgers(stats.overload for stats in cores)
        if config.span_sample > 0 or config.flight_recorder_depth > 0:
            from repro.telemetry.spans import build_span_report
            # Parent-side supervisor events (worker crash/restart) join
            # the workers' own trigger events; each synthesizes a
            # flight dump from that core's surviving ring.
            spans = build_span_report(
                cores,
                supervisor.failure_events if supervisor is not None
                else None,
                config.cost_model.cpu_hz,
                nic=[n.stats.to_dict() for n in self.nics])
        return RuntimeReport(
            stats=self.aggregate(core_stats=cores), oom_at=oom_at,
            backend_health=backend_health,
            faults=build_fault_report(
                config, core_stats, packet_injector,
                supervisor.summary() if supervisor is not None else None),
            core_stats=core_stats, overload=overload, spans=spans)

    def run_pcap(self, path, **kwargs) -> RuntimeReport:
        """Offline mode (Appendix B): stream a capture file through the
        pipeline without materializing it in memory."""
        from repro.traffic.pcap import iter_pcap
        return self.run(iter_pcap(path), **kwargs)

    # ------------------------------------------------------------------
    def _sample_memory(self, now: float) -> None:
        for pipeline in self.pipelines:
            pipeline.sample_memory()

    def core_progress(self) -> List[CoreProgress]:
        """One record per core: what ``monitor`` reads at a snapshot."""
        return [CoreProgress.of(p) for p in self.pipelines]

    @property
    def memory_bytes(self) -> int:
        return sum(p.memory_bytes for p in self.pipelines)

    @property
    def live_connections(self) -> int:
        return sum(p.live_connections for p in self.pipelines)

    def nic_ingress(self):
        """The link's ingress totals: ``(packets, bytes, hw_dropped,
        sink_dropped)`` over every port."""
        return (
            sum(n.stats.received_packets for n in self.nics),
            sum(n.stats.received_bytes for n in self.nics),
            sum(n.stats.hw_dropped_packets for n in self.nics),
            sum(n.stats.sink_dropped_packets for n in self.nics),
        )

    def aggregate(self, core_stats=None, ingress=None) -> AggregateStats:
        """Merge per-core stats into the report structure.

        Args:
            core_stats: Per-core :class:`CoreStats` to merge instead of
                this process's pipelines' — the parallel backend passes
                the snapshots returned by its worker processes.
            ingress: Optional override of :meth:`nic_ingress` — the
                multi-tenant runtime aggregates one tenant's core stats
                against the shared link's ingress, which the NIC cannot
                attribute per tenant.
        """
        if core_stats is None:
            core_stats = [pipeline.stats for pipeline in self.pipelines]
        duration = (self._last_ts - self._first_ts) \
            if self._first_ts is not None else 0.0
        ingress_packets, ingress_bytes, hw_dropped, sink_dropped = \
            ingress if ingress is not None else self.nic_ingress()
        cost_model = self.config.cost_model
        merged = CoreStats(cost_model)
        for stats in core_stats:
            merged.merge(stats)
        ledger = merged.ledger
        stage_cycles = {stage: ledger.cycles(stage) for stage in Stage}
        # Hardware filtering is charged zero CPU cycles but counts one
        # "invocation" per ingress packet (Figure 7's first bar).
        ledger.invocations[Stage.HARDWARE_FILTER] = ingress_packets
        if ledger.hist is not None:
            # Only explicit-cost charges are bucketed per invocation;
            # every other invocation cost exactly the model's constant.
            for stage, buckets in ledger.hist.items():
                buckets[hist_index(ledger.cost[stage])] += \
                    ledger.invocations[stage] - sum(buckets)
        return AggregateStats(
            cores=self.config.cores,
            cost_model=cost_model,
            duration=max(duration, 1e-9),
            ingress_packets=ingress_packets,
            ingress_bytes=ingress_bytes,
            hw_dropped_packets=hw_dropped,
            sink_dropped_packets=sink_dropped,
            stage_invocations=ledger.invocations,
            stage_cycles=stage_cycles,
            per_core_busy_seconds=[stats.ledger.busy_seconds
                                   for stats in core_stats],
            memory_samples=sorted(merged.memory_samples,
                                  key=lambda s: s[0]),
            fault_counters=merged.fault_counters,
            stage_cycle_hist=ledger.hist,
            reasm_hist=merged.reasm_hist,
            reasm_occ_sum=merged.reasm_occ_sum,
            reasm_peak_bytes=merged.reasm_peak_bytes,
            trace_events=merged.trace_events,
            **{AGGREGATE_NAMES.get(name, name): getattr(merged, name)
               for name in COUNTERS},
        )
