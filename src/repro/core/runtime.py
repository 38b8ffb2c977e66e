"""The Runtime: NIC + per-core pipelines + reporting (Figure 1's API).

A :class:`Runtime` wires a subscription (filter, data type, callback)
to the simulated NIC and one pipeline per core, then consumes a traffic
source — any iterable of :class:`~repro.packet.mbuf.Mbuf` in timestamp
order — and produces an :class:`AggregateStats` report with the
paper's metrics (offered rate, zero-loss ceiling, per-stage fractions,
memory samples).

The subscription is deployed as a one-entry filter table
(:class:`~repro.tenancy.table.FilterTable`); given ``tenants``, the
runtime deploys a table of named tenants instead, with its scheduled
and live swaps and the per-tenant reporting. Either way every core runs
one :class:`~repro.core.pipeline.CorePipeline` over the table, one lane
per active tenant. :class:`repro.tenancy.TenantRuntime` is the same
runtime under the tenant-table constructor's older name.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, \
    Optional, Sequence

if TYPE_CHECKING:  # avoid a config<->core import cycle at runtime
    from repro.config import RuntimeConfig
    from repro.tenancy.spec import ReconfigureEvent, TenantSpec
    from repro.tenancy.table import FilterTable
from repro.core.cycles import Stage, hist_index
from repro.core.monitor import CoreProgress
from repro.core.stats import AGGREGATE_NAMES, COUNTERS, AggregateStats, \
    CoreStats
from repro.core.subscription import Subscription
from repro.errors import TenancyError
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
    #: Resilience outcome (injections, policy actions), or None when
    #: nothing was configured and nothing happened. Deterministic for a
    #: fixed ``(seed, FaultPlan)``.
    faults: Optional[FaultReport] = None
    #: Final per-core stats snapshots by core id.
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
    #: The per-tenant breakdown of a run over named tenants
    #: (``Runtime(..., tenants=...)``; None for one subscription):
    #: ``epoch`` and ``active`` at the end of the run; by tenant name
    #: ``tenants`` (:class:`AggregateStats`), ``ladders`` (its lanes'
    #: :class:`repro.overload.LossLedger` or None), ``metered`` (the
    #: core loop's quota/pressure ledger, metered tenants only),
    #: ``shed`` (the two merged) and ``not_subscribed`` (packets that
    #: came while it was out of the table).
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


class Runtime:
    """Deployed subscriptions over a simulated NIC and CPU cores."""

    def __init__(
        self,
        config: "RuntimeConfig",
        filter_str: str = "",
        datatype="packet",
        callback: Optional[Callable] = None,
        subscription: Optional[Subscription] = None,
        identify_services: bool = False,
        ports: int = 1,
        tenants: Optional[Sequence["TenantSpec"]] = None,
        events: Sequence["ReconfigureEvent"] = (),
    ) -> None:
        """Deploy one subscription — ``subscription``, or one compiled
        from ``filter_str``/``datatype``/``callback`` — or, with
        ``tenants``, a table of named tenants and its scheduled swaps
        ``events`` (the subscription arguments are then unused)."""
        from repro.core.pipeline import CorePipeline, subscription_table
        from repro.tenancy.spec import check_events
        from repro.tenancy.table import FilterTable
        self.config = config
        hardware = None
        if tenants is None:
            if subscription is None:
                subscription = Subscription(
                    filter_str, datatype, callback,
                    filter_mode=config.filter_mode, nic=config.nic,
                    identify_services=identify_services)
            if config.callback_execution == "queued":
                from repro.core.executor import QueuedExecutor
                self.executor = QueuedExecutor(
                    subscription.callback, config.callback_cycles,
                    workers=config.callback_workers,
                    enqueue_cycles=config.enqueue_cycles)
            else:
                from repro.core.executor import InlineExecutor
                self.executor = InlineExecutor(subscription.callback,
                                               config.callback_cycles)
            self.table, compiled = subscription_table(
                subscription, config, self.executor)
            hardware = subscription.filter.hardware
        else:
            if config.callback_execution != "inline":
                raise TenancyError(
                    "multi-tenant runs require callback_execution="
                    "'inline' (each tenant lane owns its own inline "
                    "executor)")
            #: Callback executors are per tenant, inside the lanes.
            self.executor = None
            self.table, compiled = FilterTable(tenants), {}
        #: The table of named tenants as deployed, or None for one
        #: subscription: such a run reports its per-tenant breakdown,
        #: and pressure meters its tenants against each other.
        self.tenants = self.table if tenants is not None else None
        check_events(events, self.table.specs)
        #: Scheduled events still to fire, earliest first (stable for
        #: same-timestamp events: schedule order breaks the tie).
        self._events = sorted(events, key=lambda e: e.time)
        self.pressure_mbps = config.tenancy_pressure_mbps \
            if self.tenants is not None else None
        # The paper's testbed tapped two 100GbE links through two NICs
        # whose queues feed the same cores; `ports` models that. Port
        # *i* of every frame selects its NIC; symmetric RSS keeps flow
        # affinity regardless of which port a flow arrives on.
        self.nics: List[SimNic] = [
            SimNic(num_queues=config.cores) for _ in range(max(ports, 1))
        ]
        self.nic = self.nics[0]  # single-port convenience alias
        # One immutable hardware plane for a tenant table: the union of
        # every tenant it knows, dormant late joiners included, so an
        # epoch swap never touches the NIC.
        if config.hardware_filter and hardware is None:
            hardware = self._union_hardware()
        for nic in self.nics:
            if config.hardware_filter:
                nic.install_hardware_filter(hardware)
            if config.sink_fraction > 0:
                nic.set_sink_fraction(config.sink_fraction)
        # ``compiled`` is the cores' shared compile cache (see
        # ``CorePipeline``).
        self.pipelines = [
            CorePipeline(core, self.table, config,
                         pressure_mbps=self.pressure_mbps,
                         compiled=compiled)
            for core in range(config.cores)]
        if config.reassemble_fragments:
            from repro.packet.fragments import FragmentReassembler
            self.fragment_reassembler = FragmentReassembler()
        else:
            self.fragment_reassembler = None
        self._first_ts: Optional[float] = None
        self._last_ts = 0.0
        self._next_memory_sample = float("inf")

    def _union_hardware(self):
        """The union flow-rule set of every tenant the table knows."""
        from repro.filter import compile_filter
        from repro.tenancy.shared import union_hardware
        return union_hardware([
            compile_filter(spec.filter, mode=self.config.filter_mode)
            for spec in self.table.specs])

    # -- live reconfiguration ------------------------------------------
    def subscribe(self, spec) -> int:
        """Activate tenant ``spec`` on every local pipeline now;
        returns the new epoch. A swap that must land at a virtual time
        — or on worker processes — is a scheduled
        :class:`~repro.tenancy.spec.ReconfigureEvent`, which only names
        tenants declared up front. A tenant the table has never known,
        or a new filter under a known name, grows the union flow-rule
        set: the one case a swap reinstalls the NICs' rules."""
        known = self.table.by_name.get(spec.name)
        self.table = self.table.subscribe(spec)
        if known is None or known.filter != spec.filter:
            if self.config.hardware_filter:
                hardware = self._union_hardware()
                for nic in self.nics:
                    nic.install_hardware_filter(hardware)
        self._bump(self.table)
        return self.table.epoch

    def unsubscribe(self, name: str) -> int:
        """Deactivate tenant ``name``; its in-flight connections keep
        draining under their admission epoch. Returns the new epoch."""
        self.table = self.table.unsubscribe(name)
        self._bump(self.table)
        return self.table.epoch

    # -- the ingest loop's table protocol ------------------------------
    @property
    def next_reconfigure_ts(self) -> Optional[float]:
        """Virtual time of the next scheduled reconfiguration, or None."""
        return self._events[0].time if self._events else None

    def publish_tenancy_events(self, ts: float) -> List["FilterTable"]:
        """Apply every scheduled event due at virtual time ``ts`` to
        the live table; returns the successor tables to broadcast (one
        per event, in schedule order)."""
        tables = []
        while self._events and self._events[0].time <= ts:
            event = self._events.pop(0)  # names a known tenant
            self.table = self.table.unsubscribe(event.name) \
                if event.action == "drop" else \
                self.table.subscribe(self.table.by_name[event.name])
            tables.append(self.table)
        return tables

    # ------------------------------------------------------------------
    def run(
        self,
        traffic: Iterable[Mbuf],
        drain: bool = True,
        memory_sample_interval: float = 1.0,
        monitor=None,
    ) -> RuntimeReport:
        """Process a traffic source to completion.

        One ingest loop serves both backends. It routes every frame,
        queues per-queue bursts of ``config.parallel_batch_size`` rows,
        and owns every virtual-time decision: table swaps, monitor
        snapshots, memory sample points, the OOM and fail-fast cutoffs
        and the end of the run. A backend only runs what the loop hands
        it — this runtime's own pipelines on the calling thread, or,
        with ``config.parallel``, one OS worker process per core
        (:class:`repro.core.parallel.WorkerPool`) — so both see the
        same bursts and sample points and report identical stats.

        Args:
            traffic: Mbufs in non-decreasing timestamp order.
            drain: Deliver still-live matched connections at the end
                (set False to model an ongoing live capture).
            memory_sample_interval: Virtual seconds between memory
                samples (Figure 8's time series).
            monitor: Optional
                :class:`~repro.core.monitor.StatsMonitor` receiving
                periodic snapshots (Section 5.3's live feedback). It
                only observes: it reads per-core state as of the last
                dispatched burst and never changes the run.
        """
        config = self.config
        # The impaired link wraps the source first — the physical link
        # precedes everything — and in this (parent) process, so the
        # impaired stream is identical across backends and worker
        # counts.
        impairment = config.impairment
        link = None
        if impairment is not None and impairment.enabled:
            from repro.netem import ImpairedLink
            link = ImpairedLink(impairment)
            traffic = link.wrap(traffic)
        # Packet faults are injected here — in the feeding process,
        # before RSS dispatch — so the mutated stream is identical
        # across backends and worker counts.
        plan = config.fault_plan
        injector: Optional[PacketFaultInjector] = None
        if plan is not None and plan.has_packet_faults:
            injector = PacketFaultInjector(plan)
            traffic = injector.wrap(traffic)
        # The evict/shed policies keep cores under their share of the
        # limit themselves (at sample cadence, inside the pipelines);
        # only the historical "record" policy stops the run.
        memory_limit = config.memory_limit_bytes \
            if config.memory_policy == "record" else None
        if config.parallel:
            from repro.core.parallel import WorkerPool
            backend_context = WorkerPool(
                self, monitor,
                memory_sample_interval if memory_limit is not None
                else None)
        else:
            backend_context = nullcontext(self)
        oom_at: Optional[float] = None
        failfast_at: Optional[float] = None
        batch_size = config.parallel_batch_size
        # Per-queue pending rows: packets are routed immediately
        # (preserving per-flow arrival order even across ports) but
        # handed to the backend in bursts, amortizing per-packet
        # dispatch overhead (and, for workers, the IPC).
        pending: List[list] = [[] for _ in range(config.cores)]
        with backend_context as backend:
            burst = backend._burst

            def flush() -> None:
                """Hand every queued burst to the backend (sample
                points, table swaps and the end of the run must see
                fully current per-core state)."""
                for queue, rows in enumerate(pending):
                    if rows:
                        burst(queue, rows)
                        rows.clear()

            # Monitoring is O(samples), not O(packets): the next
            # virtual deadline is tracked here and only compared per
            # packet.
            next_monitor_ts: Optional[float] = \
                None if monitor is not None else float("inf")
            next_sample = self._next_memory_sample
            first = self._first_ts is None
            # Live reconfiguration: when virtual time reaches a
            # scheduled event, flush every pending burst (pre-event
            # packets classify under the old table), publish, and have
            # every core adopt the new epoch(s) — so the first packet
            # with ``timestamp >= event.time`` observes the new table.
            # The NICs never reconfigure mid-run.
            next_event_ts = self.next_reconfigure_ts
            for row in ingress_rows(  # (mbuf, queue, cols, i)
                    traffic, self.nics, batch_size,
                    self.fragment_reassembler, config.columnar):
                ts = row[0].timestamp
                if first:
                    first = False
                    self._first_ts = ts
                    next_sample = ts + memory_sample_interval
                if ts > self._last_ts:
                    self._last_ts = ts
                if next_event_ts is not None and ts >= next_event_ts:
                    flush()
                    for table in self.publish_tenancy_events(ts):
                        backend._bump(table)
                    next_event_ts = self.next_reconfigure_ts
                queue = row[1]
                if queue is HELD:
                    continue  # fragment held pending completion
                if queue is not None:
                    rows = pending[queue]
                    rows.append(row)
                    if len(rows) >= batch_size:
                        failfast_at = burst(queue, rows)
                        rows.clear()
                        if failfast_at is not None:
                            # Sustained overload under the fail-fast
                            # policy: abort rather than silently corrupt
                            # results (PAPER §7), like the OOM cutoff.
                            break
                if next_monitor_ts is None or ts >= next_monitor_ts:
                    monitor.observe(backend, ts)
                    next_monitor_ts = ts + monitor.interval
                if ts >= next_sample:
                    # Parent-clocked sample point: every core samples
                    # after exactly the bursts routed before it.
                    next_sample = ts + memory_sample_interval
                    flush()
                    backend._sample_point()
                    if memory_limit is not None and \
                            backend.memory_bytes > memory_limit:
                        oom_at = ts
                        break
            self._next_memory_sample = next_sample
            flush()
            # On a cutoff the cores neither advance time nor drain.
            core_stats, health = backend._finish(
                self._last_ts if oom_at is None and failfast_at is None
                else None, drain)
            if monitor is not None:
                # Record the final partial interval — a run ending
                # between interval boundaries must not silently drop
                # its tail.
                monitor.finalize(self._last_ts, backend)
        report = self.report(core_stats, oom_at, injector, health)
        if link is not None:
            link.close()  # flush a recorded trace even on an abort
            report.impairment = link.ledger
        if self.tenants is not None:
            report.tenancy = self._tenancy(report)
        return report

    # -- the loop's sequential backend (WorkerPool is its parallel one)
    def _burst(self, queue: int, rows: list) -> Optional[float]:
        """Run one burst through its core's pipeline; returns the
        virtual time that core tripped fail-fast, or None."""
        pipeline = self.pipelines[queue]
        pipeline.process_batch_rows(rows)
        return pipeline.overload_failfast_at

    def _bump(self, table: "FilterTable") -> None:
        for pipeline in self.pipelines:
            pipeline.adopt(table)

    def _sample_point(self) -> None:
        for pipeline in self.pipelines:
            pipeline.sample_memory()

    def _finish(self, last_ts: Optional[float], drain: bool):
        """End of run: ``(core_stats, backend_health)``.
        ``last_ts`` is None after a cutoff; a trip on a burst the loop
        did not check (a flushed partial one) is a cutoff too."""
        pipelines = self.pipelines
        if last_ts is not None and all(
                p.overload_failfast_at is None for p in pipelines):
            for pipeline in pipelines:
                pipeline.advance_time(last_ts)
            self._sample_point()
            if drain:
                for pipeline in pipelines:
                    pipeline.drain()
        if hasattr(self.executor, "finalize") and self._first_ts is not None:
            self.executor.finalize(
                max(self._last_ts - self._first_ts, 1e-9),
                self.config.cost_model.cpu_hz,
            )
        for pipeline in pipelines:
            pipeline.fold_fault_counters()
        return {p.core_id: p.stats for p in pipelines}, None

    def report(self, core_stats: Dict[int, CoreStats],
               oom_at: Optional[float], packet_injector,
               backend_health: Optional[dict] = None) -> RuntimeReport:
        """A finished run's report from its per-core stats: where both
        backends end."""
        config = self.config
        cores = [core_stats[core] for core in sorted(core_stats)]
        overload = spans = None
        if config.overload_policy != "off":
            from repro.overload import merge_ledgers
            overload = merge_ledgers(stats.overload for stats in cores)
        if config.span_sample > 0 or config.flight_recorder_depth > 0:
            from repro.telemetry.spans import build_span_report
            spans = build_span_report(
                cores, config.cost_model.cpu_hz,
                nic=[n.stats.to_dict() for n in self.nics])
        return RuntimeReport(
            stats=self.aggregate(cores), oom_at=oom_at,
            backend_health=backend_health,
            faults=build_fault_report(config, core_stats, packet_injector),
            core_stats=core_stats, overload=overload, spans=spans)

    def run_pcap(self, path, **kwargs) -> RuntimeReport:
        """Offline mode (Appendix B): stream a capture file through the
        pipeline without materializing it in memory."""
        from repro.traffic.pcap import iter_pcap
        return self.run(iter_pcap(path), **kwargs)

    # ------------------------------------------------------------------
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

    def aggregate(self, core_stats) -> AggregateStats:
        """Merge per-core :class:`CoreStats` — the whole run's, or one
        tenant's — into the report structure, framed against the
        shared link's ingress (which the NIC cannot attribute per
        tenant)."""
        duration = (self._last_ts - self._first_ts) \
            if self._first_ts is not None else 0.0
        ingress_packets, ingress_bytes, hw_dropped, sink_dropped = \
            self.nic_ingress()
        cost_model = self.config.cost_model
        merged = CoreStats(cost_model)
        for stats in core_stats:
            merged.merge(stats)
        ledger = merged.ledger
        stage_cycles = {stage: ledger.cycles(stage) for stage in Stage}
        # The hardware filter runs on the NIC: no core pays for it, and
        # it runs once per ingress packet (Figure 7's first bar).
        stage_invocations = ledger.invocations
        stage_invocations[Stage.HARDWARE_FILTER] = ingress_packets
        if ledger.hist is not None:
            # Only explicit-cost charges are bucketed per invocation;
            # every other invocation cost exactly the stage's constant.
            for stage, buckets in ledger.hist.items():
                buckets[hist_index(ledger.cost[stage])] += \
                    stage_invocations[stage] - sum(buckets)
        return AggregateStats(
            cores=self.config.cores,
            cost_model=cost_model,
            duration=max(duration, 1e-9),
            ingress_packets=ingress_packets,
            ingress_bytes=ingress_bytes,
            hw_dropped_packets=hw_dropped,
            sink_dropped_packets=sink_dropped,
            stage_invocations=stage_invocations,
            stage_cycles=stage_cycles,
            per_core_busy_seconds=[stats.ledger.busy_seconds
                                   for stats in core_stats],
            memory_samples=merged.memory_samples.sorted(),
            fault_counters=merged.fault_counters,
            stage_cycle_hist=ledger.hist,
            reasm_hist=merged.reasm_hist,
            reasm_occ_sum=merged.reasm_occ_sum,
            reasm_peak_bytes=merged.reasm_peak_bytes,
            trace_events=merged.trace_events,
            **{AGGREGATE_NAMES.get(name, name): getattr(merged, name)
               for name in COUNTERS},
        )

    # -- per-tenant reporting ------------------------------------------
    def _tenancy(self, report: RuntimeReport) -> dict:
        """``report.tenancy``: exporters and the fate table read the
        per-tenant breakdown there and need no runtime."""
        from repro.overload import merge_ledgers
        cores = list((report.core_stats or {}).values())
        names = self._tenant_stats(report)
        return {
            "epoch": self.table.epoch,
            "active": list(self.table.active),
            "tenants": self.aggregate_tenants(report),
            "shed": self.tenant_ledgers(report),
            "ladders": {name: merge_ledgers(stats.overload
                                            for stats in names[name])
                        for name in names},
            "metered": {name: merge_ledgers(core.tenant_shed.get(name)
                                            for core in cores)
                        for name in names
                        if any(name in core.tenant_shed for core in cores)},
            "not_subscribed": {name: sum(core.not_subscribed.get(name, 0)
                                         for core in cores)
                               for name in names},
        }

    def _tenant_stats(self, report: RuntimeReport
                      ) -> Dict[str, List[CoreStats]]:
        """Per tenant, its stats on every core that ran it, in core
        order."""
        per: Dict[str, List[CoreStats]] = {}
        for core_id in sorted(report.core_stats or {}):
            bundle = report.core_stats[core_id]
            for name in sorted(bundle.per_tenant):
                per.setdefault(name, []).append(bundle.per_tenant[name])
        return per

    def aggregate_tenants(self, report: RuntimeReport
                          ) -> Dict[str, AggregateStats]:
        """Per-tenant :class:`AggregateStats` from a run's core
        bundles. Every tenant that was active at any point appears —
        including tenants dropped mid-run, whose drained stats are
        frozen at their last admitted epoch."""
        return {name: self.aggregate(stats) for name, stats
                in self._tenant_stats(report).items()}

    def tenant_ledgers(self, report: RuntimeReport) -> Dict[str, object]:
        """Per-tenant merged loss ledgers (lane overload sheds plus
        quota/pressure sheds charged by the core loop); tenants with
        no ledger activity are absent. ``packets_seen`` is every packet
        the tenant was offered: what its lanes were fed on every
        core — ladder or not, shedding or not — plus what the
        loop shed before them."""
        from repro.overload import merge_ledgers
        cores = list((report.core_stats or {}).values())
        out: Dict[str, object] = {}
        for name, stats in self._tenant_stats(report).items():
            mux = merge_ledgers(core.tenant_shed.get(name)
                                for core in cores)
            ledger = merge_ledgers([s.overload for s in stats] + [mux])
            if ledger is not None:
                ledger.packets_seen = sum(s.packets for s in stats) + (
                    mux.packets_shed if mux is not None else 0)
                out[name] = ledger
        return out
