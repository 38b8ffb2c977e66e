"""Telemetry exporters: Prometheus text and NDJSON trace streams.

``build_registry`` turns one run's merged :class:`AggregateStats` into a
:class:`~repro.telemetry.registry.MetricsRegistry`; ``write_metrics``
and ``write_trace`` put the two export formats on disk for the CLI's
``--metrics-out`` / ``--trace-out`` flags.

Both exports are deterministic: metric families render in sorted order,
volatile (machine-dependent) backend-health metrics are excluded unless
asked for, and trace events are sorted into their canonical order — so
the sequential and parallel backends produce byte-identical files for
the same traffic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, List, Optional, Union

from repro.core.cycles import CYCLE_HIST_BOUNDS, Stage
from repro.core.stats import REASM_HIST_BOUNDS, AggregateStats
from repro.telemetry.funnel import build_funnel
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import trace_event_dicts


def build_registry(stats: AggregateStats,
                   backend_health: Optional[dict] = None,
                   faults: Optional[object] = None,
                   overload: Optional[object] = None,
                   impairment: Optional[object] = None,
                   tenancy: Optional[dict] = None,
                   ) -> MetricsRegistry:
    """Populate a metrics registry from one run's aggregate stats.

    ``backend_health`` is the parallel backend's (volatile) health
    snapshot — per-worker queue-depth high-water marks, batch occupancy,
    and feeder block time. Its metrics are registered ``volatile=True``
    so the default rendering stays identical across backends.

    ``faults`` is the run's :class:`repro.resilience.FaultReport` (or
    None). Resilience metric families render only when the run had
    resilience activity, so plain runs keep their pre-resilience
    byte-identical output.

    ``overload`` is the run's merged :class:`repro.overload.LossLedger`
    (or None). Like the resilience families, overload families render
    only when the ladder was armed, and truncation families only when a
    reassembly buffer actually overflowed.

    ``impairment`` is the run's :class:`repro.netem.ImpairmentLedger`
    (or None). Impairment families render only when the link was
    impaired, so clean runs keep byte-identical output.

    ``tenancy`` carries a multi-tenant run's per-tenant breakdown:
    ``{"epoch": int, "active": [names], "tenants": {name:
    AggregateStats}, "shed": {name: LossLedger}}``. The
    ``repro_tenant_*`` / ``repro_tenancy_*`` families render only when
    it is given, so single-tenant runs — including a multi-tenant
    binary run with the flag off — keep byte-identical output.
    """
    reg = MetricsRegistry()

    # -- the filter funnel -------------------------------------------------
    fpkts = reg.counter("repro_funnel_packets_total",
                        "Packets entering/surviving each filter layer",
                        label_names=("layer", "edge"))
    fbytes = reg.counter("repro_funnel_bytes_total",
                         "Bytes entering/surviving each filter layer",
                         label_names=("layer", "edge"))
    fdrop = reg.counter("repro_funnel_dropped_packets_total",
                        "Packets discarded at each filter layer",
                        label_names=("layer",))
    for layer in build_funnel(stats):
        fpkts.inc(layer.packets_in, labels=(layer.layer, "in"))
        fpkts.inc(layer.packets_out, labels=(layer.layer, "out"))
        fbytes.inc(layer.bytes_in, labels=(layer.layer, "in"))
        fbytes.inc(layer.bytes_out, labels=(layer.layer, "out"))
        fdrop.inc(layer.dropped_packets, labels=(layer.layer,))

    # -- traffic totals ----------------------------------------------------
    pkts = reg.counter("repro_packets_total",
                       "Packet dispositions at the NIC boundary",
                       label_names=("disposition",))
    pkts.inc(stats.ingress_packets, labels=("ingress",))
    pkts.inc(stats.hw_dropped_packets, labels=("hw_dropped",))
    pkts.inc(stats.sink_dropped_packets, labels=("sink_dropped",))
    pkts.inc(stats.processed_packets, labels=("processed",))
    reg.counter("repro_bytes_total", "Bytes offered to the NIC") \
        .inc(stats.ingress_bytes)

    # -- pipeline internals ------------------------------------------------
    inv = reg.counter("repro_stage_invocations_total",
                      "Pipeline stage invocations",
                      label_names=("stage",))
    cyc = reg.counter("repro_stage_cycles_total",
                      "Virtual CPU cycles charged per stage",
                      label_names=("stage",))
    for stage in Stage:
        inv.inc(stats.stage_invocations[stage], labels=(stage.value,))
        cyc.inc(stats.stage_cycles[stage], labels=(stage.value,))

    if stats.stage_cycle_hist is not None:
        hist = reg.histogram(
            "repro_stage_cost_cycles",
            "Per-invocation cycle cost distribution per stage",
            buckets=CYCLE_HIST_BOUNDS, label_names=("stage",))
        for stage in Stage:
            counts = stats.stage_cycle_hist[stage]
            if sum(counts):
                hist.load(counts, stats.stage_cycles[stage],
                          labels=(stage.value,))

    if stats.reasm_hist is not None:
        reg.histogram(
            "repro_reassembly_occupancy_bytes",
            "Reassembly-buffer occupancy at memory-sample points",
            buckets=REASM_HIST_BOUNDS,
        ).load(stats.reasm_hist, float(stats.reasm_occ_sum))
    reg.gauge("repro_reassembly_peak_bytes",
              "Peak reassembly-buffer occupancy") \
        .set(stats.reasm_peak_bytes)

    # -- connections, sessions, delivery -----------------------------------
    conns = reg.counter("repro_connections_total",
                        "Connection lifecycle outcomes",
                        label_names=("event",))
    conns.inc(stats.conns_created, labels=("created",))
    conns.inc(stats.conns_delivered, labels=("delivered",))
    conns.inc(stats.conns_discarded, labels=("discarded",))
    conns.inc(stats.conns_expired, labels=("expired",))
    reg.counter("repro_probe_giveups_total",
                "Connections whose protocol probe hit the byte limit") \
        .inc(stats.probe_giveups)
    sessions = reg.counter("repro_sessions_total",
                           "Application-layer sessions",
                           label_names=("outcome",))
    sessions.inc(stats.sessions_parsed, labels=("parsed",))
    sessions.inc(stats.sessions_matched, labels=("matched",))
    reg.counter("repro_callbacks_total", "Subscription callback runs") \
        .inc(stats.callbacks)

    # -- run-level gauges --------------------------------------------------
    reg.gauge("repro_run_duration_seconds",
              "Virtual duration of the processed traffic") \
        .set(stats.duration)
    reg.gauge("repro_offered_rate_gbps", "Offered ingress bit-rate") \
        .set(stats.offered_rate_gbps)
    reg.gauge("repro_memory_peak_bytes",
              "Peak tracked connection-state memory") \
        .set(stats.peak_memory_bytes)
    reg.gauge("repro_live_connections_peak",
              "Peak live connections") \
        .set(stats.peak_live_connections)

    # -- resilience (repro.resilience) -------------------------------------
    resilience_active = bool(
        faults is not None or stats.callback_errors
        or stats.callbacks_suppressed or stats.parser_exceptions
        or stats.conns_evicted or stats.conns_shed or stats.fault_counters
    )
    if resilience_active:
        events = reg.counter(
            "repro_resilience_events_total",
            "Degradation events absorbed by resilience policies",
            label_names=("event",))
        events.inc(stats.callback_errors, labels=("callback_error",))
        events.inc(stats.callbacks_suppressed,
                   labels=("callback_suppressed",))
        events.inc(stats.parser_exceptions, labels=("parser_exception",))
        events.inc(stats.conns_evicted, labels=("conn_evicted",))
        events.inc(stats.conns_shed, labels=("conn_shed",))
        injected = reg.counter("repro_faults_injected_total",
                               "Faults injected by the active fault plan",
                               label_names=("kind",))
        fault_counts = dict(stats.fault_counters)
        if faults is not None:
            for kind, count in getattr(faults, "injected", {}).items():
                fault_counts.setdefault(kind, count)
        for kind in sorted(fault_counts):
            injected.inc(fault_counts[kind], labels=(kind,))
        if faults is not None:
            reg.counter("repro_worker_restarts_total",
                        "Crashed or hung workers restarted") \
                .inc(faults.worker_restarts)
            replay = reg.counter("repro_replayed_batches_total",
                                 "Redo-log batches by replay outcome",
                                 label_names=("outcome",))
            replay.inc(faults.replayed_batches, labels=("replayed",))
            replay.inc(faults.unreplayable_batches,
                       labels=("unreplayable",))
            reg.gauge("repro_quarantined_cores",
                      "Cores whose subscription callback is quarantined") \
                .set(len(faults.quarantined_cores))
            reg.gauge("repro_lost_cores",
                      "Cores that exhausted their restart budget") \
                .set(len(faults.lost_cores))
            reg.gauge("repro_run_degraded",
                      "1 when the run completed with partial results") \
                .set(1 if faults.degraded else 0)

    # -- overload ladder (repro.overload) ----------------------------------
    if overload is not None:
        from repro.overload import RUNG_NAMES

        shed_p = reg.counter(
            "repro_overload_shed_packets_total",
            "Packets shed by overload admission control, by ladder rung",
            label_names=("rung",))
        shed_b = reg.counter(
            "repro_overload_shed_bytes_total",
            "Wire bytes shed by overload admission control, by rung",
            label_names=("rung",))
        for rung, name in enumerate(RUNG_NAMES):
            if overload.shed_packets[rung]:
                shed_p.inc(overload.shed_packets[rung], labels=(name,))
                shed_b.inc(overload.shed_bytes[rung], labels=(name,))
        layer_p = reg.counter(
            "repro_overload_shed_layer_packets_total",
            "Packets shed, attributed to the filter-funnel layer that "
            "would have processed them", label_names=("layer",))
        for layer in sorted(overload.layer_packets):
            layer_p.inc(overload.layer_packets[layer], labels=(layer,))
        reg.counter("repro_overload_conns_downgraded_total",
                    "Established connections downgraded by the rung-3 "
                    "circuit breaker") \
            .inc(overload.conns_downgraded)
        transitions = reg.counter(
            "repro_overload_rung_transitions_total",
            "Ladder transitions into each rung", label_names=("rung",))
        rung_time = reg.gauge(
            "repro_overload_rung_seconds",
            "Virtual seconds spent on each ladder rung",
            label_names=("rung",))
        entered = [0] * len(RUNG_NAMES)
        for _, _, to_rung, _, _ in overload.transitions:
            entered[to_rung] += 1
        for rung, name in enumerate(RUNG_NAMES):
            if entered[rung]:
                transitions.inc(entered[rung], labels=(name,))
            if overload.rung_time[rung]:
                rung_time.set(overload.rung_time[rung], labels=(name,))
        reg.gauge("repro_overload_failfast",
                  "1 when the run aborted via the failfast rung") \
            .set(0 if overload.failfast_at is None else 1)

    # -- link impairment (repro.netem) -------------------------------------
    if impairment is not None:
        offered = reg.counter(
            "repro_impair_offered_packets_total",
            "Packets the impaired link was offered, by outcome",
            label_names=("outcome",))
        offered.inc(impairment.offered, labels=("offered",))
        offered.inc(impairment.delivered, labels=("delivered",))
        offered.inc(impairment.duplicated, labels=("duplicated",))
        ibytes = reg.counter(
            "repro_impair_bytes_total",
            "Wire bytes through the impaired link, by outcome",
            label_names=("outcome",))
        ibytes.inc(impairment.offered_bytes, labels=("offered",))
        ibytes.inc(impairment.delivered_bytes, labels=("delivered",))
        drop = reg.counter(
            "repro_impair_dropped_packets_total",
            "Packets lost on the impaired link, by cause",
            label_names=("cause",))
        drop_b = reg.counter(
            "repro_impair_dropped_bytes_total",
            "Wire bytes lost on the impaired link, by cause",
            label_names=("cause",))
        for cause in sorted(impairment.dropped):
            if impairment.dropped[cause]:
                drop.inc(impairment.dropped[cause], labels=(cause,))
                drop_b.inc(impairment.dropped_bytes[cause],
                           labels=(cause,))
        mangled = reg.counter(
            "repro_impair_corrupted_packets_total",
            "Frames with flipped bits, by detectability",
            label_names=("mode",))
        if impairment.corrupted:
            mangled.inc(impairment.corrupted - impairment.corrupted_silent,
                        labels=("detectable",))
            mangled.inc(impairment.corrupted_silent, labels=("silent",))
        if impairment.reordered:
            reg.counter("repro_impair_reordered_packets_total",
                        "Frames delivered out of their offered order") \
                .inc(impairment.reordered)
        if impairment.delayed:
            reg.counter("repro_impair_delayed_packets_total",
                        "Frames whose timestamp absorbed link jitter") \
                .inc(impairment.delayed)
        link_off = reg.counter(
            "repro_impair_link_packets_total",
            "Per-ingress-link packet attribution",
            label_names=("link", "outcome"))
        disables = reg.counter(
            "repro_impair_link_disables_total",
            "Disable-and-repair cycles triggered per ingress link",
            label_names=("link",))
        for port in sorted(impairment.per_link):
            row = impairment.per_link[port]
            link = str(port)
            for outcome in ("offered", "delivered", "loss",
                            "corrupted", "quarantine", "link_disabled"):
                if row.get(outcome):
                    link_off.inc(row[outcome], labels=(link, outcome))
            if row.get("disables"):
                disables.inc(row["disables"], labels=(link,))
        reg.gauge("repro_impair_goodput_fraction",
                  "Delivered / offered wire bytes on the impaired link") \
            .set(round(impairment.goodput_fraction, 9))

    if stats.reasm_truncations:
        reg.counter("repro_reassembly_truncations_total",
                    "Stream segments dropped on reassembly-buffer "
                    "overflow (explicit truncation events)") \
            .inc(stats.reasm_truncations)
        reg.counter("repro_reassembly_truncated_bytes_total",
                    "Payload bytes lost to reassembly truncation") \
            .inc(stats.reasm_truncated_bytes)

    # -- reassembly discard accounting (satellite: previously silent) ------
    reasm_discards = (stats.reasm_dup_segments + stats.reasm_overlap_segments
                      + stats.reasm_stale_retransmits
                      + stats.reasm_overflow_drops)
    if reasm_discards:
        disc = reg.counter(
            "repro_reassembly_discarded_segments_total",
            "Segments (or segment fragments) the lazy reassembler "
            "discarded, by kind: duplicate retransmits, partial "
            "overlaps (tail forwarded), held copies superseded by a "
            "racing retransmit, and out-of-order window overflows",
            label_names=("kind",))
        for kind, value in (
                ("duplicate", stats.reasm_dup_segments),
                ("overlap", stats.reasm_overlap_segments),
                ("stale_retransmit", stats.reasm_stale_retransmits),
                ("window_overflow", stats.reasm_overflow_drops)):
            if value:
                disc.inc(value, labels=(kind,))
    if stats.reasm_window_grows or stats.reasm_window_shrinks:
        adapt = reg.counter(
            "repro_reassembly_window_resizes_total",
            "Adaptive out-of-order window resizes, by direction",
            label_names=("direction",))
        if stats.reasm_window_grows:
            adapt.inc(stats.reasm_window_grows, labels=("grow",))
        if stats.reasm_window_shrinks:
            adapt.inc(stats.reasm_window_shrinks, labels=("shrink",))

    # -- parallel backend health (volatile: wall-clock/schedule noise) -----
    if backend_health is not None:
        reg.gauge("repro_feeder_block_seconds",
                  "Wall-clock seconds the feeder spent blocked on full "
                  "worker rings", volatile=True) \
            .set(backend_health.get("feeder_block_seconds", 0.0))
        reg.counter("repro_ipc_bytes_total",
                    "Serialized bytes shipped feeder->workers "
                    "(descriptors, plus control-channel batches)",
                    volatile=True) \
            .inc(backend_health.get("ipc_bytes", 0))
        reg.gauge("repro_ipc_bytes_per_packet",
                  "Average serialized IPC bytes per dispatched packet "
                  "(8-byte descriptors; frames are written in place)",
                  volatile=True) \
            .set(backend_health.get("ipc_bytes_per_packet", 0.0))
        qhw = reg.gauge("repro_worker_queue_highwater",
                        "Per-worker input ring depth high-water mark "
                        "(batches)", label_names=("worker",),
                        volatile=True)
        batches = reg.counter("repro_worker_batches_total",
                              "Batches dispatched to each worker",
                              label_names=("worker",), volatile=True)
        occ = reg.gauge("repro_worker_batch_occupancy_max",
                        "Largest batch (packets) each worker received",
                        label_names=("worker",), volatile=True)
        rhw = reg.gauge("repro_worker_ring_highwater",
                        "Per-worker descriptor-ring occupancy "
                        "high-water mark (entries)",
                        label_names=("worker",), volatile=True)
        starv = reg.counter("repro_worker_slot_starvation_total",
                            "Times the feeder blocked waiting for "
                            "a free mempool slot, per worker",
                            label_names=("worker",), volatile=True)
        for row in backend_health.get("workers", ()):
            worker = str(row["worker"])
            # The ring is the worker's input queue: one depth, kept
            # under the older family name too.
            qhw.set(row.get("ring_highwater", 0), labels=(worker,))
            rhw.set(row.get("ring_highwater", 0), labels=(worker,))
            batches.inc(row.get("batches", 0), labels=(worker,))
            occ.set(row.get("batch_occupancy_max", 0), labels=(worker,))
            starv.inc(row.get("slot_starvation_waits", 0),
                      labels=(worker,))
        reg.gauge("repro_slot_starvation_seconds",
                  "Wall-clock seconds the feeder spent blocked on "
                  "slot/ring exhaustion across all workers",
                  volatile=True) \
            .set(backend_health.get("slot_starvation_seconds", 0.0))

    # -- multi-tenant breakdown (repro.tenancy) ----------------------------
    if tenancy is not None:
        reg.gauge("repro_tenancy_epoch",
                  "Filter-table epoch at the end of the run") \
            .set(tenancy.get("epoch", 0))
        active = set(tenancy.get("active", ()))
        tenants = tenancy.get("tenants", {})
        shed_ledgers = tenancy.get("shed", {})
        tactive = reg.gauge("repro_tenant_active",
                            "1 when the tenant is subscribed at the "
                            "final epoch", label_names=("tenant",))
        tfun = reg.counter("repro_tenant_funnel_packets_total",
                           "Per-tenant packets entering/surviving each "
                           "filter layer",
                           label_names=("tenant", "layer", "edge"))
        tdrop = reg.counter(
            "repro_tenant_funnel_dropped_packets_total",
            "Per-tenant packets discarded at each filter layer",
            label_names=("tenant", "layer"))
        tcb = reg.counter("repro_tenant_callbacks_total",
                          "Per-tenant subscription callback runs",
                          label_names=("tenant",))
        tconn = reg.counter("repro_tenant_connections_total",
                            "Per-tenant connection lifecycle outcomes",
                            label_names=("tenant", "event"))
        for name in sorted(tenants):
            tstats = tenants[name]
            tactive.set(1 if name in active else 0, labels=(name,))
            for layer in build_funnel(tstats):
                tfun.inc(layer.packets_in,
                         labels=(name, layer.layer, "in"))
                tfun.inc(layer.packets_out,
                         labels=(name, layer.layer, "out"))
                tdrop.inc(layer.dropped_packets,
                          labels=(name, layer.layer))
            tcb.inc(tstats.callbacks, labels=(name,))
            tconn.inc(tstats.conns_created, labels=(name, "created"))
            tconn.inc(tstats.conns_delivered,
                      labels=(name, "delivered"))
            tconn.inc(tstats.conns_discarded,
                      labels=(name, "discarded"))
            tconn.inc(tstats.conns_expired, labels=(name, "expired"))
        if shed_ledgers:
            tshed = reg.counter(
                "repro_tenant_shed_packets_total",
                "Packets shed by per-tenant quota/pressure metering",
                label_names=("tenant", "layer"))
            tshed_b = reg.counter(
                "repro_tenant_shed_bytes_total",
                "Bytes shed by per-tenant quota/pressure metering",
                label_names=("tenant",))
            for name in sorted(shed_ledgers):
                ledger = shed_ledgers[name]
                for layer in sorted(ledger.layer_packets):
                    tshed.inc(ledger.layer_packets[layer],
                              labels=(name, layer))
                tshed_b.inc(ledger.bytes_shed, labels=(name,))
    return reg


def render_metrics(stats: AggregateStats,
                   backend_health: Optional[dict] = None,
                   include_volatile: bool = False,
                   faults: Optional[object] = None,
                   overload: Optional[object] = None,
                   impairment: Optional[object] = None,
                   tenancy: Optional[dict] = None) -> str:
    """The run's metrics in the Prometheus text exposition format."""
    return build_registry(stats, backend_health, faults=faults,
                          overload=overload, impairment=impairment,
                          tenancy=tenancy) \
        .render_prometheus(include_volatile=include_volatile)


def write_metrics(path: Union[str, Path], stats: AggregateStats,
                  backend_health: Optional[dict] = None,
                  include_volatile: bool = False,
                  faults: Optional[object] = None,
                  overload: Optional[object] = None,
                  impairment: Optional[object] = None,
                  tenancy: Optional[dict] = None) -> None:
    Path(path).write_text(
        render_metrics(stats, backend_health, include_volatile,
                       faults=faults, overload=overload,
                       impairment=impairment, tenancy=tenancy))


def trace_lines(stats: AggregateStats) -> List[str]:
    """The run's sampled trace as NDJSON lines (canonical order)."""
    return [json.dumps(record, separators=(",", ":"), sort_keys=True)
            for record in trace_event_dicts(stats.trace_events)]


def write_trace(sink: Union[str, Path, IO[str]], stats: AggregateStats,
                batch_size: int = 256) -> int:
    """Write the sampled connection traces as an NDJSON event stream.

    Reuses the analysis log writer's buffering so multi-thousand-event
    traces do not pay one write syscall per line. Returns the number of
    events written.
    """
    from repro.analysis.logwriter import BufferedLineWriter
    lines = trace_lines(stats)
    with BufferedLineWriter(sink, batch_size=batch_size) as writer:
        for line in lines:
            writer.write_line(line)
    return len(lines)


def overload_lines(ledger) -> List[str]:
    """A merged :class:`repro.overload.LossLedger` as NDJSON lines.

    Deterministic order: per-rung shed summaries, per-layer
    attribution, every ladder transition (already merge-sorted by
    virtual time), then one run summary line.
    """
    from repro.overload import RUNG_NAMES

    records: List[dict] = []
    for rung, name in enumerate(RUNG_NAMES):
        if ledger.shed_packets[rung]:
            records.append({"event": "shed", "rung": name,
                            "packets": ledger.shed_packets[rung],
                            "bytes": ledger.shed_bytes[rung]})
    for layer in sorted(ledger.layer_packets):
        records.append({"event": "shed_layer", "layer": layer,
                        "packets": ledger.layer_packets[layer]})
    for ts, from_rung, to_rung, reason, core in ledger.transitions:
        records.append({"event": "transition", "ts": round(ts, 9),
                        "from": RUNG_NAMES[from_rung],
                        "to": RUNG_NAMES[to_rung],
                        "reason": reason, "core": core})
    records.append({"event": "summary",
                    "packets_seen": ledger.packets_seen,
                    "packets_analyzed": ledger.packets_analyzed,
                    "packets_shed": ledger.packets_shed,
                    "bytes_shed": ledger.bytes_shed,
                    "conns_downgraded": ledger.conns_downgraded,
                    "reasm_truncations": ledger.reasm_truncations,
                    "max_rung_seen": ledger.max_rung_seen,
                    "failfast_at": ledger.failfast_at})
    return [json.dumps(record, separators=(",", ":"), sort_keys=True)
            for record in records]


def write_overload(sink: Union[str, Path, IO[str]], ledger,
                   batch_size: int = 256) -> int:
    """Write the loss ledger as an NDJSON stream (``--overload-out``).

    Returns the number of records written.
    """
    from repro.analysis.logwriter import BufferedLineWriter
    lines = overload_lines(ledger)
    with BufferedLineWriter(sink, batch_size=batch_size) as writer:
        for line in lines:
            writer.write_line(line)
    return len(lines)


def impairment_lines(ledger) -> List[str]:
    """An :class:`repro.netem.ImpairmentLedger` as NDJSON lines.

    Deterministic order: one totals line, per-cause drop lines,
    per-link attribution lines (sorted by link id), every link
    lifecycle event in virtual-time order, then one summary line
    restating the conservation invariant.
    """
    records: List[dict] = []
    records.append({"event": "totals",
                    "offered": ledger.offered,
                    "offered_bytes": ledger.offered_bytes,
                    "delivered": ledger.delivered,
                    "delivered_bytes": ledger.delivered_bytes,
                    "duplicated": ledger.duplicated,
                    "corrupted": ledger.corrupted,
                    "corrupted_silent": ledger.corrupted_silent,
                    "reordered": ledger.reordered,
                    "delayed": ledger.delayed})
    for cause in sorted(ledger.dropped):
        if ledger.dropped[cause]:
            records.append({"event": "drop", "cause": cause,
                            "packets": ledger.dropped[cause],
                            "bytes": ledger.dropped_bytes[cause]})
    for port in sorted(ledger.per_link):
        row = dict(ledger.per_link[port])
        row["event"] = "link"
        row["link"] = port
        records.append(row)
    for ts, port, event, detail in ledger.link_events:
        records.append({"event": "link_event", "ts": round(ts, 9),
                        "link": port, "kind": event, "detail": detail})
    records.append({"event": "summary",
                    "config": ledger.config,
                    "dropped_total": ledger.dropped_total,
                    "goodput_fraction": round(ledger.goodput_fraction, 9),
                    "balanced": ledger.offered + ledger.duplicated ==
                    ledger.delivered + ledger.dropped_total})
    return [json.dumps(record, separators=(",", ":"), sort_keys=True)
            for record in records]


def write_impairment(sink: Union[str, Path, IO[str]], ledger,
                     batch_size: int = 256) -> int:
    """Write the impairment ledger as an NDJSON stream (``--impair-out``).

    Returns the number of records written.
    """
    from repro.analysis.logwriter import BufferedLineWriter
    lines = impairment_lines(ledger)
    with BufferedLineWriter(sink, batch_size=batch_size) as writer:
        for line in lines:
            writer.write_line(line)
    return len(lines)


def check_cycle_hist(stats: AggregateStats) -> None:
    """Assert histogram/ledger parity on an aggregate: every stage's
    histogram totals must equal its invocation count (explicit-cost
    charges are bucketed as they happen, ``Runtime.aggregate`` puts
    the fixed-cost rest in the model-cost bucket)."""
    if stats.stage_cycle_hist is None:
        return
    bad = []
    for stage in Stage:
        total = sum(stats.stage_cycle_hist[stage])
        want = stats.stage_invocations[stage]
        if total != want:
            bad.append("%s: hist=%d ledger=%d"
                       % (stage.value, total, want))
    assert not bad, \
        "cycle-histogram/ledger parity broken: " + "; ".join(bad)


# -- span exports (repro.telemetry.spans) ----------------------------------
def write_spans(sink: Union[str, Path, IO[str]], report,
                batch_size: int = 256) -> int:
    """Write a :class:`~repro.telemetry.spans.SpanReport` as an NDJSON
    stream (``--spans-ndjson``). Returns the number of records."""
    from repro.analysis.logwriter import BufferedLineWriter
    count = 0
    with BufferedLineWriter(sink, batch_size=batch_size) as writer:
        for line in report.ndjson_lines():
            writer.write_line(line)
            count += 1
    return count


def write_chrome_trace(sink: Union[str, Path, IO[str]], report) -> int:
    """Write a span report as Chrome trace-event JSON
    (``--spans-out``; load in Perfetto or chrome://tracing). Returns
    the number of trace events."""
    trace = report.chrome_trace()
    text = json.dumps(trace, separators=(",", ":"), sort_keys=True)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)
    return len(trace["traceEvents"])


def write_flight(sink: Union[str, Path, IO[str]], report) -> int:
    """Write the flight-recorder dump (``--flight-out``) as
    deterministic JSON. Returns the number of triggered dumps."""
    dump = report.flight_dump()
    text = json.dumps(dump, indent=1, sort_keys=True)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)
    return len(dump["dumps"])
