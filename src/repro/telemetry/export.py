"""Telemetry renderers: Prometheus text and NDJSON line streams.

``build_registry`` turns one finished run — a
:class:`~repro.core.runtime.RuntimeReport` — into a
:class:`~repro.telemetry.registry.MetricsRegistry`; ``render_metrics``
is its Prometheus text, and ``trace_lines`` / ``overload_lines`` /
``impairment_lines`` are the NDJSON streams. Nothing here touches the
file system: :mod:`repro.telemetry.bundle` writes all of it, once.

Every rendering is deterministic: metric families render in sorted
order, volatile (machine-dependent) backend-health metrics are excluded
unless asked for, and trace events are sorted into their canonical
order — so the sequential and parallel
backends produce byte-identical output for the same traffic.
"""

from __future__ import annotations

import json
from typing import List

from repro.core.cycles import CYCLE_HIST_BOUNDS, Stage
from repro.core.stats import REASM_HIST_BOUNDS, AggregateStats
from repro.telemetry.funnel import build_funnel
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import trace_event_dicts


def build_registry(report) -> MetricsRegistry:
    """Populate a metrics registry from one run's report.

    Families of a subsystem render only when the run used it — the
    resilience families when there was resilience activity, the
    ``repro_overload_*`` families when a ladder was armed, truncation
    families when a reassembly buffer overflowed, ``repro_impair_*``
    on an impaired link, ``repro_tenant_*`` / ``repro_tenancy_*`` on a
    multi-tenant run — so a plain run's text does not change when a
    subsystem it does not use grows a family. ``report.backend_health``
    (wall-clock and scheduling noise) registers ``volatile=True``, so
    the default rendering — the bundle's ``metrics.prom`` — stays
    identical across backends.
    """
    stats = report.stats
    faults = report.faults
    overload = report.overload
    impairment = report.impairment
    tenancy = report.tenancy
    reg = MetricsRegistry()

    # -- the filter funnel -------------------------------------------------
    _pipeline_families(reg, "repro_", (), [((), stats)])
    fbytes = reg.counter("repro_funnel_bytes_total",
                         "Bytes entering/surviving each filter layer",
                         label_names=("layer", "edge"))
    for layer in build_funnel(stats):
        fbytes.inc(layer.bytes_in, labels=(layer.layer, "in"))
        fbytes.inc(layer.bytes_out, labels=(layer.layer, "out"))

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
    reg.counter("repro_probe_giveups_total",
                "Connections whose protocol probe hit the byte limit") \
        .inc(stats.probe_giveups)
    sessions = reg.counter("repro_sessions_total",
                           "Application-layer sessions",
                           label_names=("outcome",))
    sessions.inc(stats.sessions_parsed, labels=("parsed",))
    sessions.inc(stats.sessions_matched, labels=("matched",))

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
    health = report.backend_health
    if health is not None:
        def load(kind, name, text, label_names=()):
            family = getattr(reg, kind)(name, text, label_names,
                                        volatile=True)
            return family.inc if kind == "counter" else family.set

        for kind, name, key, text in _HEALTH_FAMILIES:
            load(kind, name, text)(health.get(key, 0))
        for kind, name, key, text in _WORKER_HEALTH_FAMILIES:
            put = load(kind, name, text, ("worker",))
            for row in health.get("workers", ()):
                put(row.get(key, 0), labels=(str(row["worker"]),))

    # -- multi-tenant breakdown (repro.tenancy) ----------------------------
    if tenancy is not None:
        reg.gauge("repro_tenancy_epoch",
                  "Filter-table epoch at the end of the run") \
            .set(tenancy["epoch"])
        tenants = sorted(tenancy["tenants"].items())
        tactive = reg.gauge("repro_tenant_active",
                            "1 when the tenant is subscribed at the "
                            "final epoch", label_names=("tenant",))
        for name, _ in tenants:
            tactive.set(1 if name in tenancy["active"] else 0,
                        labels=(name,))
        _pipeline_families(reg, "repro_tenant_", ("tenant",),
                           [((name,), tstats) for name, tstats in tenants])
        if tenancy["shed"]:
            tshed = reg.counter(
                "repro_tenant_shed_packets_total",
                "Packets shed by per-tenant quota/pressure metering",
                label_names=("tenant", "layer"))
            tshed_b = reg.counter(
                "repro_tenant_shed_bytes_total",
                "Bytes shed by per-tenant quota/pressure metering",
                label_names=("tenant",))
            for name, ledger in sorted(tenancy["shed"].items()):
                for layer in sorted(ledger.layer_packets):
                    tshed.inc(ledger.layer_packets[layer],
                              labels=(name, layer))
                tshed_b.inc(ledger.bytes_shed, labels=(name,))
    return reg


#: ``report.backend_health`` as metric families, every one of them
#: ``volatile``: (kind, family, health key, help). The second table is
#: per worker, behind a ``worker`` label.
_HEALTH_FAMILIES = (
    ("gauge", "repro_feeder_block_seconds", "feeder_block_seconds",
     "Wall-clock seconds the feeder spent blocked on full worker rings"),
    ("counter", "repro_ipc_bytes_total", "ipc_bytes",
     "Serialized bytes shipped feeder->workers (descriptors, plus "
     "control-channel batches)"),
    ("gauge", "repro_ipc_bytes_per_packet", "ipc_bytes_per_packet",
     "Average serialized IPC bytes per dispatched packet (8-byte "
     "descriptors; frames are written in place)"),
    ("gauge", "repro_slot_starvation_seconds", "slot_starvation_seconds",
     "Wall-clock seconds the feeder spent blocked on slot/ring "
     "exhaustion across all workers"),
)
_WORKER_HEALTH_FAMILIES = (
    ("counter", "repro_worker_batches_total", "batches",
     "Batches dispatched to each worker"),
    ("gauge", "repro_worker_batch_occupancy_max", "batch_occupancy_max",
     "Largest batch (packets) each worker received"),
    ("gauge", "repro_worker_ring_highwater", "ring_highwater",
     "Per-worker descriptor-ring occupancy high-water mark (entries)"),
    ("counter", "repro_worker_slot_starvation_total",
     "slot_starvation_waits",
     "Times the feeder blocked waiting for a free mempool slot, per "
     "worker"),
)


def _pipeline_families(reg, prefix: str, scope: tuple, views) -> None:
    """The funnel, callback and connection families of ``views`` —
    ``(label values, stats)`` pairs: the run's own under ``repro_``,
    the tenants' under ``repro_tenant_`` behind a ``tenant`` label."""
    fpkts = reg.counter(prefix + "funnel_packets_total",
                        "Packets entering/surviving each filter layer",
                        label_names=scope + ("layer", "edge"))
    fdrop = reg.counter(prefix + "funnel_dropped_packets_total",
                        "Packets discarded at each filter layer",
                        label_names=scope + ("layer",))
    callbacks = reg.counter(prefix + "callbacks_total",
                            "Subscription callback runs",
                            label_names=scope)
    conns = reg.counter(prefix + "connections_total",
                        "Connection lifecycle outcomes",
                        label_names=scope + ("event",))
    for labels, stats in views:
        for layer in build_funnel(stats):
            fpkts.inc(layer.packets_in, labels=labels + (layer.layer, "in"))
            fpkts.inc(layer.packets_out,
                      labels=labels + (layer.layer, "out"))
            fdrop.inc(layer.dropped_packets, labels=labels + (layer.layer,))
        callbacks.inc(stats.callbacks, labels=labels)
        for event in ("created", "delivered", "discarded", "expired"):
            conns.inc(getattr(stats, "conns_" + event),
                      labels=labels + (event,))


def render_metrics(report, include_volatile: bool = False) -> str:
    """The run's metrics in the Prometheus text exposition format —
    without the volatile backend-health families unless asked, so the
    default text is identical across backends and worker counts."""
    return build_registry(report).render_prometheus(include_volatile)


def _ndjson(records) -> List[str]:
    return [json.dumps(record, separators=(",", ":"), sort_keys=True)
            for record in records]


def trace_lines(stats: AggregateStats) -> List[str]:
    """The run's sampled trace as NDJSON lines (canonical order)."""
    return _ndjson(trace_event_dicts(stats.trace_events))


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
    records.append({"event": "summary", **{
        name: getattr(ledger, name) for name in (
            "packets_seen", "packets_analyzed", "packets_shed",
            "bytes_shed", "conns_downgraded", "reasm_truncations",
            "max_rung_seen", "failfast_at")}})
    return _ndjson(records)


def impairment_lines(ledger) -> List[str]:
    """An :class:`repro.netem.ImpairmentLedger` as NDJSON lines.

    Deterministic order: one totals line, per-cause drop lines,
    per-link attribution lines (sorted by link id), every link
    lifecycle event in virtual-time order, then one summary line
    restating the conservation invariant.
    """
    records: List[dict] = [{"event": "totals", **ledger.totals()}]
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
    return _ndjson(records)
