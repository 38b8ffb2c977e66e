"""Burst span trees, the flight recorder, and the continuous profiler.

Every ingress burst a :class:`~repro.core.pipeline.CorePipeline`
processes can be traced as a *span tree*: a root ``burst`` span with
one child span per pipeline stage (capture → packet filter →
conn-track → reassembly → parsing → session filter → callback),
carrying the stage's invocation count (packets in), its virtual-cycle
self time, the funnel survivors the burst produced (packets out), and
the core that ran it. Spans are recorded by *delta snapshots* at burst
boundaries — the recorder reads the core's counters (the cycle ledger
is a view over them) once before and once after the batch loop, so the
per-packet hot path is untouched and the disabled path costs a single
``is None`` check per burst (the "compile-time no-op" requirement on
the 145k pkts/s columnar path).

Three consumers sit on top of the recorder:

* the **trace stream** — every recorded burst tree, exported as Chrome
  trace-event JSON (Perfetto-loadable; see docs/OBSERVABILITY.md) and
  as NDJSON through the existing exporter conventions. A tree names
  its core and burst ordinal, so in the parallel backend each worker's
  spans join the one trace as they would sequentially, under one pid.
* the **flight recorder** — a bounded ring of the last N burst trees
  per core, dumped (with the triggering event attached) on overload
  rung escalation, callback quarantine and parser faults.
* the **continuous profiler** — deterministic 1-in-K burst sampling
  feeding per-stage self-time histograms and a "hottest stage ×
  filter-node" attribution table onto ``RuntimeReport.spans``.

Determinism: burst boundaries are identical sequential-vs-parallel
(both backends flush per-queue pending lists at ``batch_size`` and at
the same parent-clocked virtual deadlines), sampling is by per-core
burst ordinal, and timestamps in exports are *virtual* (cycles at the
model's ``cpu_hz``). Wall-clock fields are volatile and excluded from
deterministic exports, exactly like ``RuntimeReport.backend_health``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cycles import Stage

__all__ = [
    "SPAN_HIST_BOUNDS",
    "SpanRecorder",
    "SpanReport",
    "build_span_report",
    "chrome_trace_events",
    "tree_public",
]

#: Pipeline stages in span order (identical to Figure 7 + capture).
_STAGES: Tuple[Stage, ...] = tuple(Stage)
_STAGE_NAMES: Tuple[str, ...] = tuple(s.value for s in _STAGES)

#: Upper bucket bounds (cycles) for per-*burst* stage self-time
#: histograms; one implicit +Inf bucket follows. Bursts are up to 256
#: packets, so the range runs two decades above the per-invocation
#: CYCLE_HIST_BOUNDS.
SPAN_HIST_BOUNDS = (100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0,
                    100000.0, 300000.0, 1000000.0, 3000000.0)

#: Stages whose burst self-time is attributed across filter nodes by
#: the profiler (everything downstream of the packet-filter verdict).
_NODE_STAGES = (Stage.CONN_TRACK, Stage.REASSEMBLY, Stage.PARSING,
                Stage.SESSION_FILTER, Stage.CALLBACK)

#: Hard caps keeping recorder state bounded on long runs.
_MAX_TREES = 1024
_MAX_DUMPS = 16
_MAX_EVENTS = 64


def _span_hist_index(value: float) -> int:
    for i, bound in enumerate(SPAN_HIST_BOUNDS):
        if value <= bound:
            return i
    return len(SPAN_HIST_BOUNDS)


def _counters(stats) -> Tuple[int, ...]:
    """The one snapshot a burst tree is the difference of: each stage's
    count as the cycle ledger reads it, the buffered reassembler's copy
    cycles, then the funnel counters the stage counts leave out."""
    ledger = stats.ledger
    return (*ledger.invocations.values(), ledger.extra[Stage.REASSEMBLY],
            stats.pf_packets, stats.connf_packets, stats.sessf_packets,
            stats.conns_created)


def tree_public(tree: Dict) -> Dict:
    """The deterministic view of a burst tree: drops its wall-clock
    time, which varies run to run."""
    return {k: v for k, v in tree.items() if k != "wall_ns"}


class SpanRecorder:
    """Per-core burst span recorder.

    Created by the pipeline when ``config.span_sample > 0`` or
    ``config.flight_recorder_depth > 0``; the pipeline holds ``None``
    otherwise, so the disabled path never reaches this class. The
    recorder is deliberately not thread-safe: one recorder belongs to
    exactly one core's pipeline.
    """

    __slots__ = (
        "core_id", "sample_every", "trees", "trees_dropped", "ring",
        "dumps", "dumps_dropped", "events", "bursts", "bursts_sampled",
        "profile_hist", "profile_cycles", "profile_invocations",
        "node_attr", "wall_ns",
    )

    def __init__(self, core_id: int, sample_every: int = 0,
                 flight_depth: int = 0) -> None:
        self.core_id = core_id
        #: Profile (and keep the tree of) every Kth burst; 0 disables
        #: the profiler/trace stream but keeps the flight ring live.
        self.sample_every = sample_every
        self.trees: deque = deque(maxlen=_MAX_TREES)
        self.trees_dropped = 0
        self.ring: Optional[deque] = (
            deque(maxlen=flight_depth) if flight_depth > 0 else None
        )
        self.dumps: List[Dict] = []
        self.dumps_dropped = 0
        self.events: List[Dict] = []
        self.bursts = 0
        self.bursts_sampled = 0
        self.profile_hist: Dict[str, List[int]] = {
            name: [0] * (len(SPAN_HIST_BOUNDS) + 1)
            for name in _STAGE_NAMES
        }
        self.profile_cycles: Dict[str, float] = \
            {name: 0.0 for name in _STAGE_NAMES}
        self.profile_invocations: Dict[str, int] = \
            {name: 0 for name in _STAGE_NAMES}
        #: ``"stage|node" -> [packets, cycles]`` attribution table.
        self.node_attr: Dict[str, List[float]] = {}
        self.wall_ns = 0

    # -- burst boundaries --------------------------------------------------
    def start(self, stats) -> Tuple:
        """Snapshot the core's counters at the top of a batch. Returns
        the token ``finish`` needs; ``token[0]`` tells the caller
        whether this burst is profiler-sampled (so it may collect
        per-node verdict counts, otherwise skipped entirely)."""
        k = self.sample_every
        sampled = k > 0 and self.bursts % k == 0
        return sampled, time.perf_counter_ns(), _counters(stats)

    def finish(self, stats, now: float, token: Tuple,
               node_counts: Optional[Dict[int, int]] = None) -> None:
        """Close the burst opened by ``token``: build the span tree,
        feed the flight ring, and (on sampled bursts) the profiler."""
        sampled, wall0, before = token
        wall_ns = time.perf_counter_ns() - wall0
        delta = [after - then
                 for after, then in zip(_counters(stats), before)]
        invoked = dict(zip(_STAGES, delta))
        copy_centi, pf, connf, sessf, created = delta[len(_STAGES):]
        cost = stats.ledger.cost
        stages = []
        total_centi = 0
        for stage, d_inv in invoked.items():
            d_centi = d_inv * cost[stage]
            if stage is Stage.REASSEMBLY:
                d_centi += copy_centi
            if d_inv or d_centi:
                stages.append([stage.value, d_inv, d_centi / 100])
                total_centi += d_centi
        tree = {
            "core": self.core_id,
            "seq": self.bursts,
            "ts": now,
            "packets_in": invoked[Stage.CAPTURE],
            "out": {
                "packet_filter": pf,
                "connection_filter": connf,
                "session_filter": sessf,
                "callback": invoked[Stage.CALLBACK],
            },
            "conns_created": created,
            "cycles": total_centi / 100,
            "stages": stages,
            "wall_ns": wall_ns,
        }
        self.bursts += 1
        self.wall_ns += wall_ns
        if self.ring is not None:
            self.ring.append(tree)
        if sampled:
            self.bursts_sampled += 1
            if len(self.trees) == _MAX_TREES:
                self.trees_dropped += 1
            self.trees.append(tree)
            self._profile(tree, node_counts)

    def _profile(self, tree: Dict,
                 node_counts: Optional[Dict[int, int]]) -> None:
        hist = self.profile_hist
        cycles = self.profile_cycles
        invocations = self.profile_invocations
        for name, d_inv, d_cyc in tree["stages"]:
            hist[name][_span_hist_index(d_cyc)] += 1
            cycles[name] += d_cyc
            invocations[name] += d_inv
        if not node_counts:
            return
        matched = sum(node_counts.values())
        if not matched:
            return
        attr = self.node_attr
        for name, d_inv, d_cyc in tree["stages"]:
            if not any(name == s.value for s in _NODE_STAGES):
                continue
            for node, packets in node_counts.items():
                key = "%s|%d" % (name, node)
                row = attr.get(key)
                if row is None:
                    row = attr[key] = [0, 0.0]
                row[0] += packets
                # Proportional share: the ledger has no per-node cycle
                # split, so the burst's stage self-time is attributed
                # by the node's packet share of the matched burst.
                row[1] += d_cyc * packets / matched

    # -- flight recorder ---------------------------------------------------
    def trigger(self, event: str, detail: str, ts: float) -> None:
        """Record a triggering event and dump the flight ring.

        Called from cold paths only (rung escalation, quarantine,
        parser faults) — never from the per-packet loop.
        """
        record = {"event": event, "detail": detail, "ts": ts,
                  "core": self.core_id}
        if len(self.events) < _MAX_EVENTS:
            self.events.append(record)
        if self.ring is None:
            return
        if len(self.dumps) >= _MAX_DUMPS:
            self.dumps_dropped += 1
            return
        self.dumps.append({
            "trigger": record,
            "bursts": [dict(tree) for tree in self.ring],
        })

    # -- shipping ----------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-data (picklable, JSON-able) snapshot shipped home in
        ``CoreStats.spans`` at end of run / worker ``_DONE``."""
        return {
            "core": self.core_id,
            "sample_every": self.sample_every,
            "bursts": self.bursts,
            "bursts_sampled": self.bursts_sampled,
            "trees": [dict(t) for t in self.trees],
            "trees_dropped": self.trees_dropped,
            "ring": [dict(t) for t in self.ring]
                    if self.ring is not None else None,
            "dumps": list(self.dumps),
            "dumps_dropped": self.dumps_dropped,
            "events": list(self.events),
            "profile": {
                "hist": {k: list(v) for k, v in self.profile_hist.items()},
                "cycles": dict(self.profile_cycles),
                "invocations": dict(self.profile_invocations),
                "nodes": {k: list(v) for k, v in self.node_attr.items()},
            },
            "wall_ns": self.wall_ns,
        }


class SpanReport:
    """Merged cross-core span data attached to ``RuntimeReport.spans``.

    Everything reachable from :meth:`to_dict`, :meth:`ndjson_lines`,
    :meth:`flight_dump` and :meth:`chrome_trace` is deterministic
    (virtual time only): each is a file of the run bundle, which is
    byte-identical across backends. The volatile ``wall_ns`` stays on
    the trees in :attr:`cores`.
    """

    def __init__(self, cores: List[Dict], events: List[Dict],
                 cpu_hz: float, nic: Optional[List[Dict]] = None) -> None:
        #: Per-core recorder snapshots, sorted by core id.
        self.cores = sorted(cores, key=lambda s: s["core"])
        #: Triggering events (worker-side + parent-side), time-sorted.
        self.events = sorted(
            events, key=lambda e: (e.get("ts", 0.0), e.get("core", -1),
                                   e.get("event", "")))
        self.cpu_hz = cpu_hz
        #: NIC ingress context (per-port counter dicts), for dumps.
        self.nic = nic or []

    # -- profiler ----------------------------------------------------------
    def profile(self) -> Dict:
        """Merged per-stage self-time histograms and totals."""
        hist = {name: [0] * (len(SPAN_HIST_BOUNDS) + 1)
                for name in _STAGE_NAMES}
        cycles = {name: 0.0 for name in _STAGE_NAMES}
        invocations = {name: 0 for name in _STAGE_NAMES}
        for snap in self.cores:
            prof = snap["profile"]
            for name in _STAGE_NAMES:
                mine = hist[name]
                for i, count in enumerate(prof["hist"][name]):
                    mine[i] += count
                cycles[name] += prof["cycles"][name]
                invocations[name] += prof["invocations"][name]
        return {"hist": hist, "cycles": cycles,
                "invocations": invocations}

    def hottest(self, k: int = 10) -> List[Dict]:
        """Top-K "stage × filter-node" rows by attributed cycles."""
        merged: Dict[str, List[float]] = {}
        for snap in self.cores:
            for key, (packets, cyc) in snap["profile"]["nodes"].items():
                row = merged.get(key)
                if row is None:
                    row = merged[key] = [0, 0.0]
                row[0] += packets
                row[1] += cyc
        ranked = sorted(merged.items(),
                        key=lambda kv: (-kv[1][1], kv[0]))[:k]
        out = []
        for key, (packets, cyc) in ranked:
            stage, node = key.rsplit("|", 1)
            out.append({"stage": stage, "node": int(node),
                        "packets": packets, "cycles": cyc})
        return out

    # -- deterministic views -----------------------------------------------
    def to_dict(self) -> Dict:
        """Deterministic summary (counts, events, profile, hottest)."""
        return {
            "cores": [
                {
                    "core": snap["core"],
                    "bursts": snap["bursts"],
                    "bursts_sampled": snap["bursts_sampled"],
                    "trees_dropped": snap["trees_dropped"],
                    "dumps": len(snap["dumps"]),
                    "dumps_dropped": snap["dumps_dropped"],
                }
                for snap in self.cores
            ],
            "events": [
                {k: e[k] for k in sorted(e)} for e in self.events
            ],
            "profile": self.profile(),
            "hottest": self.hottest(),
        }

    def trees(self) -> List[Dict]:
        """All sampled burst trees, canonically ordered."""
        out: List[Dict] = []
        for snap in self.cores:
            out.extend(snap["trees"])
        out.sort(key=lambda t: (t["ts"], t["core"], t["seq"]))
        return out

    def ndjson_lines(self) -> Iterable[str]:
        """Deterministic NDJSON: one ``burst`` record per sampled tree,
        ``trigger`` records for events, and a ``profile`` summary —
        same conventions as the connection-trace exporter."""
        dumps = json.dumps
        for tree in self.trees():
            record = dict(tree_public(tree))
            record["record"] = "burst"
            yield dumps(record, separators=(",", ":"), sort_keys=True)
        for event in self.events:
            record = {k: event[k] for k in sorted(event)}
            record["record"] = "trigger"
            yield dumps(record, separators=(",", ":"), sort_keys=True)
        summary = {"record": "profile", "profile": self.profile(),
                   "hottest": self.hottest()}
        yield dumps(summary, separators=(",", ":"), sort_keys=True)

    def flight_dump(self) -> Dict:
        """Deterministic flight-recorder dump: every triggered dump
        with its ring contents, plus the end-of-run ring per core."""
        return {
            "events": [
                {k: e[k] for k in sorted(e)} for e in self.events
            ],
            "dumps": [
                {
                    "trigger": {k: d["trigger"][k]
                                for k in sorted(d["trigger"])},
                    "bursts": [tree_public(t) for t in d["bursts"]],
                }
                for snap in self.cores
                for d in snap["dumps"]
            ],
            "rings": {
                str(snap["core"]): [tree_public(t)
                                    for t in snap["ring"]]
                for snap in self.cores
                if snap["ring"] is not None
            },
            "nic": self.nic,
        }

    # -- Chrome trace ------------------------------------------------------
    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (load in Perfetto / chrome://tracing).

        One pid for the whole run, one tid per core; every sampled
        burst becomes an "X" (complete) event with its stage spans laid
        end-to-end beneath it. Timestamps are virtual microseconds
        (burst virtual time; durations are cycles at ``cpu_hz``), so
        the trace is deterministic.
        """
        return {"traceEvents": chrome_trace_events(self),
                "displayTimeUnit": "ms"}


def chrome_trace_events(report: SpanReport) -> List[Dict]:
    events: List[Dict] = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": "repro-pipeline"},
    }]
    for snap in report.cores:
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0,
            "tid": snap["core"],
            "args": {"name": "core-%d" % snap["core"]},
        })
    scale = 1e6 / report.cpu_hz  # cycles -> virtual microseconds
    cursor: Dict[int, float] = {}
    for tree in report.trees():
        core = tree["core"]
        ts_us = tree["ts"] * 1e6
        start = max(ts_us, cursor.get(core, 0.0))
        burst_dur = tree["cycles"] * scale
        events.append({
            "ph": "X", "name": "burst", "cat": "burst",
            "pid": 0, "tid": core, "ts": start, "dur": burst_dur,
            "args": {
                "seq": tree["seq"],
                "packets_in": tree["packets_in"],
                "out": tree["out"],
                "cycles": tree["cycles"],
            },
        })
        offset = start
        for name, d_inv, d_cyc in tree["stages"]:
            dur = d_cyc * scale
            events.append({
                "ph": "X", "name": name, "cat": "stage",
                "pid": 0, "tid": core, "ts": offset, "dur": dur,
                "args": {"invocations": d_inv, "cycles": d_cyc},
            })
            offset += dur
        cursor[core] = start + burst_dur
    for event in report.events:
        events.append({
            "ph": "i", "name": event.get("event", "event"),
            "cat": "trigger", "pid": 0,
            "tid": event.get("core", 0) if event.get("core", -1) >= 0
            else 0,
            "ts": event.get("ts", 0.0) * 1e6, "s": "g",
            "args": {k: event[k] for k in sorted(event)},
        })
    return events


def build_span_report(core_stats, cpu_hz: float,
                      nic: Optional[List[Dict]] = None
                      ) -> Optional[SpanReport]:
    """Assemble a :class:`SpanReport` from per-core ``CoreStats``.

    ``core_stats`` is an iterable of CoreStats whose ``spans``
    attribute carries recorder snapshots (None when spans were off —
    then the report is None too).
    """
    snaps = [s.spans for s in core_stats if getattr(s, "spans", None)]
    if not snaps:
        return None
    events: List[Dict] = []
    for snap in snaps:
        events.extend(snap["events"])
    return SpanReport(snaps, events, cpu_hz, nic=nic)
