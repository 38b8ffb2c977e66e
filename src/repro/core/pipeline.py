"""Per-core processing pipeline (Figure 2, right side).

One :class:`CorePipeline` runs per receive queue and implements the
work-conserving, lazily reconstructing data path:

1. software packet filter immediately after "capture",
2. fast-path callback for packet subscriptions with packet-only filters,
3. connection tracking (per-core table, two-tier timer wheels),
4. lazy stream reassembly only for connections that still need payload,
5. protocol probing restricted to the subscription's parser set,
6. the connection filter at probe resolution, the session filter at
   session completion, with Figure 4's state transitions in between,
7. inline callback execution.

Every stage charges its calibrated cost to the core's cycle ledger —
that ledger is this reproduction's stand-in for a 3 GHz core's time.

One documented deviation from the paper: where Retina deletes a
connection the filter has rejected (or already delivered), this
pipeline keeps a 512-byte "ignore" tombstone in the table until the
inactivity timeout. The tombstone prevents subsequent packets of the
same flow from re-creating the connection and re-probing ciphertext;
CPU behaviour matches the paper's, and memory stays bounded by the same
timer wheels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # avoid a config<->core import cycle at runtime
    from repro.config import RuntimeConfig

from repro.conntrack.conn import ConnState, Connection
from repro.conntrack.five_tuple import FiveTuple
from repro.conntrack.table import ConnTable
from repro.errors import CallbackError, ProtocolError, \
    ResourceExhaustedError
from repro.core.cycles import Stage
from repro.core.datatypes import (
    ConnectionRecord,
    Level,
    RawPacket,
    StreamChunk,
)
from repro.core.stats import CoreStats
from repro.core.subscription import Subscription
from repro.packet.columnar import decode_mbufs
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP
from repro.packet.mbuf import Mbuf
from repro.packet.stack import parse_stack
from repro.protocols.base import ParseResult, ProbeResult, Session
from repro.resilience.faults import CoreFaultInjector
from repro.stream.buffered import BufferedReassembler
from repro.stream.pdu import L4Pdu, StreamSegment
from repro.stream.reassembly import LazyReassembler

#: Sentinel for "filter already satisfied before the session layer":
#: the session filter is skipped and sessions match unconditionally.
FILTER_SATISFIED = -1

# Enum members hoisted to module scope: the columnar stateful path runs
# once per matched packet, and member access on an Enum class costs a
# class-dict lookup (plus a descriptor for ``Stage.value`` inside
# ``charge``) that adds up at 100k+ pkts/s.
_CONN_TRACK = Stage.CONN_TRACK
_TRACK = ConnState.TRACK
_DELETE = ConnState.DELETE
_PROBE_OR_PARSE = (ConnState.PROBE, ConnState.PARSE)

class _ProbeContext:
    """Candidate parsers plus segments seen while still undecided."""

    __slots__ = ("candidates", "pending", "bytes_probed")

    def __init__(self, candidates) -> None:
        self.candidates = candidates
        self.pending: List[StreamSegment] = []
        self.bytes_probed = 0


class CorePipeline:
    """The per-core data path."""

    def __init__(
        self,
        core_id: int,
        subscription: Subscription,
        config: "RuntimeConfig",
        executor=None,
        initial_overload_rung: int = 0,
    ) -> None:
        self.core_id = core_id
        self.sub = subscription
        self.config = config
        self.table = ConnTable(config.timeouts)
        self.stats = CoreStats(config.cost_model,
                               telemetry=config.telemetry)
        if config.trace_sample > 0:
            from repro.telemetry.trace import ConnectionTracer
            self._tracer = ConnectionTracer(config.trace_sample,
                                            self.stats.trace_events)
        else:
            self._tracer = None
        self._filter = subscription.filter
        #: Batch packet filter over decoded columns; None when disabled
        #: by config or when the filter trie uses predicates the
        #: columnar layer cannot express (process_batch then keeps the
        #: scalar per-packet path).
        self._pf_batch = (subscription.filter.packet_filter_batch
                          if config.columnar else None)
        #: Conn-track stage cost, hoisted for the unrolled columnar
        #: charge (see :meth:`_stateful_columnar`).
        self._ct_cost = self.stats.ledger.model.conn_track
        # -- burst span recorder (repro.telemetry.spans) ----------------
        # None when disabled: the batch loops then pay one ``is None``
        # check per burst and the per-packet loops stay untouched (the
        # "no-op recorder" path). Enabled recorders snapshot the ledger
        # and funnel counters at burst boundaries only.
        if config.span_sample > 0 or config.flight_recorder_depth > 0:
            from repro.telemetry.spans import SpanRecorder
            self._spans = SpanRecorder(
                core_id, sample_every=config.span_sample,
                flight_depth=config.flight_recorder_depth)
        else:
            self._spans = None
        self._level = subscription.level
        # Plan flags are getattr-backed properties on the subscription;
        # resolved once here, they are read per packet below.
        self._needs_conntrack = subscription.needs_conntrack
        self._streams_bytes = subscription.streams_bytes
        self._buffers_packets = subscription.buffers_packets
        if executor is None:
            from repro.core.executor import InlineExecutor
            executor = InlineExecutor(subscription.callback,
                                      config.callback_cycles)
        self._executor = executor
        self._probe_protocols = sorted(subscription.probe_protocols)
        self._now = 0.0
        self._last_expire = 0.0
        # -- resilience wiring (repro.resilience) ----------------------
        # All of this resolves to "None / False, check once at a cold
        # call site" when no plan or non-default policy is configured,
        # so the disabled path adds nothing to the per-packet loop.
        self._injector = CoreFaultInjector.for_core(config.fault_plan,
                                                    core_id)
        self._isolate = config.callback_error_policy == "isolate"
        self._error_budget = config.callback_error_budget
        self._quarantined = False
        # Cycles to charge the RX core for a delivery whose callback
        # raised (the stage work up to the user function still ran).
        self._cb_error_cycles = (
            self._executor.enqueue_cycles
            if self._executor.name == "queued"
            else self._executor.callback_cycles)
        if config.memory_limit_bytes is not None and \
                config.memory_policy != "record":
            # Degradation policies enforce each core's share of the
            # global limit locally — no cross-core coordination, same
            # shared-nothing discipline as the rest of the pipeline.
            self._memory_share = config.memory_limit_bytes // config.cores
        else:
            self._memory_share = None
        self._shedding = False
        # -- overload control (repro.overload) -------------------------
        # One controller per core, clocked on virtual time inside the
        # packet loop; `_ov_next = inf` when the policy is off, so the
        # disabled hot path pays one float compare per packet.
        if config.overload_policy != "off":
            from repro.overload import LossLedger, OverloadController
            ledger = LossLedger(core_id, initial_overload_rung)
            self.stats.overload = ledger
            self._overload = OverloadController(
                config, ledger, initial_rung=initial_overload_rung)
            self._ov_next = 0.0
            self._ov_mem_share = (
                config.memory_limit_bytes // config.cores
                if config.memory_limit_bytes is not None else None)
        else:
            self._overload = None
            self._ov_next = float("inf")
            self._ov_mem_share = None
        #: Current admission block (0/1/2), mirrored from the
        #: controller at each tick so _stateful reads one attribute.
        self._ov_block = (self._overload.admission_block
                          if self._overload is not None else 0)
        #: Tuples whose flow was refused: canonical key → (rung,
        #: funnel layer) at first refusal. Once a flow's start is shed
        #: its remaining packets are shed too (even after the ladder
        #: relaxes) — a half-seen flow would otherwise surface as a
        #: connection record that exists in no unshedded run, breaking
        #: the admitted-connections-are-bit-exact guarantee.
        self._ov_shed: dict = {}
        #: Virtual timestamp at which this core tripped fail-fast, or
        #: None. The runtime polls it after each batch.
        self.overload_failfast_at: Optional[float] = None

    @property
    def now(self) -> float:
        """The pipeline's virtual clock (latest packet timestamp seen)."""
        return self._now

    # ------------------------------------------------------------------
    # packet entry point
    # ------------------------------------------------------------------
    def process_packet(self, mbuf: Mbuf) -> None:
        self.process_batch((mbuf,))

    def process_batch(self, mbufs) -> None:
        """Run a burst of packets (one receive queue's share of a DPDK
        burst) through the pipeline.

        The hot path: every per-packet attribute lookup, bound method,
        and stage-dict access is hoisted out of the inner loop. Charges
        are still applied per packet (not ``cost * n``) so cycle totals
        are bit-for-bit identical to packet-at-a-time processing — the
        parallel backend's determinism guarantee depends on that.
        """
        if self._pf_batch is not None:
            return self._process_batch_columnar(mbufs)
        stats = self.stats
        ledger = stats.ledger
        invocations = ledger.invocations
        cycles = ledger.cycles
        model = ledger.model
        capture_cost = model.capture
        filter_cost = model.packet_filter
        capture_stage = Stage.CAPTURE
        filter_stage = Stage.PACKET_FILTER
        packet_filter = self._filter.packet_filter
        fast_path = not self._needs_conntrack
        deliver = self._deliver
        stateful = self._stateful
        now = self._now
        ov_next = self._ov_next
        spans = self._spans
        if spans is not None:
            span_tok = spans.start(stats)
            span_nodes = {} if span_tok[0] else None
        else:
            span_tok = None
            span_nodes = None
        packets = 0
        wire_bytes = 0
        # Funnel survivor counters, accumulated in locals and folded
        # into stats once per batch (telemetry stays near-free on the
        # hot path). The fast path satisfies the whole filter at the
        # packet layer, so its packets survive every funnel layer.
        pf_packets = 0
        pf_bytes = 0
        fast_packets = 0
        fast_bytes = 0
        for mbuf in mbufs:
            ts = mbuf.timestamp
            if ts > now:
                now = ts
                self._now = ts
            if ts >= ov_next:
                # Controller tick: clocked on the per-core virtual
                # packet stream, so transitions are identical across
                # backends and batch boundaries.
                self._overload_tick(ts)
                ov_next = self._ov_next
            packets += 1
            frame_bytes = len(mbuf.data)
            wire_bytes += frame_bytes
            invocations[capture_stage] += 1
            cycles[capture_stage] += capture_cost
            invocations[filter_stage] += 1
            cycles[filter_stage] += filter_cost
            result = packet_filter(mbuf)
            if not result.matched:
                continue
            pf_packets += 1
            pf_bytes += frame_bytes
            if span_nodes is not None:
                node = result.node
                span_nodes[node] = span_nodes.get(node, 0) + 1
            if fast_path:
                # Packet subscription with a packet-only filter:
                # Section 5.1 fast path, the callback runs right after
                # the filter.
                deliver(RawPacket(mbuf=mbuf))
                fast_packets += 1
                fast_bytes += frame_bytes
                continue
            stateful(mbuf, result)
            now = self._now  # _stateful may not move it, expiry may
        stats.packets += packets
        stats.bytes += wire_bytes
        if self._overload is not None:
            self._overload.ledger.packets_seen += packets
        stats.pf_packets += pf_packets
        stats.pf_bytes += pf_bytes
        if fast_packets:
            stats.connf_packets += fast_packets
            stats.connf_bytes += fast_bytes
            stats.sessf_packets += fast_packets
            stats.sessf_bytes += fast_bytes
        # Settle the constant-cost stage histograms once per burst
        # (capture and the packet filter bypass ``charge`` above), then
        # close the burst span.
        ledger.observe_batched(capture_stage, packets)
        ledger.observe_batched(filter_stage, packets)
        if span_tok is not None:
            spans.finish(stats, self._now, span_tok, span_nodes)

    def _process_batch_columnar(self, mbufs) -> None:
        """Columnar variant of :meth:`process_batch`.

        Headers are decoded for the whole burst in bulk
        (:func:`~repro.packet.columnar.decode_mbufs`) and the packet
        filter runs once per batch as mask predicates, yielding one
        encoded verdict per row. Fast rows then flow through
        :meth:`_stateful_columnar`, which keys conntrack straight off
        the columns; rows the columnar decoder cannot express (VLAN,
        fragments, IP options/extensions, truncation) take the exact
        scalar path. Per-packet charge ordering, counters, and virtual-clock
        movement are identical to the scalar loop — bit-exact stats are
        the acceptance gate for this path.
        """
        if type(mbufs) is not list and type(mbufs) is not tuple:
            mbufs = list(mbufs)
        cols = decode_mbufs(mbufs)
        verdicts = self._pf_batch(cols)
        fast_rows = cols.fast
        stats = self.stats
        ledger = stats.ledger
        invocations = ledger.invocations
        cycles = ledger.cycles
        model = ledger.model
        capture_cost = model.capture
        filter_cost = model.packet_filter
        capture_stage = Stage.CAPTURE
        filter_stage = Stage.PACKET_FILTER
        packet_filter = self._filter.packet_filter
        fast_path = not self._needs_conntrack
        deliver = self._deliver
        stateful = self._stateful
        stateful_columnar = self._stateful_columnar
        now = self._now
        ov_next = self._ov_next
        spans = self._spans
        if spans is not None:
            span_tok = spans.start(stats)
            span_nodes = {} if span_tok[0] else None
        else:
            span_tok = None
            span_nodes = None
        packets = 0
        wire_bytes = 0
        pf_packets = 0
        pf_bytes = 0
        fast_packets = 0
        fast_bytes = 0
        wire_col = cols.wire
        for i, mbuf in enumerate(mbufs):
            ts = mbuf.timestamp
            if ts > now:
                now = ts
                self._now = ts
            if ts >= ov_next:
                self._overload_tick(ts)
                ov_next = self._ov_next
            packets += 1
            frame_bytes = wire_col[i]
            wire_bytes += frame_bytes
            invocations[capture_stage] += 1
            cycles[capture_stage] += capture_cost
            invocations[filter_stage] += 1
            cycles[filter_stage] += filter_cost
            if fast_rows[i]:
                verdict = verdicts[i]
                if verdict < 0:
                    continue
                pf_packets += 1
                pf_bytes += frame_bytes
                if span_nodes is not None:
                    node = verdict >> 1
                    span_nodes[node] = span_nodes.get(node, 0) + 1
                if fast_path:
                    deliver(RawPacket(mbuf=mbuf))
                    fast_packets += 1
                    fast_bytes += frame_bytes
                    continue
                stateful_columnar(mbuf, cols, i, verdict >> 1,
                                  bool(verdict & 1))
                now = self._now
                continue
            result = packet_filter(mbuf)
            if not result.matched:
                continue
            pf_packets += 1
            pf_bytes += frame_bytes
            if span_nodes is not None:
                node = result.node
                span_nodes[node] = span_nodes.get(node, 0) + 1
            if fast_path:
                deliver(RawPacket(mbuf=mbuf))
                fast_packets += 1
                fast_bytes += frame_bytes
                continue
            stateful(mbuf, result)
            now = self._now
        stats.packets += packets
        stats.bytes += wire_bytes
        if self._overload is not None:
            self._overload.ledger.packets_seen += packets
        stats.pf_packets += pf_packets
        stats.pf_bytes += pf_bytes
        if fast_packets:
            stats.connf_packets += fast_packets
            stats.connf_bytes += fast_bytes
            stats.sessf_packets += fast_packets
            stats.sessf_bytes += fast_bytes
        ledger.observe_batched(capture_stage, packets)
        ledger.observe_batched(filter_stage, packets)
        if span_tok is not None:
            spans.finish(stats, self._now, span_tok, span_nodes)

    def process_batch_rows(self, row_mbufs, row_cols, row_idx,
                           row_verdicts) -> None:
        """Like :meth:`_process_batch_columnar`, but over pre-decoded
        ingress rows (four parallel lists).

        The sequential backend decodes each ingress burst and evaluates
        the batch filter *once*, shares the columns with NIC dispatch,
        and hands this pipeline parallel lists of (mbuf, column batch,
        row index, verdict) — so the pipeline must not decode or
        filter again. Verdicts are only meaningful for rows with
        ``cols.fast[i]`` set; slow rows run the scalar filter here,
        exactly as in the batch variant. Per-packet charge ordering,
        counters, and clock movement match the scalar loop bit for bit.
        """
        stats = self.stats
        ledger = stats.ledger
        invocations = ledger.invocations
        cycles = ledger.cycles
        model = ledger.model
        capture_cost = model.capture
        filter_cost = model.packet_filter
        capture_stage = Stage.CAPTURE
        filter_stage = Stage.PACKET_FILTER
        packet_filter = self._filter.packet_filter
        fast_path = not self._needs_conntrack
        deliver = self._deliver
        stateful = self._stateful
        stateful_columnar = self._stateful_columnar
        now = self._now
        ov_next = self._ov_next
        spans = self._spans
        if spans is not None:
            span_tok = spans.start(stats)
            span_nodes = {} if span_tok[0] else None
        else:
            span_tok = None
            span_nodes = None
        packets = 0
        wire_bytes = 0
        pf_packets = 0
        pf_bytes = 0
        fast_packets = 0
        fast_bytes = 0
        for mbuf, cols, i, verdict in zip(row_mbufs, row_cols,
                                          row_idx, row_verdicts):
            ts = mbuf.timestamp
            if ts > now:
                now = ts
                self._now = ts
            if ts >= ov_next:
                self._overload_tick(ts)
                ov_next = self._ov_next
            packets += 1
            frame_bytes = cols.wire[i]
            wire_bytes += frame_bytes
            invocations[capture_stage] += 1
            cycles[capture_stage] += capture_cost
            invocations[filter_stage] += 1
            cycles[filter_stage] += filter_cost
            if cols.fast[i]:
                if verdict < 0:
                    continue
                pf_packets += 1
                pf_bytes += frame_bytes
                if span_nodes is not None:
                    node = verdict >> 1
                    span_nodes[node] = span_nodes.get(node, 0) + 1
                if fast_path:
                    deliver(RawPacket(mbuf=mbuf))
                    fast_packets += 1
                    fast_bytes += frame_bytes
                    continue
                stateful_columnar(mbuf, cols, i, verdict >> 1,
                                  bool(verdict & 1))
                now = self._now
                continue
            result = packet_filter(mbuf)
            if not result.matched:
                continue
            pf_packets += 1
            pf_bytes += frame_bytes
            if span_nodes is not None:
                node = result.node
                span_nodes[node] = span_nodes.get(node, 0) + 1
            if fast_path:
                deliver(RawPacket(mbuf=mbuf))
                fast_packets += 1
                fast_bytes += frame_bytes
                continue
            stateful(mbuf, result)
            now = self._now
        stats.packets += packets
        stats.bytes += wire_bytes
        if self._overload is not None:
            self._overload.ledger.packets_seen += packets
        stats.pf_packets += pf_packets
        stats.pf_bytes += pf_bytes
        if fast_packets:
            stats.connf_packets += fast_packets
            stats.connf_bytes += fast_bytes
            stats.sessf_packets += fast_packets
            stats.sessf_bytes += fast_bytes
        ledger.observe_batched(capture_stage, packets)
        ledger.observe_batched(filter_stage, packets)
        if span_tok is not None:
            spans.finish(stats, self._now, span_tok, span_nodes)

    def process_batch_rows_shared(self, mbufs, cols, verdicts,
                                  wire_total, ts_sorted) -> None:
        """Multi-tenant fan-out fast path over one shared column batch.

        Semantically identical to ``process_batch_rows(mbufs,
        [cols]*n, range(n), verdicts)``, but rejected fast rows — the
        overwhelming majority under a selective tenant filter — are
        accounted in bulk instead of per row, which is where an
        N-tenant multiplexer otherwise spends most of its cycles. The
        caller amortizes ``wire_total`` (sum of ``cols.wire``) and
        ``ts_sorted`` (row timestamps nondecreasing) across tenants.

        Falls back to the per-row variant whenever something genuinely
        needs per-row observation: the overload ladder (tick cadence
        and per-row seen accounting), span profiling, or
        out-of-order row timestamps (the running ``now`` max must see
        every row, matched or not).
        """
        n = cols.n
        if n == 0:
            return
        if self._overload is not None or self._spans is not None \
                or not ts_sorted:
            self.process_batch_rows(mbufs, [cols] * n,
                                    list(range(n)), verdicts)
            return
        stats = self.stats
        ledger = stats.ledger
        model = ledger.model
        capture_stage = Stage.CAPTURE
        filter_stage = Stage.PACKET_FILTER
        ledger.invocations[capture_stage] += n
        ledger.invocations[filter_stage] += n
        # Cycle charges replay the per-row accumulation order exactly:
        # float addition is not associative, and these sums feed
        # byte-compared report fields (stage_cycles, zero-loss Gbps).
        cycles = ledger.cycles
        capture_cost = model.capture
        filter_cost = model.packet_filter
        c_cap = cycles[capture_stage]
        c_flt = cycles[filter_stage]
        for _ in range(n):
            c_cap += capture_cost
            c_flt += filter_cost
        cycles[capture_stage] = c_cap
        cycles[filter_stage] = c_flt
        fast = cols.fast
        wires = cols.wire
        packet_filter = self._filter.packet_filter
        fast_path = not self._needs_conntrack
        deliver = self._deliver
        stateful = self._stateful
        stateful_columnar = self._stateful_columnar
        pf_packets = 0
        pf_bytes = 0
        fast_packets = 0
        fast_bytes = 0
        for i in [i for i, v in enumerate(verdicts)
                  if v >= 0 or not fast[i]]:
            mbuf = mbufs[i]
            ts = mbuf.timestamp
            if ts > self._now:
                self._now = ts
            frame_bytes = wires[i]
            if fast[i]:
                verdict = verdicts[i]
                pf_packets += 1
                pf_bytes += frame_bytes
                if fast_path:
                    deliver(RawPacket(mbuf=mbuf))
                    fast_packets += 1
                    fast_bytes += frame_bytes
                    continue
                stateful_columnar(mbuf, cols, i, verdict >> 1,
                                  bool(verdict & 1))
            else:
                result = packet_filter(mbuf)
                if not result.matched:
                    continue
                pf_packets += 1
                pf_bytes += frame_bytes
                if fast_path:
                    deliver(RawPacket(mbuf=mbuf))
                    fast_packets += 1
                    fast_bytes += frame_bytes
                    continue
                stateful(mbuf, result)
        # Rows are ts-sorted, so the burst's clock high-water mark is
        # the last row's — matched or not (the per-row loop advances
        # `now` on rejected rows too).
        last_ts = mbufs[n - 1].timestamp
        if last_ts > self._now:
            self._now = last_ts
        stats.packets += n
        stats.bytes += wire_total
        stats.pf_packets += pf_packets
        stats.pf_bytes += pf_bytes
        if fast_packets:
            stats.connf_packets += fast_packets
            stats.connf_bytes += fast_bytes
            stats.sessf_packets += fast_packets
            stats.sessf_bytes += fast_bytes
        ledger.observe_batched(capture_stage, n)
        ledger.observe_batched(filter_stage, n)

    # ------------------------------------------------------------------
    # stateful processing
    # ------------------------------------------------------------------
    def _stateful_columnar(self, mbuf: Mbuf, cols, i: int,
                           node: int, terminal: bool) -> None:
        """Columnar variant of :meth:`_stateful` for fast rows.

        The connection key is assembled straight from the decoded
        columns — no :func:`parse_stack`, no header views, and no
        :class:`FiveTuple`: a packet flows from the originator when its
        source sorts first in the key exactly if the creating packet's
        did. Connections that still probe, parse, or stream slice their
        payload at the row's ``payload_off``; pure TRACK-state flows
        never touch it.
        """
        stats = self.stats
        ledger = stats.ledger
        if ledger.hist is None:
            # ``charge`` unrolled: two dict updates instead of a method
            # call plus a ``Stage.value`` descriptor read — the single
            # hottest line of the columnar path. Telemetry runs keep
            # the real call so stage histograms stay identical.
            ledger.invocations[_CONN_TRACK] += 1
            ledger.cycles[_CONN_TRACK] += self._ct_cost
        else:
            ledger.charge(_CONN_TRACK)
        now = self._now
        wire = cols.wire[i]
        sip = cols.src_ip[i]
        dip = cols.dst_ip[i]
        sp = cols.src_port[i]
        dp = cols.dst_port[i]
        proto = cols.proto[i]
        src_first = (sip, sp) <= (dip, dp)
        if src_first:
            key = (sip, sp, dip, dp, proto)
        else:
            key = (dip, dp, sip, sp, proto)
        table = self.table
        conn = table.lookup_key(key)
        created = conn is None
        if created:
            block = self._ov_block
            shed_map = self._ov_shed
            if block or shed_map:
                tag = shed_map.get(key)
                if tag is None and block and (
                        block == 2 or self._level is Level.PACKET):
                    ctl = self._overload
                    tag = (ctl.rung, "packet_filter" if block == 1
                           else "connection_filter")
                    shed_map[key] = tag
                if tag is not None:
                    stats.conns_shed += 1
                    self._overload.ledger.record_shed(
                        tag[0], tag[1], wire)
                    self._maybe_expire()
                    return
            if self._shedding:
                stats.conns_shed += 1
                return
            conn = table.create_with_key(key, src_first, now)
            stats.conns_created += 1
            if self._tracer is not None:
                self._tracer.record(conn, now, "created")
            self._init_connection(conn, node, terminal)
        from_orig = src_first == conn.orig_first
        payload_len = cols.payload_len[i]
        if proto == 6:
            flags = cols.tcp_flags[i]
            seq = cols.tcp_seq[i]
        else:
            flags = None
            seq = None
        newly_established = conn.record_packet(
            from_orig, wire, payload_len, now, flags, seq
        )
        # ``create_with_key`` armed the establishment timer at this very
        # deadline; only a creating packet that establishes migrates.
        if not created or conn.established:
            table.touch(conn, now, newly_established)

        state = conn.state
        if state is _TRACK:
            if self._level is Level.PACKET and conn.matched:
                self._deliver(RawPacket(mbuf=mbuf,
                                        five_tuple=conn.five_tuple))
            elif self._streams_bytes and conn.matched:
                off = cols.payload_off[i]
                self._handle_stream_segments(conn, self._reassemble(
                    conn, mbuf, bytes(mbuf.data[off:off + payload_len]),
                    from_orig, seq, flags))
        elif state in _PROBE_OR_PARSE:
            if self._buffers_packets and not conn.matched:
                conn.buffer_packet(mbuf)
            off = cols.payload_off[i]
            segments = self._reassemble(
                conn, mbuf, bytes(mbuf.data[off:off + payload_len]),
                from_orig, seq, flags)
            if self._streams_bytes:
                self._handle_stream_segments(conn, segments)
            if segments:
                if conn.state is ConnState.PROBE:
                    self._probe(conn, segments)
                elif conn.state is ConnState.PARSE:
                    self._parse(conn, segments)
        # DELETE (ignore tombstone): nothing to do.

        if conn.state is not _DELETE and \
                conn.conn_term_node is not None:
            stats.connf_packets += 1
            stats.connf_bytes += wire
            if conn.matched:
                stats.sessf_packets += 1
                stats.sessf_bytes += wire

        if conn.terminated and conn.state is not _DELETE:
            self._finalize(conn, delivered_by="termination")
        self._maybe_expire()

    def _stateful(self, mbuf: Mbuf, result) -> None:
        stats = self.stats
        ledger = stats.ledger
        ledger.charge(Stage.CONN_TRACK)
        stack = mbuf.stack
        if stack is None:  # match-all filters skip the layer walk
            stack = parse_stack(mbuf)
        five_tuple = FiveTuple.from_stack(stack)
        if five_tuple is None:
            # Non-transport traffic cannot be tracked; packet-level
            # subscriptions with a satisfied filter still get it —
            # the full filter was satisfied, so the packet survives
            # the remaining funnel layers.
            if result.terminal and self._level is Level.PACKET:
                self._deliver(RawPacket(mbuf=mbuf))
                wire = len(mbuf.data)
                stats.connf_packets += 1
                stats.connf_bytes += wire
                stats.sessf_packets += 1
                stats.sessf_bytes += wire
            return
        block = self._ov_block
        shed_map = self._ov_shed
        if (block or shed_map) and self.table.lookup(five_tuple) is None:
            # Overload ladder admission gate. Rung 1 refuses new
            # connections whose only use is packet-level delivery
            # (their packets already matched the packet filter — the
            # conntrack/probe work is pure overhead under pressure);
            # rung 2+ refuses all new connections. Established flows
            # are never touched here, so their results stay bit-exact —
            # and once a flow's start is refused, the rest of it is
            # too, so no half-seen flow ever surfaces as a record.
            key = five_tuple.canonical()
            tag = shed_map.get(key)
            if tag is None and block and (
                    block == 2 or self._level is Level.PACKET):
                ctl = self._overload
                tag = (ctl.rung, "packet_filter" if block == 1
                       else "connection_filter")
                shed_map[key] = tag
            if tag is not None:
                stats.conns_shed += 1
                self._overload.ledger.record_shed(
                    tag[0], tag[1], len(mbuf.data))
                # Keep the timer wheel advancing on shed packets:
                # admitted connections must expire at exactly the same
                # virtual times as in an unshedded run.
                self._maybe_expire()
                return
        if self._shedding and self.table.lookup(five_tuple) is None:
            # memory_policy="shed": while this core is over its memory
            # share, refuse to create new flow state (existing flows
            # keep being processed).
            stats.conns_shed += 1
            return
        conn, created = self.table.get_or_create(five_tuple, self._now)
        if created:
            stats.conns_created += 1
            if self._tracer is not None:
                self._tracer.record(conn, self._now, "created")
            self._init_connection(conn, result.node, result.terminal)
        from_orig = five_tuple.src_is_first() == conn.orig_first
        # Only the payload *length* is needed for accounting; the bytes
        # are sliced lazily below, and only for connections that still
        # probe/parse/stream (TRACK-state flows skip the copy).
        payload_len = stack.l4_payload_len()
        tcp = stack.tcp
        flags = tcp.flags_raw() if tcp is not None else None
        seq = tcp.seq_no() if tcp is not None else None
        newly_established = conn.record_packet(
            from_orig, len(mbuf.data), payload_len, self._now, flags, seq
        )
        if not created or conn.established:  # else armed by the create
            self.table.touch(conn, self._now, newly_established)

        state = conn.state
        if state is ConnState.TRACK:
            if self._level is Level.PACKET and conn.matched:
                self._deliver(RawPacket(mbuf=mbuf,
                                        five_tuple=conn.five_tuple))
            elif self._streams_bytes and conn.matched:
                # Byte-stream subscriptions keep the reorderer alive
                # past the filter match: the stream IS the data.
                segments = self._reassemble(conn, mbuf, stack.l4_payload(),
                                            from_orig, seq, flags)
                self._handle_stream_segments(conn, segments)
        elif state in (ConnState.PROBE, ConnState.PARSE):
            if self._buffers_packets and not conn.matched:
                conn.buffer_packet(mbuf)
            segments = self._reassemble(conn, mbuf, stack.l4_payload(),
                                        from_orig, seq, flags)
            if self._streams_bytes:
                self._handle_stream_segments(conn, segments)
            if segments:
                if conn.state is ConnState.PROBE:
                    self._probe(conn, segments)
                elif conn.state is ConnState.PARSE:
                    self._parse(conn, segments)
        # DELETE (ignore tombstone): nothing to do.

        # Funnel attribution: this packet survives the connection
        # layer if, after processing it, its connection has passed the
        # connection filter (or needed none) and is still live; it
        # survives the session layer if the full filter is satisfied.
        # Undecided (probing) and rejected connections drop here.
        if conn.state is not ConnState.DELETE and \
                conn.conn_term_node is not None:
            wire = len(mbuf.data)
            stats.connf_packets += 1
            stats.connf_bytes += wire
            if conn.matched:
                stats.sessf_packets += 1
                stats.sessf_bytes += wire

        if conn.terminated and conn.state is not ConnState.DELETE:
            self._finalize(conn, delivered_by="termination")
        self._maybe_expire()

    def _init_connection(self, conn: Connection, node: int,
                         terminal: bool) -> None:
        conn.pkt_term_node = node
        needs_sessions = self._level is Level.SESSION
        if terminal:
            conn.matched = True
            conn.conn_term_node = FILTER_SATISFIED
            if self._tracer is not None:
                self._tracer.record(conn, self._now, "matched", "packet")
            if needs_sessions or (
                self.sub.identify_services
                and self._level is Level.CONNECTION
            ):
                # Session subscriptions must parse; service-labeling
                # connection subscriptions probe until identification.
                self._enter_probe(conn)
            else:
                conn.state = ConnState.TRACK
                if self._streams_bytes:
                    # The stream itself is the subscription data.
                    self._create_reassembler(conn)
        else:
            self._enter_probe(conn)

    def _enter_probe(self, conn: Connection) -> None:
        conn.state = ConnState.PROBE
        if self._streams_bytes or self._probe_protocols:
            self._create_reassembler(conn)
        if not self._probe_protocols:
            # The filter needs a connection-layer decision but no
            # parser can make one: resolve immediately as no service.
            self._on_service_resolved(conn, None)
            return
        candidates = self.sub.parser_registry.create_set(
            self._probe_protocols)
        conn.parser = _ProbeContext(candidates)

    def _create_reassembler(self, conn: Connection) -> None:
        if conn.key[4] != PROTO_TCP or \
                conn.reassembler is not None:
            return
        if self.config.reassembler == "buffered":
            conn.reassembler = BufferedReassembler()
        else:
            # The stats sink mirrors the reorderer's rare-path discard
            # counters (dup/overlap/stale/overflow) onto the per-core
            # funnel telemetry; the adaptive window knobs come from
            # config (off by default — the fixed ring is the paper's).
            conn.reassembler = LazyReassembler(
                self.config.ooo_capacity,
                adaptive=self.config.ooo_adaptive,
                min_capacity=self.config.ooo_min_capacity,
                max_capacity=self.config.ooo_max_capacity,
                stats=self.stats)

    # -- reassembly ----------------------------------------------------------
    def _reassemble(self, conn: Connection, mbuf: Mbuf, payload: bytes,
                    from_orig: bool, seq, flags) -> List[StreamSegment]:
        """Row-shaped: both state machines hold ``from_orig``/``seq``/
        ``flags`` already (from the stack or from the burst's columns)."""
        if conn.key[4] == PROTO_UDP:
            if not payload:
                return []
            return [StreamSegment(payload, from_orig, self._now)]
        if conn.reassembler is None:
            return []
        pdu = L4Pdu(mbuf, payload, seq, flags, from_orig, mbuf.timestamp)
        # Every segment of a connection still being probed/parsed goes
        # through the reorderer (sequence tracking examines ACKs too).
        model = self.stats.ledger.model
        if self.config.reassembler == "buffered":
            # Traditional design additionally memcpys every payload
            # byte into the stream buffer.
            self.stats.ledger.charge_cycles(
                Stage.REASSEMBLY,
                model.reassembly +
                model.reassembly_copy_per_byte * len(payload),
            )
            segments = conn.reassembler.push(pdu)
            dropped = conn.reassembler.drain_truncations()
            if dropped:
                # max_buffer overflow: the stream was truncated at a
                # hole. Surface it as an explicit event (telemetry +
                # loss ledger), not just a memory-accounting blip.
                stats = self.stats
                for nbytes in dropped:
                    stats.reasm_truncations += 1
                    stats.reasm_truncated_bytes += nbytes
                    if self._overload is not None:
                        self._overload.ledger.record_truncation(nbytes)
                if self._tracer is not None:
                    self._tracer.record(conn, self._now, "truncated")
            return segments
        self.stats.ledger.charge(Stage.REASSEMBLY)
        return conn.reassembler.push(pdu)

    # -- probing ---------------------------------------------------------------
    def _probe(self, conn: Connection, segments: List[StreamSegment]) -> None:
        context = conn.parser
        if not isinstance(context, _ProbeContext):
            return
        ledger = self.stats.ledger
        injector = self._injector
        for segment in segments:
            if not segment.payload:
                continue
            context.pending.append(segment)
            context.bytes_probed += len(segment.payload)
            ledger.charge(Stage.PARSING)
            # Parser isolation boundary: a ProtocolError out of probe()
            # (real or injected) resolves the connection as "no
            # service" instead of tearing the core down. The resolution
            # itself runs outside the try so a CallbackError raised
            # downstream is never swallowed here.
            matched_parser = None
            failed = False
            still_unsure = []
            try:
                if injector is not None:
                    injector.on_parse()
                for parser in context.candidates:
                    outcome = parser.probe(segment)
                    if outcome is ProbeResult.MATCH:
                        matched_parser = parser
                        break
                    if outcome is ProbeResult.UNSURE:
                        still_unsure.append(parser)
            except ProtocolError:
                self.stats.parser_exceptions += 1
                failed = True
                if self._spans is not None:
                    self._spans.trigger("parser_error", "probe",
                                        self._now)
            if failed:
                self._on_service_resolved(conn, None)
                return
            if matched_parser is not None:
                self._on_service_resolved(conn, matched_parser)
                return
            context.candidates = still_unsure
            if not context.candidates or \
                    context.bytes_probed > self.config.probe_byte_limit:
                if context.bytes_probed > self.config.probe_byte_limit:
                    self.stats.probe_giveups += 1
                self._on_service_resolved(conn, None)
                return

    def _on_service_resolved(self, conn: Connection, parser) -> None:
        """Probe finished: run the connection filter and transition."""
        context = conn.parser if isinstance(conn.parser, _ProbeContext) \
            else None
        pending = context.pending if context is not None else []
        if parser is not None:
            conn.service_name = parser.protocol
            conn.parser = parser
        else:
            conn.parser = None
        if self._tracer is not None:
            self._tracer.record(conn, self._now, "probed",
                                parser.protocol if parser else "none")

        if conn.matched:
            # Filter satisfied before the connection layer. Session
            # subscriptions still need parsed sessions; everything else
            # just keeps tracking.
            if self._level is Level.SESSION and parser is not None:
                conn.state = ConnState.PARSE
                self._parse(conn, pending)
            elif self._level is Level.SESSION:
                self._discard(conn)  # can never produce a session
            else:
                self._stop_heavy_processing(conn, ConnState.TRACK)
            return

        result = self._filter.connection_filter(conn, conn.pkt_term_node)
        if not result.matched:
            self._discard(conn)
            return
        conn.conn_term_node = result.node
        if result.terminal:
            conn.matched = True
            if self._tracer is not None:
                self._tracer.record(conn, self._now, "matched",
                                    "connection")
            self._on_full_match(conn)
            if self._level is Level.SESSION:
                if parser is None:
                    self._discard(conn)
                else:
                    conn.state = ConnState.PARSE
                    self._parse(conn, pending)
            else:
                # Packet/connection subscriptions need no parsed
                # sessions: stop probing/reassembling, keep tracking.
                self._stop_heavy_processing(conn, ConnState.TRACK)
            return
        # Session predicates remain: parse until sessions complete.
        if parser is None:
            self._discard(conn)
            return
        conn.state = ConnState.PARSE
        self._parse(conn, pending)

    # -- parsing ---------------------------------------------------------------
    def _parse(self, conn: Connection, segments: List[StreamSegment]) -> None:
        ledger = self.stats.ledger
        injector = self._injector
        for segment in segments:
            if conn.state is not ConnState.PARSE:
                break
            if not segment.payload:
                continue
            ledger.charge(Stage.PARSING)
            # Parser isolation boundary (see _probe): only the parser
            # invocation is guarded; _on_session — which can raise
            # CallbackError — runs outside the try.
            try:
                if injector is not None:
                    injector.on_parse()
                result = conn.parser.parse(segment)
                sessions = conn.parser.drain_sessions()
            except ProtocolError:
                self.stats.parser_exceptions += 1
                if self._spans is not None:
                    self._spans.trigger("parser_error", "parse",
                                        self._now)
                self._on_parse_error(conn)
                break
            for session in sessions:
                self._on_session(conn, session)
                if conn.state is not ConnState.PARSE:
                    break
            if result is ParseResult.ERROR:
                self._on_parse_error(conn)
                break

    def _on_session(self, conn: Connection, session: Session) -> None:
        self.stats.ledger.charge(Stage.SESSION_FILTER)
        self.stats.sessions_parsed += 1
        if conn.conn_term_node == FILTER_SATISFIED:
            matched = True
        else:
            matched = self._filter.session_filter(session,
                                                  conn.conn_term_node)
        if self._tracer is not None:
            self._tracer.record(conn, self._now, "parsed",
                                "match" if matched else "nomatch")
        parser = conn.parser
        if matched:
            self.stats.sessions_matched += 1
            if self._level is Level.SESSION:
                self._deliver(self.sub.datatype(
                    session=session, five_tuple=conn.five_tuple))
                if self._tracer is not None:
                    self._tracer.record(conn, self._now, "delivered",
                                        "session")
                next_state = parser.session_match_state()
                if next_state == "parse":
                    conn.state = ConnState.PARSE
                else:
                    # Figure 4b: nothing more can come of this
                    # connection — deliver and drop it early (a
                    # completed delivery, not a filter rejection).
                    self._discard(conn, rejected=False)
            else:
                conn.matched = True
                if self._tracer is not None:
                    self._tracer.record(conn, self._now, "matched",
                                        "session")
                self._on_full_match(conn)
                self._stop_heavy_processing(
                    conn,
                    ConnState.TRACK,
                )
        else:
            next_state = parser.session_nomatch_state() if parser else \
                "delete"
            if next_state == "delete" and not conn.matched:
                self._discard(conn)
            # "parse": keep going — later sessions may match (HTTP).

    def _on_parse_error(self, conn: Connection) -> None:
        """Malformed L7 data: keep the connection if already matched,
        otherwise it can no longer satisfy the filter."""
        if conn.matched and self._level is not Level.SESSION:
            self._stop_heavy_processing(conn, ConnState.TRACK)
        else:
            self._discard(conn)

    def _on_full_match(self, conn: Connection) -> None:
        """The whole filter just matched mid-connection."""
        if self._level is Level.PACKET and conn.buffered_mbufs:
            for mbuf in conn.drain_buffered():
                self._deliver(RawPacket(mbuf=mbuf,
                                        five_tuple=conn.five_tuple))
        if self._streams_bytes and conn.user_data:
            # Release the stream chunks held while the filter resolved.
            for segment in conn.user_data:
                self._deliver_chunk(conn, segment)
            conn.user_data = None

    def _handle_stream_segments(self, conn: Connection,
                                segments) -> None:
        """Byte-stream subscriptions: deliver (or hold) in-order chunks."""
        if not segments:
            return
        if conn.matched:
            for segment in segments:
                self._deliver_chunk(conn, segment)
        else:
            if conn.user_data is None:
                conn.user_data = []
            conn.user_data.extend(segments)

    def _deliver_chunk(self, conn: Connection, segment) -> None:
        self._deliver(StreamChunk(
            payload=segment.payload,
            from_orig=segment.from_orig,
            timestamp=segment.timestamp,
            five_tuple=conn.five_tuple,
        ))

    # -- state transitions -----------------------------------------------------
    def _stop_heavy_processing(self, conn: Connection,
                               state: ConnState) -> None:
        """Enter TRACK: free the parser (and the reassembler, unless
        the subscription streams bytes), keep counters."""
        conn.state = state
        conn.parser = None
        if not self._streams_bytes:
            conn.reassembler = None
        if self._level is not Level.PACKET:
            conn.drop_buffered()

    def _discard(self, conn: Connection, rejected: bool = True) -> None:
        """Filter rejected (or nothing more to deliver): drop all heavy
        state and leave an inert tombstone (see module docstring).

        ``rejected=False`` marks cleanup after a completed delivery or
        natural termination — not a funnel drop — so it is excluded
        from the discard counter and the trace.
        """
        if rejected:
            self.stats.conns_discarded += 1
            if self._tracer is not None:
                self._tracer.record(conn, self._now, "discarded")
        conn.state = ConnState.DELETE
        conn.parser = None
        conn.reassembler = None
        conn.drop_buffered()
        conn.user_data = None

    # -- termination and expiry --------------------------------------------------
    def _finalize(self, conn: Connection, delivered_by: str) -> None:
        """Connection ended (FIN/RST): deliver, then linger briefly.

        The entry stays in the table as a lightweight TIME_WAIT-like
        tombstone so the trailing ACK of the FIN exchange does not
        re-create the connection; a short timer removes it.
        """
        self._deliver_connection(conn)
        self._discard(conn, rejected=False)
        # With no timer tiers configured (the Figure 8 no-timeout
        # ablation) the tombstone simply stays resident — consistent
        # with "nothing is ever freed".
        self.table.schedule_removal(conn, self._now)

    def _deliver_connection(self, conn: Connection) -> None:
        if self._streams_bytes:
            return  # chunks were delivered as they arrived
        if (self._level is Level.CONNECTION and conn.matched
                and not conn.delivered):
            conn.delivered = True
            self._deliver(ConnectionRecord.from_connection(conn))
            self.stats.conns_delivered += 1
            if self._tracer is not None:
                self._tracer.record(conn, self._now, "delivered",
                                    "connection")

    def _maybe_expire(self, force: bool = False) -> None:
        if not force and self._now - self._last_expire < 0.25:
            return
        self._last_expire = self._now
        tracer = self._tracer
        for conn in self.table.expire(self._now):
            self.stats.conns_expired += 1
            self._deliver_connection(conn)
            if tracer is not None:
                tracer.record(conn, self._now, "expired")

    def advance_time(self, now: float) -> None:
        """Move virtual time forward (idle periods, end of trace)."""
        self._now = max(self._now, now)
        self._maybe_expire(force=True)

    def drain(self) -> None:
        """End of run: deliver still-live matched connections."""
        for conn in self.table.drain():
            self._deliver_connection(conn)

    # -- delivery ---------------------------------------------------------------
    def _deliver(self, obj) -> None:
        stats = self.stats
        if self._quarantined:
            # Post-quarantine deliveries are still counted and charged
            # exactly like real ones (baseline-equal accounting); only
            # the user function is withheld.
            rx_cycles = self._executor.record_suppressed()
            stats.callbacks_suppressed += 1
        else:
            try:
                if self._injector is not None:
                    self._injector.on_deliver()
                rx_cycles = self._executor.submit(obj)
            except Exception as exc:
                stats.ledger.charge_cycles(Stage.CALLBACK,
                                           self._cb_error_cycles)
                stats.callbacks += 1
                self._on_callback_error(exc)
                return
        stats.ledger.charge_cycles(Stage.CALLBACK, rx_cycles)
        stats.callbacks += 1

    def _on_callback_error(self, exc: Exception) -> None:
        """A delivery's callback (real or injected) raised."""
        if not self._isolate:
            raise CallbackError(
                f"subscription callback raised on core {self.core_id}: "
                f"{exc!r}") from exc
        stats = self.stats
        stats.callback_errors += 1
        if stats.callback_errors >= self._error_budget and \
                not self._quarantined:
            self._quarantined = True
            stats.callback_quarantined = 1
            if self._spans is not None:
                self._spans.trigger(
                    "callback_quarantine",
                    "quarantined after %d errors" % stats.callback_errors,
                    self._now)

    # -- monitoring ---------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Resident connection-table bytes, plus any injected memory
        spike active at the pipeline's virtual time."""
        memory = self.table.memory_bytes
        if self._injector is not None:
            memory += self._injector.memory_spike_bytes(self._now)
        return memory

    def sample_memory(self) -> None:
        stats = self.stats
        if self._memory_share is not None:
            self._enforce_memory()
        stats.sample_memory(
            self._now, len(self.table), self.memory_bytes
        )
        if stats.reasm_hist is not None:
            occupancy = 0
            for conn in self.table:
                reassembler = conn.reassembler
                if reassembler is not None:
                    occupancy += reassembler.memory_bytes
            stats.observe_reasm_occupancy(occupancy)

    def _enforce_memory(self) -> None:
        """Apply the evict/shed memory policy against this core's share
        of ``memory_limit_bytes`` (called at the memory-sample cadence,
        which is parent-clocked — identical across backends)."""
        share = self._memory_share
        spike = (self._injector.memory_spike_bytes(self._now)
                 if self._injector is not None else 0)
        if self.table.memory_bytes + spike <= share:
            self._shedding = False
            return
        stats = self.stats
        if self.config.memory_policy == "shed":
            self._shedding = True
            return
        # "evict": force-expire idle flows, oldest activity first.
        try:
            victims = self.table.evict_idle(share - spike)
        except ResourceExhaustedError:
            # Even an empty table would sit above the share (an
            # injected spike, or the share itself is tiny): evict
            # everything evictable and degrade further by shedding
            # new connections until the pressure passes.
            victims = self.table.evict_idle(0)
            self._shedding = True
        tracer = self._tracer
        for conn in victims:
            stats.conns_evicted += 1
            self._deliver_connection(conn)
            if tracer is not None:
                tracer.record(conn, self._now, "evicted")

    # -- overload control (repro.overload) --------------------------------
    def _overload_tick(self, now: float) -> None:
        """One controller evaluation at virtual time ``now`` (reached
        via the per-packet ``ts >= ov_next`` compare)."""
        ctl = self._overload
        rung_before = ctl.rung
        tripped = ctl.evaluate(now, self.stats.ledger.busy_seconds,
                               self.table.memory_bytes,
                               self._ov_mem_share)
        self._ov_next = now + ctl.interval
        self._ov_block = ctl.admission_block
        if self._spans is not None and ctl.rung > rung_before:
            self._spans.trigger(
                "overload_rung",
                "rung %d->%d" % (rung_before, ctl.rung), now)
        if ctl.downgrading and not tripped:
            self._overload_downgrade(now)
        if tripped and self.overload_failfast_at is None:
            self.overload_failfast_at = now
            ctl.ledger.failfast_at = now

    def _overload_downgrade(self, now: float) -> None:
        """Rung 3's per-connection circuit breaker: disable lazy
        reassembly / session parsing for the heaviest still-probing
        connections. Matched connections keep being tracked (their
        connection records still deliver, with full packet/byte
        counts); connections whose filter verdict depended on the now-
        abandoned parse can no longer resolve and drop to a tombstone."""
        victims = self.table.heavy_connections(
            self.config.overload_heavy_bytes)
        if not victims:
            return
        ledger = self._overload.ledger
        tracer = self._tracer
        for conn in victims:
            ledger.record_downgrade()
            if tracer is not None:
                tracer.record(conn, now, "downgraded")
            if conn.matched and self._level is not Level.SESSION:
                self._stop_heavy_processing(conn, ConnState.TRACK)
            else:
                self._discard(conn, rejected=False)

    @property
    def overload_rung(self) -> int:
        """The ladder's current rung (0 when the policy is off)."""
        return self._overload.rung if self._overload is not None else 0

    @property
    def overload_shed_packets(self) -> int:
        return (self._overload.ledger.packets_shed
                if self._overload is not None else 0)

    def set_span_ctx(self, ctx) -> None:
        """Stamp the IPC span context for the next burst (the parallel
        worker loop calls this with the ``(queue, seq)`` that rode the
        :class:`~repro.packet.batch.PackedBatch`), stitching worker
        spans into the parent's trace."""
        if self._spans is not None:
            self._spans.ctx = ctx

    def fold_fault_counters(self) -> None:
        """Merge the injector's injection counts into the stats
        snapshot (idempotent; called before stats leave the core)."""
        if self._injector is not None and self._injector.counters:
            stats = self.stats
            for kind, count in self._injector.counters.items():
                stats.fault_counters[kind] = \
                    stats.fault_counters.get(kind, 0) + count
            self._injector.counters.clear()
        if self._spans is not None:
            # Re-snapshot each time (idempotent): the recorder's state
            # is complete at every fold point, and the snapshot ships
            # home with the pickled CoreStats.
            self.stats.spans = self._spans.snapshot()
