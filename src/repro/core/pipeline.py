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

The core's cycle ledger, this reproduction's stand-in for a 3 GHz
core's time, prices the counts the pipeline keeps (packets, sessions
parsed, deliveries) and counts only conn-tracking, reassembly and
parsing itself.

One documented deviation from the paper: where Retina deletes a
connection the filter has rejected (or already delivered), this
pipeline keeps a 512-byte "ignore" tombstone in the table until the
inactivity timeout. The tombstone prevents subsequent packets of the
same flow from re-creating the connection and re-probing ciphertext;
CPU behaviour matches the paper's, and memory stays bounded by the same
timer wheels.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # avoid a config<->core import cycle at runtime
    from repro.config import RuntimeConfig

from repro.conntrack.conn import ConnState, Connection
from repro.conntrack.five_tuple import PACK_KEY4, PACK_KEY6
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
from repro.packet.columnar import ColumnarBatch, decode_mbufs
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP
from repro.packet.mbuf import Mbuf
from repro.packet.stack import parse_stack
from repro.protocols.base import ParseResult, ProbeResult, Session
from repro.resilience.faults import CoreFaultInjector
from repro.stream.buffered import BufferedReassembler
from repro.stream.pdu import L4Pdu, StreamSegment
from repro.stream.reassembly import ADAPTIVE_MAX_CAPACITY, \
    ADAPTIVE_MIN_CAPACITY, LazyReassembler

#: Sentinel for "filter already satisfied before the session layer":
#: the session filter is skipped and sessions match unconditionally.
FILTER_SATISFIED = -1

#: Give up probing a connection after this many payload bytes without
#: any parser matching.
PROBE_BYTE_LIMIT = 4096

# Enum members hoisted to module scope: the stateful path runs
# once per matched packet, and member access on an Enum class costs a
# class-dict lookup that adds up at 100k+ pkts/s.
_PROBE = ConnState.PROBE
_PARSE = ConnState.PARSE
_TRACK = ConnState.TRACK
_DELETE = ConnState.DELETE
_PROBE_OR_PARSE = (_PROBE, _PARSE)
_PACKET_LEVEL = Level.PACKET
_CONNECTION_LEVEL = Level.CONNECTION
_SESSION_LEVEL = Level.SESSION

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
        if executor is None:
            from repro.core.executor import InlineExecutor
            executor = InlineExecutor(subscription.callback,
                                      config.callback_cycles)
        self._executor = executor
        self.stats = CoreStats(config.cost_model,
                               telemetry=config.telemetry,
                               rx_cycles=executor.rx_cycles)
        if config.trace_sample > 0:
            from repro.telemetry.trace import ConnectionTracer
            self._tracer = ConnectionTracer(config.trace_sample,
                                            self.stats.trace_events)
        else:
            self._tracer = None
        self._filter = subscription.filter
        #: Batch packet filter over decoded columns; None when no row
        #: will be fast (``config.columnar=False``, the parity tests'
        #: reference) or when the filter trie uses predicates the
        #: columnar layer cannot express: every row then carries
        #: verdict ``None`` and runs the scalar filter in the loop.
        self._pf_batch = (subscription.filter.packet_filter_batch
                          if config.columnar else None)
        # -- burst span recorder (repro.telemetry.spans) ----------------
        # None when disabled: the batch loops then pay one ``is None``
        # check per burst and the per-packet loops stay untouched (the
        # "no-op recorder" path). Enabled recorders snapshot the core's
        # counters at burst boundaries only.
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

    @property
    def live_connections(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # packet entry point
    # ------------------------------------------------------------------
    def process_packet(self, mbuf: Mbuf) -> None:
        self.process_batch((mbuf,))

    def process_batch(self, mbufs) -> None:
        """Run a burst of packets (one receive queue's share of a DPDK
        burst) through the pipeline: the headers are decoded in bulk
        (:func:`~repro.packet.columnar.decode_mbufs`), the packet filter
        runs once over the columns as mask predicates, and the rows go
        through :meth:`process_batch_rows`."""
        if type(mbufs) is not list and type(mbufs) is not tuple:
            mbufs = list(mbufs)
        cols = decode_mbufs(mbufs, self.config.columnar)
        pf_batch = self._pf_batch
        self.process_batch_rows(zip(
            mbufs, repeat(None), repeat(cols), range(len(mbufs)),
            pf_batch(cols) if pf_batch is not None else repeat(None)))

    def process_batch_rows(self, rows) -> None:
        """The per-row loop, over one burst of ``(mbuf, queue, cols, i,
        verdict)`` rows as :func:`~repro.packet.columnar.ingress_rows`
        yields them: the frame, the column batch it was decoded into,
        its row there and the batch filter's verdict on it (the queue
        is not read). The sequential backend decodes and filters each
        ingress burst *once*, so nothing happens twice here.

        A verdict is ``(node << 1) | terminal`` (negative: no match)
        and only meaningful where ``cols.fast[i]``; slow rows, and every
        row when the filter is not batch-expressible (verdict ``None``),
        run the scalar ``packet_filter`` here instead. Fast rows key
        conntrack straight off their columns either way.

        The hot path: every per-packet attribute lookup and bound
        method is hoisted out of the loop. Capture and the packet
        filter are priced off ``stats.packets``, conn-tracking off the
        rows the packet filter passed: each is folded in once per burst.
        """
        stats = self.stats
        counts = stats.ledger.counts
        packet_filter = self._filter.packet_filter
        fast_path = not self._needs_conntrack
        deliver = self._deliver
        stateful = self._stateful
        stateful_columnar = self._stateful_columnar
        now = self._now
        ov_next = self._ov_next
        spans = self._spans
        span_tok = span_nodes = None
        if spans is not None:
            span_tok = spans.start(stats)
            if span_tok[0]:
                span_nodes = {}
        packets = 0
        ticked = ticked_pf = 0  # rows, pf survivors counted in by ticks
        wire_bytes = 0
        # Funnel survivor counters, accumulated in locals and folded
        # into stats once per batch (telemetry stays near-free on the
        # hot path). The fast path — and a non-transport frame
        # delivered from the slow-row adapter — satisfies the whole
        # filter at the packet layer, so it survives every funnel layer.
        pf_packets = 0
        pf_bytes = 0
        fast_packets = 0
        fast_bytes = 0
        for mbuf, _queue, cols, i, verdict in rows:
            ts = mbuf.timestamp
            if ts > now:
                now = ts
                self._now = ts
            if ts >= ov_next:
                # Controller tick: clocked on the per-core virtual
                # packet stream, so transitions are identical across
                # backends and batch boundaries. It reads the ledger's
                # busy time, so the rows so far are counted in first.
                stats.packets += packets - ticked
                if not fast_path:
                    counts[Stage.CONN_TRACK] += pf_packets - ticked_pf
                ticked, ticked_pf = packets, pf_packets
                self._overload_tick(ts)
                ov_next = self._ov_next
            packets += 1
            frame_bytes = cols.wire[i]
            wire_bytes += frame_bytes
            fast_row = cols.fast[i]
            if not fast_row or verdict is None:
                result = packet_filter(mbuf)
                if not result.matched:
                    continue
                verdict = (result.node << 1) | result.terminal
            elif verdict < 0:
                continue
            pf_packets += 1
            pf_bytes += frame_bytes
            if span_nodes is not None:
                node = verdict >> 1
                span_nodes[node] = span_nodes.get(node, 0) + 1
            if fast_path:
                # Packet subscription with a packet-only filter: §5.1
                # fast path, the callback runs right after the filter.
                deliver(RawPacket(mbuf=mbuf))
                fast_packets += 1
                fast_bytes += frame_bytes
                continue
            if fast_row:
                stateful_columnar(mbuf, cols, i, verdict >> 1,
                                  bool(verdict & 1))
            elif stateful(mbuf, verdict >> 1, bool(verdict & 1)):
                fast_packets += 1
                fast_bytes += frame_bytes
            now = self._now  # the state machine may not move it, expiry may
        stats.packets += packets - ticked
        if not fast_path:  # every row the filter passed was looked up
            counts[Stage.CONN_TRACK] += pf_packets - ticked_pf
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
        if span_tok is not None:
            spans.finish(stats, self._now, span_tok, span_nodes)

    def count_refused(self, packets: int, wire_bytes: int,
                      now: float) -> None:
        """Account ``packets`` rows of a burst (``wire_bytes`` in all,
        the burst ending at virtual time ``now``) that a classifier
        shared with other pipelines refused on this one's behalf —
        what :meth:`process_batch_rows` does with a fast row whose
        verdict is negative, once for all of them. Call it after the
        burst's other rows went through the loop: they must not see
        the clock already at the burst's end."""
        stats = self.stats
        stats.packets += packets
        stats.bytes += wire_bytes
        if now > self._now:
            self._now = now

    # ------------------------------------------------------------------
    # stateful processing
    # ------------------------------------------------------------------
    def _stateful_columnar(self, mbuf: Mbuf, cols, i: int,
                           node: int, terminal: bool) -> None:
        """The connection state machine (Figure 4), over row ``i`` of
        ``cols`` — a fast row of a decoded burst, or the one-row batch
        :meth:`_stateful` builds for a slow one.

        The connection key is assembled straight from the columns — no
        :func:`parse_stack`, no header views, and no ``FiveTuple``: a
        packet flows from the originator when its source sorts first in
        the key exactly if the creating packet's did. Accounting needs
        only the payload *length*; connections that still probe, parse,
        or stream slice the bytes at the row's ``payload_off``.
        """
        stats = self.stats
        now = self._now
        wire = cols.wire[i]
        sip = cols.src_ip[i]
        dip = cols.dst_ip[i]
        sp = cols.src_port[i]
        dp = cols.dst_port[i]
        proto = cols.proto[i]
        src_first = (sip, sp) <= (dip, dp)
        pack = PACK_KEY4 if len(sip) == 4 else PACK_KEY6
        if src_first:
            key = pack(sip, sp, dip, dp, proto)
        else:
            key = pack(dip, dp, sip, sp, proto)
        table = self.table
        conn = table.lookup_key(key)
        created = conn is None
        if created:
            block = self._ov_block
            shed_map = self._ov_shed
            if block or shed_map:
                # Overload ladder admission gate. Rung 1 refuses new
                # connections whose only use is packet-level delivery
                # (their packets already matched the packet filter — the
                # conntrack/probe work is pure overhead under pressure);
                # rung 2+ refuses all new connections. Established flows
                # are never touched here, so their results stay
                # bit-exact — and once a flow's start is refused, the
                # rest of it is too, so no half-seen flow ever surfaces
                # as a record.
                tag = shed_map.get(key)
                if tag is None and block and (
                        block == 2 or self._level is _PACKET_LEVEL):
                    ctl = self._overload
                    tag = (ctl.rung, "packet_filter" if block == 1
                           else "connection_filter")
                    shed_map[key] = tag
                if tag is not None:
                    stats.conns_shed += 1
                    self._overload.ledger.record_shed(
                        tag[0], tag[1], wire)
                    # Keep the timer wheel advancing on shed packets:
                    # admitted connections must expire at exactly the
                    # same virtual times as in an unshedded run.
                    self._maybe_expire()
                    return
            if self._shedding:
                # memory_policy="shed": while this core is over its
                # memory share, refuse to create new flow state
                # (existing flows keep being processed).
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
            if self._level is _PACKET_LEVEL and conn.matched:
                self._deliver(RawPacket(mbuf=mbuf,
                                        five_tuple=conn.five_tuple))
            elif self._streams_bytes and conn.matched:
                # Byte-stream subscriptions keep the reorderer alive
                # past the filter match: the stream IS the data.
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
                if conn.state is _PROBE:
                    self._probe(conn, segments)
                elif conn.state is _PARSE:
                    self._parse(conn, segments)
        # DELETE (ignore tombstone): nothing to do.

        # Funnel attribution: this packet survives the connection
        # layer if, after processing it, its connection has passed the
        # connection filter (or needed none) and is still live; it
        # survives the session layer if the full filter is satisfied.
        # Undecided (probing) and rejected connections drop here.
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

    def _stateful(self, mbuf: Mbuf, node: int, terminal: bool) -> bool:
        """Slow-row adapter: a frame the burst decode cannot express
        (VLAN, IP options/extensions, fragment, ICMP, truncation) is
        parsed layer by layer and handed on as a one-row batch. True
        when it was delivered without a connection instead."""
        stack = mbuf.stack
        if stack is None:  # match-all filters skip the layer walk
            stack = parse_stack(mbuf)
        ip = stack.ip
        transport = stack.transport
        if ip is None or transport is None:
            # Non-transport traffic cannot be tracked (the lookup is
            # still charged); a packet-level subscription whose whole
            # filter is satisfied gets it all the same.
            if terminal and self._level is _PACKET_LEVEL:
                self._deliver(RawPacket(mbuf=mbuf))
                return True
            return False
        tcp = stack.tcp
        self._stateful_columnar(mbuf, ColumnarBatch(
            1, (len(mbuf.data),), (True,), (0,), (ip.next_protocol(),),
            (ip.src_addr_bytes(),), (ip.dst_addr_bytes(),),
            (transport.src_port(),), (transport.dst_port(),),
            (stack.l4_payload_len(),),
            (tcp.flags_raw() if tcp is not None else 0,),
            (tcp.seq_no() if tcp is not None else 0,), (0,),
            (transport.payload_offset(),)), 0, node, terminal)
        return False

    def _init_connection(self, conn: Connection, node: int,
                         terminal: bool) -> None:
        conn.pkt_term_node = node
        needs_sessions = self._level is _SESSION_LEVEL
        if terminal:
            conn.matched = True
            conn.conn_term_node = FILTER_SATISFIED
            if self._tracer is not None:
                self._tracer.record(conn, self._now, "matched", "packet")
            if needs_sessions or (
                self.sub.identify_services
                and self._level is _CONNECTION_LEVEL
            ):
                # Session subscriptions must parse; service-labeling
                # connection subscriptions probe until identification.
                self._enter_probe(conn)
            else:
                conn.state = _TRACK
                if self._streams_bytes:
                    # The stream itself is the subscription data.
                    self._create_reassembler(conn)
        else:
            self._enter_probe(conn)

    def _enter_probe(self, conn: Connection) -> None:
        conn.state = _PROBE
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
        if conn.key[-1] != PROTO_TCP or \
                conn.reassembler is not None:
            return
        if self.config.reassembler == "buffered":
            conn.reassembler = BufferedReassembler()
        else:
            # The stats sink mirrors the reorderer's rare-path discard
            # counters (dup/overlap/stale/overflow) onto the per-core
            # funnel telemetry; the adaptive window is a config switch
            # (off by default — the fixed ring is the paper's).
            conn.reassembler = LazyReassembler(
                self.config.ooo_capacity,
                adaptive=self.config.ooo_adaptive,
                min_capacity=ADAPTIVE_MIN_CAPACITY,
                max_capacity=ADAPTIVE_MAX_CAPACITY,
                stats=self.stats)

    # -- reassembly ----------------------------------------------------------
    def _reassemble(self, conn: Connection, mbuf: Mbuf, payload: bytes,
                    from_orig: bool, seq, flags) -> List[StreamSegment]:
        """Row-shaped: the state machine holds ``from_orig``/``seq``/
        ``flags`` already, from the row's columns."""
        if conn.key[-1] == PROTO_UDP:
            if not payload:
                return []
            return [StreamSegment(payload, from_orig, self._now)]
        if conn.reassembler is None:
            return []
        pdu = L4Pdu(mbuf, payload, seq, flags, from_orig, mbuf.timestamp)
        # Every segment of a connection still being probed/parsed goes
        # through the reorderer (sequence tracking examines ACKs too).
        if self.config.reassembler == "buffered":
            # Traditional design additionally memcpys every payload
            # byte into the stream buffer.
            self.stats.ledger.charge_copy(len(payload))
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
        self.stats.ledger.counts[Stage.REASSEMBLY] += 1
        return conn.reassembler.push(pdu)

    # -- probing ---------------------------------------------------------------
    def _probe(self, conn: Connection, segments: List[StreamSegment]) -> None:
        context = conn.parser
        if not isinstance(context, _ProbeContext):
            return
        counts = self.stats.ledger.counts
        injector = self._injector
        for segment in segments:
            if not segment.payload:
                continue
            context.pending.append(segment)
            context.bytes_probed += len(segment.payload)
            counts[Stage.PARSING] += 1
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
                    context.bytes_probed > PROBE_BYTE_LIMIT:
                if context.bytes_probed > PROBE_BYTE_LIMIT:
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
            if self._level is _SESSION_LEVEL and parser is not None:
                conn.state = _PARSE
                self._parse(conn, pending)
            elif self._level is _SESSION_LEVEL:
                self._discard(conn)  # can never produce a session
            else:
                self._stop_heavy_processing(conn, _TRACK)
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
            if self._level is _SESSION_LEVEL:
                if parser is None:
                    self._discard(conn)
                else:
                    conn.state = _PARSE
                    self._parse(conn, pending)
            else:
                # Packet/connection subscriptions need no parsed
                # sessions: stop probing/reassembling, keep tracking.
                self._stop_heavy_processing(conn, _TRACK)
            return
        # Session predicates remain: parse until sessions complete.
        if parser is None:
            self._discard(conn)
            return
        conn.state = _PARSE
        self._parse(conn, pending)

    # -- parsing ---------------------------------------------------------------
    def _parse(self, conn: Connection, segments: List[StreamSegment]) -> None:
        counts = self.stats.ledger.counts
        injector = self._injector
        for segment in segments:
            if conn.state is not _PARSE:
                break
            if not segment.payload:
                continue
            counts[Stage.PARSING] += 1
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
                if conn.state is not _PARSE:
                    break
            if result is ParseResult.ERROR:
                self._on_parse_error(conn)
                break

    def _on_session(self, conn: Connection, session: Session) -> None:
        self.stats.sessions_parsed += 1  # the session filter's count
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
            if self._level is _SESSION_LEVEL:
                self._deliver(self.sub.datatype(
                    session=session, five_tuple=conn.five_tuple))
                if self._tracer is not None:
                    self._tracer.record(conn, self._now, "delivered",
                                        "session")
                next_state = parser.session_match_state()
                if next_state == "parse":
                    conn.state = _PARSE
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
                    _TRACK,
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
        if conn.matched and self._level is not _SESSION_LEVEL:
            self._stop_heavy_processing(conn, _TRACK)
        else:
            self._discard(conn)

    def _on_full_match(self, conn: Connection) -> None:
        """The whole filter just matched mid-connection."""
        if self._level is _PACKET_LEVEL and conn.buffered_mbufs:
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
        if self._level is not _PACKET_LEVEL:
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
        conn.state = _DELETE
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
        if (self._level is _CONNECTION_LEVEL and conn.matched
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
        # Every delivery is counted (so charged) alike — suppressed
        # after quarantine (baseline-equal accounting; only the user
        # function is withheld) or raising (the stage work up to the
        # user function still ran).
        stats = self.stats
        stats.callbacks += 1
        if self._quarantined:
            self._executor.record_suppressed()
            stats.callbacks_suppressed += 1
            return
        try:
            if self._injector is not None:
                self._injector.on_deliver()
            self._executor.submit(obj)
        except Exception as exc:
            self._on_callback_error(exc)

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
            if conn.matched and self._level is not _SESSION_LEVEL:
                self._stop_heavy_processing(conn, _TRACK)
            else:
                self._discard(conn, rejected=False)

    @property
    def overload_rung(self) -> int:
        """The ladder's current rung (0 when the policy is off)."""
        return self._overload.rung if self._overload is not None else 0

    def set_span_ctx(self, ctx) -> None:
        """Stamp the IPC span context for the next burst (the parallel
        worker loop calls this with the ``(queue, seq)`` that rode the
        burst's slot image), stitching worker
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
