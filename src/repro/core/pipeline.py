"""Per-core processing pipeline (Figure 2, right side).

One :class:`CorePipeline` runs per receive queue over the runtime's
filter table (a plain subscription is a one-entry table). Its one row
loop captures each packet once, reads its packet-filter verdict once
per tenant and hands it to every tenant *lane* whose verdict matched.
A :class:`Lane` is one tenant's work-conserving, lazily reconstructing
data path:

1. fast-path callback for packet subscriptions with packet-only filters,
2. connection tracking (per-lane table, two-tier timer wheels),
3. lazy stream reassembly only for connections that still need payload,
4. protocol probing restricted to the subscription's parser set,
5. the connection filter at probe resolution, the session filter at
   session completion, with Figure 4's state transitions in between,
6. inline callback execution.

A lane's :class:`~repro.core.stats.CoreStats` is its tenant's solo
view: it counts every packet the core was handed while the tenant was
active, as a run of that tenant alone would. The core's own face counts
capture and the packet filter once per packet and sums the lanes' other
counters. The cycle ledger, this reproduction's stand-in for a 3 GHz
core's time, prices those counts. Quota and pressure metering, epoch
swaps and draining are docs/MULTITENANT.md's.

One documented deviation from the paper: where Retina deletes a
connection the filter has rejected (or already delivered), a lane
keeps a 512-byte "ignore" tombstone in the table until the inactivity
timeout. The tombstone prevents subsequent packets of the same flow
from re-creating the connection and re-probing ciphertext; CPU
behaviour matches the paper's, and memory stays bounded by the same
timer wheels.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # avoid a config<->core import cycle at runtime
    from repro.config import RuntimeConfig

from repro.conntrack.conn import ConnState, Connection, TcpConnState
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
from repro.core.stats import CoreStats, MemorySeries, TenantStatsBundle
from repro.core.subscription import Subscription
from repro.filter.batch import NO_MATCH
from repro.overload.controller import EVAL_INTERVAL
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
from repro.tenancy.table import FilterTable

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
_CLOSED = TcpConnState.CLOSED
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


class Lane:
    """One tenant's data path on one core: its conntrack table, stats
    (the solo view), executor, fault injector, overload controller and
    the Figure 4 state machine. :class:`CorePipeline`'s row loop feeds
    it the rows its filter passed."""

    def __init__(
        self,
        core_id: int,
        subscription: Subscription,
        config: "RuntimeConfig",
        executor=None,
        name: str = "subscription",
    ) -> None:
        self.core_id = core_id
        #: The tenant's name in the core's filter table.
        self.name = name
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
        # -- burst span recorder (repro.telemetry.spans) ----------------
        # None when disabled; enabled, it snapshots the lane's counters
        # at burst boundaries only.
        if config.span_sample > 0 or config.flight_recorder_depth > 0:
            from repro.telemetry.spans import SpanRecorder
            self._spans = SpanRecorder(
                core_id, sample_every=config.span_sample,
                flight_depth=config.flight_recorder_depth)
        else:
            self._spans = None
        #: Per burst, set by the core's row loop: counters at its start
        #: (packets, pf packets, pf bytes) and the open span.
        self._mark = (0, 0, 0)
        self._span_tok = self._span_nodes = None
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
        #: Whether this lane can ever hold connection state — a table,
        #: a memory spike or a memory policy to enforce. Only such a
        #: lane records a memory series: a stateless one's would read
        #: zero at every sample point.
        self.stateful = (self._needs_conntrack
                         or self._memory_share is not None
                         or (self._injector is not None
                             and self._injector.spikes_memory))
        # -- overload control (repro.overload) -------------------------
        # One controller per lane, clocked on virtual time by the core's
        # row loop; `_ov_next = inf` when the policy is off.
        if config.overload_policy != "off":
            from repro.overload import LossLedger, OverloadController
            ledger = LossLedger(core_id)
            self.stats.overload = ledger
            self._overload = OverloadController(config, ledger)
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
        # Deadlines follow ``last_ts``: only TCP transitions reach timers.
        was, last_ts = conn.tcp_state, conn.last_ts
        conn.record_packet(from_orig, wire, payload_len, now, flags, seq)

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
                table.hold(conn)
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

        tcp_state = conn.tcp_state
        if tcp_state is not was or was is _CLOSED:
            table.timers.on_transition(conn, was, last_ts)
            if tcp_state is _CLOSED and conn.state is not _DELETE:
                self._finalize(conn, delivered_by="termination")
        self._maybe_expire()

    def _stateful(self, mbuf: Mbuf, node: int, terminal: bool) -> None:
        """Slow-row adapter: a frame the burst decode cannot express
        (VLAN, IP options/extensions, fragment, ICMP, truncation) is
        parsed layer by layer and handed on as a one-row batch."""
        stack = mbuf.stack
        if stack is None:  # match-all filters skip the layer walk
            stack = parse_stack(mbuf)
        ip = stack.ip
        transport = stack.transport
        if ip is None or transport is None:
            # Non-transport traffic cannot be tracked (the lookup is
            # still charged); a packet-level subscription whose whole
            # filter is satisfied gets it all the same, and it survives
            # every funnel layer.
            if terminal and self._level is _PACKET_LEVEL:
                self._deliver(RawPacket(mbuf=mbuf))
                stats = self.stats
                stats.connf_packets += 1
                stats.connf_bytes += len(mbuf.data)
                stats.sessf_packets += 1
                stats.sessf_bytes += len(mbuf.data)
            return
        tcp = stack.tcp
        self._stateful_columnar(mbuf, ColumnarBatch(
            1, (len(mbuf.data),), (True,), (0,), (ip.next_protocol(),),
            (ip.src_addr_bytes(),), (ip.dst_addr_bytes(),),
            (transport.src_port(),), (transport.dst_port(),),
            (stack.l4_payload_len(),),
            (tcp.flags_raw() if tcp is not None else 0,),
            (tcp.seq_no() if tcp is not None else 0,), (0,),
            (transport.payload_offset(),)), 0, node, terminal)

    def _init_connection(self, conn: Connection, node: int,
                         terminal: bool) -> None:
        # ``pkt_term_node`` is stored only for a connection that
        # probes: the connection filter at service resolution is its
        # one reader, and a lone SYN that never writes it stays lean.
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
                conn.pkt_term_node = node
                self._enter_probe(conn)
            else:
                conn.state = _TRACK
                if self._streams_bytes:
                    # The stream itself is the subscription data.
                    self._create_reassembler(conn)
        else:
            conn.pkt_term_node = node
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
        self.table.hold(conn)
        if self.config.reassembler == "buffered":
            conn.reassembler = BufferedReassembler()
        else:
            # The stats sink mirrors the reorderer's rare-path discard
            # counters (dup/overlap/stale/overflow) onto the per-core
            # funnel telemetry; the adaptive window is a config switch
            # (off by default — the fixed ring is the paper's).
            conn.reassembler = LazyReassembler(
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
            self.table.release(conn)
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
        the subscription streams bytes), keep counters. Clears only
        what is set, so a connection that never held them stays lean."""
        conn.state = state
        if conn.parser is not None:
            conn.parser = None
        if conn.reassembler is not None or conn.buffered_mbufs:
            if not self._streams_bytes and conn.reassembler is not None:
                conn.reassembler = None
            if self._level is not _PACKET_LEVEL:
                conn.drop_buffered()
            self.table.release(conn)

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
        if conn.parser is not None:
            conn.parser = None
        if conn.reassembler is not None or conn.buffered_mbufs:
            if conn.reassembler is not None:
                conn.reassembler = None
            conn.drop_buffered()
            self.table.release(conn)
        if conn.user_data is not None:
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
        self.table.timers.schedule_removal(conn, self._now)

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

    def sample_memory(self) -> Tuple[int, int]:
        """A stateful lane's sample point: the memory policy enforced,
        then ``(live connections, bytes)`` recorded and returned. Every
        read is O(state) (see ``ConnTable.memory_bytes``)."""
        stats = self.stats
        if self._memory_share is not None:
            self._enforce_memory()
        table = self.table
        conns = len(table)
        memory = self.memory_bytes
        stats.memory_samples.append(self._now, conns, memory)
        if stats.reasm_hist is not None:
            occupancy = 0
            for conn in table.holding():
                reassembler = conn.reassembler
                if reassembler is not None:
                    occupancy += reassembler.memory_bytes
            stats.observe_reasm_occupancy(occupancy)
        return conns, memory

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
        via the per-packet ``ts >= ov_next`` compare, after the rows
        before it were counted in). It reads the ledger's busy time, so
        the lookups of the rows the packet filter passed are counted
        in first: every one of them, on a stateful lane."""
        if self._needs_conntrack:
            stats = self.stats
            stats.ledger.counts[Stage.CONN_TRACK] = stats.pf_packets
        ctl = self._overload
        rung_before = ctl.rung
        tripped = ctl.evaluate(now, self.stats.ledger.busy_seconds,
                               self.table.memory_bytes,
                               self._ov_mem_share)
        self._ov_next = now + EVAL_INTERVAL
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


#: One virtual second: the quota / pressure accounting window.
_WINDOW_S = 1.0
#: Ladder rungs quota and pressure sheds are attributed to (the quota
#: gate refuses work the way rung 1 does; the pressure downgrade is the
#: tenant-granular analogue of rung 3's heavy-connection breaker).
_QUOTA_RUNG = 1
_PRESSURE_RUNG = 3


class CorePipeline:
    """The per-core data path of every run: one row loop over the
    adopted filter table's lanes.

    ``pressure_mbps`` is the run's pressure budget (None: none).
    """

    def __init__(self, core_id: int, table, config: "RuntimeConfig",
                 pressure_mbps: Optional[float] = None) -> None:
        self.core_id = core_id
        self.config = config
        #: The adopted filter table: every spec this core knows, and
        #: which are active, in activation order.
        self.table = table
        #: The active tenants' lanes, by name.
        self._by_name: Dict[str, Lane] = {}
        #: Dropped tenants' lanes: no further rows, but they keep
        #: expiring, sampling and drain at end of run.
        self._draining: List[Lane] = []
        #: Quota / pressure ledgers, created at a tenant's first shed.
        self._tenant_shed: Dict[str, object] = {}
        #: Every lane ticks a ladder / records burst spans.
        self._ladder = config.overload_policy != "off"
        self._spans_on = config.span_sample > 0 or \
            config.flight_recorder_depth > 0
        self._pressure_share = (
            pressure_mbps * 1e6 / 8.0 * _WINDOW_S / config.cores
            if pressure_mbps is not None else None)
        # -- metering state (virtual-second windows) -------------------
        self._window = 0
        self._win_used: Dict[str, float] = {}
        self._win_bytes: Dict[str, float] = {}
        self._downgraded: set = set()
        #: The core clock (latest packet timestamp it was handed), and
        #: the packets and wire bytes it was handed: what it captured
        #: and ran the packet filter on.
        self.now = 0.0
        self.packets = 0
        self.bytes = 0
        #: Per tenant, those packets that came while it was out of the
        #: table: plus the count at each ``add``, minus it at each
        #: ``drop``.
        self._away: Dict[str, int] = {}
        #: The face's memory series: one ``(ts, conns, bytes)`` sample
        #: per sample point, the sum of its stateful lanes' samples
        #: there (none while it has no stateful lane).
        self._memory_samples = MemorySeries()
        for name in table.active:
            self._activate(name)
        self._rebuild()

    @classmethod
    def of(cls, core_id: int, subscription: Subscription,
           config: "RuntimeConfig", **kwargs) -> "CorePipeline":
        """One core running ``subscription`` alone: a one-lane table."""
        return cls(core_id, FilterTable.of(subscription, config), config,
                   **kwargs)

    # -- construction / swaps ------------------------------------------
    def _activate(self, name: str) -> None:
        # The tenant's own filter object also feeds the table's
        # classifier, so verdict node ids line up with its
        # connection/session sub-filters for free.
        spec, sub, executor = self.table.compiled(name)
        # Tenant overrides for the callback error policy, and the
        # tenant-scoped fault plan *replacing* the run-level one
        # (in-pipeline injectors must be tenant-local or quarantine
        # leaks).
        overrides = {field: getattr(spec, field) for field in (
            "callback_error_policy", "callback_error_budget")
            if getattr(spec, field) is not None}
        self._by_name[name] = Lane(
            self.core_id, sub,
            self.config.with_(fault_plan=spec.fault_plan, **overrides),
            executor=executor, name=name)
        self._away[name] = self._away.get(name, 0) + self.packets

    def _rebuild(self) -> None:
        """The metering plan and the row loop's lanes for the current
        active set (one rebuild per epoch swap)."""
        names = self.table.active
        self._quota_share: Dict[str, float] = {}
        for name in names:
            quota = self.table.by_name[name].quota_bytes_per_sec
            if quota is not None:
                self._quota_share[name] = \
                    quota * _WINDOW_S / self.config.cores
                self._win_used.setdefault(name, 0.0)
        self._metered = bool(self._quota_share) or \
            self._pressure_share is not None
        #: The active lanes, in table order: verdict lane ``k`` is
        #: ``lanes[k]``'s.
        self.lanes = [self._by_name[name] for name in names]
        #: What the row loop reads of each active lane: the lane, its
        #: scalar packet filter, its stats, whether it delivers on the
        #: §5.1 fast path, and its verdict lane.
        self._plan = [(lane, lane._filter.packet_filter, lane.stats,
                       not lane._needs_conntrack, k)
                      for k, lane in enumerate(self.lanes)]
        #: Every lane: active first (in active order), then draining (in
        #: drop order).
        self._all = self.lanes + self._draining
        #: The lanes a sample point reads (see ``Lane.stateful``).
        self._sampled = [lane for lane in self._all if lane.stateful]

    def adopt(self, table) -> None:
        """Adopt the successor filter table ``table``: tenants it no
        longer lists move to draining, tenants it adds activate (in
        ``table.active`` order).
        """
        for name in self.table.active:
            if name not in table.active:
                self._draining.append(self._by_name.pop(name))
                self._away[name] -= self.packets
                self._win_used.pop(name, None)
                self._downgraded.discard(name)
        self.table = table
        for name in table.active:
            if name not in self._by_name:
                self._activate(name)
        self._rebuild()

    # -- metering -------------------------------------------------------
    def _rollover(self, new_window: int) -> None:
        """A virtual-second window closed: pick next window's
        downgraded set (heaviest offered load first, ties by name)
        from the *finished* window's per-tenant bytes. After an empty
        window, pressure has passed: nobody stays downgraded."""
        self._downgraded = set()
        if self._pressure_share is not None and \
                new_window == self._window + 1:
            loads = self._win_bytes
            remaining = sum(loads.values())
            for name in sorted(loads, key=lambda n: (-loads[n], n)):
                if remaining <= self._pressure_share:
                    break
                self._downgraded.add(name)
                remaining -= loads[name]
        self._win_bytes = {}
        for name in self._win_used:
            self._win_used[name] = 0.0
        self._window = new_window

    def _sheds(self, name: str, wire: int) -> bool:
        """Meter one row tenant ``name``'s own packet filter matched
        (other rows ride through unmetered, so co-tenant traffic never
        eats its budget): True when quota or pressure sheds it, charged
        to the tenant's private ledger."""
        if self._pressure_share is not None:
            self._win_bytes[name] = self._win_bytes.get(name, 0.0) + wire
        if name in self._downgraded:
            self._shed_ledger(name).record_shed(
                _PRESSURE_RUNG, "tenant_pressure", wire)
            return True
        share = self._quota_share.get(name)
        if share is not None:
            used = self._win_used[name]
            if used + wire > share:
                self._shed_ledger(name).record_shed(
                    _QUOTA_RUNG, "tenant_quota", wire)
                return True
            self._win_used[name] = used + wire
        return False

    def _shed_ledger(self, name: str):
        """Tenant ``name``'s quota/pressure ledger, one shed counted
        (``Runtime.tenant_ledgers`` adds what its lanes were fed)."""
        ledger = self._tenant_shed.get(name)
        if ledger is None:
            from repro.overload.ledger import LossLedger
            ledger = LossLedger(self.core_id)
            self._tenant_shed[name] = ledger
        ledger.packets_seen += 1
        return ledger

    def _offer(self, lane: Lane, verdict: int, ts: float, now: float,
               wire: int) -> bool:
        """A row reaching ``lane`` of a metered or laddered core, as its
        solo run sees it: metered (False: shed), the lane's clock moved,
        its ladder ticked, then the row counted in."""
        if self._metered:
            if verdict != NO_MATCH and self._sheds(lane.name, wire):
                return False
            if ts > lane._now:  # its clock covers the rows it was fed
                lane._now = ts
        elif now > lane._now:
            lane._now = now
        if ts >= lane._ov_next:
            lane._overload_tick(ts)
        stats = lane.stats
        stats.packets += 1
        stats.bytes += wire
        return True

    # -- the data path --------------------------------------------------
    def _verdicts(self, cols: ColumnarBatch) -> list:
        """Every active lane's verdicts on ``cols``, cached on the batch
        under the adopted table (the same object on every core: one
        classification per chunk and table)."""
        classified = cols.classified
        table = self.table
        if table not in classified:
            classified[table] = table.classify(cols)
        return classified[table]

    def process_batch(self, mbufs) -> None:
        """Run a burst of frames (a parallel worker's, or a test's):
        decode it (:func:`~repro.packet.columnar.decode_mbufs`), then
        run its rows."""
        if mbufs:
            cols = decode_mbufs(mbufs, self.config.columnar)
            self.process_batch_rows(list(zip(
                mbufs, repeat(None), repeat(cols), range(len(mbufs)))))

    def process_batch_rows(self, rows: list) -> None:
        """The one per-row loop, over one burst of ``(mbuf, queue, cols,
        i)`` rows as :func:`~repro.packet.columnar.ingress_rows` yields
        them (the queue is not read). Each row is captured once and
        handed to every lane whose verdict matched: for lane ``k``,
        ``_verdicts(cols)[k][i]``, ``(node << 1) | terminal`` (negative:
        no match), or ``None`` — a slow row, or a filter no column
        expresses — where the lane's scalar ``packet_filter`` runs.

        A lane is counted the rows it was offered, as its solo run would
        be, and priced for conn-tracking the rows its filter passed
        when stateful: without metering or a ladder, in one fold per
        burst.
        """
        if not rows:
            return
        metered = self._metered
        gated = metered or self._ladder
        spans = self._spans_on
        plan = self._plan
        for lane in self.lanes:
            stats = lane.stats
            lane._mark = (stats.packets, stats.pf_packets, stats.pf_bytes)
            if spans:
                lane._span_tok = tok = lane._spans.start(stats)
                lane._span_nodes = {} if tok[0] else None
        now = 0.0  # the burst's clock: the latest timestamp in it so far
        wire_bytes = 0
        vcols = vecs = None
        for mbuf, _queue, cols, i in rows:
            ts = mbuf.timestamp
            if ts > now:
                now = ts
            if metered and int(ts) > self._window:
                self._rollover(int(ts))
            wire = cols.wire[i]
            wire_bytes += wire
            if cols is not vcols:
                vcols = cols
                vecs = self._verdicts(cols) if plan else None
            fast_row = cols.fast[i]
            for lane, packet_filter, stats, fast_path, k in plan:
                verdict = vecs[k][i] if fast_row else None
                if verdict is None:
                    result = packet_filter(mbuf)
                    verdict = (result.node << 1) | result.terminal \
                        if result.matched else NO_MATCH
                if gated:
                    if not self._offer(lane, verdict, ts, now, wire) or \
                            verdict < 0:
                        continue
                elif verdict < 0:
                    continue
                elif now > lane._now:
                    # Its solo run saw every row of the burst: the
                    # refused ones moved its clock too.
                    lane._now = now
                stats.pf_packets += 1
                stats.pf_bytes += wire
                if spans:
                    nodes = lane._span_nodes
                    if nodes is not None:
                        node = verdict >> 1
                        nodes[node] = nodes.get(node, 0) + 1
                if fast_path:
                    # Packet subscription with a packet-only filter:
                    # §5.1 fast path, the callback runs right after the
                    # filter.
                    lane._deliver(RawPacket(mbuf=mbuf))
                elif fast_row:
                    lane._stateful_columnar(mbuf, cols, i, verdict >> 1,
                                            bool(verdict & 1))
                else:
                    lane._stateful(mbuf, verdict >> 1, bool(verdict & 1))
        n = len(rows)
        self.packets += n
        self.bytes += wire_bytes
        if now > self.now:
            self.now = now
        for lane, _filter, stats, fast_path, _k in plan:
            packets, pf_packets, pf_bytes = lane._mark
            if not gated:
                stats.packets += n
                stats.bytes += wire_bytes
            if not metered and now > lane._now:
                lane._now = now
            if fast_path:  # it delivered every row its filter passed
                delivered = stats.pf_packets - pf_packets
                if delivered:
                    delivered_bytes = stats.pf_bytes - pf_bytes
                    stats.connf_packets += delivered
                    stats.connf_bytes += delivered_bytes
                    stats.sessf_packets += delivered
                    stats.sessf_bytes += delivered_bytes
            else:  # every row the filter passed was looked up
                stats.ledger.counts[Stage.CONN_TRACK] = stats.pf_packets
            if lane._overload is not None:
                lane._overload.ledger.packets_seen += \
                    stats.packets - packets
            if spans:
                lane._spans.finish(stats, lane._now, lane._span_tok,
                                   lane._span_nodes)

    # -- lifecycle ------------------------------------------------------
    def advance_time(self, now: float) -> None:
        """Move virtual time forward (idle periods, end of trace)."""
        if now > self.now:
            self.now = now
        for lane in self._all:
            if now > lane._now:
                lane._now = now
            lane._maybe_expire(force=True)

    def drain(self) -> None:
        """End of run: every lane delivers its still-live matched
        connections."""
        for lane in self._all:
            for conn in lane.table.drain():
                lane._deliver_connection(conn)

    def sample_memory(self) -> None:
        """A sample point: every stateful lane samples its own table,
        and the face records their sum at the core clock; a core with
        no stateful lane records nothing. It is combined per sample
        point, not per instant: a core handed no packet between two
        points samples twice at one ``now``, and records two samples,
        not one of twice its state."""
        lanes = self._sampled
        if not lanes:
            return
        conns = memory = 0
        for lane in lanes:
            lane_conns, lane_memory = lane.sample_memory()
            conns += lane_conns
            memory += lane_memory
        self._memory_samples.append(self.now, conns, memory)

    def set_span_ctx(self, ctx) -> None:
        """Stamp the IPC span context for the next burst (the parallel
        worker loop calls this with the ``(queue, seq)`` that rode the
        burst's slot image), stitching worker spans into the parent's
        trace."""
        for lane in self._all:
            if lane._spans is not None:
                lane._spans.ctx = ctx

    def fold_fault_counters(self) -> None:
        for lane in self._all:
            lane.fold_fault_counters()

    # -- monitoring surface ---------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return sum(lane.memory_bytes for lane in self._all)

    @property
    def live_connections(self) -> int:
        return sum(len(lane.table) for lane in self._all)

    @property
    def overload_rung(self) -> int:
        """The highest rung any lane's ladder holds (0: none)."""
        return max([0] + [lane._overload.rung for lane in self._all
                          if lane._overload is not None])

    @property
    def overload_failfast_at(self) -> Optional[float]:
        """The earliest virtual time a lane tripped fail-fast, or None."""
        tripped = None  # read per burst: a loop, not a list
        for lane in self._all:
            at = lane.overload_failfast_at
            if at is not None and (tripped is None or at < tripped):
                tripped = at
        return tripped

    @property
    def stats(self) -> TenantStatsBundle:
        """A fresh snapshot: the core's face over the per-tenant
        breakdown (each lane's stats, its solo view). The face counts
        the packets and bytes the core was handed — capture and the
        packet filter ran once on each, however many lanes it reached —
        and sums the lanes' other counters; its memory series is the
        core's own, one sample per sample point."""
        config = self.config
        bundle = TenantStatsBundle(config.cost_model,
                                   telemetry=config.telemetry)
        for lane in self._all:
            CoreStats.merge(bundle, lane.stats)
            bundle.per_tenant.setdefault(lane.name, CoreStats(
                config.cost_model, telemetry=config.telemetry)).merge(
                    lane.stats)
            if bundle.spans is None:
                bundle.spans = lane.stats.spans
        if self._tenant_shed:
            from repro.overload.ledger import LossLedger
            # The core's ledger states everything not analyzed on it; a
            # tenant's own (``per_tenant``) stays its lane's ladder.
            if bundle.overload is None:
                bundle.overload = LossLedger(core_id=-1)
        for name, ledger in self._tenant_shed.items():
            bundle.tenant_shed[name] = snap = LossLedger(self.core_id)
            snap.merge(ledger)
            bundle.overload.merge(ledger)
        bundle.packets = self.packets
        bundle.bytes = self.bytes
        for name in bundle.per_tenant:
            bundle.not_subscribed[name] = self._away[name] + (
                0 if name in self._by_name else self.packets)
        bundle.memory_samples = self._memory_samples.copy()
        bundle.epoch = self.table.epoch
        return bundle
