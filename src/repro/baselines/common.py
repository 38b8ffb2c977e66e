"""Shared machinery for the eager full-visibility baselines.

:class:`EagerAnalyzer` is the architectural opposite of Retina's
pipeline: every packet is decoded, every flow is tracked to
termination, every TCP byte is copied into a stream buffer, every
stream is probed and parsed — regardless of what the analysis task
needs. Subclasses supply a :class:`BaselineCosts` table expressing how
expensive each of those steps is on the system being modeled, plus
optional extra work (e.g. Snort's exhaustive pattern matching).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.conntrack.five_tuple import FiveTuple
from repro.packet.mbuf import Mbuf
from repro.packet.stack import parse_stack
from repro.protocols.base import ParseResult, ProbeResult
from repro.protocols.registry import default_parser_registry
from repro.stream.buffered import BufferedReassembler
from repro.stream.pdu import L4Pdu, StreamSegment


@dataclass(frozen=True)
class BaselineCosts:
    """Per-step cycle costs for one modeled system.

    ``*_per_packet`` values are cycles per packet; ``*_per_byte``
    values are cycles per payload byte. Calibration targets are the
    paper's measured single-core zero-loss rates (Section 6.2).
    """

    name: str
    capture_per_packet: float
    decode_per_packet: float
    flow_per_packet: float
    reassembly_per_byte: float
    parse_per_byte: float
    detect_per_byte: float
    log_per_match: float
    cpu_hz: float = 3.0e9
    #: Loss the paper tolerates before the curve goes dashed.
    loss_threshold: float = 0.01


@dataclass
class BaselineReport:
    """Outcome of one baseline run."""

    name: str
    packets: int
    wire_bytes: int
    payload_bytes: int
    matches: int
    cycles: float
    duration: float
    cpu_hz: float

    @property
    def cycles_per_byte(self) -> float:
        return self.cycles / self.wire_bytes if self.wire_bytes else 0.0

    def max_zero_loss_gbps(self, cores: int = 1) -> float:
        """Highest offered rate sustainable without loss."""
        if not self.cycles:
            return float("inf")
        return self.cpu_hz * cores / self.cycles_per_byte * 8 / 1e9

    def processed_gbps(self, offered_gbps: float, cores: int = 1) -> float:
        """Bytes processed at an offered rate (Figure 6's y-axis):
        capped at capacity once the core saturates."""
        return min(offered_gbps, self.max_zero_loss_gbps(cores))

    def loss_at(self, offered_gbps: float, cores: int = 1) -> float:
        capacity = self.max_zero_loss_gbps(cores)
        if offered_gbps <= capacity:
            return 0.0
        return 1.0 - capacity / offered_gbps


class EagerAnalyzer:
    """Full-visibility pipeline: decode → flow → copy-reassemble →
    probe/parse everything, then apply the analysis task at the end."""

    #: Protocols the system's analyzers are enabled for. The Figure 6
    #: task disables everything but SSL/TLS, as the paper does.
    enabled_protocols = ("tls",)

    def __init__(self, costs: BaselineCosts,
                 sni_pattern: str = r".") -> None:
        self.costs = costs
        self.sni_re = re.compile(sni_pattern)
        self.registry = default_parser_registry()

    # -- hooks ------------------------------------------------------------
    def extra_packet_work(self, stack, payload: bytes) -> float:
        """Additional per-packet cycles (e.g. Snort's pattern scan)."""
        return 0.0

    # -- the run -----------------------------------------------------------
    def analyze(self, packets: Iterable[Mbuf]) -> BaselineReport:
        costs = self.costs
        cycles = 0.0
        n_packets = 0
        wire_bytes = 0
        payload_bytes = 0
        matches = 0
        first_ts: Optional[float] = None
        last_ts = 0.0
        flows: Dict[tuple, dict] = {}
        for mbuf in packets:
            n_packets += 1
            wire_bytes += len(mbuf)
            if first_ts is None:
                first_ts = mbuf.timestamp
            last_ts = max(last_ts, mbuf.timestamp)
            cycles += costs.capture_per_packet
            stack = parse_stack(mbuf)
            cycles += costs.decode_per_packet
            tup = FiveTuple.from_stack(stack)
            if tup is None:
                continue
            cycles += costs.flow_per_packet
            payload = stack.l4_payload()
            payload_bytes += len(payload)
            cycles += self.extra_packet_work(stack, payload)
            key = tup.canonical()
            flow = flows.get(key)
            if flow is None:
                flow = {
                    "tuple": tup,
                    "reasm": BufferedReassembler(),
                    "parser": None,
                    "probing": True,
                    "done": False,
                }
                flows[key] = flow
            # Full-visibility systems reassemble and run detection over
            # every payload byte for the life of the connection — there
            # is no subscription to tell them to stop.
            cycles += (costs.reassembly_per_byte +
                       costs.detect_per_byte) * len(payload)
            if flow["done"]:
                continue
            segments = self._reassemble(flow, stack, tup, payload)
            for segment in segments:
                cycles += self._feed(flow, segment, costs)
                if flow["matched_now"]:
                    matches += 1
                    cycles += costs.log_per_match
                    flow["matched_now"] = False
        duration = (last_ts - first_ts) if first_ts is not None else 0.0
        return BaselineReport(
            name=costs.name,
            packets=n_packets,
            wire_bytes=wire_bytes,
            payload_bytes=payload_bytes,
            matches=matches,
            cycles=cycles,
            duration=max(duration, 1e-9),
            cpu_hz=costs.cpu_hz,
        )

    def _reassemble(self, flow, stack, tup, payload) -> List[StreamSegment]:
        if tup.protocol == 17:
            if not payload:
                return []
            return [StreamSegment(payload, True, stack.mbuf.timestamp)]
        tcp, mbuf = stack.tcp, stack.mbuf
        pdu = L4Pdu(mbuf, payload, tcp.seq_no(), tcp.flags_raw(),
                    flow["tuple"].same_direction(tup), mbuf.timestamp)
        return flow["reasm"].push(pdu)

    def _feed(self, flow, segment: StreamSegment,
              costs: BaselineCosts) -> float:
        """Probe/parse one in-order segment; returns cycles spent."""
        spent = 0.0
        flow.setdefault("matched_now", False)
        if flow["probing"]:
            spent += costs.parse_per_byte * len(segment.payload)
            for proto in self.enabled_protocols:
                parser = flow.get("candidate_" + proto)
                if parser is None:
                    parser = self.registry.create(proto)
                    flow["candidate_" + proto] = parser
                outcome = parser.probe(segment)
                if outcome is ProbeResult.MATCH:
                    flow["parser"] = parser
                    flow["probing"] = False
                    break
            else:
                return spent
        parser = flow["parser"]
        if parser is None:
            return spent
        spent += costs.parse_per_byte * len(segment.payload)
        result = parser.parse(segment)
        for session in parser.drain_sessions():
            sni = getattr(session.data, "sni", lambda: None)()
            if sni and self.sni_re.search(sni):
                flow["matched_now"] = True
        if result in (ParseResult.DONE, ParseResult.ERROR):
            # The analyzer for this flow is finished, but the system
            # keeps reassembling (full visibility, no early discard).
            flow["done"] = True
        return spent
