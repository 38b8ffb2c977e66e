"""Real-time monitoring (Section 5.3).

Retina "provides logs and real-time monitoring of packet loss,
throughput, and memory usage that can be used as feedback to adjust
the filter or improve callback efficiency". :class:`StatsMonitor`
implements that feedback channel for the reproduction: attached to a
:class:`~repro.core.runtime.Runtime`, it snapshots the pipeline at a
fixed virtual-time cadence and renders the paper's suggested signals —
ingress rate, implied packet loss, callback rate, live connections,
resident memory, and the filter funnel's per-interval survivors.

Both backends feed it one :class:`CoreProgress` record per core: the
sequential runtime builds them from its own pipelines, the parallel
backend's workers build the same record and send it as is.
At end of run the runtime calls :meth:`StatsMonitor.finalize` so the
final partial interval is recorded rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional


class CoreProgress(NamedTuple):
    """What one core reports about itself mid-run: everything the
    monitor, the OOM cutoff and the fail-fast cutoff read."""

    callbacks: int = 0
    live_connections: int = 0
    memory_bytes: int = 0
    busy_seconds: float = 0.0
    pf_packets: int = 0
    connf_packets: int = 0
    sessf_packets: int = 0
    #: Overload ladder: current rung, packets shed so far, and the
    #: virtual time this core tripped fail-fast (None if it has not).
    overload_rung: int = 0
    shed_packets: int = 0
    failfast_at: Optional[float] = None

    @classmethod
    def of(cls, pipeline) -> "CoreProgress":
        """The record of a ``CorePipeline`` or ``TenantCorePipeline``.
        One ``stats`` read: a tenant core builds and merges a fresh
        bundle on every read."""
        stats = pipeline.stats
        shed = stats.overload
        return cls(stats.callbacks, pipeline.live_connections,
                   pipeline.memory_bytes, stats.ledger.busy_seconds,
                   stats.pf_packets, stats.connf_packets,
                   stats.sessf_packets, pipeline.overload_rung,
                   shed.packets_shed if shed is not None else 0,
                   pipeline.overload_failfast_at)


@dataclass(frozen=True)
class MonitorSample:
    """One snapshot of the running pipeline."""

    timestamp: float
    interval: float
    ingress_packets: int
    ingress_bytes: int
    interval_gbps: float
    callbacks: int
    live_connections: int
    memory_bytes: int
    busy_fraction: float  # busiest core's cycle demand / capacity
    # Filter-funnel survivors this interval: packets past the software
    # packet filter, the connection filter, and the full filter.
    pf_packets: int = 0
    connf_packets: int = 0
    sessf_packets: int = 0
    # Overload ladder: highest rung held by any core at snapshot time,
    # and packets shed by admission control this interval.
    overload_rung: int = 0
    shed_packets: int = 0

    @property
    def loss_fraction(self) -> float:
        """Implied packet loss: a core over 100% busy is dropping."""
        if self.busy_fraction <= 1.0:
            return 0.0
        return 1.0 - 1.0 / self.busy_fraction

    def format(self) -> str:
        loss = self.loss_fraction
        line = (
            f"[{self.timestamp:9.3f}s] {self.interval_gbps:7.3f} Gbps  "
            f"pkts={self.ingress_packets}  "
            f"funnel={self.pf_packets}/{self.connf_packets}"
            f"/{self.sessf_packets}  cb={self.callbacks}  "
            f"conns={self.live_connections}  "
            f"mem={self.memory_bytes / 1e6:.1f}MB  "
            f"busy={self.busy_fraction * 100:5.1f}%  "
            f"loss={'%.2f%%' % (loss * 100) if loss else '0'}"
        )
        if self.overload_rung or self.shed_packets:
            line += f"  rung={self.overload_rung}" \
                    f" shed={self.shed_packets}"
        return line


class StatsMonitor:
    """Periodic pipeline snapshots with optional live emission."""

    def __init__(
        self,
        interval: float = 1.0,
        emit: Optional[Callable[[str], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._emit = emit
        self.samples: List[MonitorSample] = []
        self._last_ts: Optional[float] = None
        self._last_packets = 0
        self._last_bytes = 0
        self._last_callbacks = 0
        self._last_busy = 0.0
        self._last_pf = 0
        self._last_connf = 0
        self._last_sessf = 0
        self._last_shed = 0

    def observe(self, runtime, now: float) -> None:
        """Called by the runtime; snapshots when the interval elapsed.
        ``runtime`` is anything with ``nics`` and ``core_progress()``."""
        if self._last_ts is None:
            self._last_ts = now
            return
        if now - self._last_ts < self.interval:
            return
        self._snapshot(runtime, now)

    def finalize(self, now: float, runtime) -> None:
        """End of run: record the final partial interval (if any time
        elapsed since the last snapshot), whatever its length."""
        if self._last_ts is None or now <= self._last_ts:
            return
        self._snapshot(runtime, now)

    def _snapshot(self, runtime, now: float) -> None:
        elapsed = now - self._last_ts
        received_packets = sum(n.stats.received_packets
                               for n in runtime.nics)
        received_bytes = sum(n.stats.received_bytes for n in runtime.nics)
        cores = runtime.core_progress()
        callbacks = sum(c.callbacks for c in cores)
        pf = sum(c.pf_packets for c in cores)
        connf = sum(c.connf_packets for c in cores)
        sessf = sum(c.sessf_packets for c in cores)
        busiest = max((c.busy_seconds for c in cores), default=0.0)
        shed = sum(c.shed_packets for c in cores)
        sample = MonitorSample(
            timestamp=now,
            interval=elapsed,
            ingress_packets=received_packets - self._last_packets,
            ingress_bytes=received_bytes - self._last_bytes,
            interval_gbps=(received_bytes - self._last_bytes) * 8
            / elapsed / 1e9,
            callbacks=callbacks - self._last_callbacks,
            live_connections=sum(c.live_connections for c in cores),
            memory_bytes=sum(c.memory_bytes for c in cores),
            busy_fraction=(busiest - self._last_busy) / elapsed,
            pf_packets=pf - self._last_pf,
            connf_packets=connf - self._last_connf,
            sessf_packets=sessf - self._last_sessf,
            overload_rung=max((c.overload_rung for c in cores), default=0),
            shed_packets=shed - self._last_shed,
        )
        self.samples.append(sample)
        if self._emit is not None:
            self._emit(sample.format())
        self._last_ts = now
        self._last_packets = received_packets
        self._last_bytes = received_bytes
        self._last_callbacks = callbacks
        self._last_busy = busiest
        self._last_pf = pf
        self._last_connf = connf
        self._last_sessf = sessf
        self._last_shed = shed

    # -- feedback signals (Section 5.3's tuning loop) ------------------------
    @property
    def sustained_loss(self) -> bool:
        """True if the last three samples all imply packet loss — the
        paper's cue to buffer writes, add cores, or narrow the filter.
        A single lossy interval (one burst) is not "sustained": fewer
        than three samples never qualify."""
        recent = self.samples[-3:]
        return len(recent) >= 3 and \
            all(s.loss_fraction > 0 for s in recent)

    def peak_memory(self) -> int:
        return max((s.memory_bytes for s in self.samples), default=0)

    def log_lines(self) -> List[str]:
        return [s.format() for s in self.samples]
