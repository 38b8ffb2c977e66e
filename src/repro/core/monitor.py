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
from itertools import repeat
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
    #: The core's virtual clock: the latest packet timestamp it
    #: processed (its busy seconds cover arrivals up to here).
    now: float = 0.0

    @classmethod
    def of(cls, pipeline) -> "CoreProgress":
        """The record of one core's pipeline. One ``stats`` read: it
        builds a fresh snapshot of every lane on every read."""
        stats = pipeline.stats
        shed = stats.overload
        return cls(stats.callbacks, pipeline.live_connections,
                   pipeline.memory_bytes, stats.ledger.busy_seconds,
                   stats.pf_packets, stats.connf_packets,
                   stats.sessf_packets, pipeline.overload_rung,
                   shed.packets_shed if shed is not None else 0,
                   pipeline.overload_failfast_at, pipeline.now)


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
    #: The busiest core's cycle demand over the arrival time of the
    #: packets it processed since the last snapshot (capacity = 1.0).
    busy_fraction: float
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


class _Totals(NamedTuple):
    """The cumulative counters a snapshot differences."""

    packets: int = 0
    bytes: int = 0
    callbacks: int = 0
    pf: int = 0
    connf: int = 0
    sessf: int = 0
    shed: int = 0


class StatsMonitor:
    """Periodic pipeline snapshots with optional live emission.

    An observer: a snapshot reads per-core state as of the last burst
    the ingest loop dispatched (packets still queued for a burst count
    in a later interval) and never changes the run.
    """

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
        #: ``(virtual time, totals, per-core (busy seconds, clock))``
        #: of the last snapshot, and of the one before it.
        self._base: Optional[tuple] = None
        self._prev: Optional[tuple] = None

    def observe(self, runtime, now: float) -> None:
        """Called by the runtime; snapshots when the interval elapsed.
        ``runtime`` is anything with ``nics`` and ``core_progress()``."""
        if self._base is None:
            self._base = (now, _Totals(), None)
            return
        if now - self._base[0] < self.interval:
            return
        self._snapshot(runtime, now)

    def finalize(self, now: float, runtime) -> None:
        """End of run: record the final partial interval (if any time
        elapsed since the last snapshot), whatever its length. A last
        snapshot taken at the end time itself predates the bursts that
        ran after it, so it is taken again over its own interval."""
        if self._base is None or now < self._base[0]:
            return
        if now == self._base[0]:
            if not self.samples:
                return
            self.samples.pop()
            self._base = self._prev
        self._snapshot(runtime, now)

    def _snapshot(self, runtime, now: float) -> None:
        since, base, clocks = self._base
        elapsed = now - since
        cores = runtime.core_progress()
        totals = _Totals(
            sum(n.stats.received_packets for n in runtime.nics),
            sum(n.stats.received_bytes for n in runtime.nics),
            sum(c.callbacks for c in cores),
            sum(c.pf_packets for c in cores),
            sum(c.connf_packets for c in cores),
            sum(c.sessf_packets for c in cores),
            sum(c.shed_packets for c in cores))
        delta = _Totals(*(a - b for a, b in zip(totals, base)))
        # Load is demand over the arrival time it served: a core's
        # state moves a burst at a time, so its busy seconds are read
        # against its own clock. Until some core moves, the last
        # measured load stands.
        loads = [(c.busy_seconds - busy) / (c.now - clock)
                 for c, (busy, clock) in zip(
                     cores, clocks or repeat((0.0, since)))
                 if c.now > clock]
        busy_fraction = max(loads) if loads else (
            self.samples[-1].busy_fraction if self.samples else 0.0)
        sample = MonitorSample(
            timestamp=now,
            interval=elapsed,
            ingress_packets=delta.packets,
            ingress_bytes=delta.bytes,
            interval_gbps=delta.bytes * 8 / elapsed / 1e9,
            callbacks=delta.callbacks,
            live_connections=sum(c.live_connections for c in cores),
            memory_bytes=sum(c.memory_bytes for c in cores),
            busy_fraction=busy_fraction,
            pf_packets=delta.pf,
            connf_packets=delta.connf,
            sessf_packets=delta.sessf,
            overload_rung=max((c.overload_rung for c in cores), default=0),
            shed_packets=delta.shed,
        )
        self.samples.append(sample)
        if self._emit is not None:
            self._emit(sample.format())
        self._prev, self._base = self._base, (
            now, totals, [(c.busy_seconds, c.now) for c in cores])

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

    def log_lines(self) -> List[str]:
        return [s.format() for s in self.samples]
