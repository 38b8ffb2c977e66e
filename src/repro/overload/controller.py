"""The AIMD degradation-ladder controller.

One controller runs per core, evaluated at a fixed *virtual-time*
cadence inside the packet loop. Clocking on virtual time is what makes
the whole subsystem deterministic: per-core packet streams are
identical across backends and batch sizes, so every controller sees
the same (now, busy_seconds, memory) sequence and takes the same rung
transitions — and therefore sheds the same packets — whether the core
runs on the calling thread or in a worker process.

Pressure signals:

- **cycle backlog** — how far the core's virtual cycle ledger has
  fallen behind the packet arrival clock
  (``busy_seconds - elapsed``), normalized by the operator's target
  lag. This is the virtual analogue of the RX descriptor ring filling
  up.
- **memory occupancy** — connection-table bytes against the core's
  share of ``memory_limit_bytes`` (when a limit is configured),
  normalized so pressure 1.0 sits at 90% of the share.

The parallel backend's dispatch-queue depth is deliberately *not* a
ladder input: it is wall-clock and scheduler dependent, so driving
rung transitions from it would break cross-backend determinism. Queue
depth remains visible as volatile backend-health telemetry
(``RuntimeReport.backend_health``); see docs/OVERLOAD.md.

The ladder (additive-increase, multiplicative-decrease):

- pressure > 1.0 → climb one rung (capped at ``overload_max_rung``);
- pressure < 0.5 for ``overload_relax_ticks`` consecutive ticks →
  drop to ``rung // 2``;
- otherwise hold.

Policies: ``ladder`` climbs the rungs; ``failfast`` never sheds and
instead trips (paper-faithful §7 exit) after three consecutive
overloaded ticks — the same "three strikes" rule as the monitor's
``sustained_loss`` signal. A ladder capped at rung 4 trips fail-fast
when it runs out of rungs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # avoid a config<->overload import cycle at runtime
    from repro.config import RuntimeConfig

from repro.overload.ledger import RUNG_NAMES, LossLedger

#: The ladder's rungs.
RUNG_NORMAL = 0
RUNG_SHED_PACKET_LEVEL = 1
RUNG_SHED_NEW_CONNS = 2
RUNG_DOWNGRADE = 3
RUNG_FAILFAST = 4

#: Consecutive overloaded ticks before the failfast policy trips —
#: mirrors StatsMonitor.sustained_loss's three-sample rule.
_FAILFAST_TICKS = 3

#: Memory pressure reaches 1.0 at this fraction of the core's share,
#: leaving headroom for in-flight growth before the hard limit.
_MEM_HEADROOM = 0.9


class OverloadController:
    """Per-core ladder state machine. See the module docstring."""

    __slots__ = ("policy", "target_lag", "interval", "max_rung",
                 "relax_ticks", "ledger", "rung", "last_pressure",
                 "_hot", "_calm", "_first_ts", "_last_tick")

    def __init__(self, config: "RuntimeConfig",
                 ledger: LossLedger) -> None:
        self.policy = config.overload_policy
        self.target_lag = config.overload_target_lag
        self.interval = config.overload_eval_interval
        self.max_rung = config.overload_max_rung
        self.relax_ticks = config.overload_relax_ticks
        self.ledger = ledger
        self.rung = 0
        self.last_pressure = 0.0
        self._hot = 0
        self._calm = 0
        self._first_ts: Optional[float] = None
        self._last_tick: Optional[float] = None

    # -- the tick ------------------------------------------------------
    def evaluate(self, now: float, busy_seconds: float,
                 memory_bytes: int,
                 memory_share: Optional[int]) -> bool:
        """One controller tick at virtual time ``now``. Returns True
        when the run should fail fast."""
        if self._first_ts is None:
            self._first_ts = now
            self._last_tick = now
        self.ledger.rung_time[self.rung] += now - self._last_tick
        self._last_tick = now

        backlog = busy_seconds - (now - self._first_ts)
        pressure = backlog / self.target_lag
        if memory_share:
            mem_pressure = memory_bytes / (_MEM_HEADROOM * memory_share)
            if mem_pressure > pressure:
                pressure = mem_pressure
        self.last_pressure = pressure

        if pressure > 1.0:
            self._hot += 1
            self._calm = 0
            if self.policy == "failfast":
                return self._hot >= _FAILFAST_TICKS
            if self.rung < self.max_rung:
                self._transition(now, self.rung + 1,
                                 f"pressure={pressure:.2f}")
            return self.rung >= RUNG_FAILFAST
        self._hot = 0
        if pressure < 0.5:
            self._calm += 1
            if self._calm >= self.relax_ticks and self.rung > RUNG_NORMAL:
                self._calm = 0
                self._transition(now, self.rung // 2, "relaxed")
        else:
            self._calm = 0
        return False

    def _transition(self, now: float, to_rung: int, reason: str) -> None:
        self.ledger.record_transition(now, self.rung, to_rung, reason)
        self.rung = to_rung

    # -- what the pipeline consults ------------------------------------
    @property
    def admission_block(self) -> int:
        """0: admit everything; 1: refuse new connections whose only
        use is packet-level delivery; 2: refuse all new connections."""
        if self.policy != "ladder":
            return 0
        if self.rung >= RUNG_SHED_NEW_CONNS:
            return 2
        if self.rung == RUNG_SHED_PACKET_LEVEL:
            return 1
        return 0

    @property
    def downgrading(self) -> bool:
        return self.policy == "ladder" and self.rung >= RUNG_DOWNGRADE
