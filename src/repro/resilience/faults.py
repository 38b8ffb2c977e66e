"""Deterministic, seeded fault injection.

Retina's value proposition is sustained analysis under hostile
conditions; this module makes every failure path *testable and
replayable*. A :class:`FaultPlan` is a declarative list of faults —
packet corruption/truncation, injected parser and callback exceptions,
worker crashes/hangs at a given batch, synthetic memory spikes — each
anchored to a deterministic coordinate (global packet index, per-core
delivery/parse ordinal, per-core batch sequence number, virtual time).
The same ``(seed, plan)`` therefore produces the same injections, the
same recovery actions, and a byte-identical
:class:`~repro.core.runtime.RuntimeReport` ``faults`` section across
runs.

Coordinates and cross-backend determinism:

- ``corrupt_packet`` / ``truncate_packet`` faults key on the **global
  packet index** in arrival order, applied in the parent before RSS
  dispatch — identical across the sequential backend, the parallel
  backend, and any worker count.
- ``callback_error`` / ``parser_error`` faults key on a **per-core
  ordinal** (the Nth delivery / parse invocation on that core). Both
  backends run identical per-core pipelines, so for a fixed core count
  the injections — and all downstream counters — are identical between
  sequential and parallel execution. Across *different* worker counts
  the ordinals land on different packets (the plan does not "permit"
  that comparison).
- ``worker_crash`` / ``worker_hang`` key on a per-core **batch sequence
  number** and only apply to the parallel backend (the sequential
  backend has no worker processes to kill; such faults are counted as
  skipped in the report).
- ``memory_spike`` keys on **virtual time**: from ``at_time`` on (for
  ``duration`` virtual seconds, or indefinitely) the named core's
  reported connection-table memory is inflated by ``bytes`` — enough to
  push a run over ``memory_limit_bytes`` on a schedule and exercise the
  record/evict/shed policies.

The ``seed`` feeds a per-fault :class:`random.Random` (keyed on the
fault's index in the plan, not on execution order) used only for
corruption content, so corrupted bytes are replayable regardless of
how faults interleave.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import FaultInjectionError, ProtocolError

#: Recognized fault kinds.
FAULT_KINDS = (
    "corrupt_packet",
    "truncate_packet",
    "callback_error",
    "parser_error",
    "worker_crash",
    "worker_hang",
    "memory_spike",
)

#: Fault kinds that target the parallel backend's worker processes.
WORKER_FAULT_KINDS = ("worker_crash", "worker_hang")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault. Frozen + picklable (ships to workers)."""

    kind: str
    #: Global packet index (corrupt/truncate faults).
    at_packet: Optional[int] = None
    #: How many consecutive packets the packet fault covers.
    count: int = 1
    #: Bytes to keep when truncating (None: seeded random cut).
    keep_bytes: Optional[int] = None
    #: Per-core delivery ordinal (callback faults) or parse ordinal
    #: (parser faults); 0-based.
    at_ordinal: Optional[int] = None
    #: Repeat the callback/parser fault every N ordinals after the
    #: first hit (None: fire once).
    every: Optional[int] = None
    #: Target core for core-scoped faults (callback/parser/worker/
    #: memory). None means core 0 for worker faults and "all cores"
    #: for callback/parser/memory faults.
    core: Optional[int] = None
    #: Per-core batch sequence number (worker faults), 0-based.
    at_batch: Optional[int] = None
    #: Virtual-time anchor (memory spikes).
    at_time: Optional[float] = None
    #: Spike duration in virtual seconds (None: until end of run).
    duration: Optional[float] = None
    #: Spike size.
    bytes: int = 0

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind}
        for key in ("at_packet", "keep_bytes", "at_ordinal", "every",
                    "core", "at_batch", "at_time", "duration"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.count != 1:
            out["count"] = self.count
        if self.bytes:
            out["bytes"] = self.bytes
        return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultInjectionError(message)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of faults to inject into one run."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.faults:
            _require(spec.kind in FAULT_KINDS,
                     f"unknown fault kind {spec.kind!r}; "
                     f"known: {list(FAULT_KINDS)}")
            if spec.kind in ("corrupt_packet", "truncate_packet"):
                _require(spec.at_packet is not None and spec.at_packet >= 0,
                         f"{spec.kind} needs at_packet >= 0")
                _require(spec.count >= 1, f"{spec.kind}: count must be >= 1")
            elif spec.kind in ("callback_error", "parser_error"):
                _require(spec.at_ordinal is not None and spec.at_ordinal >= 0,
                         f"{spec.kind} needs at_ordinal >= 0")
                _require(spec.every is None or spec.every >= 1,
                         f"{spec.kind}: every must be >= 1")
            elif spec.kind in WORKER_FAULT_KINDS:
                _require(spec.at_batch is not None and spec.at_batch >= 0,
                         f"{spec.kind} needs at_batch >= 0")
            elif spec.kind == "memory_spike":
                _require(spec.at_time is not None and spec.at_time >= 0,
                         "memory_spike needs at_time >= 0")
                _require(spec.bytes > 0, "memory_spike needs bytes > 0")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        _require(isinstance(data, dict), "fault plan must be an object")
        seed = data.get("seed", 0)
        _require(isinstance(seed, int), "fault plan seed must be an int")
        raw_faults = data.get("faults", [])
        _require(isinstance(raw_faults, list),
                 "fault plan 'faults' must be a list")
        specs: List[FaultSpec] = []
        allowed = {"kind", "at_packet", "count", "keep_bytes",
                   "at_ordinal", "every", "core", "at_batch", "at_time",
                   "duration", "bytes"}
        for raw in raw_faults:
            _require(isinstance(raw, dict) and "kind" in raw,
                     "each fault must be an object with a 'kind'")
            unknown = set(raw) - allowed
            _require(not unknown,
                     f"unknown fault field(s) {sorted(unknown)}")
            specs.append(FaultSpec(**raw))
        return cls(seed=seed, faults=tuple(specs))

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "FaultPlan":
        """Load a plan from a JSON file path or a JSON string."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(
                f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict:
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    # -- queries -----------------------------------------------------------
    @property
    def has_packet_faults(self) -> bool:
        return any(s.kind in ("corrupt_packet", "truncate_packet")
                   for s in self.faults)

    @property
    def has_worker_faults(self) -> bool:
        return any(s.kind in WORKER_FAULT_KINDS for s in self.faults)

    def worker_fault_at(self, core: int, seq: int,
                        suppressed: Tuple[int, ...] = ()
                        ) -> Optional[Tuple[int, FaultSpec]]:
        """The (plan index, spec) of a worker fault firing when ``core``
        receives batch ``seq``, skipping already-fired plan indices."""
        for index, spec in enumerate(self.faults):
            if spec.kind not in WORKER_FAULT_KINDS or index in suppressed:
                continue
            if (spec.core or 0) == core and spec.at_batch == seq:
                return index, spec
        return None

    def _fault_rng(self, index: int, packet: int = 0) -> random.Random:
        # Keyed on the fault's plan index (and, for multi-packet
        # faults, the packet index) so corruption bytes do not depend
        # on which other faults fired first.
        return random.Random(f"repro.fault:{self.seed}:{index}:{packet}")


class InjectedCallbackFault(RuntimeError):
    """The exception an injected ``callback_error`` fault raises —
    indistinguishable from a user callback raising ``RuntimeError`` as
    far as the isolation machinery is concerned."""


# ---------------------------------------------------------------------------
# parent-side injection: packet corruption/truncation
# ---------------------------------------------------------------------------
class PacketFaultInjector:
    """Mutates the traffic stream at planned global packet indices.

    Lives in the feeding process (parent), *before* RSS dispatch, so
    the corrupted stream — and everything downstream — is identical
    across backends and worker counts.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._events: Dict[int, List[Tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.faults):
            if spec.kind not in ("corrupt_packet", "truncate_packet"):
                continue
            for offset in range(spec.count):
                self._events.setdefault(spec.at_packet + offset, []) \
                    .append((index, spec))
        self._plan = plan
        self.injected: Dict[str, int] = {}

    def wrap(self, traffic):
        """Wrap a traffic iterable; returns a generator that yields the
        same mbufs with planned faults applied."""
        from repro.packet.mbuf import Mbuf

        events = self._events
        injected = self.injected
        plan = self._plan
        for index, mbuf in enumerate(traffic):
            hits = events.get(index)
            if hits:
                data = mbuf.data
                for fault_index, spec in hits:
                    # The packet index is mixed in so multi-packet
                    # faults do not repeat the same mutation.
                    rng = plan._fault_rng(fault_index, index)
                    if spec.kind == "corrupt_packet":
                        data = _corrupt_bytes(data, rng)
                    else:  # truncate_packet
                        keep = spec.keep_bytes
                        if keep is None:
                            keep = rng.randrange(0, max(len(data), 1))
                        data = data[:keep]
                    injected[spec.kind] = injected.get(spec.kind, 0) + 1
                mbuf = Mbuf(data, timestamp=mbuf.timestamp,
                            port=mbuf.port)
            yield mbuf


def _corrupt_bytes(data: bytes, rng: random.Random) -> bytes:
    """Flip a handful of bytes at seeded offsets (never changes size)."""
    if not data:
        return data
    out = bytearray(data)
    for _ in range(rng.randrange(1, min(8, len(out)) + 1)):
        out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
    return bytes(out)


# ---------------------------------------------------------------------------
# core-side injection: callback/parser exceptions, memory spikes
# ---------------------------------------------------------------------------
class CoreFaultInjector:
    """Per-core injector the pipeline consults at cold call sites.

    Constructed only when a plan actually has faults for this core's
    scope; ``CorePipeline`` keeps ``None`` otherwise so the disabled
    path costs nothing.
    """

    __slots__ = ("_callback_faults", "_parser_faults", "_spikes",
                 "_deliveries", "_parses", "_spikes_fired", "counters")

    def __init__(self, plan: FaultPlan, core_id: int) -> None:
        self._callback_faults: List[FaultSpec] = []
        self._parser_faults: List[FaultSpec] = []
        self._spikes: List[FaultSpec] = []
        for spec in plan.faults:
            if spec.core is not None and spec.core != core_id:
                continue
            if spec.kind == "callback_error":
                self._callback_faults.append(spec)
            elif spec.kind == "parser_error":
                self._parser_faults.append(spec)
            elif spec.kind == "memory_spike":
                self._spikes.append(spec)
        self._deliveries = 0
        self._parses = 0
        self._spikes_fired: set = set()
        #: Injection counts by kind (merged into CoreStats.fault_counters).
        self.counters: Dict[str, int] = {}

    @classmethod
    def for_core(cls, plan: Optional[FaultPlan],
                 core_id: int) -> Optional["CoreFaultInjector"]:
        if plan is None:
            return None
        injector = cls(plan, core_id)
        if not (injector._callback_faults or injector._parser_faults
                or injector._spikes):
            return None
        return injector

    @staticmethod
    def _fires(spec: FaultSpec, ordinal: int) -> bool:
        if ordinal < spec.at_ordinal:
            return False
        if ordinal == spec.at_ordinal:
            return True
        return spec.every is not None and \
            (ordinal - spec.at_ordinal) % spec.every == 0

    def on_deliver(self) -> None:
        """Called per delivery; raises to simulate the callback raising."""
        ordinal = self._deliveries
        self._deliveries += 1
        for spec in self._callback_faults:
            if self._fires(spec, ordinal):
                self.counters["callback_error"] = \
                    self.counters.get("callback_error", 0) + 1
                raise InjectedCallbackFault(
                    f"injected callback fault at delivery #{ordinal}")

    def on_parse(self) -> None:
        """Called per probe/parse invocation; raises a ProtocolError to
        simulate a buggy protocol parser."""
        ordinal = self._parses
        self._parses += 1
        for spec in self._parser_faults:
            if self._fires(spec, ordinal):
                self.counters["parser_error"] = \
                    self.counters.get("parser_error", 0) + 1
                raise ProtocolError(
                    f"injected parser fault at parse #{ordinal}")

    @property
    def spikes_memory(self) -> bool:
        """Whether any memory spike targets this core."""
        return bool(self._spikes)

    def memory_spike_bytes(self, now: float) -> int:
        """Synthetic extra bytes active at virtual time ``now``."""
        extra = 0
        for i, spec in enumerate(self._spikes):
            if now < spec.at_time:
                continue
            if spec.duration is not None and \
                    now >= spec.at_time + spec.duration:
                continue
            extra += spec.bytes
            # Count each spike once (on first activation), not per
            # query — the property is read at a call-site-dependent
            # cadence that must not leak into the report.
            if i not in self._spikes_fired:
                self._spikes_fired.add(i)
                self.counters["memory_spike"] = \
                    self.counters.get("memory_spike", 0) + 1
        return extra


# ---------------------------------------------------------------------------
# the faults section of the run report
# ---------------------------------------------------------------------------
@dataclass
class FaultReport:
    """``RuntimeReport.faults``: what was injected, what was survived.

    Every field is deterministic for a fixed ``(seed, plan)`` — wall
    clock never appears here — so two runs of the same plan produce
    byte-identical ``to_dict()`` output.
    """

    #: The plan's seed (None when no plan was configured but policies
    #: still produced resilience events).
    plan_seed: Optional[int] = None
    #: Injection counts by fault kind.
    injected: Dict[str, int] = field(default_factory=dict)
    #: Planned worker faults that could not apply (sequential backend).
    skipped_worker_faults: int = 0
    #: Callback exceptions absorbed by the ``isolate`` policy.
    callback_errors: int = 0
    #: Deliveries whose user callback was skipped post-quarantine.
    callbacks_suppressed: int = 0
    #: Cores whose subscription callback was quarantined.
    quarantined_cores: List[int] = field(default_factory=list)
    #: Parser exceptions absorbed at the probe/parse boundary.
    parser_exceptions: int = 0
    #: Connections evicted / new connections refused by memory policies.
    conns_evicted: int = 0
    conns_shed: int = 0
    #: Supervisor actions (parallel backend only).
    worker_restarts: int = 0
    replayed_batches: int = 0
    unreplayable_batches: int = 0
    lost_cores: List[int] = field(default_factory=list)
    #: Deterministic backoff schedule applied across restarts (seconds).
    restart_backoffs: List[float] = field(default_factory=list)
    #: True when the run completed with partial results.
    degraded: bool = False

    @property
    def any_events(self) -> bool:
        return bool(
            self.injected or self.callback_errors or self.parser_exceptions
            or self.conns_evicted or self.conns_shed or self.worker_restarts
            or self.lost_cores or self.quarantined_cores or self.degraded
            or self.skipped_worker_faults or self.callbacks_suppressed
        )

    def to_dict(self) -> Dict:
        return {
            "plan_seed": self.plan_seed,
            "injected": {k: self.injected[k] for k in sorted(self.injected)},
            "skipped_worker_faults": self.skipped_worker_faults,
            "callback_errors": self.callback_errors,
            "callbacks_suppressed": self.callbacks_suppressed,
            "quarantined_cores": sorted(self.quarantined_cores),
            "parser_exceptions": self.parser_exceptions,
            "conns_evicted": self.conns_evicted,
            "conns_shed": self.conns_shed,
            "worker_restarts": self.worker_restarts,
            "replayed_batches": self.replayed_batches,
            "unreplayable_batches": self.unreplayable_batches,
            "lost_cores": sorted(self.lost_cores),
            "restart_backoffs": list(self.restart_backoffs),
            "degraded": self.degraded,
        }


def restart_backoff(attempt: int, base: float = 0.05,
                    cap: float = 1.0) -> float:
    """Capped exponential backoff for worker restart ``attempt`` (0-based).

    Deterministic (no jitter): the schedule is part of the fault
    report's byte-identity guarantee. "Virtual-time aware" in the sense
    that the schedule is derived from the attempt count alone — the
    run's virtual clock never waits on it; only the wall-clock restart
    pauses."""
    return min(base * (2 ** attempt), cap)


def build_fault_report(config, core_stats,
                       packet_injector: Optional[PacketFaultInjector],
                       supervisor_summary: Optional[Dict] = None,
                       ) -> Optional[FaultReport]:
    """Assemble the report from per-core stats + parent-side state.

    ``core_stats`` is a ``{core_id: CoreStats}`` mapping (a dict rather
    than a list so degraded runs with lost cores keep correct ids).
    Returns None when no plan, non-default policy, or supervision was
    configured *and* nothing happened — keeping ``RuntimeReport.faults``
    absent for plain runs.
    """
    plan = config.fault_plan
    report = FaultReport(plan_seed=plan.seed if plan else None)
    if packet_injector is not None:
        for kind, count in packet_injector.injected.items():
            report.injected[kind] = report.injected.get(kind, 0) + count
    for core_id, stats in sorted(core_stats.items()):
        report.callback_errors += stats.callback_errors
        report.callbacks_suppressed += stats.callbacks_suppressed
        if stats.callback_quarantined:
            report.quarantined_cores.append(core_id)
        report.parser_exceptions += stats.parser_exceptions
        report.conns_evicted += stats.conns_evicted
        report.conns_shed += stats.conns_shed
        for kind, count in stats.fault_counters.items():
            report.injected[kind] = report.injected.get(kind, 0) + count
    if supervisor_summary is not None:
        report.worker_restarts = supervisor_summary.get("restarts", 0)
        report.replayed_batches = supervisor_summary.get("replayed", 0)
        report.unreplayable_batches = \
            supervisor_summary.get("unreplayable", 0)
        report.lost_cores = list(supervisor_summary.get("lost_cores", ()))
        report.restart_backoffs = \
            list(supervisor_summary.get("backoffs", ()))
        report.degraded = bool(supervisor_summary.get("degraded", False))
    elif plan is not None and not config.parallel:
        report.skipped_worker_faults = sum(
            1 for spec in plan.faults if spec.kind in WORKER_FAULT_KINDS)
    configured = (
        plan is not None
        or config.callback_error_policy != "raise"
        or config.memory_policy != "record"
        or config.supervise
    )
    if not configured and not report.any_events:
        return None
    return report
