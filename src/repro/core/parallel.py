"""Parallel sharded execution backend: real multi-core processing.

The sequential backend models Retina's per-core pipelines faithfully
but executes them on one thread, so wall-clock throughput is bounded by
a single CPU no matter what ``config.cores`` says. This module makes
the paper's Section 5 scaling claim *real*: one OS worker process per
simulated core, each running its own shared-nothing
:class:`~repro.core.pipeline.CorePipeline` + connection table, fed by
the parent over bounded queues.

Design, mirroring the paper's data path:

- **Sharding** happens in the parent exactly where the NIC does it:
  :meth:`SimNic.receive` computes the symmetric-RSS hash and the
  redirection-table lookup, so both backends route every packet to the
  same queue/core. Per-flow arrival order is preserved because routing
  is per packet, in stream order.
- **Batching** amortizes IPC and pickle cost the same way Retina
  amortizes per-packet overhead with DPDK bursts: packets travel in
  ``config.parallel_batch_size``-packet batches packed into flat
  buffers (:class:`~repro.packet.batch.PackedBatch` — one frames blob
  plus offset/timestamp/port arrays, so serialization is O(bytes)
  rather than O(objects)); workers rebuild zero-copy mbuf views and
  process them with :meth:`CorePipeline.process_batch`.
- **Backpressure**: each worker's input queue holds at most
  ``config.parallel_queue_depth`` batches; the feeder blocks instead of
  buffering unboundedly (the analogue of a finite RX descriptor ring).
- **Shared-nothing merge**: workers never share state; each returns a
  picklable :class:`~repro.core.stats.CoreStats` snapshot at the end,
  and the parent merges them through ``Runtime.aggregate()`` so
  reports, memory series, and derived metrics are built by the exact
  same code as the sequential backend.

Determinism: for a fixed traffic source, the parallel backend produces
**identical** filter/connection/session/callback counts — and
bit-identical stage cycle totals — to the sequential backend, because
RSS sharding makes per-core work order-independent and the cycle
ledger is integer: its sums do not depend on batch boundaries or
merge order.

Caveats (documented deviations):

- Worker processes rebuild their subscription from the filter text and
  data type; custom parser/field registries on a hand-built
  ``Subscription`` are not shipped to workers.
- Callbacks execute inside the worker processes: their side effects
  (prints, appended lists) live in the worker's address space, not the
  parent's. Counts still aggregate exactly.
- The OOM cutoff compares worker-reported memory at progress cadence,
  so ``oom_at`` in parallel mode is approximate (sequential checks
  synchronously at every sample point).

Memory sampling is parent-clocked: the parent tells every worker to
sample (``_SAMPLE``) at the same global virtual deadlines the
sequential backend uses, and per-queue FIFO ordering guarantees the
worker has processed exactly the batches dispatched before the
deadline. The resulting memory series — and therefore the peak
memory/connection figures — are identical between backends.

Two IPC transports implement the feeder→worker path
(``config.ipc_transport``):

- **"queue"** — the original pickled ``multiprocessing.Queue`` path:
  one pickle + pipe write + unpickle per batch.
- **"shm"** (default where available) — the shared-memory mempool +
  descriptor-ring transport (:mod:`repro.core.shm`): the feeder writes
  each burst's flat-buffer wire layout straight into a pre-allocated
  shared slot and publishes an 8-byte descriptor on a per-core SPSC
  ring; the worker maps the slot back with zero-copy ``memoryview``
  blobs and returns the slot by publishing a cumulative consumed
  counter (credit-based recycling). Everything that is not a hot batch
  — memory samples, FINISH, tenancy epoch bumps, bursts too large for
  a slot — rides a CTRL descriptor whose payload stays on the retained
  pickle queue, so the strict per-core total order (which the
  parent-clocked sampling and epoch-swap boundaries rely on) is
  preserved across both channels. Worker acks coalesce (cumulative
  seqs, flushed on ring-idle/every few batches — and always *before* a
  planned fault fires, which keeps the supervisor's replay set, and
  therefore post-crash stats, byte-identical to the queue transport).
  On top of the ring, the feeder adapts its batch size at
  deterministic burst-ordinal resize points: toward
  ``ipc_max_batch`` while the ring runs deep, back toward the
  configured size when it drains (AggregateStats are batch-size
  invariant, so adaptation never changes results).
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, \
    Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.config import RuntimeConfig
    from repro.core.runtime import Runtime, RuntimeReport
    from repro.resilience.faults import PacketFaultInjector

from repro.core import shm as shm_mod
from repro.core.pipeline import CorePipeline
from repro.core.stats import CoreStats
from repro.core.subscription import Subscription
from repro.errors import RetinaError
from repro.packet.batch import PackedBatch
from repro.packet.columnar import HELD, ingress_rows
from repro.packet.mbuf import Mbuf
from repro.resilience.faults import FaultPlan, build_fault_report
from repro.resilience.supervisor import WorkerSupervisor

#: Message tags on the worker input queues.
_BATCH = 0
_FINISH = 1
_SAMPLE = 2
#: Supervised batch: carries a per-core sequence number the worker
#: acknowledges after processing (heartbeat + redo-log trim signal).
_BATCH_SEQ = 3
#: Message tags on the shared result queue.
_PROGRESS = "progress"
_DONE = "done"
_ERROR = "error"
_ACK = "ack"
_CRASHED = "crashed"

#: How long to wait on a stuck queue before checking worker liveness.
_POLL_TIMEOUT = 5.0
#: How long an injected worker_hang sleeps — "forever" as far as the
#: supervisor's heartbeat deadline is concerned.
_HANG_SLEEP = 3600.0
#: Shm transport: a worker flushes its coalesced cumulative ack at
#: latest every this many supervised batches (it also flushes whenever
#: the ring runs empty, before a planned fault fires, and at FINISH).
_ACK_COALESCE = 8
#: Shm transport: the adaptive batch sizer reconsiders a queue's batch
#: size every this many dispatched bursts (deterministic resize points
#: on the per-queue burst ordinal).
_RESIZE_INTERVAL = 16


class ParallelExecutionError(RetinaError):
    """A worker process failed; carries the worker's traceback.

    ``core_id`` names the failed worker when known; ``partial_stats``
    maps core id → :class:`CoreStats` for every worker whose final
    snapshot had already been gathered when the failure surfaced, so
    callers can salvage partial results.
    """

    def __init__(self, message: str, core_id: Optional[int] = None,
                 partial_stats: Optional[Dict[int, CoreStats]] = None
                 ) -> None:
        super().__init__(message)
        self.core_id = core_id
        self.partial_stats: Dict[int, CoreStats] = partial_stats or {}


@dataclass
class _WorkerSpec:
    """Everything a worker needs to rebuild its shard of the runtime.

    Must be picklable under the ``spawn`` start method; under ``fork``
    it is simply inherited. The subscription is reconstructed in the
    worker (compiled filters hold generated code objects that do not
    pickle), which also guarantees each shard gets genuinely private
    state.
    """

    core_id: int
    config: "RuntimeConfig"
    #: The subscription to recompile (unread when ``tenancy`` is set).
    filter_str: str = ""
    datatype: object = "packet"
    callback: Optional[Callable] = None
    identify_services: bool = False
    #: Virtual seconds between progress reports to the parent, or None
    #: for "never" (no monitor attached and no memory limit).
    progress_interval: Optional[float] = None
    #: The run's fault plan (workers fire their own worker_crash/
    #: worker_hang faults; core-scoped faults are consumed by the
    #: pipeline's own injector).
    fault_plan: Optional[FaultPlan] = None
    #: Plan indices of worker faults that already fired — set on the
    #: spec of a restarted worker so the same fault does not fire again.
    suppressed_faults: Tuple[int, ...] = field(default_factory=tuple)
    #: Overload-ladder rung the core held when its previous incarnation
    #: last acknowledged a batch — set on restart so a crash
    #: mid-overload does not silently reopen the admission gate.
    initial_overload_rung: int = 0
    #: Multi-tenant table state for the worker to rebuild, or None for
    #: the ordinary single-subscription pipeline. A plain dict
    #: (``{"specs": [wire dicts], "active": [names], "epoch": int}``)
    #: so this spec stays picklable without importing repro.tenancy.
    tenancy: Optional[dict] = None
    #: Shared-memory transport attachment — ``(segment_name, ring_size,
    #: slot_bytes)`` — or None for the pickled-queue transport. Plain
    #: strings/ints so the spec stays picklable under spawn.
    shm: Optional[Tuple[str, int, int]] = None


def _tenancy_state(base: dict, bumps, epoch: int) -> dict:
    """The wire-dict table state at ``epoch``: the pool's base state
    plus every published epoch bump numbered ``<= epoch``. Seeds a
    restarted worker at the table its predecessor last acknowledged;
    bumps past ``epoch`` re-apply through redo-log replay."""
    specs = [dict(w) for w in base["specs"]]
    active = list(base["active"])
    applied = base["epoch"]
    for epoch_no, actions in bumps:
        if epoch_no <= applied or epoch_no > epoch:
            continue
        for kind, name, wire in actions:
            if kind == "add":
                specs = [w for w in specs if w["name"] != name]
                specs.append(dict(wire))
                active.append(name)
            else:  # drop
                active = [n for n in active if n != name]
        applied = epoch_no
    return {"specs": specs, "active": active, "epoch": applied}


def _fire_worker_fault(spec: _WorkerSpec, out_queue, plan_index: int,
                       kind: str) -> None:
    """Execute a planned worker fault inside the worker process."""
    if kind == "worker_hang":
        # A live-but-stuck worker: stop reading the input queue without
        # exiting. The parent's heartbeat deadline detects the silence,
        # terminates this process, and restarts the core.
        time.sleep(_HANG_SLEEP)
        return
    # worker_crash: announce, flush, then die without any cleanup.
    # os._exit skips atexit/queue teardown (a hard crash), but the
    # close+join below has already flushed the announcement — and,
    # because the result queue preserves per-producer order, every ack
    # this worker sent beforehand reaches the parent first. That
    # ordering is what makes the parent's replay set deterministic.
    out_queue.put((_CRASHED, spec.core_id, plan_index))
    out_queue.close()
    out_queue.join_thread()
    os._exit(1)


class _WorkerState:
    """One worker's message handler, shared by both transports.

    ``handle`` is the exact per-message body the queue transport always
    ran; the shm consume loop feeds it the same message shapes. The one
    transport-sensitive piece is acking: the queue transport flushes an
    ack per supervised batch (``ack_every=1`` — byte-identical legacy
    behavior), the shm transport coalesces cumulative acks
    (``RedoLog.ack`` trims every seq ≤ the acked one) and flushes on
    ring-idle, every ``_ACK_COALESCE`` batches, at FINISH, and —
    crucially for determinism — right *before* a planned worker fault
    fires, so the parent's redo log holds exactly the unprocessed tail
    when the crash announcement lands.
    """

    __slots__ = ("spec", "pipeline", "out_queue", "tenancy", "plan",
                 "progress_interval", "next_progress", "ack_every",
                 "pending_ack", "unflushed")

    def __init__(self, spec: _WorkerSpec, pipeline, out_queue,
                 tenancy: Optional[dict], ack_every: int) -> None:
        self.spec = spec
        self.pipeline = pipeline
        self.out_queue = out_queue
        self.tenancy = tenancy
        self.plan = spec.fault_plan
        self.progress_interval = spec.progress_interval
        self.next_progress: Optional[float] = None
        self.ack_every = ack_every
        self.pending_ack = -1
        self.unflushed = 0

    def flush_acks(self) -> None:
        if self.pending_ack < 0:
            return
        pipeline = self.pipeline
        # The ack carries the ladder's current rung and the
        # filter-table epoch so the supervisor can hand both to a
        # restarted worker.
        self.out_queue.put((_ACK, self.spec.core_id, self.pending_ack,
                            pipeline.overload_rung,
                            getattr(pipeline, "epoch", 0)))
        self.pending_ack = -1
        self.unflushed = 0

    def handle(self, message) -> bool:
        """Process one message; True means FINISH (the worker exits)."""
        tag = message[0]
        pipeline = self.pipeline
        if tag == _BATCH or tag == _BATCH_SEQ:
            if tag == _BATCH_SEQ:
                _, seq, batch = message
                plan = self.plan
                if plan is not None:
                    fault = plan.worker_fault_at(
                        self.spec.core_id, seq,
                        self.spec.suppressed_faults)
                    if fault is not None:
                        self.flush_acks()
                        _fire_worker_fault(self.spec, self.out_queue,
                                           fault[0], fault[1].kind)
            else:
                seq = None
                batch = message[1]
            if type(batch) is PackedBatch:
                # Flat-buffer IPC: one blob + offset arrays crossed
                # the boundary; rebuild zero-copy mbuf views here.
                if batch.trace_ctx is not None:
                    # Span context stamped by the feeder: the burst
                    # tree this batch produces records it, stitching
                    # worker spans into the parent's trace.
                    pipeline.set_span_ctx(batch.trace_ctx)
                if batch.epoch is not None and self.tenancy is not None:
                    # Epoch bump: swap the filter table before this
                    # batch's packets (the feeder flushed everything
                    # older first, so per-queue FIFO makes the swap
                    # land on the exact burst boundary). Idempotent
                    # on the epoch number — replays after a restart
                    # are no-ops.
                    pipeline.apply_epoch(*batch.epoch)
                batch = batch.unpack()
            pipeline.process_batch(batch)
            if seq is not None:
                self.pending_ack = seq
                self.unflushed += 1
                if self.unflushed >= self.ack_every:
                    self.flush_acks()
            now = pipeline.now
            progress_interval = self.progress_interval
            if progress_interval is not None and (
                    self.next_progress is None
                    or now >= self.next_progress):
                self.next_progress = now + progress_interval
                stats = pipeline.stats
                self.out_queue.put((
                    _PROGRESS,
                    self.spec.core_id,
                    now,
                    stats.callbacks,
                    pipeline.live_connections,
                    pipeline.memory_bytes,
                    stats.ledger.busy_seconds,
                    stats.pf_packets,
                    stats.connf_packets,
                    stats.sessf_packets,
                    pipeline.overload_rung,
                    pipeline.overload_shed_packets,
                    pipeline.overload_failfast_at,
                ))
            return False
        if tag == _SAMPLE:
            # Parent-clocked sample point: every batch dispatched
            # before the deadline is already processed (strict per-core
            # order on either transport), so this records exactly what
            # the sequential backend's _sample_memory would.
            pipeline.sample_memory()
            return False
        # _FINISH
        _, last_ts, do_drain = message
        self.flush_acks()
        if last_ts is not None:
            pipeline.advance_time(last_ts)
            pipeline.sample_memory()
            if do_drain:
                pipeline.drain()
        pipeline.fold_fault_counters()
        self.out_queue.put((_DONE, self.spec.core_id, pipeline.stats))
        return True


def _worker_loop_shm(spec: _WorkerSpec, state: _WorkerState,
                     in_queue) -> None:
    """Shm-transport consume loop: poll the descriptor ring in ordinal
    order, map batch slots zero-copy, pull CTRL payloads from the
    pickle queue (the descriptor pins their position in the total
    order), and publish cumulative consumed credits so the feeder can
    recycle slots."""
    channel = shm_mod.ShmWorkerChannel(*spec.shm)
    try:
        ordinal = 0
        wait = channel.wait_descriptor
        mark = channel.mark_consumed
        handle = state.handle
        flush = state.flush_acks
        while True:
            kind, slot, _rows = wait(ordinal, on_idle=flush)
            if kind == shm_mod.KIND_BATCH:
                batch, seq = channel.read_batch(slot)
                if seq < 0:
                    finish = handle((_BATCH, batch))
                else:
                    finish = handle((_BATCH_SEQ, seq, batch))
            elif kind == shm_mod.KIND_SAMPLE:
                finish = handle((_SAMPLE,))
            else:  # KIND_CTRL: payload rides the pickle queue
                finish = handle(in_queue.get())
            # Credit return *after* processing: the slot (and the
            # memoryviews the batch borrowed from it) must stay intact
            # until the burst is fully consumed.
            ordinal += 1
            mark(ordinal)
            if finish:
                return
    finally:
        channel.close()


def _worker_main(spec: _WorkerSpec, in_queue, out_queue) -> None:
    """Worker process entry point: one core's shared-nothing pipeline."""
    try:
        config = spec.config.with_(parallel=False)
        tenancy = spec.tenancy
        if tenancy is not None:
            # Multi-tenant shard: rebuild the tenant multiplexer from
            # the wire-dict table state (lazy import keeps repro.tenancy
            # out of single-tenant workers entirely).
            from repro.tenancy.pipeline import TenantCorePipeline
            from repro.tenancy.spec import TenantSpec

            pipeline = TenantCorePipeline(
                spec.core_id,
                [TenantSpec.from_wire(w) for w in tenancy["specs"]],
                list(tenancy["active"]),
                config,
                epoch=tenancy["epoch"],
                initial_overload_rung=spec.initial_overload_rung)
        else:
            subscription = Subscription(
                spec.filter_str,
                spec.datatype,
                spec.callback,
                filter_mode=config.filter_mode,
                nic=config.nic,
                identify_services=spec.identify_services,
            )
            pipeline = CorePipeline(
                spec.core_id, subscription, config,
                initial_overload_rung=spec.initial_overload_rung)
        state = _WorkerState(
            spec, pipeline, out_queue, tenancy,
            ack_every=_ACK_COALESCE if spec.shm is not None else 1)
        if spec.shm is not None:
            _worker_loop_shm(spec, state, in_queue)
            return
        handle = state.handle
        get = in_queue.get
        while True:
            if handle(get()):
                return
    except BaseException:
        out_queue.put((_ERROR, spec.core_id, traceback.format_exc()))


# ---------------------------------------------------------------------------
# parent-side views: enough runtime surface for StatsMonitor.observe()
# ---------------------------------------------------------------------------
class _LedgerView:
    __slots__ = ("busy_seconds",)

    def __init__(self) -> None:
        self.busy_seconds = 0.0


class _StatsView:
    __slots__ = ("callbacks", "ledger", "pf_packets", "connf_packets",
                 "sessf_packets")

    def __init__(self) -> None:
        self.callbacks = 0
        self.ledger = _LedgerView()
        self.pf_packets = 0
        self.connf_packets = 0
        self.sessf_packets = 0


class _CoreView:
    """Last-reported state of one worker, shaped like a CorePipeline."""

    __slots__ = ("stats", "live_connections", "memory_bytes",
                 "overload_rung", "overload_shed_packets",
                 "overload_failfast_at")

    def __init__(self) -> None:
        self.stats = _StatsView()
        self.live_connections = 0
        self.memory_bytes = 0
        self.overload_rung = 0
        self.overload_shed_packets = 0
        self.overload_failfast_at: Optional[float] = None

    def update(self, callbacks: int, live: int, memory_bytes: int,
               busy_seconds: float, pf_packets: int = 0,
               connf_packets: int = 0, sessf_packets: int = 0,
               overload_rung: int = 0, overload_shed: int = 0,
               overload_failfast_at: Optional[float] = None) -> None:
        self.stats.callbacks = callbacks
        self.stats.ledger.busy_seconds = busy_seconds
        self.stats.pf_packets = pf_packets
        self.stats.connf_packets = connf_packets
        self.stats.sessf_packets = sessf_packets
        self.live_connections = live
        self.memory_bytes = memory_bytes
        self.overload_rung = overload_rung
        self.overload_shed_packets = overload_shed
        if overload_failfast_at is not None:
            self.overload_failfast_at = overload_failfast_at


class _RuntimeView:
    """What ``StatsMonitor.observe`` reads, backed by worker reports."""

    def __init__(self, nics, views: List[_CoreView]) -> None:
        self.nics = nics
        self.pipelines = views

    @property
    def live_connections(self) -> int:
        return sum(view.live_connections for view in self.pipelines)

    @property
    def memory_bytes(self) -> int:
        return sum(view.memory_bytes for view in self.pipelines)

    @property
    def overload_failfast_at(self) -> Optional[float]:
        trips = [view.overload_failfast_at for view in self.pipelines
                 if view.overload_failfast_at is not None]
        return min(trips) if trips else None


# ---------------------------------------------------------------------------
# parent-side orchestration
# ---------------------------------------------------------------------------
class _WorkerPool:
    """The fleet of per-core processes plus their queues.

    Usable as a context manager: on an exception inside the ``with``
    block the pool terminates every worker before the exception
    propagates, and the queues are closed either way — no leaked
    children, no feeder threads blocking interpreter exit.
    """

    def __init__(self, runtime: "Runtime",
                 progress_interval: Optional[float]) -> None:
        config = runtime.config
        subscription = runtime.subscription
        self.views = [_CoreView() for _ in range(config.cores)]
        #: Set by run_parallel in supervised mode; _handle feeds acks
        #: into it so every drain path keeps the redo logs trimmed.
        self.supervisor: Optional[WorkerSupervisor] = None
        #: (core_id, plan_index) crash announcements not yet consumed
        #: by recovery.
        self.crashed: Set[Tuple[int, int]] = set()
        self._closed = False
        # Backend-health telemetry (volatile: wall-clock and scheduling
        # dependent, so it never feeds the deterministic exports).
        self._health: Optional[List[dict]] = (
            [{"batches": 0, "packets": 0, "ipc_bytes": 0,
              "queue_highwater": 0, "batch_occupancy_max": 0}
             for _ in range(config.cores)]
            if config.telemetry else None
        )
        self.feeder_block_seconds = 0.0
        # Multi-tenant runtimes expose their filter table as a plain
        # wire dict; every worker spec carries it, and the feeder
        # appends each published epoch bump so restart() can rebuild a
        # crashed worker at the table state it last acknowledged.
        self._tenancy_base: Optional[dict] = runtime.tenant_wire_state()
        self.tenancy_bumps: List[Tuple[int, tuple]] = []
        # Prefer fork where available: workers start fast and
        # subscriptions with closure callbacks are inherited rather
        # than pickled. spawn (macOS/Windows default) works too, but
        # requires the callback to be picklable.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        # Transport resolution: "auto" prefers the shared-memory ring
        # transport wherever the interpreter ships
        # multiprocessing.shared_memory; "queue" forces the legacy
        # pickled-queue path; "shm" demands the rings and fails loudly
        # when the platform cannot host them.
        mode = config.ipc_transport
        self.transport: Optional[shm_mod.ShmTransport] = None
        if mode == "shm" and not shm_mod.shm_available():
            raise ParallelExecutionError(
                "ipc_transport='shm' requested but "
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use --ipc queue (or auto)")
        if mode != "queue" and shm_mod.shm_available():
            self.transport = shm_mod.ShmTransport(
                config.cores, shm_mod.default_layout(config))
        self.out_queue = self._ctx.Queue()
        if self.transport is not None:
            # Under shm the in_queues carry only control payloads whose
            # positions are pinned by CTRL descriptors in the ring; the
            # ring itself is the backpressure bound, so the control
            # queue stays unbounded.
            self.in_queues = [self._ctx.Queue()
                              for _ in range(config.cores)]
        else:
            self.in_queues = [
                self._ctx.Queue(maxsize=config.parallel_queue_depth)
                for _ in range(config.cores)
            ]
        self.processes = []
        self.specs: List[_WorkerSpec] = []
        rebuild = {"tenancy": self._tenancy_base} \
            if subscription is None else {
                "filter_str": subscription.filter.text,
                "datatype": subscription.datatype,
                "callback": subscription.callback,
                "identify_services": subscription.identify_services}
        for core_id in range(config.cores):
            spec = _WorkerSpec(
                core_id=core_id,
                config=config,
                progress_interval=progress_interval,
                fault_plan=config.fault_plan,
                **rebuild,
                shm=self.transport.spec_args(core_id)
                if self.transport is not None else None,
            )
            self.specs.append(spec)
            process = self._ctx.Process(
                target=_worker_main,
                args=(spec, self.in_queues[core_id], self.out_queue),
                daemon=True,
                name=f"repro-core-{core_id}",
            )
            self.processes.append(process)
        try:
            for process in self.processes:
                process.start()
        except Exception as exc:  # unpicklable callback under spawn
            self.terminate()
            self.close()
            raise ParallelExecutionError(
                f"could not start worker processes ({exc}); under the "
                f"'spawn' start method the subscription callback must be "
                f"picklable (a module-level function or None)") from exc

    def send(self, core_id: int, message) -> None:
        """Blocking put with liveness checks (bounded-queue backpressure
        must not deadlock on a dead worker)."""
        if self.transport is not None:
            self._send_shm(core_id, message)
            return
        in_queue = self.in_queues[core_id]
        tag = message[0]
        if self._health is not None and \
                (tag == _BATCH or tag == _BATCH_SEQ):
            batch = message[1] if tag == _BATCH else message[2]
            row = self._health[core_id]
            row["batches"] += 1
            occupancy = len(batch)
            row["packets"] += occupancy
            if type(batch) is PackedBatch:
                row["ipc_bytes"] += batch.nbytes
            else:  # object batch (legacy path): count frame bytes only
                row["ipc_bytes"] += sum(len(m.data) for m in batch)
            if occupancy > row["batch_occupancy_max"]:
                row["batch_occupancy_max"] = occupancy
            try:
                depth = in_queue.qsize()
            except NotImplementedError:  # macOS has no queue qsize
                depth = 0
            if depth > row["queue_highwater"]:
                row["queue_highwater"] = depth
        self._blocking_put(core_id, in_queue, message)

    def _blocking_put(self, core_id: int, in_queue, message) -> None:
        try:
            in_queue.put_nowait(message)
            return
        except queue_mod.Full:
            pass
        # The poll-timeout loop owns the backpressure stopwatch: every
        # blocked put is measured, wall-to-wall, exactly once —
        # feeder_block_seconds used to count only the slice a
        # telemetry-enabled batch send happened to wrap, undercounting
        # whenever control messages (or telemetry-off runs) hit a full
        # queue.
        blocked_from = time.monotonic()
        try:
            while True:
                try:
                    in_queue.put(message, timeout=_POLL_TIMEOUT)
                    return
                except queue_mod.Full:
                    if not self.processes[core_id].is_alive():
                        # Surface the worker's own traceback if it sent
                        # one before dying; fall back to generic error.
                        self.drain_progress()
                        raise ParallelExecutionError(
                            f"worker {core_id} died with its queue full")
        finally:
            self.feeder_block_seconds += time.monotonic() - blocked_from

    def _on_feeder_block(self, seconds: float) -> None:
        """Ring-capacity waits feed the same backpressure counter the
        bounded queues use."""
        self.feeder_block_seconds += seconds

    def _note_batch(self, core_id: int, channel,
                    occupancy: int) -> Optional[dict]:
        """Per-batch health accounting on the shm path; returns the
        worker's health row (or None with telemetry off) so the caller
        can add the transport-dependent ipc_bytes charge."""
        if self._health is None:
            return None
        row = self._health[core_id]
        row["batches"] += 1
        row["packets"] += occupancy
        if occupancy > row["batch_occupancy_max"]:
            row["batch_occupancy_max"] = occupancy
        depth = channel.depth()
        if depth > row["queue_highwater"]:
            row["queue_highwater"] = depth
        return row

    def send_mbufs(self, core_id: int, mbufs,
                   trace_ctx: Optional[tuple]) -> None:
        """Zero-copy fast path (shm transport, unsupervised): write the
        burst straight into a mempool slot — no PackedBatch, no pickle;
        the only serialized IPC is the 8-byte ring descriptor. Bursts
        that exceed the slot size fall back to a packed batch on the
        control channel."""
        channel = self.transport.channels[core_id]
        alive = self.processes[core_id].is_alive
        row = self._note_batch(core_id, channel, len(mbufs))
        try:
            if channel.send_mbufs(mbufs, core_id, trace_ctx, alive,
                                  self._on_feeder_block):
                if row is not None:
                    row["ipc_bytes"] += 8  # one descriptor word
                return
            # Jumbo-heavy burst: pack it and pin its ring position with
            # a CTRL descriptor while the payload crosses pickled.
            packed = PackedBatch.pack(mbufs, core_id)
            packed.trace_ctx = trace_ctx
            self.in_queues[core_id].put((_BATCH, packed))
            channel.send_ctrl(alive, self._on_feeder_block)
            if row is not None:
                row["ipc_bytes"] += 8 + packed.nbytes
        except shm_mod.WorkerGone:
            self.drain_progress()
            raise ParallelExecutionError(
                f"worker {core_id} died with its ring full")

    def _send_shm(self, core_id: int, message) -> None:
        """Dispatch over the shared-memory ring. Batches are written in
        place into a slot (descriptor-only IPC); memory samples are
        descriptor-only by design; everything else — FINISH, tenancy
        epoch bumps, batches that do not fit a slot — takes a CTRL
        descriptor that pins the pickled payload's position in the
        per-core total order."""
        channel = self.transport.channels[core_id]
        alive = self.processes[core_id].is_alive
        tag = message[0]
        try:
            if tag == _BATCH or tag == _BATCH_SEQ:
                if tag == _BATCH_SEQ:
                    seq, batch = message[1], message[2]
                else:
                    seq, batch = -1, message[1]
                row = self._note_batch(core_id, channel, len(batch))
                if type(batch) is PackedBatch and batch.epoch is None \
                        and channel.send_packed(batch, seq, alive,
                                                self._on_feeder_block):
                    if row is not None:
                        row["ipc_bytes"] += 8  # one descriptor word
                    return
                # Epoch-stamped (the stamp does not ride slot headers)
                # or oversize batch: control-channel fallback.
                self.in_queues[core_id].put(message)
                channel.send_ctrl(alive, self._on_feeder_block)
                if row is not None:
                    row["ipc_bytes"] += 8 + (
                        batch.nbytes if type(batch) is PackedBatch
                        else sum(len(m.data) for m in batch))
                return
            if tag == _SAMPLE:
                channel.send_sample(alive, self._on_feeder_block)
                return
            # _FINISH (and any future control tag): payload first, then
            # the ordering descriptor.
            self.in_queues[core_id].put(message)
            channel.send_ctrl(alive, self._on_feeder_block)
        except shm_mod.WorkerGone:
            self.drain_progress()
            raise ParallelExecutionError(
                f"worker {core_id} died with its ring full")

    def backend_health(self) -> Optional[dict]:
        """Volatile health snapshot, or None when telemetry is off."""
        if self._health is None:
            return None
        ipc_bytes = sum(row["ipc_bytes"] for row in self._health)
        ipc_packets = sum(row["packets"] for row in self._health)
        health = {
            "transport": "shm" if self.transport is not None
            else "queue",
            "feeder_block_seconds": self.feeder_block_seconds,
            "ipc_bytes": ipc_bytes,
            "ipc_packets": ipc_packets,
            "ipc_bytes_per_packet": (ipc_bytes / ipc_packets)
            if ipc_packets else 0.0,
            "workers": [{"worker": core_id, **row}
                        for core_id, row in enumerate(self._health)],
        }
        if self.transport is not None:
            # Ring/mempool telemetry: per-worker occupancy high-water
            # (same key the queue transport uses for its depth) plus
            # slot-starvation pressure, and pool-level aggregates the
            # Prometheus exporter surfaces.
            channels = self.transport.channels
            for core_id, channel in enumerate(channels):
                worker = health["workers"][core_id]
                worker["ring_highwater"] = channel.ring_highwater
                worker["slot_starvation_waits"] = \
                    channel.slot_starvation_waits
                worker["slot_bytes_written"] = \
                    channel.slot_bytes_written
            health["ring_size"] = self.transport.layout.ring_size
            health["slot_bytes"] = self.transport.layout.slot_bytes
            health["ring_highwater"] = max(
                channel.ring_highwater for channel in channels)
            health["slot_starvation_waits"] = sum(
                channel.slot_starvation_waits for channel in channels)
            health["slot_starvation_seconds"] = sum(
                channel.slot_starvation_seconds for channel in channels)
        return health

    def drain_progress(self) -> None:
        """Consume any pending reports without blocking; raises if a
        worker reported an error (after terminating the pool)."""
        while True:
            try:
                message = self.out_queue.get_nowait()
            except queue_mod.Empty:
                return
            self._handle(message, None)

    def gather(self, skip: Optional[Set[int]] = None
               ) -> Dict[int, CoreStats]:
        """Block until every worker (minus ``skip``) reported its final
        stats; returns ``{core_id: CoreStats}``."""
        results: Dict[int, CoreStats] = {}
        remaining = set(range(len(self.processes))) - (skip or set())
        while remaining:
            try:
                message = self.out_queue.get(timeout=_POLL_TIMEOUT)
            except queue_mod.Empty:
                dead = [core_id for core_id in remaining
                        if not self.processes[core_id].is_alive()]
                if dead:
                    self.terminate()
                    self.close()
                    raise ParallelExecutionError(
                        f"worker(s) {dead} exited without reporting "
                        f"stats", core_id=dead[0],
                        partial_stats=dict(results))
                continue
            core_id = self._handle(message, results)
            if core_id is not None:
                remaining.discard(core_id)
        for core_id, process in enumerate(self.processes):
            if skip is None or core_id not in skip:
                process.join(timeout=_POLL_TIMEOUT)
        return results

    def _handle(self, message,
                results: Optional[Dict[int, CoreStats]]) -> Optional[int]:
        tag = message[0]
        if tag == _PROGRESS:
            (_, core_id, _, callbacks, live, memory_bytes, busy,
             pf, connf, sessf, rung, shed, failfast_at) = message
            self.views[core_id].update(callbacks, live, memory_bytes,
                                       busy, pf, connf, sessf,
                                       rung, shed, failfast_at)
            return None
        if tag == _ACK:
            _, core_id, seq, rung, epoch = message
            if self.supervisor is not None:
                self.supervisor.on_ack(core_id, seq)
                self.supervisor.note_rung(core_id, rung)
                self.supervisor.note_epoch(core_id, epoch)
            return None
        if tag == _CRASHED:
            _, core_id, plan_index = message
            self.crashed.add((core_id, plan_index))
            return None
        if tag == _ERROR:
            _, core_id, worker_traceback = message
            # Leave no orphaned siblings behind the exception: a raise
            # out of any drain/gather path tears the whole pool down
            # first (terminate + close are both idempotent).
            self.terminate()
            self.close()
            raise ParallelExecutionError(
                f"worker {core_id} failed:\n{worker_traceback}",
                core_id=core_id,
                partial_stats=dict(results) if results else {})
        # _DONE
        _, core_id, stats = message
        if results is not None:
            results[core_id] = stats
        return core_id

    def restart(self, core_id: int,
                suppressed: Tuple[int, ...]) -> None:
        """Replace a dead worker with a fresh process on a fresh input
        queue (anything unread in the old queue is covered by the
        supervisor's redo log). ``suppressed`` lists the plan indices
        of worker faults that already fired, so the restarted worker
        does not re-fire them."""
        old_queue = self.in_queues[core_id]
        old_queue.cancel_join_thread()
        old_queue.close()
        # Re-seed the replacement at the rung its predecessor last
        # acknowledged: a crash mid-overload must not silently reopen
        # the admission gate.
        rung = self.supervisor.last_rung(core_id) \
            if self.supervisor is not None else 0
        # Multi-tenant cores restart at the table state they last
        # acknowledged; bumps past that epoch are still in the redo log
        # and re-apply (idempotently) during replay.
        tenancy = self.specs[core_id].tenancy
        if tenancy is not None and self.supervisor is not None:
            tenancy = _tenancy_state(
                self._tenancy_base, self.tenancy_bumps,
                self.supervisor.last_epoch(core_id))
        spec = dataclasses.replace(self.specs[core_id],
                                   suppressed_faults=tuple(suppressed),
                                   initial_overload_rung=rung,
                                   tenancy=tenancy)
        self.specs[core_id] = spec
        if self.transport is not None:
            in_queue = self._ctx.Queue()
            # Fresh ordinal space for the replacement: zero the ring and
            # credit counter, reclaim every in-flight slot (the dead
            # worker will never retire them; the redo log owns their
            # contents and replays them into fresh slots). The old
            # control queue was discarded above — its unread CTRL
            # payloads matched ring entries that no longer exist.
            self.transport.reset_core(core_id)
        else:
            in_queue = self._ctx.Queue(
                maxsize=spec.config.parallel_queue_depth)
        self.in_queues[core_id] = in_queue
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, in_queue, self.out_queue),
            daemon=True,
            name=f"repro-core-{core_id}-restart",
        )
        self.processes[core_id] = process
        process.start()

    def terminate(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            if process.pid is not None:
                process.join(timeout=_POLL_TIMEOUT)

    def close(self) -> None:
        # The input queues' feeder threads may hold buffered batches a
        # dead worker will never read; never block interpreter exit on
        # flushing them.
        if self._closed:
            return
        self._closed = True
        for in_queue in self.in_queues:
            in_queue.cancel_join_thread()
            in_queue.close()
        self.out_queue.cancel_join_thread()
        self.out_queue.close()
        if self.transport is not None:
            # Unlink the segments (workers are gone or exiting; their
            # mappings die with them). The transport object stays so
            # backend_health() can still read its volatile counters
            # after the pool context exits.
            self.transport.close()

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.terminate()
        self.close()
        return False


def _await_planned_fault(pool: _WorkerPool, sup: WorkerSupervisor,
                         core: int, plan_index: int, kind: str) -> None:
    """Block until the planned fault just triggered on ``core``
    manifests, draining (and handling) other workers' messages
    meanwhile. For a crash, the worker's flushed ``_CRASHED``
    announcement is the signal — it arrives after every ack the worker
    sent, so the redo log is exactly the unprocessed batches. For a
    hang, the signal is silence past the heartbeat deadline."""
    if kind == "worker_crash":
        while (core, plan_index) not in pool.crashed:
            try:
                message = pool.out_queue.get(timeout=_POLL_TIMEOUT)
            except queue_mod.Empty:
                if not pool.processes[core].is_alive():
                    break  # died without managing the announcement
                continue
            pool._handle(message, None)
        pool.crashed.discard((core, plan_index))
        return
    # worker_hang: wait out the heartbeat deadline, resetting it on any
    # sign of life from the core (acks from batches before the hang).
    poll = min(0.05, sup.heartbeat_timeout / 4)
    while sup.silent_for(core) < sup.heartbeat_timeout:
        try:
            message = pool.out_queue.get(timeout=poll)
        except queue_mod.Empty:
            continue
        pool._handle(message, None)


def _recover_core(pool: _WorkerPool, sup: WorkerSupervisor, core: int,
                  plan_index: Optional[int],
                  finish=None, hung: bool = False) -> None:
    """Reap a crashed/hung worker and either restart it (backoff,
    fresh process, redo-log replay) or declare the core lost.

    ``hung`` is True when the worker is alive-but-stuck and must be
    terminated. A *crashed* worker is never signalled: it is already
    exiting on its own, and a SIGTERM racing its final result-queue
    flush can kill it while it holds the shared queue's write lock —
    deadlocking every sibling's pending message. Joining is safe;
    terminating mid-write is not."""
    process = pool.processes[core]
    if hung and process.is_alive():
        # A sleeping worker holds no queue locks (its last acks were
        # long flushed — that silence is what detected the hang).
        process.terminate()
    process.join(timeout=_POLL_TIMEOUT)
    if process.is_alive():  # ignored SIGTERM / never exited: last resort
        process.kill()
        process.join(timeout=_POLL_TIMEOUT)
    decision = sup.on_failure(core, plan_index)
    if decision is None:
        return  # restart budget exhausted: degraded completion
    backoff, replay, suppressed = decision
    if backoff > 0:
        time.sleep(backoff)
    pool.restart(core, suppressed)
    for seq, batch in replay:
        # A replayed batch can itself carry the *next* planned fault
        # (e.g. two crashes at the same sequence number). Recover
        # synchronously here too, or the crash lands asynchronously
        # under later dispatches. The recursive call re-reads the redo
        # log, so the remaining replays are not lost.
        fault = None
        if sup.plan is not None:
            fault = sup.plan.worker_fault_at(core, seq, suppressed)
        pool.send(core, (_BATCH_SEQ, seq, batch))
        if fault is not None:
            next_index, spec = fault
            _await_planned_fault(pool, sup, core, next_index, spec.kind)
            _recover_core(pool, sup, core, next_index, finish=finish,
                          hung=spec.kind == "worker_hang")
            return
    if finish is not None:
        pool.send(core, finish)


def _gather_supervised(pool: _WorkerPool, sup: WorkerSupervisor,
                       finish) -> Dict[int, CoreStats]:
    """Supervised final gather: workers that die before reporting are
    recovered (restart + replay + re-finish) or declared lost."""
    results: Dict[int, CoreStats] = {}
    remaining = {core for core in range(len(pool.processes))
                 if not sup.is_lost(core)}
    while remaining:
        try:
            message = pool.out_queue.get(timeout=0.25)
        except queue_mod.Empty:
            for core in list(remaining):
                if not pool.processes[core].is_alive():
                    _recover_core(pool, sup, core, None, finish=finish)
                    if sup.is_lost(core):
                        remaining.discard(core)
            continue
        core_id = pool._handle(message, results)
        if core_id is not None:
            remaining.discard(core_id)
        while pool.crashed:
            core, plan_index = pool.crashed.pop()
            _recover_core(pool, sup, core, plan_index, finish=finish)
            if sup.is_lost(core):
                remaining.discard(core)
    return results


def run_parallel(
    runtime: "Runtime",
    traffic: Iterable[Mbuf],
    drain: bool = True,
    memory_sample_interval: float = 1.0,
    monitor=None,
    packet_injector: Optional["PacketFaultInjector"] = None,
) -> "RuntimeReport":
    """Execute ``runtime``'s subscription over ``traffic`` on one OS
    process per core. See the module docstring for the contract.

    ``packet_injector`` is the parent-side fault injector whose
    injection counts feed the fault report (the traffic iterable is
    already wrapped by :meth:`Runtime.run`).
    """
    from repro.core.runtime import RuntimeReport

    config = runtime.config
    cores = config.cores
    batch_size = config.parallel_batch_size
    # The evict/shed policies are enforced inside the workers at sample
    # cadence; only the historical "record" policy stops the run here.
    memory_limit = config.memory_limit_bytes \
        if config.memory_policy == "record" else None
    plan = config.fault_plan

    # Progress reports are only needed for live monitoring and the OOM
    # check; without either, workers skip the reporting IPC entirely.
    progress_needs = []
    if monitor is not None:
        progress_needs.append(monitor.interval)
    if memory_limit is not None:
        progress_needs.append(memory_sample_interval)
    # Failfast is parent-enforced at progress cadence (approximate,
    # like oom_at — see the module docstring's caveats).
    ff_possible = config.overload_policy == "failfast" or (
        config.overload_policy == "ladder"
        and config.overload_max_rung >= 4)
    if ff_possible:
        progress_needs.append(config.overload_eval_interval)
    progress_interval = min(progress_needs) if progress_needs else None

    pool = _WorkerPool(runtime, progress_interval)
    supervisor: Optional[WorkerSupervisor] = None
    if config.supervise or (plan is not None and plan.has_worker_faults):
        supervisor = WorkerSupervisor(
            cores, plan, config.max_worker_restarts,
            config.redo_log_batches, config.worker_heartbeat_timeout)
        pool.supervisor = supervisor
    view_runtime = _RuntimeView(runtime.nics, pool.views)

    send = pool.send
    pack = PackedBatch.pack
    shm_on = pool.transport is not None
    # Span context stamping: when burst span tracing is on, every packed
    # batch carries (queue, seq) so the worker's burst trees stitch into
    # the parent's trace. Supervised dispatch reuses the supervisor's
    # sequence numbers; unsupervised dispatch counts its own.
    spans_on = config.span_sample > 0 or config.flight_recorder_depth > 0
    if supervisor is None:
        if shm_on:
            # Zero-copy fast path: mbufs are written straight into a
            # mempool slot — no PackedBatch object, no pickle. The span
            # context rides the slot header when tracing is on.
            send_mbufs = pool.send_mbufs
            if spans_on:
                span_seq = [0] * cores

                def dispatch(queue_id: int, batch: List[Mbuf]) -> None:
                    ctx = (queue_id, span_seq[queue_id])
                    span_seq[queue_id] += 1
                    send_mbufs(queue_id, batch, ctx)
            else:
                def dispatch(queue_id: int, batch: List[Mbuf]) -> None:
                    send_mbufs(queue_id, batch, None)
        elif spans_on:
            span_seq = [0] * cores

            def dispatch(queue_id: int, batch: List[Mbuf]) -> None:
                packed = pack(batch, queue_id)
                packed.trace_ctx = (queue_id, span_seq[queue_id])
                span_seq[queue_id] += 1
                send(queue_id, (_BATCH, packed))
        else:
            def dispatch(queue_id: int, batch: List[Mbuf]) -> None:
                send(queue_id, (_BATCH, pack(batch, queue_id)))
    else:
        def dispatch(queue_id: int, batch: List[Mbuf]) -> None:
            if supervisor.is_lost(queue_id):
                return  # dead RX queue: its share of traffic is lost
            # The redo log stores the *packed* batch, so a replay after
            # a crash re-sends the identical flat buffer (same span
            # context too: a replayed burst keeps its original seq).
            packed = pack(batch, queue_id)
            seq, fault = supervisor.on_dispatch(queue_id, packed)
            if spans_on:
                packed.trace_ctx = (queue_id, seq)
            send(queue_id, (_BATCH_SEQ, seq, packed))
            if fault is not None:
                # Planned fault: pause this core's dispatch until the
                # fault manifests and recovery completes, so the replay
                # set (and the whole fault report) is deterministic.
                plan_index, spec = fault
                _await_planned_fault(pool, supervisor, queue_id,
                                     plan_index, spec.kind)
                _recover_core(pool, supervisor, queue_id, plan_index,
                              hung=spec.kind == "worker_hang")

    def skip_core(queue_id: int) -> bool:
        return supervisor is not None and supervisor.is_lost(queue_id)

    # Adaptive batch sizing (shm transport only): grow a queue's batch
    # size toward the clamp while its ring runs deep (the worker is the
    # bottleneck — bigger bursts amortize per-batch overhead), shrink
    # back toward the configured size when the ring runs shallow
    # (latency pressure: small bursts reach the worker sooner). Resizes
    # happen only at burst ordinals divisible by _RESIZE_INTERVAL and
    # stats are batch-size invariant, so the volatile depth signal never
    # leaks into AggregateStats. Disabled under supervision (planned
    # fault seqs are pinned to batch contents) and span tracing (span
    # trees key on burst boundaries).
    sizes = [batch_size] * cores
    if (shm_on and config.ipc_adaptive_batch
            and supervisor is None and not spans_on):
        max_batch = shm_mod.max_adaptive_batch(config)
        channels = pool.transport.channels
        ring_size = pool.transport.layout.ring_size
        grow_at = ring_size - max(1, ring_size // 4)
        shrink_at = max(1, ring_size // 4)
        bursts = [0] * cores
        inner_dispatch = dispatch

        def dispatch(queue_id: int, batch: List[Mbuf]) -> None:
            inner_dispatch(queue_id, batch)
            n = bursts[queue_id] + 1
            bursts[queue_id] = n
            if n % _RESIZE_INTERVAL:
                return
            depth = channels[queue_id].depth()
            size = sizes[queue_id]
            if depth >= grow_at and size < max_batch:
                sizes[queue_id] = min(size * 2, max_batch)
            elif depth <= shrink_at and size > batch_size:
                sizes[queue_id] = max(size // 2, batch_size)

    # Multi-tenant live reconfiguration: the runtime exposes scheduled
    # events; when virtual time reaches one, the feeder flushes every
    # pending batch (so pre-event packets classify under the old table),
    # applies the event to the parent's table, and broadcasts the new
    # epoch on an empty stamped batch to every queue. Per-queue FIFO
    # then guarantees each worker swaps on exactly that burst boundary.
    next_event_ts: Optional[float] = runtime.next_reconfigure_ts

    def send_bump(epoch_no: int, actions: tuple) -> None:
        pool.tenancy_bumps.append((epoch_no, actions))
        for queue_id in range(cores):
            if skip_core(queue_id):
                continue
            packed = pack([], queue_id)
            packed.epoch = (epoch_no, actions)
            if supervisor is None:
                send(queue_id, (_BATCH, packed))
                continue
            # Bumps ride the supervised sequence space like any batch:
            # redo-logged (a crash mid-swap replays the bump) and able
            # to carry a planned worker fault at their own seq, which
            # is how the crash-during-swap tests pin the fault to the
            # swap window deterministically.
            seq, fault = supervisor.on_dispatch(queue_id, packed)
            send(queue_id, (_BATCH_SEQ, seq, packed))
            if fault is not None:
                plan_index, fspec = fault
                _await_planned_fault(pool, supervisor, queue_id,
                                     plan_index, fspec.kind)
                _recover_core(pool, supervisor, queue_id, plan_index,
                              hung=fspec.kind == "worker_hang")

    oom_at: Optional[float] = None
    failfast_at: Optional[float] = None
    with pool:
        nics = runtime.nics
        pending: List[List[Mbuf]] = [[] for _ in range(cores)]
        next_monitor_ts: Optional[float] = \
            None if monitor is not None else float("inf")
        next_memory_ts = float("inf")
        next_ff_ts = float("inf")
        first = runtime._first_ts is None
        # The same ingress generator as the sequential backend: header
        # columns are decoded per burst so RSS dispatch skips the
        # per-packet stack parse wherever a row allows it. Worker-side
        # processing never sees the columns, so the shards (and all
        # counters) are byte-identical whichever rows were fast.
        for mbuf, queue, _cols, _i, _verdict in ingress_rows(
                traffic, nics, batch_size, runtime.fragment_reassembler,
                config.columnar):
            ts = mbuf.timestamp
            if first:
                first = False
                if runtime._first_ts is None:
                    runtime._first_ts = ts
                    runtime._last_memory_sample = ts
                    next_memory_ts = ts + memory_sample_interval
                if ff_possible:
                    next_ff_ts = ts + config.overload_eval_interval
            if ts > runtime._last_ts:
                runtime._last_ts = ts
            if next_event_ts is not None and ts >= next_event_ts:
                # Swap before this packet: flush, publish, bump.
                for qid, queued in enumerate(pending):
                    if queued:
                        dispatch(qid, queued)
                        pending[qid] = []
                for epoch_no, actions in \
                        runtime.publish_tenancy_events(ts):
                    send_bump(epoch_no, actions)
                next_event_ts = runtime.next_reconfigure_ts
            if queue is HELD:
                continue  # fragment held pending completion
            if queue is not None:
                queued = pending[queue]
                queued.append(mbuf)
                if len(queued) >= sizes[queue]:
                    dispatch(queue, queued)
                    pending[queue] = []
            if next_monitor_ts is None or ts >= next_monitor_ts:
                pool.drain_progress()
                monitor.observe(view_runtime, ts)
                next_monitor_ts = ts + monitor.interval
            if ts >= next_memory_ts:
                next_memory_ts = ts + memory_sample_interval
                runtime._last_memory_sample = ts
                # Parent-clocked sample point: flush every queue's
                # pending batch, then tell each worker to sample.
                # Per-queue FIFO makes this equivalent to the
                # sequential backend's flush-then-_sample_memory.
                for queue, queued in enumerate(pending):
                    if queued:
                        dispatch(queue, queued)
                        pending[queue] = []
                for queue in range(cores):
                    if not skip_core(queue):
                        send(queue, (_SAMPLE,))
                if memory_limit is not None:
                    pool.drain_progress()
                    if view_runtime.memory_bytes > memory_limit:
                        oom_at = ts
                        break
            if ts >= next_ff_ts:
                next_ff_ts = ts + config.overload_eval_interval
                # A tripped worker reports failfast_at in its progress
                # tuple; stop feeding traffic as soon as any core says
                # so (approximate cutoff, like oom_at).
                pool.drain_progress()
                tripped = view_runtime.overload_failfast_at
                if tripped is not None:
                    failfast_at = tripped
                    break
        # Ship the stragglers, then tell every worker to wrap up. On
        # OOM or failfast the workers neither advance time nor drain,
        # matching the sequential backend's early exit.
        if oom_at is None and failfast_at is None:
            for queue, queued in enumerate(pending):
                if queued:
                    dispatch(queue, queued)
            finish = (_FINISH, runtime._last_ts, drain)
        else:
            finish = (_FINISH, None, False)
        for queue in range(cores):
            if not skip_core(queue):
                send(queue, finish)
        if supervisor is None:
            core_stats = pool.gather()
        else:
            core_stats = _gather_supervised(pool, supervisor, finish)

    stats = runtime.aggregate(
        core_stats=[core_stats[c] for c in sorted(core_stats)])
    if monitor is not None:
        # Refresh the views from the workers' final exact snapshots so
        # the tail sample isn't built from stale progress reports, then
        # flush the final partial interval.
        for core_id in sorted(core_stats):
            final = core_stats[core_id]
            last_sample = final.memory_samples[-1] \
                if final.memory_samples else (0.0, 0, 0)
            ledger = final.overload
            pool.views[core_id].update(
                final.callbacks, last_sample[1], last_sample[2],
                final.ledger.busy_seconds, final.pf_packets,
                final.connf_packets, final.sessf_packets,
                ledger.current_rung if ledger is not None else 0,
                ledger.packets_shed if ledger is not None else 0,
                ledger.failfast_at if ledger is not None else None)
        monitor.finalize(runtime._last_ts, view_runtime)
    overload = None
    if config.overload_policy != "off":
        from repro.overload import merge_ledgers

        overload = merge_ledgers(
            core_stats[c].overload for c in sorted(core_stats))
        if overload is not None and overload.failfast_at is not None:
            # The workers' exact trip times override the parent's
            # progress-cadence approximation.
            failfast_at = overload.failfast_at
    faults = build_fault_report(
        config, core_stats, packet_injector,
        supervisor.summary() if supervisor is not None else None)
    spans = None
    if spans_on:
        from repro.telemetry.spans import build_span_report

        # Parent-side supervisor events (worker crash/restart) join the
        # workers' own trigger events; each synthesizes a flight dump
        # from that core's surviving ring.
        spans = build_span_report(
            [core_stats[c] for c in sorted(core_stats)],
            supervisor.failure_events if supervisor is not None else None,
            config.cost_model.cpu_hz,
            nic=[n.stats.to_dict() for n in runtime.nics])
    return RuntimeReport(stats=stats, oom_at=oom_at,
                         backend_health=pool.backend_health(),
                         faults=faults, core_stats=core_stats,
                         overload=overload, spans=spans)
