"""Parallel sharded execution backend: real multi-core processing.

The sequential backend models Retina's per-core pipelines faithfully
but executes them on one thread, so wall-clock throughput is bounded by
a single CPU no matter what ``config.cores`` says. This module makes
the paper's Section 5 scaling claim *real*: one OS worker process per
simulated core, each running its own shared-nothing multiplexer
(:class:`~repro.tenancy.pipeline.TenantCorePipeline`, rebuilt from the
runtime's wire table) and connection tables, fed by the parent over
bounded shared-memory rings.

There is one ingest loop, :meth:`Runtime.run`; :class:`WorkerPool` is
its worker backend, as the runtime's own pipelines are its sequential
one. The loop routes every frame (the parent's :class:`SimNic`
computes the symmetric-RSS hash and the redirection-table lookup, per
packet, in stream order), cuts per-queue bursts of
``config.parallel_batch_size`` rows, and decides every table swap and
memory sample point; the pool only carries each burst, sample point,
epoch bump and the end of the run to the right worker. Per-core FIFO
then makes each worker see exactly the bursts and sample points the
sequential backend's pipeline would — so both backends produce
identical stats, memory series and span trees by construction, and the
cycle ledger's integer sums do not depend on merge order.

There is one feeder→worker data path, the shared-memory mempool +
descriptor ring of :mod:`repro.core.shm`, and one wire form, the
burst's slot image (:mod:`repro.packet.batch`): the feeder writes it
straight into a pre-allocated shared slot and publishes an 8-byte
descriptor on a per-core SPSC ring; the worker maps the slot back as
zero-copy ``memoryview`` mbufs and returns the slot by publishing a
cumulative consumed counter (credit-based recycling). A full ring
blocks the feeder (the analogue of a finite RX descriptor ring). A
supervised burst is imaged once into a private buffer that the redo
log keeps, and copied verbatim into a slot on its first send and on
every replay. Memory samples are payload-less descriptors. Everything
else — FINISH, tenancy epoch bumps, the image of a burst too large for
a slot — rides a CTRL descriptor whose payload travels on a per-core
pickle queue, so the strict per-core total order holds across both
channels. Worker acks
coalesce (cumulative seqs, flushed on ring-idle, every few batches, and
always *before* a planned fault fires, which keeps the supervisor's
replay set — and therefore post-crash stats — deterministic). Workers
share nothing; each returns a :class:`~repro.core.stats.CoreStats`
snapshot that the parent merges through ``Runtime.report()``. A host
that cannot create the segments cannot run this backend; the
sequential one produces the same ``AggregateStats`` by contract.

Caveats (documented deviations):

- Worker processes rebuild every subscription from the wire table's
  filter text and data type; custom parser/field registries on a
  hand-built ``Subscription`` are not shipped to workers.
- Callbacks execute inside the worker processes: their side effects
  (prints, appended lists) live in the worker's address space, not the
  parent's. Counts still aggregate exactly.
- The monitor and the OOM and fail-fast cutoffs read worker-reported
  :class:`~repro.core.monitor.CoreProgress` records at progress
  cadence, so ``oom_at`` and the fail-fast stop are approximate here
  (the sequential backend reads its pipelines synchronously).
"""

from __future__ import annotations

import dataclasses
import faulthandler
import multiprocessing as mp
import os
import queue as queue_mod
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.config import RuntimeConfig
    from repro.core.runtime import Runtime

from repro.core import shm as shm_mod
from repro.core.monitor import CoreProgress
from repro.core.stats import CoreStats
from repro.errors import RetinaError
from repro.packet.batch import slot_image, slot_read, slot_rows
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import WorkerSupervisor
from repro.tenancy.pipeline import TenantCorePipeline
from repro.tenancy.spec import TenantSpec

#: Message tags on the per-core control queues: the image of a burst
#: that does not fit a slot — ``(_BATCH, image)`` — a table epoch bump
#: — ``(_EPOCH, seq, epoch, actions)``, seq -1 when unsupervised — and
#: ``(_FINISH, last_ts, drain)``.
_BATCH = 0
_FINISH = 1
_EPOCH = 2
#: Message tags on the shared result queue.
_PROGRESS = "progress"
_DONE = "done"
_ERROR = "error"
_ACK = "ack"
_CRASHED = "crashed"

#: How long to wait on a silent result queue before checking worker
#: liveness.
_POLL_TIMEOUT = 5.0
#: How long an injected worker_hang sleeps — "forever" as far as the
#: supervisor's heartbeat deadline is concerned.
_HANG_SLEEP = 3600.0
#: A worker flushes its coalesced cumulative ack at latest every this
#: many supervised batches (it also flushes whenever the ring runs
#: empty, before a planned fault fires, and at FINISH).
_ACK_COALESCE = 8
#: Bound (in batches) of each core's redo log; in-flight batches beyond
#: it cannot be replayed after a crash and are counted as
#: ``unreplayable_batches`` in the fault report.
_REDO_LOG_BATCHES = 64


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
    it is simply inherited. The subscriptions are recompiled in the
    worker (compiled filters hold generated code objects that do not
    pickle), which also guarantees each shard gets genuinely private
    state.
    """

    core_id: int
    config: "RuntimeConfig"
    #: The filter table to rebuild: ``Runtime.tenant_wire_state``'s
    #: plain dict, so this spec stays picklable.
    tenancy: dict
    #: Virtual seconds between progress reports to the parent, or None
    #: for "never" (no monitor, no memory limit, no fail-fast).
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
    #: The core's ring attachment — ``(segment_name, ring_size,
    #: slot_bytes)``. Plain strings/ints so the spec stays picklable
    #: under spawn.
    shm: Tuple[str, int, int] = ("", 0, 0)


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
    return {**base, "specs": specs, "active": active, "epoch": applied}


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


class _Worker:
    """One worker's handlers for what arrives in ring order.

    Acks are cumulative (``RedoLog.ack`` trims every seq ≤ the acked
    one) and coalesced: flushed on ring-idle, every ``_ACK_COALESCE``
    batches, at FINISH, and — crucially for determinism — right
    *before* a planned worker fault fires, so the parent's redo log
    holds exactly the unprocessed tail when the crash announcement
    lands.
    """

    __slots__ = ("spec", "pipeline", "out_queue", "next_progress",
                 "pending_ack", "unflushed")

    def __init__(self, spec: _WorkerSpec, pipeline, out_queue) -> None:
        self.spec = spec
        self.pipeline = pipeline
        self.out_queue = out_queue
        self.next_progress: Optional[float] = None
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
                            pipeline.overload_rung, pipeline.epoch))
        self.pending_ack = -1
        self.unflushed = 0

    def on_batch(self, mbufs: list, seq: int, trace_ctx: Optional[tuple],
                 epoch: Optional[tuple] = None) -> None:
        """One burst, or an epoch bump (``epoch`` set, no mbufs);
        ``seq`` is its supervised sequence number (the worker
        acknowledges it after processing: heartbeat + redo-log trim
        signal), or -1."""
        spec = self.spec
        pipeline = self.pipeline
        if seq >= 0 and spec.fault_plan is not None:
            fault = spec.fault_plan.worker_fault_at(
                spec.core_id, seq, spec.suppressed_faults)
            if fault is not None:
                self.flush_acks()
                _fire_worker_fault(spec, self.out_queue, fault[0],
                                   fault[1].kind)
        if trace_ctx is not None:
            # Span context stamped by the feeder: the burst tree this
            # batch produces records it, stitching worker spans into
            # the parent's trace.
            pipeline.set_span_ctx(trace_ctx)
        if epoch is not None:
            # Epoch bump: swap the filter table here (the feeder
            # flushed everything older first, so per-core FIFO makes
            # the swap land on the exact burst boundary). Idempotent on
            # the epoch number — replays after a restart are no-ops.
            pipeline.apply_epoch(*epoch)
        pipeline.process_batch(mbufs)
        if seq >= 0:
            self.pending_ack = seq
            self.unflushed += 1
            if self.unflushed >= _ACK_COALESCE:
                self.flush_acks()
        interval = spec.progress_interval
        if interval is not None:
            now = pipeline.now
            if self.next_progress is None or now >= self.next_progress:
                self.next_progress = now + interval
                self.out_queue.put((_PROGRESS, spec.core_id,
                                    CoreProgress.of(pipeline)))

    def finish(self, last_ts: Optional[float], do_drain: bool) -> None:
        self.flush_acks()
        pipeline = self.pipeline
        if last_ts is not None:
            pipeline.advance_time(last_ts)
            pipeline.sample_memory()
            if do_drain:
                pipeline.drain()
        pipeline.fold_fault_counters()
        self.out_queue.put((_DONE, self.spec.core_id, pipeline.stats,
                            CoreProgress.of(pipeline),
                            time.process_time()))


def _consume(channel: shm_mod.ShmWorkerChannel, worker: _Worker,
             in_queue) -> None:
    """Poll the descriptor ring in ordinal order until FINISH: map
    batch slots zero-copy, pull CTRL payloads from the pickle queue
    (the descriptor pins their position in the total order), and
    publish cumulative consumed credits so the feeder can recycle
    slots."""
    ordinal = 0
    while True:
        kind, slot, _rows = channel.wait_descriptor(
            ordinal, on_idle=worker.flush_acks)
        if kind == shm_mod.KIND_BATCH:
            worker.on_batch(*channel.read_batch(slot))
        elif kind == shm_mod.KIND_SAMPLE:
            # Parent-clocked sample point: every batch dispatched
            # before the deadline is already processed (strict per-core
            # order), so this records exactly what the sequential
            # backend's sample point would.
            worker.pipeline.sample_memory()
        else:  # KIND_CTRL: payload rides the pickle queue
            message = in_queue.get()
            tag = message[0]
            if tag == _FINISH:
                worker.finish(message[1], message[2])
                return
            if tag == _EPOCH:
                worker.on_batch([], message[1], None, message[2:])
            else:  # a burst's image, too large for a slot
                worker.on_batch(*slot_read(message[1], 0))
        # Credit return *after* processing: the slot (and the
        # memoryviews the batch borrowed from it) must stay intact
        # until the burst is fully consumed.
        ordinal += 1
        channel.mark_consumed(ordinal)


def _worker_main(spec: _WorkerSpec, in_queue, out_queue) -> None:
    """Worker process entry point: one core's shared-nothing pipeline."""
    try:
        # A wedged worker dumps every stack on a fatal signal. The
        # inherited sys.stderr may be a capture object with no
        # descriptor, so name the real one.
        faulthandler.enable(sys.__stderr__)
        # Attach before compiling: the channel reads the feeder's pid,
        # which a feeder killed meanwhile has already passed on.
        channel = shm_mod.ShmWorkerChannel(*spec.shm)
        try:
            table = spec.tenancy
            pipeline = TenantCorePipeline(
                spec.core_id,
                [TenantSpec.from_wire(w) for w in table["specs"]],
                table["active"], spec.config.with_(parallel=False),
                epoch=table["epoch"],
                initial_overload_rung=spec.initial_overload_rung,
                pressure_mbps=table["pressure_mbps"])
            _consume(channel, _Worker(spec, pipeline, out_queue), in_queue)
        except shm_mod.FeederGone:
            # Orphaned (the feeder was killed): nobody will read the
            # result queue or unlink the segment. Do the latter and
            # leave without flushing the former.
            channel.unlink()
            os._exit(1)
        finally:
            channel.close()
    except BaseException:
        out_queue.put((_ERROR, spec.core_id, traceback.format_exc()))


# ---------------------------------------------------------------------------
# parent-side orchestration
# ---------------------------------------------------------------------------
class WorkerPool:
    """The worker backend of :meth:`Runtime.run`'s ingest loop: one
    process per core plus their rings and queues, and the supervisor
    of a supervised run.

    The loop calls it once per burst, sample point, epoch bump and at
    the end of the run — the same calls it makes on the runtime itself
    for the sequential backend — and hands it to the monitor. Usable as a
    context manager: on an exception inside the ``with`` block the
    pool terminates every worker before the exception propagates, and
    the queues and segments are released either way — no leaked
    children, no feeder threads blocking interpreter exit.
    """

    #: The feeder only routes: each worker decodes and filters its own
    #: bursts, so ingress runs no batch packet filter here.
    _classify = None

    def __init__(self, runtime: "Runtime", monitor,
                 memory_interval: Optional[float]) -> None:
        """``memory_interval`` is the sample cadence when the loop
        checks memory against a limit (None otherwise)."""
        config = runtime.config
        #: What ``StatsMonitor.observe`` reads (it is handed the pool):
        #: the link's NICs and each worker's last-reported record.
        self.nics = runtime.nics
        self.progress: List[CoreProgress] = [CoreProgress()] * config.cores
        # Fail-fast can only trip under the failfast policy or a ladder
        # allowed to climb to rung 4; then every burst reads the
        # workers' reports.
        self._failfast = config.overload_policy == "failfast" or (
            config.overload_policy == "ladder"
            and config.overload_max_rung >= 4)
        # Progress reports are only needed for live monitoring and the
        # OOM and fail-fast cutoffs; without any, workers skip the
        # reporting IPC entirely.
        needs = [interval for interval in (
            monitor.interval if monitor is not None else None,
            memory_interval,
            config.overload_eval_interval if self._failfast else None)
            if interval is not None]
        progress_interval = min(needs) if needs else None
        # Span context stamping: when burst span tracing is on, every
        # batch carries (queue, seq) so the worker's burst trees stitch
        # into the parent's trace. Supervised dispatch reuses the
        # supervisor's sequence numbers; unsupervised dispatch counts
        # its own.
        self._spans_on = config.span_sample > 0 or \
            config.flight_recorder_depth > 0
        self._span_seq = [0] * config.cores
        #: Set in supervised mode; _handle feeds acks into it so every
        #: drain path keeps the redo logs trimmed.
        self.supervisor: Optional[WorkerSupervisor] = None
        #: (core_id, plan_index) crash announcements not yet consumed
        #: by recovery.
        self.crashed: Set[Tuple[int, int]] = set()
        self._closed = False
        # Backend-health telemetry (volatile: wall-clock and scheduling
        # dependent, so it never feeds the deterministic exports).
        self._health: Optional[List[dict]] = (
            [{"batches": 0, "packets": 0, "ipc_bytes": 0,
              "batch_occupancy_max": 0, "cpu_seconds": 0.0}
             for _ in range(config.cores)]
            if config.telemetry else None
        )
        self._cpu_from = time.process_time()
        # The runtime's filter table as a plain wire dict: every worker
        # spec carries it, and the feeder appends each published epoch
        # bump so restart() can rebuild a crashed worker at the table
        # state it last acknowledged.
        self._tenancy_base = runtime.tenant_wire_state()
        self.tenancy_bumps: List[Tuple[int, tuple]] = []
        # Prefer fork where available: workers start fast and
        # subscriptions with closure callbacks are inherited rather
        # than pickled. spawn (macOS/Windows default) works too, but
        # requires the callback to be picklable.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        layout = shm_mod.default_layout(config)
        try:
            self.transport = shm_mod.ShmTransport(config.cores, layout)
        except OSError as exc:
            raise ParallelExecutionError(
                f"cannot create the feeder->worker shared-memory "
                f"segments ({config.cores} x {layout.total_bytes} bytes: "
                f"{exc}); the parallel backend has no other transport — "
                f"run without --parallel (parallel=False): the "
                f"sequential backend produces the same AggregateStats"
            ) from exc
        self.out_queue = self._ctx.Queue()
        # The control channel: payloads whose positions are pinned by
        # CTRL descriptors in the ring. The ring itself is the
        # backpressure bound, so these stay unbounded.
        self.in_queues = [self._ctx.Queue() for _ in range(config.cores)]
        self.specs: List[_WorkerSpec] = [
            _WorkerSpec(core_id=core_id, config=config,
                        tenancy=self._tenancy_base,
                        progress_interval=progress_interval,
                        fault_plan=config.fault_plan,
                        shm=self.transport.spec_args(core_id))
            for core_id in range(config.cores)]
        self.processes = [self._process(core_id)
                          for core_id in range(config.cores)]
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
        plan = config.fault_plan
        if config.supervise or (plan is not None and plan.has_worker_faults):
            self.supervisor = WorkerSupervisor(
                config.cores, plan, config.max_worker_restarts,
                _REDO_LOG_BATCHES, config.worker_heartbeat_timeout)

    def _process(self, core_id: int, suffix: str = ""):
        return self._ctx.Process(
            target=_worker_main,
            args=(self.specs[core_id], self.in_queues[core_id],
                  self.out_queue),
            daemon=True, name=f"repro-core-{core_id}{suffix}")

    def core_progress(self) -> List[CoreProgress]:
        """Each worker's last-reported record (as fresh as its progress
        cadence: the monitor and the cutoffs are approximate here)."""
        self.drain_progress()
        return self.progress

    @property
    def memory_bytes(self) -> int:
        return sum(core.memory_bytes for core in self.core_progress())

    # -- the ingest loop's calls -----------------------------------------
    def _lost(self, core_id: int) -> bool:
        """A lost core's RX queue is dead: its share of traffic is lost."""
        return self.supervisor is not None and \
            self.supervisor.is_lost(core_id)

    def _burst(self, queue: int, rows: list) -> Optional[float]:
        """Dispatch one burst of ingress rows to its worker; returns
        the earliest fail-fast trip any worker has reported, or None."""
        mbufs = [row[0] for row in rows]
        sup = self.supervisor
        if sup is not None:
            if not self._lost(queue):
                # The image carries its seq, and its span context is
                # that seq: a replayed burst keeps both.
                seq = sup.next_seq(queue)
                self._send_logged(queue, slot_image(
                    mbufs, queue, (queue, seq) if self._spans_on else None,
                    seq))
        else:
            ctx = None
            if self._spans_on:
                ctx = (queue, self._span_seq[queue])
                self._span_seq[queue] += 1
            # The hot path: the burst goes straight into a mempool slot
            # — no copy, no pickle; the only serialized IPC is the
            # 8-byte ring descriptor, and ``ctx`` rides the slot
            # header. A burst that exceeds the slot size (jumbo-heavy)
            # crosses the control channel as its image.
            if self._ring(queue, self.transport.channels[queue].send_mbufs,
                          mbufs, queue, ctx):
                self._account(queue, len(mbufs), 8)
            else:
                self.send_entry(queue, slot_image(mbufs, queue, ctx))
        if not self._failfast:
            return None
        tripped = [core.failfast_at for core in self.core_progress()
                   if core.failfast_at is not None]
        return min(tripped) if tripped else None

    def _send_logged(self, queue: int, entry) -> None:
        """Supervised send of a redo-log entry (see :meth:`send_entry`):
        a replay after a crash re-sends it unchanged."""
        _seq, fault = self.supervisor.on_dispatch(queue, entry)
        self.send_entry(queue, entry)
        if fault is not None:
            _recover_planned(self, self.supervisor, queue, fault)

    def _bump(self, epoch: int, actions: tuple) -> None:
        """Broadcast a table epoch to every queue as a control message;
        per-queue FIFO makes each worker swap on exactly that burst
        boundary."""
        self.tenancy_bumps.append((epoch, actions))
        sup = self.supervisor
        for queue in range(len(self.processes)):
            if self._lost(queue):
                continue
            if sup is None:
                self.send_entry(queue, (_EPOCH, -1, epoch, actions))
            else:
                # Bumps ride the supervised sequence space like any
                # batch: redo-logged (a crash mid-swap replays the
                # bump) and able to carry a planned worker fault at
                # their own seq, which is how the crash-during-swap
                # tests pin the fault to the swap window.
                self._send_logged(queue, (_EPOCH, sup.next_seq(queue),
                                          epoch, actions))

    def _sample_point(self) -> None:
        """A payload-less parent-clocked memory-sample point for every
        live worker."""
        for queue in range(len(self.processes)):
            if not self._lost(queue):
                self._ring(queue, self.transport.channels[queue].send_sample)

    def _finish(self, last_ts: Optional[float], drain: bool):
        """Tell every live worker to wrap up (``last_ts`` None: after a
        cutoff, neither advance time nor drain) and gather the final
        stats: ``(core_stats, supervisor, backend_health)``."""
        finish = (_FINISH, last_ts, drain)
        for queue in range(len(self.processes)):
            if not self._lost(queue):
                self.send_ctrl(queue, finish)
        return self.gather(finish), self.supervisor, self.backend_health()

    # -- the feeder->worker sends ---------------------------------------
    def _ring(self, core_id: int, send, *args):
        """One ring operation on ``core_id``'s channel. The capacity
        wait inside it polls the worker, so a worker that died with its
        ring full surfaces as an error instead of a deadlock."""
        try:
            return send(*args, self.processes[core_id].is_alive)
        except shm_mod.WorkerGone:
            # Surface the worker's own traceback if it sent one before
            # dying; fall back to the generic error.
            self.drain_progress()
            raise ParallelExecutionError(
                f"worker {core_id} died with its ring full")

    def _account(self, core_id: int, packets: int, ipc_bytes: int) -> None:
        if self._health is not None:
            row = self._health[core_id]
            row["batches"] += 1
            row["packets"] += packets
            row["ipc_bytes"] += ipc_bytes
            if packets > row["batch_occupancy_max"]:
                row["batch_occupancy_max"] = packets

    def send_entry(self, core_id: int, entry) -> None:
        """Put one redo-log entry on ``core_id``'s wire. A burst's slot
        image is copied verbatim into a free slot or, when it does not
        fit one, crosses the control queue as the same bytes; an epoch
        bump is its own control message."""
        if type(entry) is tuple:
            self.send_ctrl(core_id, entry)
            self._account(core_id, 0, 8)
            return
        rows = slot_rows(entry)
        if self._ring(core_id, self.transport.channels[core_id].send_image,
                      entry):
            self._account(core_id, rows, 8)
        else:
            self.send_ctrl(core_id, (_BATCH, entry))
            self._account(core_id, rows, 8 + len(entry))

    def send_ctrl(self, core_id: int, message: tuple) -> None:
        """Payload onto the pickle queue first, then the descriptor
        that pins its position in the core's total order."""
        self.in_queues[core_id].put(message)
        self._ring(core_id, self.transport.channels[core_id].send_ctrl)

    def backend_health(self) -> Optional[dict]:
        """Volatile health snapshot, or None when telemetry is off."""
        if self._health is None:
            return None
        channels = self.transport.channels
        ipc_bytes = sum(row["ipc_bytes"] for row in self._health)
        ipc_packets = sum(row["packets"] for row in self._health)
        # Ring capacity is the one condition the feeder ever blocks on.
        blocked = sum(ch.slot_starvation_seconds for ch in channels)
        return {
            "transport": "shm",
            "feeder_block_seconds": blocked,
            # The serial stage's CPU, beside each worker's below: their
            # ratio bounds what any worker count can buy.
            "feeder_cpu_seconds": time.process_time() - self._cpu_from,
            "ipc_bytes": ipc_bytes,
            "ipc_packets": ipc_packets,
            "ipc_bytes_per_packet": (ipc_bytes / ipc_packets)
            if ipc_packets else 0.0,
            "ring_size": self.transport.layout.ring_size,
            "slot_bytes": self.transport.layout.slot_bytes,
            "ring_highwater": max(ch.ring_highwater for ch in channels),
            "slot_starvation_waits": sum(ch.slot_starvation_waits
                                         for ch in channels),
            "slot_starvation_seconds": blocked,
            "workers": [{"worker": core_id, **row,
                         "ring_highwater": ch.ring_highwater,
                         "slot_starvation_waits": ch.slot_starvation_waits,
                         "slot_bytes_written": ch.slot_bytes_written}
                        for core_id, (row, ch)
                        in enumerate(zip(self._health, channels))],
        }

    def drain_progress(self) -> None:
        """Consume any pending reports without blocking; raises if a
        worker reported an error (after terminating the pool)."""
        while True:
            try:
                message = self.out_queue.get_nowait()
            except queue_mod.Empty:
                return
            self._handle(message, None)

    def gather(self, finish: tuple) -> Dict[int, CoreStats]:
        """Block until every live worker reported its final stats;
        returns ``{core_id: CoreStats}``. A worker that dies before
        reporting is an error — or, under supervision, recovered
        (restart + replay + ``finish`` again) or declared lost."""
        sup = self.supervisor
        results: Dict[int, CoreStats] = {}
        remaining = {core for core in range(len(self.processes))
                     if not self._lost(core)}
        while remaining:
            try:
                message = self.out_queue.get(
                    timeout=_POLL_TIMEOUT if sup is None else 0.25)
            except queue_mod.Empty:
                dead = [core for core in remaining
                        if not self.processes[core].is_alive()]
                if dead and sup is None:
                    self.terminate()
                    self.close()
                    raise ParallelExecutionError(
                        f"worker(s) {dead} exited without reporting "
                        f"stats", core_id=dead[0],
                        partial_stats=dict(results))
                for core in dead:
                    _recover_core(self, sup, core, None, finish=finish)
                    if sup.is_lost(core):
                        remaining.discard(core)
                continue
            core_id = self._handle(message, results)
            if core_id is not None:
                remaining.discard(core_id)
            while self.crashed:  # planned crashes: supervised runs only
                core, plan_index = self.crashed.pop()
                _recover_core(self, sup, core, plan_index, finish=finish)
                if sup.is_lost(core):
                    remaining.discard(core)
        for process in self.processes:
            process.join(timeout=_POLL_TIMEOUT)
        return results

    def _handle(self, message,
                results: Optional[Dict[int, CoreStats]]) -> Optional[int]:
        tag = message[0]
        if tag == _PROGRESS:
            _, core_id, record = message
            self.progress[core_id] = record
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
        # _DONE: the final record is exact, so the monitor's tail
        # sample is not built from a stale progress report.
        _, core_id, stats, record, cpu_seconds = message
        self.progress[core_id] = record
        if self._health is not None:
            self._health[core_id]["cpu_seconds"] = cpu_seconds
        if results is not None:
            results[core_id] = stats
        return core_id

    def restart(self, core_id: int,
                suppressed: Tuple[int, ...]) -> None:
        """Replace a dead worker (supervised runs only) with a fresh
        process on a fresh control queue and a re-armed ring.
        ``suppressed`` lists the plan indices of worker faults that
        already fired, so the restarted worker does not re-fire
        them."""
        old_queue = self.in_queues[core_id]
        old_queue.cancel_join_thread()
        old_queue.close()
        supervisor = self.supervisor
        # Re-seed the replacement at the table state and the rung its
        # predecessor last acknowledged: bumps past that epoch are
        # still in the redo log and re-apply (idempotently) during
        # replay, and a crash mid-overload must not silently reopen the
        # admission gate.
        self.specs[core_id] = dataclasses.replace(
            self.specs[core_id], suppressed_faults=tuple(suppressed),
            initial_overload_rung=supervisor.last_rung(core_id),
            tenancy=_tenancy_state(self._tenancy_base, self.tenancy_bumps,
                                   supervisor.last_epoch(core_id)))
        # Fresh ordinal space for the replacement: zero the ring and
        # credit counter, reclaim every in-flight slot (the dead worker
        # will never retire them; the redo log owns their contents and
        # replays them into fresh slots). The old control queue's
        # unread payloads matched ring entries that no longer exist.
        self.in_queues[core_id] = self._ctx.Queue()
        self.transport.reset_core(core_id)
        self.processes[core_id] = self._process(core_id, "-restart")
        self.processes[core_id].start()

    def terminate(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            if process.pid is not None:
                process.join(timeout=_POLL_TIMEOUT)

    def close(self) -> None:
        # The control queues' feeder threads may hold buffered payloads
        # a dead worker will never read; never block interpreter exit
        # on flushing them.
        if self._closed:
            return
        self._closed = True
        for in_queue in self.in_queues:
            in_queue.cancel_join_thread()
            in_queue.close()
        self.out_queue.cancel_join_thread()
        self.out_queue.close()
        # Unlink the segments (workers are gone or exiting; their
        # mappings die with them). The transport object stays so
        # backend_health() can still read its volatile counters after
        # the pool context exits.
        self.transport.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.terminate()
        self.close()
        return False


def _await_planned_fault(pool: WorkerPool, sup: WorkerSupervisor,
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


def _recover_core(pool: WorkerPool, sup: WorkerSupervisor, core: int,
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
    for seq, entry in replay:
        # A replayed batch can itself carry the *next* planned fault
        # (e.g. two crashes at the same sequence number). Recover
        # synchronously here too, or the crash lands asynchronously
        # under later dispatches. The recursive call re-reads the redo
        # log, so the remaining replays are not lost.
        fault = None
        if sup.plan is not None:
            fault = sup.plan.worker_fault_at(core, seq, suppressed)
        pool.send_entry(core, entry)
        if fault is not None:
            _recover_planned(pool, sup, core, fault, finish=finish)
            return
    if finish is not None:
        pool.send_ctrl(core, finish)


def _recover_planned(pool: WorkerPool, sup: WorkerSupervisor, core: int,
                     fault, finish=None) -> None:
    """The batch just sent to ``core`` carries the planned ``fault``
    (``(plan_index, spec)``): pause the core's dispatch until the fault
    manifests and recovery completes, so the replay set (and the whole
    fault report) is deterministic."""
    plan_index, spec = fault
    _await_planned_fault(pool, sup, core, plan_index, spec.kind)
    _recover_core(pool, sup, core, plan_index, finish=finish,
                  hung=spec.kind == "worker_hang")

