"""Parallel sharded execution backend: real multi-core processing.

The sequential backend models Retina's per-core pipelines faithfully
but executes them on one thread, so wall-clock throughput is bounded by
a single CPU no matter what ``config.cores`` says. This module makes
the paper's Section 5 scaling claim *real*: one OS worker process per
simulated core, each running its own shared-nothing pipeline
(:class:`~repro.core.pipeline.CorePipeline`, built over the
runtime's filter table) and connection tables, fed by the parent over
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
blocks the feeder (the analogue of a finite RX descriptor ring).
Memory samples are payload-less descriptors. Everything else — FINISH,
tenancy epoch bumps, the image of a burst too large for a slot — rides
a CTRL descriptor whose payload travels on a per-core pickle queue, so
the strict per-core total order holds across both channels. Workers
share nothing; each returns a :class:`~repro.core.stats.CoreStats`
snapshot that the parent merges through ``Runtime.report()``. A host
that cannot create the segments cannot run this backend; the
sequential one produces the same ``AggregateStats`` by contract.

A worker either reports its stats or fails the run: a worker that dies
— its ring full, or silent past its FINISH — surfaces as a
:class:`ParallelExecutionError` naming its core, never as a hang. Like
Retina's run-to-completion cores, none is ever restarted.

Caveats (documented deviations):

- Worker processes recompile every subscription from the filter
  table's filter text and data type; custom parser/field registries on
  a hand-built ``Subscription`` are not shipped to workers.
- Callbacks execute inside the worker processes: their side effects
  (prints, appended lists) live in the worker's address space, not the
  parent's. Counts still aggregate exactly.
- The monitor and the OOM and fail-fast cutoffs read worker-reported
  :class:`~repro.core.monitor.CoreProgress` records at progress
  cadence, so ``oom_at`` and the fail-fast stop are approximate here
  (the sequential backend reads its pipelines synchronously).
"""

from __future__ import annotations

import faulthandler
import multiprocessing as mp
import os
import queue as queue_mod
import sys
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.config import RuntimeConfig
    from repro.core.runtime import Runtime

from repro.core import shm as shm_mod
from repro.core.monitor import CoreProgress
from repro.core.pipeline import CorePipeline
from repro.core.stats import CoreStats
from repro.errors import RetinaError
from repro.packet.batch import slot_image, slot_read
from repro.tenancy.table import FilterTable

#: Message tags on the per-core control queues: the image of a burst
#: that does not fit a slot — ``(_BATCH, image)`` — a table epoch bump
#: — ``(_EPOCH, epoch, active)``, ``active`` the successor table's
#: tuple of tenant names (the worker holds every spec already, so a
#: bump never pickles a callback) — and ``(_FINISH, last_ts, drain)``.
_BATCH = 0
_FINISH = 1
_EPOCH = 2
#: Message tags on the shared result queue.
_PROGRESS = "progress"
_DONE = "done"
_ERROR = "error"

#: How long to wait for a worker process to exit.
_POLL_TIMEOUT = 5.0
#: How long the gather waits on a silent result queue between checks
#: of worker liveness.
_LIVENESS_SLICE = 0.05


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

    Must be picklable under the ``spawn`` start method (then every
    tenant callback must be too); under ``fork`` it is simply
    inherited. The subscriptions are recompiled in the worker (compiled
    filters hold generated code objects that do not pickle), which also
    guarantees each shard gets genuinely private state.
    """

    core_id: int
    config: "RuntimeConfig"
    #: The filter table the worker starts from: the runtime's at pool
    #: start. It holds every spec the run can activate.
    table: FilterTable
    #: The run's pressure budget (``tenancy_pressure_mbps`` on a table
    #: of named tenants, else None).
    pressure_mbps: Optional[float] = None
    #: Virtual seconds between progress reports to the parent, or None
    #: for "never" (no monitor, no memory limit, no fail-fast).
    progress_interval: Optional[float] = None
    #: The core's ring attachment — ``(segment_name, ring_size,
    #: slot_bytes)``. Plain strings/ints so the spec stays picklable
    #: under spawn.
    shm: Tuple[str, int, int] = ("", 0, 0)


class _Worker:
    """One worker's handlers for what arrives in ring order."""

    __slots__ = ("spec", "pipeline", "out_queue", "next_progress")

    def __init__(self, spec: _WorkerSpec, pipeline, out_queue) -> None:
        self.spec = spec
        self.pipeline = pipeline
        self.out_queue = out_queue
        self.next_progress: Optional[float] = None

    def on_batch(self, mbufs: list, trace_ctx: Optional[tuple],
                 epoch: Optional[tuple] = None) -> None:
        """One burst, or an epoch bump (``epoch`` the successor table's
        ``(epoch, active)``, no mbufs)."""
        spec = self.spec
        pipeline = self.pipeline
        if trace_ctx is not None:
            # Span context stamped by the feeder: the burst tree this
            # batch produces records it, stitching worker spans into
            # the parent's trace.
            pipeline.set_span_ctx(trace_ctx)
        if epoch is not None:
            # Epoch bump: adopt the successor table here (the feeder
            # flushed everything older first, so per-core FIFO makes
            # the swap land on the exact burst boundary).
            pipeline.adopt(FilterTable(pipeline.table.specs, *epoch))
        pipeline.process_batch(mbufs)
        interval = spec.progress_interval
        if interval is not None:
            now = pipeline.now
            if self.next_progress is None or now >= self.next_progress:
                self.next_progress = now + interval
                self.out_queue.put((_PROGRESS, spec.core_id,
                                    CoreProgress.of(pipeline)))

    def finish(self, last_ts: Optional[float], do_drain: bool) -> None:
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
        kind, slot, _rows = channel.wait_descriptor(ordinal)
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
                worker.on_batch([], None, message[1:])
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
            pipeline = CorePipeline(
                spec.core_id, spec.table, spec.config.with_(parallel=False),
                pressure_mbps=spec.pressure_mbps)
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
    process per core plus their rings and queues.

    The loop calls it once per burst, sample point, epoch bump and at
    the end of the run — the same calls it makes on the runtime itself
    for the sequential backend — and hands it to the monitor. Usable as a
    context manager: on an exception inside the ``with`` block the
    pool terminates every worker before the exception propagates, and
    the queues and segments are released either way — no leaked
    children, no feeder threads blocking interpreter exit.
    """

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
        # into the parent's trace.
        self._spans_on = config.span_sample > 0 or \
            config.flight_recorder_depth > 0
        self._span_seq = [0] * config.cores
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
        specs = [
            _WorkerSpec(core_id=core_id, config=config,
                        table=runtime.table,
                        pressure_mbps=runtime.pressure_mbps,
                        progress_interval=progress_interval,
                        shm=self.transport.spec_args(core_id))
            for core_id in range(config.cores)]
        self.processes = [
            self._ctx.Process(
                target=_worker_main,
                args=(spec, self.in_queues[spec.core_id], self.out_queue),
                daemon=True, name=f"repro-core-{spec.core_id}")
            for spec in specs]
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

    def core_progress(self) -> List[CoreProgress]:
        """Each worker's last-reported record (as fresh as its progress
        cadence: the monitor and the cutoffs are approximate here)."""
        self.drain_progress()
        return self.progress

    @property
    def memory_bytes(self) -> int:
        return sum(core.memory_bytes for core in self.core_progress())

    # -- the ingest loop's calls -----------------------------------------
    def _burst(self, queue: int, rows: list) -> Optional[float]:
        """Dispatch one burst of ingress rows to its worker; returns
        the earliest fail-fast trip any worker has reported, or None."""
        mbufs = [row[0] for row in rows]
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
            image = slot_image(mbufs, queue, ctx)
            self.send_ctrl(queue, (_BATCH, image))
            self._account(queue, len(mbufs), 8 + len(image))
        if not self._failfast:
            return None
        tripped = [core.failfast_at for core in self.core_progress()
                   if core.failfast_at is not None]
        return min(tripped) if tripped else None

    def _bump(self, table: FilterTable) -> None:
        """Broadcast a successor table's ``(epoch, active)`` to every
        queue as a control message; per-queue FIFO makes each worker
        swap on exactly that burst boundary."""
        bump = (_EPOCH, table.epoch, tuple(table.active))
        for queue in range(len(self.processes)):
            self.send_ctrl(queue, bump)
            self._account(queue, 0, 8)

    def _sample_point(self) -> None:
        """A payload-less parent-clocked memory-sample point for every
        worker."""
        for queue in range(len(self.processes)):
            self._ring(queue, self.transport.channels[queue].send_sample)

    def _finish(self, last_ts: Optional[float], drain: bool):
        """Tell every worker to wrap up (``last_ts`` None: after a
        cutoff, neither advance time nor drain) and gather the final
        stats: ``(core_stats, backend_health)``."""
        for queue in range(len(self.processes)):
            self.send_ctrl(queue, (_FINISH, last_ts, drain))
        return self.gather(), self.backend_health()

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
                f"worker {core_id} died with its ring full",
                core_id=core_id)

    def _account(self, core_id: int, packets: int, ipc_bytes: int) -> None:
        if self._health is not None:
            row = self._health[core_id]
            row["batches"] += 1
            row["packets"] += packets
            row["ipc_bytes"] += ipc_bytes
            if packets > row["batch_occupancy_max"]:
                row["batch_occupancy_max"] = packets

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

    def gather(self) -> Dict[int, CoreStats]:
        """Block until every worker reported its final stats; returns
        ``{core_id: CoreStats}``. A worker that dies before reporting
        is an error."""
        results: Dict[int, CoreStats] = {}
        remaining = set(range(len(self.processes)))
        while remaining:
            try:
                message = self.out_queue.get(timeout=_LIVENESS_SLICE)
            except queue_mod.Empty:
                dead = [core for core in sorted(remaining)
                        if not self.processes[core].is_alive()]
                # A worker flushes its queue before it exits: once it
                # is dead, what it sent can be read without waiting.
                if dead and self.out_queue.empty():
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

