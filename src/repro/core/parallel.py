"""Parallel sharded execution backend: real multi-core processing.

The sequential backend models Retina's per-core pipelines faithfully
but executes them on one thread, so wall-clock throughput is bounded by
a single CPU no matter what ``config.cores`` says. This module makes
the paper's Section 5 scaling claim *real*: one OS worker process per
simulated core, each running its own shared-nothing pipeline
(:class:`~repro.core.pipeline.CorePipeline`, built over the
runtime's filter table) and connection tables, fed by the parent over
one ordered pipe per worker.

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

There is one feeder→worker channel per core, a one-way OS pipe
(``multiprocessing.Pipe(duplex=False)``), and every message on it is
one pickled tuple behind its kind: a burst is its rows as ``(data,
timestamp, port)``, a memory sample point is the kind alone, an epoch
bump and FINISH carry their arguments. The pipe delivers in send
order, so each worker reads the bursts, sample points and bumps in the
order the loop issued them, as a Retina core reads its RX queue (§5).
A full pipe blocks the feeder, the analogue of a finite RX descriptor
ring; on Linux each pipe is widened to 1 MiB, room for about four
campus bursts. Workers share nothing; each returns a
:class:`~repro.core.stats.CoreStats` snapshot that the parent merges
through ``Runtime.report()``. A host that cannot create the pipes
cannot run this backend; the sequential one produces the same
``AggregateStats`` by contract.

A worker either reports its stats or fails the run: a worker that dies
— with its pipe unread, or silent past its FINISH — surfaces as a
:class:`ParallelExecutionError` naming its core, never as a hang. Like
Retina's run-to-completion cores, none is ever restarted; none outlives
a killed feeder either.

Caveats (documented deviations):

- Under ``spawn``, worker processes recompile every subscription from
  the filter table's filter text and data type; custom parser/field
  registries and NIC capabilities on a hand-built ``Subscription`` are
  not shipped to them (``fork`` workers inherit the compiled table).
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
import pickle
import queue as queue_mod
import sys
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # not Linux: every pipe keeps the platform default
    F_SETPIPE_SZ = None

if TYPE_CHECKING:
    from repro.config import RuntimeConfig
    from repro.core.runtime import Runtime

from repro.core.monitor import CoreProgress
from repro.core.pipeline import CorePipeline
from repro.core.stats import CoreStats
from repro.errors import RetinaError
from repro.overload.controller import EVAL_INTERVAL
from repro.packet.mbuf import Mbuf
from repro.tenancy.table import FilterTable

#: Message kinds, the first field of every tuple on a worker's pipe:
#: ``(_BURST, rows)``, ``(_SAMPLE,)``, ``(_EPOCH, epoch, active)``
#: (``active`` the successor table's tuple of tenant names: the worker
#: holds every spec already, so a bump never pickles a callback) and
#: ``(_FINISH, last_ts, drain)``.
_BURST = 0
_SAMPLE = 1
_EPOCH = 2
_FINISH = 3
#: Message tags on the shared result queue.
_PROGRESS = "progress"
_DONE = "done"
_ERROR = "error"

#: Each pipe's capacity where the platform lets it be set: room for
#: about four 256-row bursts of campus traffic (~220 KB each).
_PIPE_BYTES = 1 << 20
#: How long to wait for a worker process to exit.
_POLL_TIMEOUT = 5.0
#: How long the gather waits on a silent result queue between checks
#: of worker liveness.
_LIVENESS_SLICE = 0.05
#: How long a worker waits on a silent pipe between checks that its
#: feeder is still its parent.
_FEEDER_CHECK = 0.25


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
    inherited, the table's compiled filters with it. Under ``spawn``
    the table crosses without them (generated code objects do not
    pickle) and the worker compiles its own.
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


class _Worker:
    """One worker's handlers for what arrives in pipe order."""

    __slots__ = ("spec", "pipeline", "out_queue", "next_progress")

    def __init__(self, spec: _WorkerSpec, pipeline, out_queue) -> None:
        self.spec = spec
        self.pipeline = pipeline
        self.out_queue = out_queue
        self.next_progress: Optional[float] = None

    def on_batch(self, mbufs: list, epoch: Optional[tuple] = None) -> None:
        """One burst, or an epoch bump (``epoch`` the successor table's
        ``(epoch, active)``, no mbufs)."""
        spec = self.spec
        pipeline = self.pipeline
        if epoch is not None:
            # Epoch bump: adopt the successor table here (the feeder
            # flushed everything older first, so per-core FIFO makes
            # the swap land on the exact burst boundary).
            pipeline.adopt(pipeline.table.at(*epoch))
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


def _receive(reader, feeder: int) -> tuple:
    """The pipe's next message. An orphaned worker (its feeder killed)
    leaves at once, without flushing the result queue nobody reads:
    re-parenting shows between polls, and a pipe no process can write
    to any more reads as end of file, even mid-message."""
    while not reader.poll(_FEEDER_CHECK):
        if os.getppid() != feeder:
            os._exit(1)
    try:
        message = reader.recv_bytes()
    except (EOFError, OSError):
        os._exit(1)
    return pickle.loads(message)


def _consume(reader, feeder: int, worker: _Worker) -> None:
    """Handle the pipe's messages in send order until FINISH."""
    core = worker.spec.core_id
    while True:
        kind, *body = _receive(reader, feeder)
        if kind == _BURST:
            worker.on_batch([Mbuf(data, ts, port, core)
                             for data, ts, port in body[0]])
        elif kind == _SAMPLE:
            # Parent-clocked sample point: every batch dispatched
            # before the deadline is already processed (strict per-core
            # order), so this records exactly what the sequential
            # backend's sample point would.
            worker.pipeline.sample_memory()
        elif kind == _EPOCH:
            worker.on_batch([], body)
        else:  # _FINISH
            worker.finish(*body)
            return


def _worker_main(spec: _WorkerSpec, reader, writers: list,
                 out_queue) -> None:
    """Worker process entry point: one core's shared-nothing pipeline.
    ``writers`` are the pool's pipe write ends this process inherited
    (its own and every earlier worker's)."""
    # Read first: a feeder killed meanwhile has already passed this
    # process on.
    feeder = os.getppid()
    try:
        # A wedged worker dumps every stack on a fatal signal. The
        # inherited sys.stderr may be a capture object with no
        # descriptor, so name the real one.
        faulthandler.enable(sys.__stderr__)
        # Only the feeder may hold a write end: its death is then this
        # pipe's end of file.
        for writer in writers:
            writer.close()
        pipeline = CorePipeline(
            spec.core_id, spec.table, spec.config.with_(parallel=False),
            pressure_mbps=spec.pressure_mbps)
        _consume(reader, feeder, _Worker(spec, pipeline, out_queue))
    except BaseException:
        out_queue.put((_ERROR, spec.core_id, traceback.format_exc()))


# ---------------------------------------------------------------------------
# parent-side orchestration
# ---------------------------------------------------------------------------
class WorkerPool:
    """The worker backend of :meth:`Runtime.run`'s ingest loop: one
    process per core plus their pipes and result queue.

    The loop calls it once per burst, sample point, epoch bump and at
    the end of the run — the same calls it makes on the runtime itself
    for the sequential backend — and hands it to the monitor. Usable as a
    context manager: on an exception inside the ``with`` block the
    pool terminates every worker before the exception propagates, and
    the pipes and the queue are released either way — no leaked
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
            EVAL_INTERVAL if self._failfast else None)
            if interval is not None]
        progress_interval = min(needs) if needs else None
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
        #: Wall seconds spent inside ``send_bytes``: the feeder blocked
        #: on a full pipe (plus the copy into it).
        self._blocked = 0.0
        # Prefer fork where available: workers start fast and
        # subscriptions with closure callbacks are inherited rather
        # than pickled. spawn (macOS/Windows default) works too, but
        # requires the callback to be picklable.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self.out_queue = self._ctx.Queue()
        #: Each worker's pipe write end, in core order.
        self._writers: list = []
        self.processes: list = []
        try:
            for core_id in range(config.cores):
                self._start(_WorkerSpec(
                    core_id=core_id, config=config, table=runtime.table,
                    pressure_mbps=runtime.pressure_mbps,
                    progress_interval=progress_interval))
        except BaseException:
            self.terminate()
            self.close()
            raise

    def _start(self, spec: _WorkerSpec) -> None:
        """Open core ``spec.core_id``'s pipe and start its worker. The
        feeder closes the read end once the worker holds it, and no
        later fork inherits it: a write to a dead worker's pipe then
        fails at once instead of blocking."""
        try:
            reader, writer = self._ctx.Pipe(duplex=False)
        except OSError as exc:
            raise ParallelExecutionError(
                f"cannot create worker {spec.core_id}'s pipe ({exc}); the "
                f"parallel backend has no other transport — run without "
                f"--parallel (parallel=False): the sequential backend "
                f"produces the same AggregateStats",
                core_id=spec.core_id) from exc
        if F_SETPIPE_SZ is not None:
            try:
                fcntl(writer.fileno(), F_SETPIPE_SZ, _PIPE_BYTES)
            except OSError:  # above the host's pipe-max-size
                pass
        self._writers.append(writer)
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, reader, self._writers, self.out_queue),
            daemon=True, name=f"repro-core-{spec.core_id}")
        self.processes.append(process)
        try:
            process.start()
        except Exception as exc:  # unpicklable callback under spawn
            raise ParallelExecutionError(
                f"could not start worker processes ({exc}); under the "
                f"'spawn' start method the subscription callback must be "
                f"picklable (a module-level function or None)") from exc
        finally:
            reader.close()

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
        sent = self._send(queue, (_BURST, [
            (mbuf.data, mbuf.timestamp, mbuf.port)
            for mbuf, _, _, _ in rows]))
        self._account(queue, len(rows), sent)
        if not self._failfast:
            return None
        tripped = [core.failfast_at for core in self.core_progress()
                   if core.failfast_at is not None]
        return min(tripped) if tripped else None

    def _bump(self, table: FilterTable) -> None:
        """Send a successor table's ``(epoch, active)`` to every
        worker; pipe order makes each swap on exactly that burst
        boundary."""
        bump = (_EPOCH, table.epoch, tuple(table.active))
        for queue in range(len(self.processes)):
            sent = self._send(queue, bump)
            if self._health is not None:  # bytes on the pipe, no batch
                self._health[queue]["ipc_bytes"] += sent

    def _sample_point(self) -> None:
        """A parent-clocked memory-sample point for every worker."""
        for queue in range(len(self.processes)):
            self._send(queue, (_SAMPLE,))

    def _finish(self, last_ts: Optional[float], drain: bool):
        """Tell every worker to wrap up (``last_ts`` None: after a
        cutoff, neither advance time nor drain) and gather the final
        stats: ``(core_stats, backend_health)``."""
        for queue in range(len(self.processes)):
            self._send(queue, (_FINISH, last_ts, drain))
        return self.gather(), self.backend_health()

    def _send(self, core_id: int, message: tuple) -> int:
        """Pickle one message onto ``core_id``'s pipe; returns its
        bytes. A worker that died left no reader, so the write fails
        instead of blocking."""
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        started = time.perf_counter()
        try:
            self._writers[core_id].send_bytes(data)
        except BrokenPipeError:
            # Surface the worker's own traceback if it sent one before
            # dying; fall back to the generic error.
            self.drain_progress()
            raise ParallelExecutionError(
                f"worker {core_id} died with its pipe unread",
                core_id=core_id) from None
        self._blocked += time.perf_counter() - started
        return len(data)

    def _account(self, core_id: int, packets: int, ipc_bytes: int) -> None:
        if self._health is not None:
            row = self._health[core_id]
            row["batches"] += 1
            row["packets"] += packets
            row["ipc_bytes"] += ipc_bytes
            if packets > row["batch_occupancy_max"]:
                row["batch_occupancy_max"] = packets

    def backend_health(self) -> Optional[dict]:
        """Volatile health snapshot, or None when telemetry is off."""
        if self._health is None:
            return None
        ipc_bytes = sum(row["ipc_bytes"] for row in self._health)
        ipc_packets = sum(row["packets"] for row in self._health)
        return {
            "transport": "pipe",
            # A full pipe is the one condition the feeder ever blocks on.
            "feeder_block_seconds": self._blocked,
            # The serial stage's CPU, beside each worker's below: their
            # ratio bounds what any worker count can buy.
            "feeder_cpu_seconds": time.process_time() - self._cpu_from,
            "ipc_bytes": ipc_bytes,
            "ipc_packets": ipc_packets,
            "ipc_bytes_per_packet": (ipc_bytes / ipc_packets)
            if ipc_packets else 0.0,
            "workers": [{"worker": core_id, **row}
                        for core_id, row in enumerate(self._health)],
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
        # Closing the write ends is end of file to any worker still
        # reading; never block interpreter exit on flushing the result
        # queue's feeder thread either.
        if self._closed:
            return
        self._closed = True
        for writer in self._writers:
            writer.close()
        self.out_queue.cancel_join_thread()
        self.out_queue.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.terminate()
        self.close()
        return False

