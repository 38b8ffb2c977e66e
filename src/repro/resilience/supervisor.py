"""Worker supervision bookkeeping for the parallel backend.

The parallel backend (:mod:`repro.core.parallel`) owns the processes
and queues; this module owns the *state machine* that makes worker
failure survivable and — for planned faults — deterministic:

- per-core batch **sequence numbers** with per-batch acknowledgements
  (the heartbeat signal),
- a bounded per-core **redo log** of dispatched-but-unacknowledged
  batches, replayed to a restarted worker so in-flight data is not
  lost,
- **crash/hang accounting**: restart attempts with a capped
  exponential, deterministic backoff schedule
  (:func:`repro.resilience.faults.restart_backoff`), and a per-core
  restart budget after which the core is declared lost and the run
  completes *degraded* (partial stats),
- the **summary** consumed by
  :func:`repro.resilience.faults.build_fault_report`.

Determinism note: planned worker faults fire on a known batch sequence
number, and the dispatcher recovers *synchronously* (it pauses a core's
dispatch right after sending a fault-trigger batch until recovery
completes), so the replay set — and every counter here except wall
clock, which is never reported — is identical run to run.

This module deliberately imports nothing beyond the standard library,
:mod:`repro.errors`, and :mod:`repro.resilience.faults`, so it can be
shipped to (or imported by) worker processes without dragging the whole
runtime along.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.resilience.faults import FaultPlan, FaultSpec, restart_backoff


class RedoLog:
    """Bounded log of one core's dispatched-but-unacknowledged batches.

    ``record`` on dispatch, ``ack`` on acknowledgement; ``pending``
    is what a restarted worker must replay. When more than ``capacity``
    batches are in flight the oldest entries are evicted — if the
    worker later crashes before acknowledging them they are counted as
    unreplayable (data loss the bound made explicit).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[int, list]" = OrderedDict()
        self._dropped_seqs: List[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, seq: int, batch) -> None:
        self._entries[seq] = batch
        while len(self._entries) > self.capacity:
            dropped_seq, _ = self._entries.popitem(last=False)
            self._dropped_seqs.append(dropped_seq)

    def ack(self, seq: int) -> None:
        """Acknowledge every batch up to and including ``seq``.

        Cumulative by design, which is what lets workers coalesce
        their acks (one per ``_ACK_COALESCE`` batches, flushed on
        ring-idle, at FINISH, and always before a planned fault fires):
        acking the highest processed seq trims the same prefix an ack
        per batch would, so ``pending`` — the replay set after a
        crash — does not depend on the ack cadence.
        """
        for entry_seq in list(self._entries):
            if entry_seq <= seq:
                del self._entries[entry_seq]
            else:
                break
        if self._dropped_seqs:
            # An evicted batch the worker nevertheless processed is not
            # lost after all.
            self._dropped_seqs = [s for s in self._dropped_seqs
                                  if s > seq]

    def pending(self) -> List[Tuple[int, list]]:
        return list(self._entries.items())

    @property
    def unreplayable(self) -> int:
        """Evicted-and-never-acknowledged batches (lost on a crash)."""
        return len(self._dropped_seqs)


class _CoreState:
    __slots__ = ("next_seq", "redo", "restarts", "suppressed", "lost",
                 "last_heard", "last_rung", "last_epoch")

    def __init__(self, redo_capacity: int) -> None:
        self.next_seq = 0
        self.redo = RedoLog(redo_capacity)
        self.restarts = 0
        self.suppressed: Tuple[int, ...] = ()
        self.lost = False
        self.last_heard = time.monotonic()
        #: Overload-ladder rung carried on the core's last ack; a
        #: restarted worker is re-seeded at this rung so a crash cannot
        #: silently reopen the admission gate mid-overload.
        self.last_rung = 0
        #: Filter-table epoch carried on the core's last ack (0 until a
        #: table swap). A restarted worker is rebuilt at this table
        #: state; epoch bumps still in the redo log re-apply
        #: idempotently during replay.
        self.last_epoch = 0


class WorkerSupervisor:
    """Tracks dispatch/ack/restart state for every worker core."""

    def __init__(self, cores: int, plan: Optional[FaultPlan],
                 max_restarts: int, redo_capacity: int,
                 heartbeat_timeout: float) -> None:
        self.plan = plan
        self.max_restarts = max_restarts
        self.heartbeat_timeout = heartbeat_timeout
        self._cores = [_CoreState(redo_capacity) for _ in range(cores)]
        # -- report fields ---------------------------------------------
        self.total_restarts = 0
        self.replayed_batches = 0
        self.unreplayable_batches = 0
        self.backoffs: List[float] = []
        #: Per-failure event records for the span/flight-recorder layer
        #: (:mod:`repro.telemetry.spans`): ``{"event": "worker_restart"
        #: | "worker_lost", "core": id, "detail": ...}``, in failure
        #: order. Deterministic for planned faults (no wall clock).
        self.failure_events: List[Dict] = []

    # -- dispatch ------------------------------------------------------
    def next_seq(self, core: int) -> int:
        """The seq :meth:`on_dispatch` assigns ``core``'s next batch
        (a burst's slot image carries its own seq)."""
        return self._cores[core].next_seq

    def on_dispatch(self, core: int, batch
                    ) -> Tuple[int, Optional[Tuple[int, FaultSpec]]]:
        """Assign the next sequence number for a batch sent to ``core``
        and log it for replay. Returns ``(seq, planned_fault)`` where
        ``planned_fault`` is the ``(plan_index, spec)`` this batch will
        trigger in the worker, or None. When a fault is returned the
        dispatcher must recover the core before sending anything else
        to it (that pause is what makes the replay set deterministic).
        """
        state = self._cores[core]
        seq = state.next_seq
        state.next_seq += 1
        state.redo.record(seq, batch)
        fault = None
        if self.plan is not None:
            fault = self.plan.worker_fault_at(core, seq, state.suppressed)
        return seq, fault

    # -- signals from the worker --------------------------------------
    def on_ack(self, core: int, seq: int) -> None:
        state = self._cores[core]
        state.redo.ack(seq)
        state.last_heard = time.monotonic()

    def note_rung(self, core: int, rung: int) -> None:
        """Remember the overload-ladder rung ``core`` reported on its
        latest ack (the restart seed; see :class:`_CoreState`)."""
        self._cores[core].last_rung = rung

    def last_rung(self, core: int) -> int:
        return self._cores[core].last_rung

    def note_epoch(self, core: int, epoch: int) -> None:
        """Remember the filter-table epoch ``core`` reported on its
        latest ack (the multi-tenant restart seed)."""
        self._cores[core].last_epoch = epoch

    def last_epoch(self, core: int) -> int:
        return self._cores[core].last_epoch

    def heard_from(self, core: int) -> None:
        self._cores[core].last_heard = time.monotonic()

    def silent_for(self, core: int) -> float:
        return time.monotonic() - self._cores[core].last_heard

    # -- failure handling ----------------------------------------------
    def on_failure(self, core: int, plan_index: Optional[int]
                   ) -> Optional[Tuple[float, List[Tuple[int, list]],
                                       Tuple[int, ...]]]:
        """A worker crashed or hung. Returns ``(backoff_seconds,
        replay_batches, suppressed_plan_indices)`` when the core may be
        restarted, or None when its restart budget is exhausted (the
        core is lost; the run completes degraded).

        ``plan_index`` is the planned fault that fired (suppressed in
        the restarted worker so it does not fire again), or None for an
        unplanned failure.
        """
        state = self._cores[core]
        if plan_index is not None and \
                plan_index not in state.suppressed:
            state.suppressed = state.suppressed + (plan_index,)
        self.unreplayable_batches += state.redo.unreplayable
        if state.restarts >= self.max_restarts:
            state.lost = True
            self.failure_events.append({
                "event": "worker_lost", "core": core,
                "detail": "restart budget exhausted after %d restarts"
                          % state.restarts,
                "ts": -1.0,
            })
            return None
        backoff = restart_backoff(state.restarts)
        state.restarts += 1
        self.total_restarts += 1
        self.backoffs.append(backoff)
        replay = state.redo.pending()
        self.replayed_batches += len(replay)
        state.last_heard = time.monotonic()
        self.failure_events.append({
            "event": "worker_restart", "core": core,
            "detail": "restart %d, replaying %d batches"
                      % (state.restarts, len(replay)),
            "ts": -1.0,
        })
        return backoff, replay, state.suppressed

    # -- queries -------------------------------------------------------
    def is_lost(self, core: int) -> bool:
        return self._cores[core].lost

    @property
    def lost_cores(self) -> List[int]:
        return [i for i, s in enumerate(self._cores) if s.lost]

    @property
    def degraded(self) -> bool:
        return any(s.lost for s in self._cores)

    def summary(self) -> Dict:
        """The supervisor section of the fault report (wall clock never
        appears here — only counts and the planned backoff schedule)."""
        return {
            "restarts": self.total_restarts,
            "replayed": self.replayed_batches,
            "unreplayable": self.unreplayable_batches,
            "lost_cores": self.lost_cores,
            "backoffs": list(self.backoffs),
            "degraded": self.degraded,
        }
