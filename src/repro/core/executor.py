"""Callback execution models (Section 5.3 + the paper's future work).

Retina runs callbacks **inline** on the receive core: no cross-core
communication, no serialization, but an expensive callback stalls that
core's pipeline. The paper explicitly leaves "support for alternative
callback execution models to future work" — this module provides one:
a **queued** executor that models handing results to a dedicated worker
pool through a bounded queue. The receive core pays only a small
enqueue cost; callback cycles are consumed from the worker pool's
budget instead, and a saturated pool drops deliveries (the analogue of
a full hand-off queue).

The user's Python callback still runs synchronously either way — the
virtual-cycle accounting is what differs, matching how the rest of the
reproduction treats time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.cycles import to_centi


@dataclass
class ExecutorStats:
    """Accounting for a callback executor."""

    delivered: int = 0
    dropped: int = 0
    #: Centi-cycles one delivery costs the worker pool (0: inline).
    centi_per_delivery: int = 0

    @property
    def worker_cycles(self) -> float:
        return self.delivered * self.centi_per_delivery / 100

    def worker_busy_seconds(self, cpu_hz: float, workers: int) -> float:
        return self.worker_cycles / cpu_hz / max(workers, 1)


class InlineExecutor:
    """Retina's model: the callback runs on the receive core."""

    name = "inline"

    def __init__(self, callback: Optional[Callable],
                 callback_cycles: float) -> None:
        self._callback = callback
        self.callback_cycles = callback_cycles
        #: Cycles the RX core pays per delivery (the ledger's charge).
        self.rx_cycles = callback_cycles
        self.stats = ExecutorStats()

    def submit(self, obj: Any) -> None:
        """Deliver one result."""
        self.stats.delivered += 1
        if self._callback is not None:
            self._callback(obj)

    def record_suppressed(self) -> None:
        """Account a delivery whose user callback was skipped (callback
        quarantine). Identical delivery count (so cycle charge) as
        :meth:`submit`, so quarantined runs keep baseline-equal
        accounting — only the user function is withheld."""
        self.stats.delivered += 1


class QueuedExecutor:
    """Future-work model: callbacks on a dedicated worker pool.

    The receive core pays ``enqueue_cycles`` per delivery (serialize +
    MPSC queue operation). Worker capacity is tracked in virtual time:
    if the pool's cycle demand exceeds what ``workers`` cores could
    have executed over the traffic's duration, the overflow is counted
    as dropped deliveries by :meth:`finalize`.
    """

    name = "queued"

    def __init__(
        self,
        callback: Optional[Callable],
        callback_cycles: float,
        workers: int = 1,
        enqueue_cycles: float = 250.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self._callback = callback
        self.callback_cycles = callback_cycles
        self.workers = workers
        self.enqueue_cycles = enqueue_cycles
        self.rx_cycles = enqueue_cycles
        self.stats = ExecutorStats(
            centi_per_delivery=to_centi(callback_cycles))

    def submit(self, obj: Any) -> None:
        self.stats.delivered += 1
        if self._callback is not None:
            self._callback(obj)

    def record_suppressed(self) -> None:
        """Account a delivery whose user callback was skipped (callback
        quarantine); same charges as :meth:`submit`."""
        self.stats.delivered += 1

    def finalize(self, duration: float, cpu_hz: float) -> None:
        """Convert any worker-pool overload into dropped deliveries."""
        capacity_cycles = duration * cpu_hz * self.workers
        if self.stats.worker_cycles <= capacity_cycles or \
                self.callback_cycles <= 0:
            return
        excess = self.stats.worker_cycles - capacity_cycles
        dropped = int(excess / self.callback_cycles)
        self.stats.dropped = min(dropped, self.stats.delivered)

    def max_zero_loss_callbacks_per_second(self, cpu_hz: float) -> float:
        """The pool's callback-rate ceiling."""
        if self.callback_cycles <= 0:
            return float("inf")
        return self.workers * cpu_hz / self.callback_cycles
