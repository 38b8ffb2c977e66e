"""The multi-tenant runtime: N subscriptions over one shared pipeline.

A :class:`TenantRuntime` deploys a whole
:class:`~repro.tenancy.table.FilterTable` instead of one subscription:
every core runs a :class:`~repro.tenancy.pipeline.TenantCorePipeline`
that classifies each packet once against the merged shared trie and
fans verdicts out per tenant. The table is versioned — ``subscribe``/
``unsubscribe`` build the successor epoch and publish it — and swaps
land atomically on burst boundaries:

- The one ingest loop (:meth:`repro.core.runtime.Runtime.run`) checks
  :attr:`next_reconfigure_ts` *before* routing each packet; when an
  event is due it flushes every pending per-queue burst (old-epoch
  packets classify under the old table), publishes
  (:meth:`publish_tenancy_events`), and hands each new epoch to the
  backend. The first packet with ``timestamp >= event.time`` therefore
  observes the new epoch on either backend, which keeps the two
  byte-identical per tenant even across a mid-run swap.
- The sequential backend calls ``apply_epoch`` on every pipeline. The
  parallel one (:class:`repro.core.parallel.WorkerPool`) ships the
  wire table of :meth:`tenant_wire_state` to each worker and
  broadcasts each new epoch on an empty stamped
  :class:`~repro.packet.batch.PackedBatch`. Epoch bumps ride the
  supervised redo log, so a worker crash inside the swap window
  replays the bump to the restarted worker (``apply_epoch`` is
  idempotent on the epoch number).

The hardware plane never reconfigures: the union flow-rule set over
*every* tenant the run will ever know — dormant late joiners included —
is installed once at construction (:func:`~repro.tenancy.shared
.union_hardware`), so an epoch swap is purely a software-table pointer
swap, and NIC ingress counters are comparable across any
reconfiguration schedule over the same tenant universe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.config import RuntimeConfig
    from repro.core.stats import AggregateStats

from repro.core.runtime import Runtime, RuntimeReport
from repro.errors import TenancyError
from repro.filter import compile_filter
from repro.tenancy.pipeline import TenantCorePipeline, TenantStatsBundle
from repro.tenancy.shared import union_hardware
from repro.tenancy.spec import ReconfigureEvent, TenantSpec, check_events
from repro.tenancy.table import FilterTable


class TenantRuntime(Runtime):
    """One deployed multi-tenant filter table over the simulated NIC."""

    def __init__(
        self,
        config: "RuntimeConfig",
        specs: Sequence[TenantSpec],
        events: Sequence[ReconfigureEvent] = (),
        ports: int = 1,
    ) -> None:
        if config.callback_execution != "inline":
            raise TenancyError(
                "multi-tenant runs require callback_execution='inline' "
                "(each tenant pipeline owns its own inline executor)")
        table = FilterTable(specs)
        check_events(events, table.specs)
        self.table = table
        #: Scheduled events still to fire, earliest first (stable for
        #: same-timestamp events: schedule order breaks the tie).
        self._events: List[ReconfigureEvent] = sorted(
            events, key=lambda e: e.time)
        #: Subscriptions and callback executors are per tenant, inside
        #: the pipelines; the runtime itself has neither.
        self.subscription = self.executor = None
        # One immutable hardware plane for the whole tenant universe:
        # dormant tenants are compiled in up front so activating them
        # later never touches the NIC.
        self._deploy(config, ports, self._union_hardware(config), [
            TenantCorePipeline(core, table.specs, table.active, config,
                               epoch=table.epoch)
            for core in range(config.cores)
        ])

    def _union_hardware(self, config):
        return union_hardware([
            compile_filter(spec.filter, mode=config.filter_mode)
            for spec in self.table.specs])

    # -- live reconfiguration ------------------------------------------
    def subscribe(self, spec: TenantSpec) -> int:
        """Activate ``spec`` on the live runtime; returns the new epoch.

        Publishes the successor table and swaps every local pipeline at
        the next burst boundary (immediately, between bursts, on the
        sequential backend). For a run already dispatched to worker
        processes, schedule the change as a
        :class:`~repro.tenancy.spec.ReconfigureEvent` instead — the
        feeder broadcasts it at the exact virtual time.

        Subscribing a tenant the table has never known (or a known name
        with a different filter) grows the hardware universe, so the
        union flow-rule set is recompiled and reinstalled here — the
        one case a swap touches the NIC. Scheduled mid-run events can
        only reference tenants declared up front (``check_events``), so
        the in-flight hardware plane stays immutable.
        """
        known = self.table.by_name.get(spec.name)
        self.table = self.table.subscribe(spec)
        if known is None or known.filter != spec.filter:
            if self.config.hardware_filter:
                hardware = self._union_hardware(self.config)
                for nic in self.nics:
                    nic.install_hardware_filter(hardware)
        self._sync_local()
        return self.table.epoch

    def unsubscribe(self, name: str) -> int:
        """Deactivate tenant ``name``; its in-flight connections keep
        draining under their admission epoch. Returns the new epoch."""
        self.table = self.table.unsubscribe(name)
        self._sync_local()
        return self.table.epoch

    def _sync_local(self) -> None:
        epoch, action = self.table.actions[-1]
        for pipeline in self.pipelines:
            pipeline.apply_epoch(epoch, (action,))

    # -- the ingest protocol (overrides Runtime's "none scheduled") ----
    @property
    def next_reconfigure_ts(self) -> Optional[float]:
        """Virtual time of the next scheduled event, or None."""
        return self._events[0].time if self._events else None

    def publish_tenancy_events(self, ts: float
                               ) -> List[Tuple[int, tuple]]:
        """Apply every scheduled event due at virtual time ``ts`` to
        the live table; returns the ``(epoch, actions)`` bumps to
        broadcast (one bump per event, in schedule order)."""
        bumps: List[Tuple[int, tuple]] = []
        while self._events and self._events[0].time <= ts:
            event = self._events.pop(0)
            if event.action == "add":
                spec = self.table.by_name.get(event.name)
                if spec is None:
                    raise TenancyError(
                        f"reconfigure add of unknown tenant "
                        f"{event.name!r}")
                self.table = self.table.subscribe(spec)
            else:
                self.table = self.table.unsubscribe(event.name)
            epoch, action = self.table.actions[-1]
            bumps.append((epoch, (action,)))
        return bumps

    def tenant_wire_state(self) -> Dict:
        """The table as the plain wire dict worker specs carry."""
        return {
            "specs": [spec.to_wire() for spec in self.table.specs],
            "active": list(self.table.active),
            "epoch": self.table.epoch,
        }

    # -- per-tenant reporting ------------------------------------------
    def run(self, traffic, **kwargs) -> RuntimeReport:
        """As :meth:`Runtime.run`, with the per-tenant breakdown on
        ``report.tenancy`` — exporters and the fate table read it there
        and need no runtime."""
        report = super().run(traffic, **kwargs)
        merged = self._merged(report)
        report.tenancy = {
            "epoch": self.table.epoch,
            "active": list(self.table.active),
            "tenants": self.aggregate_tenants(report),
            "shed": self._ledgers(merged),
            "ladders": {name: stats.overload for name, stats
                        in merged.per_tenant.items()},
            "metered": merged.tenant_shed,
            "offered": merged.offered,
            "not_subscribed": merged.not_subscribed,
        }
        return report

    def _merged(self, report: RuntimeReport) -> TenantStatsBundle:
        """Every core's bundle folded into one."""
        merged = TenantStatsBundle(self.config.cost_model)
        for core_id in sorted(report.core_stats or {}):
            merged.merge(report.core_stats[core_id])
        return merged

    def _per_tenant_stats(self, report: RuntimeReport
                          ) -> Dict[str, List]:
        per: Dict[str, List] = {}
        for core_id in sorted(report.core_stats or {}):
            bundle = report.core_stats[core_id]
            if not isinstance(bundle, TenantStatsBundle):
                continue
            for name in sorted(bundle.per_tenant):
                per.setdefault(name, []).append(bundle.per_tenant[name])
        return per

    def aggregate_tenants(self, report: RuntimeReport
                          ) -> Dict[str, "AggregateStats"]:
        """Per-tenant :class:`AggregateStats` from a run's core
        bundles. Every tenant that was active at any point appears —
        including tenants dropped mid-run, whose drained stats are
        frozen at their last admitted epoch."""
        # Every tenant is framed against the same, shared link.
        ingress = self.nic_ingress()
        return {
            name: self.aggregate(core_stats=stats_list, ingress=ingress)
            for name, stats_list
            in self._per_tenant_stats(report).items()
        }

    def tenant_ledgers(self, report: RuntimeReport) -> Dict[str, object]:
        """Per-tenant merged loss ledgers (pipeline overload sheds plus
        quota/pressure sheds charged by the multiplexer); tenants with
        no ledger activity are absent. ``packets_seen`` is every packet
        the tenant was offered: what its pipelines were fed on every
        core — ladder or not, shedding or not — plus what the
        multiplexer shed before them."""
        return self._ledgers(self._merged(report))

    @staticmethod
    def _ledgers(merged: TenantStatsBundle) -> Dict[str, object]:
        from repro.overload import merge_ledgers
        out: Dict[str, object] = {}
        for name, stats in merged.per_tenant.items():
            mux = merged.tenant_shed.get(name)
            ledger = merge_ledgers([stats.overload, mux])
            if ledger is not None:
                ledger.packets_seen = stats.packets + (
                    mux.packets_shed if mux is not None else 0)
                out[name] = ledger
        return out
