"""Per-core pipeline multiplexer: a filter table over tenant pipelines.

Every runtime runs one :class:`TenantCorePipeline` per receive queue
over the table it deploys (a plain subscription is a one-entry table).
Each tenant behind it is a fully independent
:class:`~repro.core.pipeline.CorePipeline` — its own conntrack table,
cycle ledger, stats, callback quarantine and tenant-scoped fault
injector — so a noisy or crashing tenant cannot perturb another
tenant's counters by even one bit. Nothing is decoded here: rows arrive
pointing at the column batches the ingress decoded (a parallel worker's
``process_batch`` decodes the burst it was sent).

While one unmetered tenant is alone in the table, the multiplexer is a
pass-through: rows reach that tenant's pipeline untouched, and its own
filter classifies each column batch they point at. Otherwise every
active tenant reads its lane of the table's
:class:`~repro.tenancy.shared.SharedFilter` verdicts
(:meth:`TenantCorePipeline._shared_verdicts`), and the tenants get the
ingress's own rows. Either way the verdicts are cached on the batch
under the key of the classifier that computed them (the filter, or the
tuple of active filters): every core holding the table reads one
classification per chunk, and a chunk that straddles a swap is
classified again under the new table. A fast row's verdict is ``None``
where the classifier has no say: a predicate no column expresses.

Isolation knobs enforced here, before rows reach a tenant's pipeline,
both on virtual time, so deterministic across backends and worker
counts at a fixed ``config.cores``:

* **Quotas** — a tenant with ``quota_mbps`` gets a per-core byte budget
  per virtual-second window; over-budget rows are shed and charged to
  that tenant's private loss ledger (rung 1, layer ``tenant_quota``).
* **Pressure downgrade** — on a table of named tenants with
  ``config.tenancy_pressure_mbps`` set, when a window's aggregate load
  exceeds the per-core share the *heaviest* tenants (by offered bytes
  *matching their own filter*, ties by name) are shed for the next
  window (rung 3, layer ``tenant_pressure``) until the rest fits.

An epoch swap hands every core the successor
:class:`~repro.tenancy.table.FilterTable` whole
(:meth:`TenantCorePipeline.adopt`). Adopting is idempotent on the epoch
number, so a replayed bump after a supervised worker restart is a
no-op. A dropped tenant's pipeline moves to the draining set: it
receives no further rows but keeps expiring, sampling and finally
draining under its admission epoch.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import CorePipeline
from repro.core.stats import CoreStats
from repro.core.subscription import Subscription
from repro.filter.batch import NO_MATCH
from repro.overload.ledger import LossLedger
from repro.packet.columnar import decode_mbufs
from repro.tenancy.shared import SharedFilter
from repro.tenancy.spec import TenantSpec
from repro.tenancy.table import FilterTable

#: One virtual second: the quota / pressure accounting window.
_WINDOW_S = 1.0
#: Ladder rungs quota and pressure sheds are attributed to (the quota
#: gate refuses work the way rung 1 does; the pressure downgrade is the
#: tenant-granular analogue of rung 3's heavy-connection breaker).
_QUOTA_RUNG = 1
_PRESSURE_RUNG = 3
#: The column batch of an ingress row ``(mbuf, queue, cols, i)``.
_row_cols = itemgetter(2)


def build_tenant_subscription(spec: TenantSpec, config) -> Subscription:
    """Compile one tenant's spec into a Subscription (the tenant's own
    filter object also feeds the table's SharedFilter, so verdict node
    ids line up with the connection/session sub-filters for free)."""
    return Subscription(
        spec.filter,
        spec.datatype,
        spec.callback,
        filter_mode=config.filter_mode,
        identify_services=spec.identify_services,
    )


def tenant_config(spec: TenantSpec, config):
    """The per-tenant RuntimeConfig: tenant overrides for the callback
    error policy, and the tenant-scoped fault plan *replacing* the
    run-level one (worker-level faults stay with the supervisor; the
    in-pipeline injectors must be tenant-local or quarantine leaks)."""
    return config.with_(
        callback_error_policy=(spec.callback_error_policy
                               if spec.callback_error_policy is not None
                               else config.callback_error_policy),
        callback_error_budget=(spec.callback_error_budget
                               if spec.callback_error_budget is not None
                               else config.callback_error_budget),
        fault_plan=spec.fault_plan,
    )


class TenantStatsBundle(CoreStats):
    """One core's merged stats (the :class:`CoreStats` face every
    consumer of a per-core snapshot reads) plus the per-tenant
    breakdown:

    * ``per_tenant``: tenant name → that tenant's merged CoreStats
      (re-added tenants merge their drained and live pipelines).
    * ``tenant_shed``: tenant name → the quota/pressure loss ledger,
      present only for tenants that were actually metered (so an
      unmetered run's snapshot is byte-identical to a plain run's).
    * ``epoch``: the filter-table epoch this core had adopted when the
      snapshot was taken.
    * ``offered``: packets the multiplexer was handed, and
      ``not_subscribed``: tenant name → those it was handed while the
      tenant was out of the table (before an ``add``, after a
      ``drop``) — what the fate table needs to account, per tenant,
      for every packet of the shared link.
    """

    def __init__(self, cost_model, telemetry: bool = False) -> None:
        super().__init__(cost_model, telemetry=telemetry)
        self.per_tenant: Dict[str, CoreStats] = {}
        self.tenant_shed: Dict[str, LossLedger] = {}
        self.epoch = 0
        self.offered = 0
        self.not_subscribed: Dict[str, int] = {}

    def merge(self, other: "TenantStatsBundle") -> None:
        super().merge(other)
        for name, stats in other.per_tenant.items():
            mine = self.per_tenant.get(name)
            if mine is None:
                mine = CoreStats(stats.ledger.model)
                self.per_tenant[name] = mine
            mine.merge(stats)
        for name, ledger in other.tenant_shed.items():
            mine = self.tenant_shed.get(name)
            if mine is None:
                mine = LossLedger(core_id=-1)
                self.tenant_shed[name] = mine
            mine.merge(ledger)
        if other.epoch > self.epoch:
            self.epoch = other.epoch
        self.offered += other.offered
        for name, packets in other.not_subscribed.items():
            self.not_subscribed[name] = \
                self.not_subscribed.get(name, 0) + packets

    def to_dict(self) -> Dict:
        out = super().to_dict()
        # The tenant breakdown joins the snapshot only when the run is
        # observably multi-tenant — a single unmetered tenant's
        # snapshot must stay byte-identical to a non-tenancy run.
        if len(self.per_tenant) > 1 or self.tenant_shed:
            out["epoch"] = self.epoch
            out["offered"] = self.offered
            out["not_subscribed"] = dict(sorted(
                self.not_subscribed.items()))
            out["tenants"] = {
                name: stats.to_dict()
                for name, stats in sorted(self.per_tenant.items())
            }
            out["tenant_shed"] = {
                name: ledger.to_dict()
                for name, ledger in sorted(self.tenant_shed.items())
            }
        return out


class TenantCorePipeline:
    """The per-core data path of every run.

    Exposes the surface of a :class:`CorePipeline` that the ingest loop,
    the workers and the monitor drive, plus the table verbs:
    :meth:`adopt`, ``table``, ``epoch`` and ``solo``.

    ``pressure_mbps`` is the run's pressure budget (None: none).
    ``compiled`` maps tenant name to ``(spec, Subscription, executor)``
    (executor None: an inline one per pipeline), compiled once per
    runtime and shared — not copied — by its multiplexers, so every
    core's filters are the same objects and key the same verdicts.
    """

    def __init__(self, core_id: int, table: FilterTable, config,
                 initial_overload_rung: int = 0,
                 pressure_mbps: Optional[float] = None,
                 compiled: Optional[dict] = None) -> None:
        self.core_id = core_id
        self.config = config
        #: The adopted filter table: every spec this core knows, and
        #: which are active, in activation order.
        self.table = table
        self._compiled = compiled if compiled is not None else {}
        self._initial_rung = initial_overload_rung
        #: The active tenants' pipelines, by name.
        self._pipes: Dict[str, CorePipeline] = {}
        #: Dropped tenants' pipelines: no further rows, but they keep
        #: expiring/sampling and drain at end of run ((name, pipeline)
        #: pairs — a name can drain more than once if re-added).
        self._draining: List[Tuple[str, CorePipeline]] = []
        #: Quota / pressure ledgers, created lazily at first shed so an
        #: unmetered tenant's snapshot carries no extra state at all.
        self._tenant_shed: Dict[str, LossLedger] = {}
        #: An overload ladder or a span recorder observes every row a
        #: tenant is offered (see :meth:`process_batch_rows`).
        self._observed = config.overload_policy != "off" or \
            config.span_sample > 0 or config.flight_recorder_depth > 0
        self._pressure_share = (
            pressure_mbps * 1e6 / 8.0 * _WINDOW_S / config.cores
            if pressure_mbps is not None else None)
        # -- metering state (virtual-second windows) -------------------
        self._window = 0
        self._win_used: Dict[str, float] = {}
        self._win_bytes: Dict[str, float] = {}
        self._downgraded: set = set()
        self._mux_now = 0.0
        #: Packets handed to this multiplexer so far, and per tenant
        #: how many of them came while it was out of the table: plus
        #: the count at each ``add``, minus the count at each ``drop``
        #: (so a dropped tenant's is short by the count at the end).
        self._offered = 0
        self._away: Dict[str, int] = {}
        for name in table.active:
            self._activate(name)
        self._rebuild()

    @property
    def epoch(self) -> int:
        """The epoch of the adopted filter table."""
        return self.table.epoch

    # -- construction / swaps ------------------------------------------
    def _activate(self, name: str) -> None:
        spec = self.table.by_name[name]
        compiled = self._compiled.get(name)
        if compiled is None or compiled[0] != spec:
            compiled = (spec, build_tenant_subscription(spec, self.config),
                        None)
            self._compiled[name] = compiled
        _spec, sub, executor = compiled
        self._pipes[name] = CorePipeline(
            self.core_id, sub, tenant_config(spec, self.config),
            executor=executor, initial_overload_rung=self._initial_rung)
        self._away[name] = self._away.get(name, 0) + self._offered

    def _rebuild(self) -> None:
        """The metering plan, the pass-through and the shared classifier
        for the current active set (one rebuild per epoch swap)."""
        names = self.table.active
        self._quota_share: Dict[str, float] = {}
        for name in names:
            quota = self.table.by_name[name].quota_bytes_per_sec
            if quota is not None:
                self._quota_share[name] = \
                    quota * _WINDOW_S / self.config.cores
                self._win_used.setdefault(name, 0.0)
        self._metered = bool(self._quota_share) or \
            self._pressure_share is not None
        #: The lone active tenant's pipeline while nothing is metered —
        #: all this multiplexer then runs — or None.
        self.solo = self._pipes[names[0]] \
            if len(names) == 1 and not self._metered else None
        #: The table's verdict cache key: its filters, lane by lane.
        self._filters = tuple(self._pipes[n].sub.filter for n in names)
        self._shared = SharedFilter(names, self._filters) \
            if names and self.solo is None else None
        for lane, name in enumerate(names):
            pipe = self._pipes[name]
            pipe.verdicts_of = pipe._own_verdicts if self._shared is None \
                else self._shared_verdicts
            pipe.lane = lane
        #: Every tenant pipeline by name — active first (in active
        #: order), then draining (in drop order) — and the pipelines.
        self._named = [(n, self._pipes[n]) for n in names] + self._draining
        self._all = [tp for _name, tp in self._named]

    def adopt(self, table: FilterTable) -> None:
        """Adopt the successor filter table ``table``: tenants it no
        longer lists move to draining, tenants it adds activate (in
        ``table.active`` order).

        Idempotent on the epoch number: a replayed bump (supervised
        restart re-delivers unacked batches verbatim) whose epoch this
        core already adopted — or was re-seeded past — is a no-op.
        """
        if table.epoch <= self.epoch:
            return
        for name in self.table.active:
            if name not in table.active:
                self._draining.append((name, self._pipes.pop(name)))
                self._away[name] -= self._offered
                self._win_used.pop(name, None)
                self._downgraded.discard(name)
        self.table = table
        for name in table.active:
            if name not in self._pipes:
                self._activate(name)
        self._rebuild()

    # -- metering -------------------------------------------------------
    def _shed_ledger(self, name: str) -> LossLedger:
        ledger = self._tenant_shed.get(name)
        if ledger is None:
            ledger = LossLedger(self.core_id)
            self._tenant_shed[name] = ledger
        return ledger

    def _rollover(self, new_window: int) -> None:
        """A virtual-second window closed: pick next window's
        downgraded set (heaviest offered load first, ties by name)
        from the *finished* window's per-tenant bytes."""
        if self._pressure_share is not None:
            if new_window == self._window + 1 and self._win_bytes:
                total = sum(self._win_bytes.values())
                share = self._pressure_share
                if total > share:
                    downgraded = set()
                    remaining = total
                    for name in sorted(
                            self._win_bytes,
                            key=lambda n: (-self._win_bytes[n], n)):
                        if remaining <= share:
                            break
                        downgraded.add(name)
                        remaining -= self._win_bytes[name]
                    self._downgraded = downgraded
                else:
                    self._downgraded = set()
            else:
                # The window before ``new_window`` was empty: pressure
                # has passed, nobody stays downgraded.
                self._downgraded = set()
        self._win_bytes = {}
        for name in self._win_used:
            self._win_used[name] = 0.0
        self._window = new_window

    def _meter(self, group, cols, vecs, feeds) -> None:
        """One pass over a burst's rows from one column batch deciding,
        per active tenant, which its pipeline receives. Shed rows are
        charged to the tenant's private ledger (``packets_seen`` counts
        only sheds there; ``Runtime.tenant_ledgers`` adds what
        the tenant's pipelines were fed, on every core).

        Quota and pressure charge a tenant only for rows its *own*
        packet filter matches (per the shared verdicts; a row they leave
        unclassified takes the tenant's own ``packet_filter``, as its
        pipeline would). Rows irrelevant to a tenant ride through
        unmetered — the tenant's pipeline refuses them exactly as it
        would solo, so co-tenant traffic can never eat a tenant's budget
        or mark it "heavy".
        """
        window = self._window
        wires = cols.wire
        track_pressure = self._pressure_share is not None
        quota_share = self._quota_share
        tenants = list(zip(self.table.active, self._filters, vecs, feeds))
        for row in group:
            mbuf, _queue, _cols, i = row
            w = int(mbuf.timestamp)
            if w > window:
                self._rollover(w)
                window = w
            wire = wires[i]
            for name, own, vec, feed in tenants:
                verdict = vec[i]
                relevant = own.packet_filter(mbuf).matched \
                    if verdict is None else verdict != NO_MATCH
                if relevant:
                    if track_pressure:
                        self._win_bytes[name] = \
                            self._win_bytes.get(name, 0.0) + wire
                    if name in self._downgraded:
                        ledger = self._shed_ledger(name)
                        ledger.packets_seen += 1
                        ledger.record_shed(_PRESSURE_RUNG,
                                           "tenant_pressure", wire)
                        continue
                    share = quota_share.get(name)
                    if share is not None:
                        used = self._win_used[name]
                        if used + wire > share:
                            ledger = self._shed_ledger(name)
                            ledger.packets_seen += 1
                            ledger.record_shed(_QUOTA_RUNG,
                                               "tenant_quota", wire)
                            continue
                        self._win_used[name] = used + wire
                feed.append(row)

    # -- the data path --------------------------------------------------
    def _shared_verdicts(self, cols) -> list:
        """The table's verdicts on ``cols``, one lane per active tenant,
        cached on the batch under the tuple of active filters — equal
        on every core, so each chunk is classified once per table."""
        key = self._filters
        if cols.verdicts_by != key:
            vecs = self._shared.classify_batch(cols)
            cols.verdicts = vecs if vecs is not None \
                else [[None] * cols.n] * len(key)
            cols.verdicts_by = key
        return cols.verdicts

    def process_batch(self, mbufs: list) -> None:
        """What a parallel worker calls with the burst it was sent:
        decode it, then run its rows."""
        if mbufs:
            cols = decode_mbufs(mbufs, self.config.columnar)
            self.process_batch_rows(list(zip(
                mbufs, repeat(None), repeat(cols), range(len(mbufs)))))

    def process_batch_rows(self, rows) -> None:
        """The one data path: a burst of ``(mbuf, queue, cols, i)``
        rows as :func:`~repro.packet.columnar.ingress_rows` yields them.
        A pass-through hands them to the lone tenant as they are.
        Otherwise every tenant reads its verdicts off the table's
        classifier and is fed the rows themselves.

        A tenant's loop sees only the rows it does not refuse — the
        rest are counted in one call — unless refusing in bulk would
        change what the tenant computes: an overload ladder ticks on
        *every* offered row's timestamp and reads the cycles charged so
        far; a span recorder opens one span per burst, refused rows and
        empty bursts included; with out-of-order timestamps a refused
        row can move the tenant's running-maximum clock; and under
        metering the burst may end on a row this tenant was never
        offered.
        """
        if not rows:
            return
        n = len(rows)
        self._offered += n
        solo = self.solo
        if solo is not None:  # its clock covers the burst: ours need not
            solo.process_batch_rows(rows)
            return
        last_ts = rows[-1][0].timestamp
        if last_ts > self._mux_now:
            self._mux_now = last_ts
        active = self.table.active
        if not active:
            return
        pipes = [self._pipes[name] for name in active]
        if self._metered:
            feeds: List[list] = [[] for _ in active]
            for cols, group in groupby(rows, _row_cols):
                self._meter(list(group), cols, self._shared_verdicts(cols),
                            feeds)
            for pipeline, feed in zip(pipes, feeds):
                pipeline.process_batch_rows(feed)
            return
        bulk = not self._observed
        if bulk:
            stamps = [row[0].timestamp for row in rows]
            bulk = stamps == sorted(stamps)
        if not bulk:
            for pipeline in pipes:
                pipeline.process_batch_rows(rows)
            return
        feeds = [[] for _ in active]
        wire_total = 0
        for cols, group in groupby(rows, _row_cols):
            group = list(group)
            idxs = [row[3] for row in group]
            wire = cols.wire
            wire_total += sum([wire[i] for i in idxs])
            for feed, vec in zip(feeds, self._shared_verdicts(cols)):
                feed += [row for row, i in zip(group, idxs)
                         if vec[i] != NO_MATCH]
        for pipeline, feed in zip(pipes, feeds):
            if feed:
                pipeline.process_batch_rows(feed)
            if len(feed) < n:
                pipeline.count_refused(
                    n - len(feed),
                    wire_total - sum([row[2].wire[row[3]] for row in feed]),
                    last_ts)

    # -- lifecycle forwarding -------------------------------------------
    def advance_time(self, now: float) -> None:
        if now > self._mux_now:
            self._mux_now = now
        for tp in self._all:
            tp.advance_time(now)

    def drain(self) -> None:
        for tp in self._all:
            tp.drain()

    def sample_memory(self) -> None:
        for tp in self._all:
            tp.sample_memory()

    def set_span_ctx(self, ctx) -> None:
        for tp in self._all:
            tp.set_span_ctx(ctx)

    def fold_fault_counters(self) -> None:
        for tp in self._all:
            tp.fold_fault_counters()

    # -- monitoring surface ---------------------------------------------
    @property
    def now(self) -> float:
        return max([self._mux_now] + [tp.now for tp in self._all])

    @property
    def memory_bytes(self) -> int:
        return sum(tp.memory_bytes for tp in self._all)

    @property
    def live_connections(self) -> int:
        return sum(tp.live_connections for tp in self._all)

    @property
    def overload_rung(self) -> int:
        return max([0] + [tp.overload_rung for tp in self._all])

    @property
    def overload_failfast_at(self) -> Optional[float]:
        tripped = None  # read per burst: a loop, not a list
        for tp in self._all:
            at = tp.overload_failfast_at
            if at is not None and (tripped is None or at < tripped):
                tripped = at
        return tripped

    @property
    def stats(self) -> TenantStatsBundle:
        """A fresh merged snapshot: whole-core totals on the CoreStats
        face, the per-tenant breakdown underneath."""
        bundle = TenantStatsBundle(self.config.cost_model,
                                   telemetry=self.config.telemetry)
        for name, tp in self._named:
            tp_stats = tp.stats
            CoreStats.merge(bundle, tp_stats)  # the whole-core face
            mine = bundle.per_tenant.get(name)
            if mine is None:
                mine = CoreStats(self.config.cost_model,
                                 telemetry=self.config.telemetry)
                bundle.per_tenant[name] = mine
            mine.merge(tp_stats)
            if bundle.spans is None and tp_stats.spans is not None:
                bundle.spans = tp_stats.spans
        for name, ledger in self._tenant_shed.items():
            snap = LossLedger(self.core_id)
            snap.merge(ledger)
            bundle.tenant_shed[name] = snap
            # The core's ledger states everything not analyzed on it; a
            # tenant's own (``per_tenant``) stays its pipeline's ladder.
            if bundle.overload is None:
                bundle.overload = LossLedger(core_id=-1)
            bundle.overload.merge(ledger)
        bundle.offered = self._offered
        for name in bundle.per_tenant:
            bundle.not_subscribed[name] = self._away[name] + (
                0 if name in self._pipes else self._offered)
        if len(self._named) > 1:
            bundle.memory_samples = _combine_memory_samples(
                bundle.memory_samples)
        bundle.epoch = self.epoch
        return bundle


def _combine_memory_samples(samples):
    """Fold per-tenant memory samples taken at the same virtual instant
    into one whole-core sample (sum of live connections and bytes), so
    the aggregate peak reflects the core's true footprint."""
    combined: Dict[float, List[int]] = {}
    for ts, conns, mem in samples:
        entry = combined.get(ts)
        if entry is None:
            combined[ts] = [conns, mem]
        else:
            entry[0] += conns
            entry[1] += mem
    return [(ts, entry[0], entry[1])
            for ts, entry in sorted(combined.items())]
