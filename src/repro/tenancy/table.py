"""The versioned, atomically swappable filter table.

A :class:`FilterTable` is an *immutable* snapshot of the tenant set at
one epoch: the ordered specs and which of them are active. Every
runtime deploys one — a plain subscription is a one-entry table.
``subscribe``/``unsubscribe`` never mutate a table — they build the
successor table at ``epoch + 1``, so a swap is a single reference
assignment (atomic in CPython). The table is the only form a swap
takes: every core adopts the successor whole
(:meth:`~repro.core.pipeline.CorePipeline.adopt`), and a
parallel worker, which holds every spec from its start, is sent only
the successor's ``(epoch, active)``.

The table is also the one place a deployment compiles: each spec into
its :class:`~repro.core.subscription.Subscription`, in the table's
filter mode, at first use (successors share them, and the NIC's union
flow rules are read off them), and its active set into one burst
classifier at its first classified burst, shared by every core that
adopts it. Under ``spawn`` a table pickles without that state and the
worker compiles its own; under ``fork`` the worker inherits it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, \
    Sequence

if TYPE_CHECKING:  # avoid a config<->core import cycle at runtime
    from repro.config import RuntimeConfig
from repro.core.subscription import Subscription
from repro.errors import TenancyError
from repro.filter.hardware import HardwareFilter
from repro.tenancy.shared import SharedFilter, union_hardware
from repro.tenancy.spec import TenantSpec


class FilterTable:
    """One epoch of the multi-tenant subscription set."""

    def __init__(self, specs: Sequence[TenantSpec], epoch: int = 0,
                 active: Optional[Sequence[str]] = None,
                 filter_mode: str = "codegen") -> None:
        self.specs: List[TenantSpec] = list(specs)
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise TenancyError(f"duplicate tenant names in {names}")
        self.by_name: Dict[str, TenantSpec] = {
            spec.name: spec for spec in self.specs}
        self.epoch = epoch
        if active is None:
            active = [spec.name for spec in self.specs if spec.start]
        self.active: List[str] = list(active)
        for name in self.active:
            if name not in self.by_name:
                raise TenancyError(f"active tenant {name!r} unknown")
        if not self.specs:
            raise TenancyError("a filter table needs >= 1 tenant spec")
        self.filter_mode = filter_mode
        #: Tenant name → ``(spec, Subscription, executor)`` (executor
        #: None: an inline one per lane), shared with every successor.
        self._compiled: Dict[str, tuple] = {}
        #: The active set's burst classifier, built at first use.
        self._classify: Optional[Callable] = None

    @classmethod
    def of(cls, subscription: Subscription, config: "RuntimeConfig",
           executor=None) -> "FilterTable":
        """A plain subscription as the one-entry table a core runs,
        compiled as ``subscription`` itself. The run-level fault plan is
        the entry's own: its lane's injector is the run's."""
        entry = TenantSpec(
            "subscription", subscription.filter.text,
            subscription.datatype, subscription.callback,
            identify_services=subscription.identify_services,
            fault_plan=config.fault_plan)
        table = cls([entry], filter_mode=config.filter_mode)
        table._compiled[entry.name] = (entry, subscription, executor)
        return table

    # -- compilation -----------------------------------------------------
    def compiled(self, name: str) -> tuple:
        """Tenant ``name``'s spec, subscription and executor, compiling
        the spec on first use (or when it changed under its name)."""
        spec = self.by_name[name]
        compiled = self._compiled.get(name)
        if compiled is None or compiled[0] != spec:
            compiled = (spec, Subscription(
                spec.filter, spec.datatype, spec.callback,
                filter_mode=self.filter_mode,
                identify_services=spec.identify_services), None)
            self._compiled[name] = compiled
        return compiled

    def hardware(self) -> HardwareFilter:
        """The union flow-rule set of every spec the table knows, dormant
        late joiners included: an epoch swap never touches the NIC."""
        return union_hardware([self.compiled(spec.name)[1].filter
                               for spec in self.specs])

    def classify(self, cols) -> List[list]:
        """Every active lane's verdict vector on the decoded burst
        ``cols`` (``None`` throughout where a filter has a predicate no
        column expresses), by the classifier built at the first call."""
        classify = self._classify
        if classify is None:
            filters = [self.compiled(n)[1].filter for n in self.active]
            if len(filters) > 1:
                classify = SharedFilter(self.active, filters).classify_batch
            else:
                batch = filters[0].packet_filter_batch
                classify = lambda cols: None if batch is None \
                    else [batch(cols)]
            self._classify = classify
        vecs = classify(cols)
        return vecs if vecs is not None \
            else [[None] * cols.n] * len(self.active)

    def __getstate__(self) -> dict:
        # Generated filters and classifiers do not pickle: a spawned
        # worker compiles its own.
        return {**self.__dict__, "_compiled": {}, "_classify": None}

    # -- swaps ---------------------------------------------------------
    def at(self, epoch: int, active: Sequence[str],
           specs: Optional[Sequence[TenantSpec]] = None) -> "FilterTable":
        """The table at ``(epoch, active)`` over ``specs`` (by default
        this one's), sharing this one's compiled tenants: a worker's
        epoch bump is ``table.at(epoch, active)``."""
        table = FilterTable(self.specs if specs is None else specs,
                            epoch, active, self.filter_mode)
        table._compiled = self._compiled
        return table

    def subscribe(self, spec: TenantSpec) -> "FilterTable":
        """The successor table with ``spec`` active.

        A known (dormant or previously dropped) name re-activates with
        its stored spec — the caller may pass an updated spec under the
        same name only if the tenant is inactive.
        """
        if spec.name in self.active:
            raise TenancyError(
                f"tenant {spec.name!r} is already subscribed")
        specs = [s for s in self.specs if s.name != spec.name]
        specs.append(spec)
        return self.at(self.epoch + 1, self.active + [spec.name], specs)

    def unsubscribe(self, name: str) -> "FilterTable":
        """The successor table with tenant ``name`` inactive. The spec
        stays known (it can re-subscribe), and the runtime keeps the
        tenant's in-flight connections draining under their admission
        epoch."""
        if name not in self.active:
            raise TenancyError(f"tenant {name!r} is not subscribed")
        return self.at(self.epoch + 1,
                       [n for n in self.active if n != name])
