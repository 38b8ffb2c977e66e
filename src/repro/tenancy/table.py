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

The table compiles nothing: each core's pipeline
(:class:`~repro.core.pipeline.CorePipeline`) builds its own
shared classifier for the active set it adopts, so the feeder process
never pays compilation for filters only workers evaluate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import TenancyError
from repro.tenancy.spec import TenantSpec


class FilterTable:
    """One epoch of the multi-tenant subscription set."""

    def __init__(self, specs: Sequence[TenantSpec], epoch: int = 0,
                 active: Optional[Sequence[str]] = None) -> None:
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

    # -- swaps ---------------------------------------------------------
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
        return FilterTable(specs, epoch=self.epoch + 1,
                           active=self.active + [spec.name])

    def unsubscribe(self, name: str) -> "FilterTable":
        """The successor table with tenant ``name`` inactive. The spec
        stays known (it can re-subscribe), and the runtime keeps the
        tenant's in-flight connections draining under their admission
        epoch."""
        if name not in self.active:
            raise TenancyError(f"tenant {name!r} is not subscribed")
        return FilterTable(self.specs, epoch=self.epoch + 1,
                           active=[n for n in self.active if n != name])
