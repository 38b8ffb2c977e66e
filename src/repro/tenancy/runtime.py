"""The multi-tenant constructor: a runtime over a table of named tenants.

A :class:`TenantRuntime` is a :class:`~repro.core.runtime.Runtime`
whose filter table holds N named :class:`~repro.tenancy.spec.TenantSpec`
entries instead of one subscription. Everything it runs — the
multiplexer on every core, scheduled and live table swaps, the
per-tenant breakdown on ``report.tenancy`` — is the runtime's own; this
class only validates what it is handed and installs the union hardware
plane: every tenant the run will ever know, dormant late joiners
included, so an epoch swap never touches the NIC.

Swaps land atomically on burst boundaries: when a scheduled event is
due, the one ingest loop (:meth:`repro.core.runtime.Runtime.run`)
flushes every pending burst before it publishes, so the first packet
with ``timestamp >= event.time`` observes the new epoch on either
backend. Bumps ride the supervised redo log, so a worker crash inside
the swap window replays the bump (``adopt`` is idempotent).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.config import RuntimeConfig

from repro.core.runtime import Runtime
from repro.errors import TenancyError
from repro.tenancy.spec import ReconfigureEvent, TenantSpec


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
        #: Subscriptions and callback executors are per tenant, inside
        #: the pipelines; the runtime itself has neither.
        self.subscription = self.executor = None
        # One immutable hardware plane for the whole tenant universe
        # (hardware None): dormant tenants are compiled in up front so
        # activating them later never touches the NIC.
        self._deploy(config, ports, specs, events, None, {})
