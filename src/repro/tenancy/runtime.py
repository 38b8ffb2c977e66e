"""The multi-tenant constructor's older name.

A :class:`TenantRuntime` is a :class:`~repro.core.runtime.Runtime`
built with ``tenants``: its filter table holds N named
:class:`~repro.tenancy.spec.TenantSpec` entries instead of one
subscription. Everything it runs is the runtime's own; this class only
keeps the constructor's positional form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.config import RuntimeConfig

from repro.core.runtime import Runtime
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
        super().__init__(config, ports=ports, tenants=specs, events=events)
