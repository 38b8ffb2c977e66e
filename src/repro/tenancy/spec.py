"""Tenant subscription specs and the subscriptions-file format.

A tenant is one named subscription: a filter, a data type, a callback,
and optional robustness knobs (ingress quota, callback-error policy, a
private fault plan for tests). A parallel worker receives every spec
once, inside the filter table its worker spec carries (inherited under
``fork``); an epoch swap names tenants and never ships a spec.

The subscriptions file (CLI ``--subscriptions``) is JSON: either a list
of tenant objects or ``{"tenants": [...]}``. Each object::

    {"name": "web", "filter": "ipv4 and tcp.port = 80",
     "datatype": "connection", "callback": "count",
     "quota_mbps": 50.0, "start": true}

``callback`` is ``null``/"none" (deliver without a user function),
``"count"`` (a no-op counting stub), or a ``"module:function"`` dotted
path imported at load time. ``start: false`` defines a tenant that is
dormant until a ``--reconfigure-at T:add:name`` event activates it.
"""

from __future__ import annotations

import importlib
import json
import re
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.errors import TenancyError
from repro.resilience.faults import FaultPlan

#: Tenant names label Prometheus families and appear in
#: ``--reconfigure-at`` event strings (colon-separated), so keep them
#: to a conservative identifier alphabet.
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


def count_callback(obj) -> None:
    """The "count" callback: deliveries are tallied by the runtime's
    stats counters; the user function itself does nothing."""


def resolve_callback(spec: Optional[str]) -> Optional[Callable]:
    """Resolve a subscriptions-file callback spec to a callable."""
    if spec is None or spec == "none":
        return None
    if spec == "count":
        return count_callback
    if ":" not in spec:
        raise TenancyError(
            f"callback spec {spec!r} is not 'none', 'count', or a "
            f"'module:function' path")
    mod_name, _, fn_name = spec.partition(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError as exc:
        raise TenancyError(
            f"callback module {mod_name!r} not importable: {exc}") from exc
    fn = getattr(mod, fn_name, None)
    if not callable(fn):
        raise TenancyError(
            f"callback {spec!r} does not name a callable")
    return fn


@dataclass(frozen=True)
class TenantSpec:
    """One named subscription in a multi-tenant filter table."""

    name: str
    filter: str = ""
    datatype: str = "packet"
    callback: Optional[Callable] = None
    #: Per-tenant ingress budget in megabits per *virtual* second; rows
    #: beyond the budget are shed (and attributed to this tenant in its
    #: loss ledger) before they reach the tenant's pipeline. None means
    #: unmetered. The budget is split evenly across cores, mirroring
    #: the shared-nothing overload ladder.
    quota_mbps: Optional[float] = None
    #: Active at epoch 0. Dormant tenants (False) are compiled into the
    #: union hardware filter up front but join classification only when
    #: an ``add`` event activates them.
    start: bool = True
    identify_services: bool = False
    #: Per-tenant overrides of the runtime-wide callback-error policy;
    #: None inherits :class:`~repro.config.RuntimeConfig`.
    callback_error_policy: Optional[str] = None
    callback_error_budget: Optional[int] = None
    #: Tenant-scoped fault plan (tests): injected only into this
    #: tenant's pipelines, so quarantine stays tenant-local.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise TenancyError(
                f"tenant name {self.name!r} must match "
                f"{_NAME_RE.pattern} (it labels metrics and CLI events)")
        if self.quota_mbps is not None and self.quota_mbps <= 0:
            raise TenancyError(
                f"tenant {self.name!r}: quota_mbps must be > 0 "
                f"(omit it for an unmetered tenant)")
        if self.callback_error_policy not in (None, "raise", "isolate"):
            raise TenancyError(
                f"tenant {self.name!r}: callback_error_policy must be "
                f"'raise' or 'isolate'")

    @property
    def quota_bytes_per_sec(self) -> Optional[float]:
        if self.quota_mbps is None:
            return None
        return self.quota_mbps * 1e6 / 8.0

    def with_(self, **kwargs) -> "TenantSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ReconfigureEvent:
    """A scheduled live reconfiguration: at virtual time ``time``,
    ``add`` (activate) or ``drop`` (deactivate) tenant ``name``.

    Events apply at a deterministic packet boundary: the first ingress
    packet with timestamp >= ``time`` observes the new epoch, on both
    backends at any worker count.
    """

    time: float
    action: str
    name: str

    def __post_init__(self) -> None:
        if self.action not in ("add", "drop"):
            raise TenancyError(
                f"reconfigure action {self.action!r} must be "
                f"'add' or 'drop'")
        if self.time < 0:
            raise TenancyError("reconfigure time must be >= 0")


def parse_reconfigure(text: str) -> ReconfigureEvent:
    """Parse one ``<virtual-time>:<add|drop>:<name>`` event string."""
    parts = text.split(":")
    if len(parts) != 3:
        raise TenancyError(
            f"reconfigure spec {text!r} is not "
            f"<virtual-time>:<add|drop>:<name>")
    raw_time, action, name = parts
    try:
        time = float(raw_time)
    except ValueError:
        raise TenancyError(
            f"reconfigure spec {text!r}: {raw_time!r} is not a "
            f"virtual-time float") from None
    event = ReconfigureEvent(time=time, action=action, name=name)
    if not _NAME_RE.match(name):
        raise TenancyError(
            f"reconfigure spec {text!r}: bad tenant name {name!r}")
    return event


def parse_subscriptions(text: str,
                        source: str = "<subscriptions>",
                        ) -> List[TenantSpec]:
    """Parse the JSON subscriptions document into tenant specs."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise TenancyError(f"{source}: not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("tenants")
    if not isinstance(doc, list) or not doc:
        raise TenancyError(
            f"{source}: expected a non-empty JSON list of tenant "
            f"objects (or {{\"tenants\": [...]}})")
    specs: List[TenantSpec] = []
    seen: set = set()
    allowed = {"name", "filter", "datatype", "callback", "quota_mbps",
               "start", "identify_services", "callback_error_policy",
               "callback_error_budget"}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise TenancyError(
                f"{source}: tenant #{i} is not a JSON object")
        unknown = set(entry) - allowed
        if unknown:
            raise TenancyError(
                f"{source}: tenant #{i} has unknown keys "
                f"{sorted(unknown)} (allowed: {sorted(allowed)})")
        name = entry.get("name")
        if not isinstance(name, str):
            raise TenancyError(f"{source}: tenant #{i} needs a "
                               f"string 'name'")
        if name in seen:
            raise TenancyError(
                f"{source}: duplicate tenant name {name!r}")
        seen.add(name)
        specs.append(TenantSpec(
            name=name,
            filter=entry.get("filter", ""),
            datatype=entry.get("datatype", "packet"),
            callback=resolve_callback(entry.get("callback")),
            quota_mbps=entry.get("quota_mbps"),
            start=bool(entry.get("start", True)),
            identify_services=bool(entry.get("identify_services",
                                             False)),
            callback_error_policy=entry.get("callback_error_policy"),
            callback_error_budget=entry.get("callback_error_budget"),
        ))
    return specs


def load_subscriptions(path: str) -> List[TenantSpec]:
    """Load and parse a subscriptions file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TenancyError(
            f"subscriptions file {path!r} unreadable: {exc}") from exc
    return parse_subscriptions(text, source=path)


def check_events(events: Sequence[ReconfigureEvent],
                 specs: Sequence[TenantSpec]) -> None:
    """Validate a reconfiguration schedule against the tenant set:
    every event must name a known tenant, and the add/drop sequence per
    tenant must alternate sensibly from its ``start`` state."""
    known = {spec.name: spec.start for spec in specs}
    for event in sorted(events, key=lambda e: (e.time,)):
        active = known.get(event.name)
        if active is None:
            raise TenancyError(
                f"reconfigure event {event.time}:{event.action}:"
                f"{event.name} names an unknown tenant (define it in "
                f"the subscriptions file, with \"start\": false for a "
                f"late joiner)")
        if event.action == "add" and active:
            raise TenancyError(
                f"reconfigure event {event.time}:add:{event.name}: "
                f"tenant is already active at that point")
        if event.action == "drop" and not active:
            raise TenancyError(
                f"reconfigure event {event.time}:drop:{event.name}: "
                f"tenant is not active at that point")
        known[event.name] = event.action == "add"
