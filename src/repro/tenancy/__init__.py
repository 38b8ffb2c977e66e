"""Multi-tenant subscriptions.

Retina's future work names concurrent subscriptions as the step beyond
the single-experiment model. Every runtime deploys a versioned,
atomically swappable :class:`FilterTable` — a plain subscription is a
one-entry table — and :class:`TenantRuntime` fills it with N named
tenants. The table compiles each tenant once per process and merges
the active filters into one :class:`SharedFilter` per table (a
common-prefix trie with per-layer predicate dedup), built at the first
burst it classifies, so each packet is classified once and verdicts
fan out per tenant. ``subscribe``/``unsubscribe`` publish a new epoch
that every worker adopts at a burst boundary, and each core's row loop
hands every packet to the tenant lanes that matched it. Each lane has
its own conntrack, stats, loss ledger, quota and callback quarantine,
so a noisy or crashing tenant cannot perturb the rest.

See docs/MULTITENANT.md for the epoch-swap protocol, quota semantics,
and the isolation guarantees the test suite pins down.
"""

from repro.tenancy.spec import (
    ReconfigureEvent,
    TenantSpec,
    load_subscriptions,
    parse_reconfigure,
    parse_subscriptions,
)
from repro.tenancy.shared import SharedFilter, union_hardware
from repro.tenancy.table import FilterTable
from repro.core.stats import TenantStatsBundle
from repro.tenancy.runtime import TenantRuntime

__all__ = [
    "FilterTable",
    "ReconfigureEvent",
    "SharedFilter",
    "TenantRuntime",
    "TenantSpec",
    "TenantStatsBundle",
    "load_subscriptions",
    "parse_reconfigure",
    "parse_subscriptions",
    "union_hardware",
]
