"""Multi-tenant subscriptions.

Retina's future work names concurrent subscriptions as the step beyond
the single-experiment model. Every runtime deploys a versioned,
atomically swappable :class:`FilterTable` — a plain subscription is a
one-entry table — and :class:`TenantRuntime` fills it with N named
tenants. Their filters merge into one :class:`SharedFilter` (a
common-prefix trie with per-layer predicate dedup, so each packet is
classified once and verdicts fan out per tenant); ``subscribe``/
``unsubscribe`` publish a new epoch that every worker adopts at a burst
boundary; and each tenant gets its own conntrack, stats, loss ledger,
quota and callback quarantine, so a noisy or crashing tenant cannot
perturb the rest.

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
from repro.tenancy.pipeline import TenantCorePipeline, TenantStatsBundle
from repro.tenancy.runtime import TenantRuntime

__all__ = [
    "FilterTable",
    "ReconfigureEvent",
    "SharedFilter",
    "TenantCorePipeline",
    "TenantRuntime",
    "TenantSpec",
    "TenantStatsBundle",
    "load_subscriptions",
    "parse_reconfigure",
    "parse_subscriptions",
    "union_hardware",
]
