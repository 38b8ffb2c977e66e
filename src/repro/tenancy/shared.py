"""The shared multi-tenant packet classifier.

N tenants' packet-layer predicate tries merge into one
:class:`~repro.filter.batch.BurstTree` keyed by predicate text
(per-layer predicate dedup): common prefixes — the ``eth``/``ipv4``/
``tcp`` chains every filter starts with — are tested *once* per burst,
and each merged node carries the rank-tagged verdict of every tenant
for which it is a report node. One classification of a decoded burst
therefore yields every tenant's verdict vector, which is what makes
classification cost sublinear in tenant count (the ``tenants8``
workload of ``benchmarks/perf``). The table's filter mode picks the
execution: the tree's generated function in ``codegen`` mode, its
interpreted walk in ``interp`` mode.

Correctness contract (pinned by ``tests/test_tenancy_fuzz.py``, and
against the scalar filters by ``tests/test_burst_tree.py``): for
every tenant and every fast row of a decoded batch, the verdict fanned
out of the shared tree is *identical* — same terminal flag, same
tenant-native trie node id — to that tenant's own
:class:`~repro.filter.CompiledFilter` batch verdict. A slow row (one
the columns cannot express) is left unclassified, and takes the
tenant's own scalar ``packet_filter``. Verdicts carry tenant-native
node ids precisely so the per-tenant connection and session sub-filters
downstream need no changes at all.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import TenancyError
from repro.filter import CompiledFilter
from repro.filter.batch import BurstTree
from repro.filter.codegen import compile_burst_classifier
from repro.filter.hardware import HardwareFilter


def union_hardware(filters: Sequence[CompiledFilter]) -> HardwareFilter:
    """The union flow-rule set admitting every tenant's traffic.

    Installed once at runtime construction for all tenants the run will
    ever know (including dormant late joiners), so a mid-run epoch swap
    never has to touch the NIC — the hardware plane stays immutable
    while the software table swaps.
    """
    rules = []
    seen: set = set()
    for compiled in filters:
        hw = compiled.hardware
        if hw.accept_all:
            return HardwareFilter([], accept_all=True)
        for rule in hw.rules:
            key = rule.describe()
            if key not in seen:
                seen.add(key)
                rules.append(rule)
    if not rules:
        return HardwareFilter([], accept_all=True)
    return HardwareFilter(rules, accept_all=False)


class SharedFilter:
    """N compiled tenant filters merged into one shared classifier."""

    def __init__(self, names: Sequence[str],
                 filters: Sequence[CompiledFilter]) -> None:
        if len(names) != len(filters):
            raise TenancyError("names and filters must pair up")
        if not filters:
            raise TenancyError("a shared filter needs >= 1 tenant")
        registry = filters[0].registry
        for compiled in filters:
            if compiled.registry is not registry:
                raise TenancyError(
                    "all tenants must share one field registry")
        self.names = list(names)
        self.filters = list(filters)
        self.registry = registry
        tree = BurstTree.of_tries(
            [compiled.trie for compiled in filters], registry)
        #: Packet nodes of the tenants' own tries, and of the merged
        #: tree (the dedup win the bench reports).
        self.tenant_packet_nodes = tree.lane_nodes
        self.shared_packet_nodes = len(tree.nodes) - 1
        #: One decoded-column classification yields every tenant's
        #: verdict iff every tenant's own trie is batch-expressible.
        self.batch_supported = tree.supported
        self._classify = None
        if tree.supported:
            # The runtime compiles every tenant in its one filter mode.
            classify = compile_burst_classifier(tree) \
                if filters[0].mode == "codegen" else tree.interpret
            # A one-lane tree classifies into its lane's vector alone.
            self._classify = classify if len(filters) > 1 \
                else lambda cols: [classify(cols)]

    def classify_batch(self, cols) -> Optional[List[List[int]]]:
        """One decoded burst, every tenant's encoded verdict vector.

        Returns one ``ColumnarBatch``-aligned verdict list per tenant:
        ``(node_id << 1) | terminal`` or ``NO_MATCH`` for a fast row
        (a slow row's entry means nothing, like every batch packet
        filter's). Returns None when some tenant's predicates are not
        batch-expressible.
        """
        classify = self._classify
        return None if classify is None else classify(cols)
