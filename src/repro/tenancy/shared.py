"""The shared multi-tenant packet classifier.

N tenants' packet-layer predicate tries merge into one trie keyed by
predicate text (per-layer predicate dedup): common prefixes — the
``eth``/``ipv4``/``tcp`` chains every filter starts with — are walked
*once* per packet, and each merged node carries the list of tenants for
which it is a report node. One walk therefore yields every tenant's
verdict, which is what makes classification cost sublinear in tenant
count (the ``tenants8`` workload of ``benchmarks/perf``).

Correctness contract (pinned by ``tests/test_tenancy_fuzz.py``): for
every tenant, the verdict fanned out of the shared walk is *identical*
— same matched/terminal flags, same tenant-native trie node id — to
running that tenant's own :class:`~repro.filter.CompiledFilter`
independently, on both the scalar and the columnar mask paths. Verdicts
carry tenant-native node ids precisely so the per-tenant connection and
session sub-filters downstream need no changes at all.

The single-tenant walkers return the *first* matching report in their
DFS emission order (packet children before the node's own report; see
``codegen._emit_packet_children`` / ``interp._walk_packet``). The
merged trie cannot replay N different DFS orders in one walk, so each
tenant's report nodes are ranked by that emission order at build time
and the walk keeps, per tenant, the matched report with the *minimum
rank* — which is exactly the first-match result. Tenant tries are
merged as built (after ``_order_children``); cross-tenant subsumption
pruning is deliberately *not* applied — tenant A's ``ipv4`` terminal
must not swallow tenant B's ``ipv4 and tcp`` subtree.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import TenancyError
from repro.filter import CompiledFilter
from repro.filter.batch import (
    NO_MATCH,
    binary_supported,
    encode_verdict,
    make_pred_evaluator,
    trie_batch_supported,
    unary_kind,
)
from repro.filter.fields import Layer
from repro.filter.hardware import HardwareFilter
from repro.filter.interp import evaluate_binary
from repro.filter.result import FilterResult
from repro.filter.trie import TrieNode
from repro.packet.mbuf import Mbuf
from repro.packet.stack import parse_stack

_NO_PRIORITY = float("inf")


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


def _ladder_order(trie) -> Dict[int, int]:
    """Rank each packet-layer report node by the single-tenant walkers'
    first-match emission order: children before the node's own report."""
    order: Dict[int, int] = {}

    def is_report(node: TrieNode) -> bool:
        return node.terminal or any(
            child.layer is not Layer.PACKET for child in node.children)

    def walk(node: TrieNode) -> None:
        for child in node.children:
            if child.layer is Layer.PACKET:
                walk(child)
        if node.parent is not None and is_report(node):
            order[node.id] = len(order)

    walk(trie.root)
    return order


class _MergedNode:
    """One predicate in the merged trie, tagged with every tenant for
    which this path is a report."""

    __slots__ = ("pred", "children", "_child_by_key", "tags",
                 "batch_kind", "batch_eval")

    def __init__(self, pred) -> None:
        self.pred = pred
        self.children: List["_MergedNode"] = []
        self._child_by_key: Dict[str, "_MergedNode"] = {}
        #: ``(tenant_idx, rank, encoded_verdict, FilterResult)`` per
        #: tenant whose own trie reports at this path.
        self.tags: List[Tuple[int, int, int, FilterResult]] = []
        self.batch_kind = None
        self.batch_eval: Optional[Callable] = None

    def child_for(self, pred) -> "_MergedNode":
        key = str(pred)
        child = self._child_by_key.get(key)
        if child is None:
            child = _MergedNode(pred)
            self._child_by_key[key] = child
            self.children.append(child)
        return child


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
        count = len(filters)
        #: Tenants whose trie root is terminal (match-all filters):
        #: scalar verdict is terminal node 0 unconditionally, batch
        #: verdict is terminal for every fast row.
        self._match_all = [compiled.trie.root.terminal
                           for compiled in filters]
        self._base = [FilterResult.match_terminal(0) if match_all
                      else FilterResult.no_match()
                      for match_all in self._match_all]
        self._root = _MergedNode(None)
        self.tenant_packet_nodes = 0
        for idx, compiled in enumerate(filters):
            if not self._match_all[idx]:
                self._merge(idx, compiled.trie.root, self._root,
                            _ladder_order(compiled.trie))
        self.shared_packet_nodes = self._prepare_batch()
        #: One decoded-column walk yields every tenant's verdict iff
        #: every tenant's own trie is batch-expressible (the same
        #: condition each CompiledFilter applies to itself).
        self.batch_supported = all(
            trie_batch_supported(compiled.trie, registry)
            for compiled in filters)

    # -- construction --------------------------------------------------
    def _merge(self, idx: int, src: TrieNode, dst: _MergedNode,
               order: Dict[int, int]) -> None:
        for child in src.children:
            if child.layer is not Layer.PACKET:
                continue
            self.tenant_packet_nodes += 1
            merged = dst.child_for(child.pred)
            rank = order.get(child.id)
            if rank is not None:
                result = (FilterResult.match_terminal(child.id)
                          if child.terminal
                          else FilterResult.match_non_terminal(child.id))
                merged.tags.append(
                    (idx, rank,
                     encode_verdict(child.id, child.terminal), result))
            self._merge(idx, child, merged, order)

    def _prepare_batch(self) -> int:
        """Precompute per-node batch narrowing strategy; returns the
        merged packet-node count (the dedup win the bench reports)."""
        total = 0
        stack = list(self._root.children)
        while stack:
            node = stack.pop()
            total += 1
            pred = node.pred
            if pred.is_unary:
                node.batch_kind = unary_kind(pred.protocol)
            elif binary_supported(pred, self.registry):
                node.batch_kind = "binary"
                node.batch_eval = make_pred_evaluator(pred,
                                                      self.registry)
            stack.extend(node.children)
        return total

    # -- scalar path ---------------------------------------------------
    def classify(self, mbuf: Mbuf) -> List[FilterResult]:
        """One packet, every tenant's packet-filter verdict.

        Mirrors ``interp.packet_filter`` over the merged trie: walk
        every matching branch once, keep each tenant's minimum-rank
        matched report.
        """
        results = list(self._base)
        stack = mbuf.stack
        if stack is None:
            stack = parse_stack(mbuf)
        if stack.eth is None:
            return results
        headers: Dict[str, Any] = {
            "eth": stack.eth,
            "ipv4": stack.ipv4,
            "ipv6": stack.ipv6,
            "tcp": stack.tcp,
            "udp": stack.udp,
            "icmp": stack.icmp,
        }
        best = [_NO_PRIORITY] * len(results)
        for child in self._root.children:
            self._walk(child, headers, best, results)
        return results

    def _walk(self, node: _MergedNode, headers: Dict[str, Any],
              best: List[float], results: List[FilterResult]) -> None:
        pred = node.pred
        obj = headers.get(pred.protocol)
        if obj is None:
            return
        if not pred.is_unary and \
                not evaluate_binary(pred, obj, self.registry):
            return
        for idx, rank, _verdict, result in node.tags:
            if rank < best[idx]:
                best[idx] = rank
                results[idx] = result
        for child in node.children:
            self._walk(child, headers, best, results)

    # -- columnar mask path --------------------------------------------
    def classify_batch(self, cols, rows: Optional[Sequence[int]] = None
                       ) -> Optional[List[List[Optional[int]]]]:
        """Rows ``rows`` of one decoded burst (all of it by default),
        every tenant's encoded verdict vector.

        Returns one ``ColumnarBatch``-aligned verdict list per tenant,
        meaningful at ``rows`` only: ``(node_id << 1) | terminal`` or
        ``NO_MATCH`` for a fast row, ``None`` — unclassified, like every
        batch packet filter leaves it — for a slow one. Returns None
        when some tenant's predicates are not batch-expressible.
        """
        if not self.batch_supported:
            return None
        n = cols.n
        fast = cols.fast
        if rows is None:
            rows = range(n)
        idxs = [i for i in rows if fast[i]]
        outs: List[List[Optional[int]]] = []
        ranks: List[List[float]] = []
        for match_all in self._match_all:
            out: List[Optional[int]] = [NO_MATCH] * n
            if match_all:
                for i in idxs:
                    out[i] = 1
            outs.append(out)
            ranks.append([_NO_PRIORITY] * n)
        if idxs:
            for child in self._root.children:
                self._walk_batch(child, cols, idxs, outs, ranks)
        if len(idxs) < len(rows):
            for i in rows:
                if not fast[i]:
                    for out in outs:
                        out[i] = None
        return outs

    def _walk_batch(self, node: _MergedNode, cols, idxs: List[int],
                    outs: List[List[int]],
                    ranks: List[List[float]]) -> None:
        kind = node.batch_kind
        if kind == "never":
            return  # fast rows are never e.g. ICMP
        if kind == "binary":
            evaluate = node.batch_eval
            idxs = [i for i in idxs if evaluate(cols, i)]
        elif kind != "always":
            col_name, want = kind
            column = getattr(cols, col_name)
            idxs = [i for i in idxs if column[i] == want]
        if not idxs:
            return
        for tenant, rank, verdict, _result in node.tags:
            out = outs[tenant]
            tenant_ranks = ranks[tenant]
            for i in idxs:
                if rank < tenant_ranks[i]:
                    tenant_ranks[i] = rank
                    out[i] = verdict
        for child in node.children:
            self._walk_batch(child, cols, idxs, outs, ranks)
