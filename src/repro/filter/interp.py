"""Runtime-interpreted filter execution (the Appendix B baseline).

This walker evaluates the predicate trie structure on every invocation:
it looks up accessors with ``getattr``, dispatches on the operator enum,
and recurses over child lists — the work Retina's static code
generation eliminates. Semantics are identical to
:mod:`repro.filter.codegen` (property-tested in the suite); only the
execution strategy differs, which is exactly what Figure 12 measures.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Optional

from repro.filter.ast import Op, Predicate
from repro.filter.batch import BurstTree
from repro.filter.fields import DEFAULT_REGISTRY, FieldRegistry, Layer
from repro.filter.result import FilterResult
from repro.filter.trie import PredicateTrie, TrieNode
from repro.packet.mbuf import Mbuf
from repro.packet.stack import parse_stack


def evaluate_binary(pred: Predicate, obj: Any,
                    registry: FieldRegistry = DEFAULT_REGISTRY) -> bool:
    """Evaluate a binary predicate against a parsed object, interpreting
    the operator and accessor list at call time."""
    fdef = registry.field(pred.protocol, pred.field)
    for accessor in fdef.accessors:
        value = getattr(obj, accessor)()
        if value is None:
            continue
        if _compare(pred.op, value, pred.value):
            return True
    return False


def _compare(op: Op, lhs: Any, rhs: Any) -> bool:
    if op is Op.EQ:
        return lhs == rhs
    if op is Op.NE:
        return lhs != rhs
    if op is Op.LT:
        return lhs < rhs
    if op is Op.LE:
        return lhs <= rhs
    if op is Op.GT:
        return lhs > rhs
    if op is Op.GE:
        return lhs >= rhs
    if op is Op.IN:
        if isinstance(rhs, tuple):
            return rhs[0] <= lhs <= rhs[1]
        return lhs in rhs
    if op is Op.MATCHES:
        return re.search(rhs, lhs) is not None
    raise AssertionError(f"unhandled operator {op}")


class InterpretedFilter:
    """Trie-walking implementation of the three sub-filters."""

    def __init__(
        self,
        trie: PredicateTrie,
        registry: FieldRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.trie = trie
        self.registry = registry
        #: The trie's burst classifier, interpreted, or None when the
        #: trie uses predicates the columnar layer cannot express.
        tree = BurstTree.of_tries([trie], registry)
        self.packet_filter_batch: Optional[Callable] = \
            tree.interpret if tree.supported else None

    # -- packet filter -------------------------------------------------------
    def packet_filter(self, mbuf: Mbuf) -> FilterResult:
        """Walk the trie against the memoized parse-once stack.

        Both execution strategies (this walker and the generated code)
        read the same :class:`~repro.packet.stack.PacketStack` views,
        so their semantics — including skipping the transport layer on
        non-first IP fragments — stay aligned with the reference
        oracle by construction.
        """
        root = self.trie.root
        if root.terminal:
            return FilterResult.match_terminal(0)
        stack = mbuf.stack
        if stack is None:
            stack = parse_stack(mbuf)
        if stack.eth is None:
            return FilterResult.no_match()
        headers: Dict[str, Any] = {
            "eth": stack.eth,
            "ipv4": stack.ipv4,
            "ipv6": stack.ipv6,
            "tcp": stack.tcp,
            "udp": stack.udp,
            "icmp": stack.icmp,
        }
        for child in root.children:
            if child.layer is not Layer.PACKET:
                continue
            result = self._walk_packet(child, headers, parsed_unary=True)
            if result is not None:
                return result
        return FilterResult.no_match()

    def _walk_packet(
        self,
        node: TrieNode,
        headers: Dict[str, Any],
        parsed_unary: bool = False,
    ) -> Optional[FilterResult]:
        pred = node.pred
        if pred.is_unary and not parsed_unary:
            if headers.get(pred.protocol) is None:
                return None
        elif not pred.is_unary:
            obj = headers.get(pred.protocol)
            if obj is None or not evaluate_binary(pred, obj, self.registry):
                return None
        for child in node.children:
            if child.layer is not Layer.PACKET:
                continue
            result = self._walk_packet(child, headers)
            if result is not None:
                return result
        if node.terminal:
            return FilterResult.match_terminal(node.id)
        if any(c.layer is not Layer.PACKET for c in node.children):
            return FilterResult.match_non_terminal(node.id)
        return None

    # -- connection filter -----------------------------------------------------
    def connection_filter(self, conn: Any, pkt_term_node: int) -> FilterResult:
        try:
            report = self.trie.node(pkt_term_node)
        except KeyError:
            return FilterResult.no_match()
        service = conn.service()
        for conn_node in self.trie.connection_candidates(report):
            if conn_node.pred.protocol == service:
                if conn_node.terminal:
                    return FilterResult.match_terminal(conn_node.id)
                return FilterResult.match_non_terminal(conn_node.id)
        return FilterResult.no_match()

    # -- session filter ----------------------------------------------------------
    def session_filter(self, session: Any, conn_term_node: int) -> bool:
        try:
            conn_node = self.trie.node(conn_term_node)
        except KeyError:
            return False
        if conn_node.layer is not Layer.CONNECTION:
            return False
        if conn_node.terminal:
            return True
        chains = self.trie.session_subtree(conn_node)
        if not chains:
            return True
        data = session.data
        for chain in chains:
            if all(
                evaluate_binary(n.pred, data, self.registry) for n in chain
            ):
                return True
        return False
