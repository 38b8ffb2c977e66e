"""Burst classification: one predicate tree, generated or interpreted.

The columnar decode layer (:mod:`repro.packet.columnar`) turns a burst
of frames into field columns plus a ``fast`` eligibility mask. Every
classifier of a burst's fast rows — the NIC's flow-rule admit, a lone
packet filter and the tenant table — is a :class:`BurstTree`: the
lanes' predicate paths merged by predicate text, each path ending in a
lane's ranked verdict tag. A burst narrows an index list down the tree,
once per predicate, and each lane takes the verdict of its
lowest-ranked tag a row reached. The tree runs two ways:
:meth:`BurstTree.interpret` walks it over :func:`make_pred_evaluator`
closures (the Appendix B baseline and the fuzz oracle), and
:func:`repro.filter.codegen.burst_classifier_source` writes it out as
one straight-line function of narrowing comprehensions over
:func:`gen_batch_condition` expressions. This module holds the tree and
what both executions share — which predicates are expressible over the
columns, the verdict encoding and the per-predicate evaluators.

Verdict encoding
----------------
A classifier returns one int per row and lane: ``NO_MATCH`` (−1) when
no path matched, else the tag's verdict — for a filter's trie
``(node_id << 1) | terminal``, the same ``(node, terminal)`` pair a
scalar :class:`~repro.filter.result.FilterResult` carries, flattened so
256 verdicts fit in one plain list. Verdicts are only valid for rows
with ``fast[i]`` set; slow rows must be re-run through the scalar
``packet_filter``.

Anything not expressible over the columns (``ipv4.ttl``, string
regexes, ``udp.length``, …) disables batching for the whole tree —
``packet_filter_batch`` stays ``None`` and the pipeline keeps the
scalar path, so supported-predicate coverage is a pure optimization
knob, never a semantics question.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.filter.ast import Op, Predicate
from repro.filter.fields import DEFAULT_REGISTRY, FieldRegistry, Layer
from repro.filter.trie import PredicateTrie, TrieNode
from repro.packet.columnar import ETHERTYPE_IPV4, ETHERTYPE_IPV6

#: Batch verdict for "no pattern matched this row".
NO_MATCH = -1


def encode_verdict(node_id: int, terminal: bool) -> int:
    """Flatten a match into one int: ``(node_id << 1) | terminal``."""
    return (node_id << 1) | (1 if terminal else 0)


#: (protocol, accessor) -> ColumnarBatch column holding that int field.
#: Accessors absent here (ttl, window, udp.length, ...) are not decoded
#: columnar-side and make the trie fall back to the scalar filter.
_INT_COLS = {
    ("eth", "next_protocol"): "ethertype",
    ("ipv4", "protocol"): "proto",
    ("ipv4", "total_length"): "ip_total_len",
    ("tcp", "src_port"): "src_port",
    ("tcp", "dst_port"): "dst_port",
    ("tcp", "flags"): "tcp_flags",
    ("tcp", "seq_no"): "tcp_seq",
    ("udp", "src_port"): "src_port",
    ("udp", "dst_port"): "dst_port",
}

#: (protocol, accessor) -> column holding raw address bytes (4 per row
#: on IPv4 rows, 16 on IPv6 rows; the unary protocol gate above every
#: address predicate keeps each predicate on its own rows).
_ADDR_COLS = {
    ("ipv4", "src_addr"): "src_ip",
    ("ipv4", "dst_addr"): "dst_ip",
    ("ipv6", "src_addr"): "src_ip",
    ("ipv6", "dst_addr"): "dst_ip",
}

_ORDERED_INT_OPS = frozenset({Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE})

#: Unary predicates on fast rows: always true (the eligibility gate
#: guarantees a parsed Ethernet header), an EtherType test (fast rows
#: are plain IPv4 or IPv6), an IP protocol-number test (TCP/UDP), or
#: never true (fast rows carry no ICMP — subtrees under these are
#: pruned from batch evaluation entirely).
_UNARY_ALWAYS = frozenset({"eth"})
_UNARY_NEVER = frozenset({"icmp"})
_UNARY_ETH = {"ipv4": ETHERTYPE_IPV4, "ipv6": ETHERTYPE_IPV6}
_UNARY_PROTO = {"tcp": 6, "udp": 17}


def unary_kind(protocol: str
               ) -> Optional[Union[str, Tuple[str, int]]]:
    """Classify a unary predicate for fast rows.

    Returns ``"always"``, ``"never"``, a ``(column, value)`` equality
    test, or ``None`` when the protocol is unknown to the columnar
    layer.
    """
    if protocol in _UNARY_ALWAYS:
        return "always"
    if protocol in _UNARY_NEVER:
        return "never"
    eth = _UNARY_ETH.get(protocol)
    if eth is not None:
        return ("ethertype", eth)
    proto = _UNARY_PROTO.get(protocol)
    if proto is not None:
        return ("proto", proto)
    return None


def _accessor_support(pred: Predicate, accessor: str) -> Optional[str]:
    """Column name if ``accessor`` of ``pred`` is batch-expressible."""
    op, value = pred.op, pred.value
    col = _INT_COLS.get((pred.protocol, accessor))
    if col is not None:
        if op in _ORDERED_INT_OPS and isinstance(value, int):
            return col
        if (op is Op.IN and isinstance(value, tuple) and len(value) == 2
                and isinstance(value[0], int) and isinstance(value[1], int)):
            return col
        return None
    col = _ADDR_COLS.get((pred.protocol, accessor))
    if col is not None:
        if op in (Op.EQ, Op.NE) and isinstance(
                value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            return col
        if op is Op.IN and isinstance(
                value, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
            return col
        return None
    return None


def _addr_family(protocol: str):
    """The network class whose members this protocol's addresses can be."""
    return ipaddress.IPv4Network if protocol == "ipv4" \
        else ipaddress.IPv6Network


def binary_supported(pred: Predicate,
                     registry: FieldRegistry = DEFAULT_REGISTRY) -> bool:
    """True if every accessor of the predicate maps onto a column."""
    fdef = registry.field(pred.protocol, pred.field)
    return all(
        _accessor_support(pred, accessor) is not None
        for accessor in fdef.accessors
    )


# -- interpreted-backend evaluators -------------------------------------------

def _one_accessor_eval(pred: Predicate, accessor: str) -> Callable:
    """Closure evaluating one accessor comparison: ``f(cols, i) -> bool``."""
    col = _accessor_support(pred, accessor)
    assert col is not None, f"unsupported accessor {accessor} of {pred}"
    op, value = pred.op, pred.value
    if (pred.protocol, accessor) in _ADDR_COLS:
        if op is Op.IN:
            if not isinstance(value, _addr_family(pred.protocol)):
                # Network of the other IP version: never holds this
                # protocol's addresses (the scalar version check).
                return lambda cols, i: False
            netval = int(value.network_address)
            mask = int(value.netmask)

            def in_net(cols, i, _c=col, _m=mask, _v=netval):
                return int.from_bytes(getattr(cols, _c)[i], "big") & _m == _v
            return in_net
        packed = value.packed
        if op is Op.EQ:
            return lambda cols, i, _c=col, _v=packed: \
                getattr(cols, _c)[i] == _v
        return lambda cols, i, _c=col, _v=packed: \
            getattr(cols, _c)[i] != _v
    if op is Op.IN:
        lo, hi = value
        return lambda cols, i, _c=col, _lo=lo, _hi=hi: \
            _lo <= getattr(cols, _c)[i] <= _hi
    if op is Op.EQ:
        return lambda cols, i, _c=col, _v=value: getattr(cols, _c)[i] == _v
    if op is Op.NE:
        return lambda cols, i, _c=col, _v=value: getattr(cols, _c)[i] != _v
    if op is Op.LT:
        return lambda cols, i, _c=col, _v=value: getattr(cols, _c)[i] < _v
    if op is Op.LE:
        return lambda cols, i, _c=col, _v=value: getattr(cols, _c)[i] <= _v
    if op is Op.GT:
        return lambda cols, i, _c=col, _v=value: getattr(cols, _c)[i] > _v
    if op is Op.GE:
        return lambda cols, i, _c=col, _v=value: getattr(cols, _c)[i] >= _v
    raise AssertionError(f"unhandled batch operator {op}")


def make_pred_evaluator(pred: Predicate,
                        registry: FieldRegistry = DEFAULT_REGISTRY
                        ) -> Callable:
    """Build ``f(cols, i) -> bool`` for a batch-supported binary predicate.

    Synthetic fields with two accessors (``tcp.port``, ``ipv4.addr``)
    OR the per-accessor tests, matching the scalar backends.
    """
    fdef = registry.field(pred.protocol, pred.field)
    tests = [_one_accessor_eval(pred, a) for a in fdef.accessors]
    if len(tests) == 1:
        return tests[0]
    t0, t1 = tests

    def either(cols, i):
        return t0(cols, i) or t1(cols, i)
    return either


# -- generated-backend expressions --------------------------------------------

def _one_accessor_expr(pred: Predicate, accessor: str,
                       used_cols: set) -> str:
    """Source expression for one accessor comparison over column locals.

    The generated batch function hoists each used column into a local
    named ``c_<column>``; expressions index it with the loop variable
    ``i``. Address constants embed as bytes literals, CIDR membership
    as an int mask-and-compare — no constant pool needed.
    """
    col = _accessor_support(pred, accessor)
    assert col is not None, f"unsupported accessor {accessor} of {pred}"
    used_cols.add(col)
    lhs = f"c_{col}[i]"
    op, value = pred.op, pred.value
    if (pred.protocol, accessor) in _ADDR_COLS:
        if op is Op.IN:
            if not isinstance(value, _addr_family(pred.protocol)):
                return "False"  # network of the other IP version
            netval = int(value.network_address)
            mask = int(value.netmask)
            return (f'(int.from_bytes({lhs}, "big") & {mask}) == {netval}')
        python_op = "==" if op is Op.EQ else "!="
        return f"{lhs} {python_op} {value.packed!r}"
    if op is Op.IN:
        return f"{value[0]} <= {lhs} <= {value[1]}"
    python_op = {"=": "==", "!=": "!=", "<": "<", "<=": "<=",
                 ">": ">", ">=": ">="}[op.value]
    return f"{lhs} {python_op} {value!r}"


def gen_batch_condition(pred: Predicate, used_cols: set,
                        registry: FieldRegistry = DEFAULT_REGISTRY) -> str:
    """Render a batch-supported binary predicate as a row condition."""
    fdef = registry.field(pred.protocol, pred.field)
    clauses = [
        _one_accessor_expr(pred, accessor, used_cols)
        for accessor in fdef.accessors
    ]
    if len(clauses) == 1:
        return clauses[0]
    return " or ".join(f"({c})" for c in clauses)


# -- the burst classifier -----------------------------------------------------

class _Node:
    """One predicate of a :class:`BurstTree`, with the ``(lane, rank,
    verdict)`` tag of every lane whose path ends here."""

    __slots__ = ("id", "pred", "children", "by_text", "tags", "kind",
                 "evaluate")

    def __init__(self, node_id: int, pred: Optional[Predicate],
                 registry: FieldRegistry) -> None:
        self.id = node_id
        self.pred = pred
        self.children: List["_Node"] = []
        self.by_text: Dict[str, "_Node"] = {}
        self.tags: List[Tuple[int, int, int]] = []
        #: How a fast row is tested: ``"always"``, ``"never"``, a
        #: ``(column, value)`` equality, ``"binary"`` (``evaluate``
        #: holds its closure), or None when no column expresses it.
        self.kind = "always" if pred is None else (
            unary_kind(pred.protocol) if pred.is_unary else
            "binary" if binary_supported(pred, registry) else None)
        self.evaluate = make_pred_evaluator(pred, registry) \
            if self.kind == "binary" else None


def _ladder_order(trie: PredicateTrie) -> Dict[int, int]:
    """Rank each report node of ``trie`` by the scalar walkers'
    first-match order: children before the node's own report, and the
    root only when terminal (a match-all filter)."""
    order: Dict[int, int] = {}

    def walk(node: TrieNode) -> None:
        for child in node.children:
            if child.layer is Layer.PACKET:
                walk(child)
        if node.terminal or node.parent is not None and any(
                child.layer is not Layer.PACKET
                for child in node.children):
            order[node.id] = len(order)

    walk(trie.root)
    return order


class BurstTree:
    """Lanes' predicate paths merged by predicate text.

    A row's verdict in lane ``k`` is the verdict of the lowest-ranked
    tag of lane ``k`` whose path the row satisfies, or ``NO_MATCH``.
    Common prefixes — the ``eth``/``ipv4``/``tcp`` chains every filter
    starts with — are tested once per burst for all lanes. A lane's
    ranks replay its own first-match order, so merging lanes never
    changes a lane's verdicts; nor is cross-lane subsumption pruned
    (lane A's ``ipv4`` terminal must not swallow lane B's ``ipv4 and
    tcp`` subtree).

    A classifier of a one-lane tree returns the lane's verdict list, of
    an N-lane tree the list of the N lanes' lists.
    """

    def __init__(self, lanes: int,
                 registry: FieldRegistry = DEFAULT_REGISTRY) -> None:
        self.lanes = lanes
        self.registry = registry
        self.root = _Node(0, None, registry)
        self.nodes = [self.root]
        #: Packet-layer nodes of the lanes' own tries, before merging.
        self.lane_nodes = 0
        #: False when some predicate a fast row can reach has no column.
        self.supported = True
        #: Every reachable tag as ``(lane, rank, verdict, node id)``,
        #: in lane and rank order: the order verdicts are written in.
        self.writes: List[Tuple[int, int, int, int]] = []

    @classmethod
    def of_tries(cls, tries: Sequence[PredicateTrie],
                 registry: FieldRegistry = DEFAULT_REGISTRY
                 ) -> "BurstTree":
        """One lane per filter trie: its packet-layer report nodes,
        tagged ``(node_id << 1) | terminal``."""
        tree = cls(len(tries), registry)
        for lane, trie in enumerate(tries):
            tree._merge(lane, trie.root, tree.root, _ladder_order(trie))
        tree._finish()
        return tree

    @classmethod
    def of_rules(cls, rules: Sequence, registry: FieldRegistry
                 = DEFAULT_REGISTRY) -> "BurstTree":
        """One lane of hardware flow rules: each rule a chain of its
        protocols (and its items' protocols, which gate the shared
        port and address columns) then its items, tagged 1 (admit)."""
        tree = cls(1, registry)
        for rank, rule in enumerate(rules):
            protocols = dict.fromkeys(
                [*rule.protocols, *(item.protocol for item in rule.items)])
            node = tree.root
            for pred in [*map(Predicate, protocols), *rule.items]:
                node = tree._child(node, pred)
            node.tags.append((0, rank, 1))
        tree._finish()
        return tree

    def _child(self, node: _Node, pred: Predicate) -> _Node:
        text = str(pred)
        child = node.by_text.get(text)
        if child is None:
            child = _Node(len(self.nodes), pred, self.registry)
            self.nodes.append(child)
            node.by_text[text] = child
            node.children.append(child)
        return child

    def _merge(self, lane: int, src: TrieNode, dst: _Node,
               order: Dict[int, int]) -> None:
        rank = order.get(src.id)
        if rank is not None:
            dst.tags.append(
                (lane, rank, encode_verdict(src.id, src.terminal)))
        for child in src.children:
            if child.layer is Layer.PACKET:
                self.lane_nodes += 1
                self._merge(lane, child, self._child(dst, child.pred),
                            order)

    def _finish(self) -> None:
        """Check expressibility and order the writes, over the nodes a
        fast row can reach (never below a ``"never"`` node)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind is None:
                self.supported = False
            self.writes.extend((lane, rank, verdict, node.id)
                               for lane, rank, verdict in node.tags)
            stack.extend(child for child in node.children
                         if child.kind != "never")
        self.writes.sort()

    def interpret(self, cols) -> list:
        """Classify a burst by walking the tree: each node narrows its
        parent's row list, binary predicates through their evaluator
        closures, one call per row."""
        n = cols.n
        fast = cols.fast
        reached = {0: [i for i in range(n) if fast[i]]}
        self._narrow(self.root, cols, reached[0], reached)
        outs = [[NO_MATCH] * n for _ in range(self.lanes)]
        for lane, _rank, verdict, node_id in self.writes:
            rows = reached.get(node_id)
            if rows:
                out = outs[lane]
                for i in rows:
                    if out[i] < 0:
                        out[i] = verdict
        return outs[0] if self.lanes == 1 else outs

    def _narrow(self, node: _Node, cols, rows: List[int],
                reached: Dict[int, List[int]]) -> None:
        for child in node.children:
            kind = child.kind
            if kind == "never":
                continue
            if kind == "binary":
                evaluate = child.evaluate
                sub = [i for i in rows if evaluate(cols, i)]
            elif kind == "always":
                sub = rows
            else:
                column_name, want = kind
                column = getattr(cols, column_name)
                sub = [i for i in rows if column[i] == want]
            if sub:
                reached[child.id] = sub
                self._narrow(child, cols, sub, reached)
