"""Static code generation of filter functions (Section 4 / Appendix B).

Retina uses Rust procedural macros to bake the decomposed filter into
native conditionals at compile time. The Python analogue: we generate
Python source for the three software sub-filters, ``compile()`` it once,
and ``exec`` it into a module namespace. Regexes, CIDR networks, and
address constants are hoisted into that namespace (the ``lazy_static``
trick from Section 4.1), so per-packet evaluation runs straight-line
conditionals with zero interpretation of the filter structure — exactly
the property Appendix B benchmarks against the interpreted walker in
:mod:`repro.filter.interp`.

Generated functions:

* ``packet_filter(mbuf) -> FilterResult`` — parses headers in place
  (the ``if let`` ladder of Figure 3) and reports the deepest matching
  packet-layer trie node.
* ``connection_filter(conn, pkt_term_node) -> FilterResult`` — branches
  on the packet filter's reported node and the identified service.
* ``session_filter(session, conn_term_node) -> bool`` — evaluates
  session-layer predicates on parsed application data.
* ``packet_filter_batch(cols)`` — the packet filter over a decoded
  burst's fast rows: the trie's :class:`~repro.filter.batch.BurstTree`,
  as :func:`burst_classifier_source` writes it (absent when a predicate
  has no column). The same emitter generates the tenant table's and
  the NIC flow rules' classifiers.
"""

from __future__ import annotations

import ipaddress
import re
from typing import Any, Callable, Dict, List, Union

from repro.errors import PacketParseError
from repro.filter.ast import Op, Predicate
from repro.filter.batch import BurstTree, gen_batch_condition
from repro.filter.fields import DEFAULT_REGISTRY, FieldRegistry, Layer
from repro.filter.result import FilterResult
from repro.filter.trie import PredicateTrie, TrieNode
from repro.packet.ethernet import Ethernet
from repro.packet.icmp import Icmp
from repro.packet.ipv4 import Ipv4
from repro.packet.ipv6 import Ipv6
from repro.packet.stack import parse_stack
from repro.packet.tcp import Tcp
from repro.packet.udp import Udp

_PARSERS = {"ipv4": Ipv4, "ipv6": Ipv6, "tcp": Tcp, "udp": Udp,
            "icmp": Icmp}

#: Protocols whose parsed view lives as a slot on the PacketStack; the
#: generated packet filter reads these instead of re-parsing headers.
_STACK_SLOTS = frozenset({"ipv4", "ipv6", "tcp", "udp", "icmp"})


def _try_parse(parse_fn, outer):
    """``if let Ok(x) = parse(..)`` — None instead of an exception."""
    try:
        return parse_fn(outer)
    except PacketParseError:
        return None


def _try_eth(mbuf):
    try:
        return Ethernet.parse(mbuf)
    except PacketParseError:
        return None


class _ConstPool:
    """Hoists regex/network/address constants into the exec namespace."""

    def __init__(self) -> None:
        self.values: Dict[str, Any] = {}
        self._counts = {"RE": 0, "NET": 0, "ADDR": 0}

    def add(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{self._counts[prefix]}"
        self._counts[prefix] += 1
        self.values[name] = value
        return name


class _SourceWriter:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _binary_condition(
    pred: Predicate,
    var: str,
    pool: _ConstPool,
    registry: FieldRegistry,
) -> str:
    """Render a binary predicate as a Python boolean expression.

    Synthetic fields with several accessors (``tcp.port``) OR the
    per-accessor comparisons, matching Figure 3's
    ``tcp.src_port() >= 100 || tcp.dst_port() >= 100``.
    """
    fdef = registry.field(pred.protocol, pred.field)
    clauses = [
        _one_comparison(pred, f"{var}.{accessor}()", pool)
        for accessor in fdef.accessors
    ]
    if len(clauses) == 1:
        return clauses[0]
    return " or ".join(f"({c})" for c in clauses)


def _one_comparison(pred: Predicate, value_expr: str, pool: _ConstPool) -> str:
    """Render one accessor comparison.

    Wireshark semantics for absent fields: a predicate on a field the
    data does not carry (e.g. ``http.status_code`` on a request-only
    transaction) never matches — including ``!=``. The generated code
    binds the accessor result once with a walrus and guards on ``None``.
    """
    op, value = pred.op, pred.value
    guard = f"(_v := {value_expr}) is not None and "
    if op is Op.MATCHES:
        name = pool.add("RE", re.compile(value))
        return f"({guard}{name}.search(_v) is not None)"
    if op is Op.IN:
        if isinstance(value, tuple):
            return f"({guard}{value[0]} <= _v <= {value[1]})"
        name = pool.add("NET", value)
        return f"({guard}_v in {name})"
    if isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        rhs = pool.add("ADDR", value)
    else:
        rhs = repr(value)
    python_op = {"=": "==", "!=": "!=", "<": "<", "<=": "<=",
                 ">": ">", ">=": ">="}[op.value]
    return f"({guard}_v {python_op} {rhs})"


def _is_report(node: TrieNode) -> bool:
    return node.terminal or any(
        c.layer is not Layer.PACKET for c in node.children
    )


def _result_stmt(node: TrieNode) -> str:
    if node.terminal:
        return f"return _terminal({node.id})"
    return f"return _non_terminal({node.id})"


class GeneratedFilter:
    """Holds the compiled sub-filter functions and their source."""

    def __init__(
        self,
        trie: PredicateTrie,
        registry: FieldRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.trie = trie
        self.registry = registry
        pool = _ConstPool()
        packet_src = self._gen_packet_filter(pool)
        tree = BurstTree.of_tries([trie], registry)
        batch_src = burst_classifier_source(
            tree, "packet_filter_batch") if tree.supported else None
        conn_src = self._gen_connection_filter(pool)
        session_src = self._gen_session_filter(pool)
        pieces = [packet_src]
        if batch_src is not None:
            pieces.append(batch_src)
        pieces.extend([conn_src, session_src])
        self.source = "\n".join(pieces)
        namespace: Dict[str, Any] = {
            "_try": _try_parse,
            "_try_eth": _try_eth,
            "_stack": parse_stack,
            "_terminal": FilterResult.match_terminal,
            "_non_terminal": FilterResult.match_non_terminal,
            "_NO_MATCH": FilterResult.no_match(),
            "Ipv4": Ipv4, "Ipv6": Ipv6, "Tcp": Tcp, "Udp": Udp,
            "Icmp": Icmp,
            **pool.values,
        }
        code = compile(self.source, "<retina-filter>", "exec")
        exec(code, namespace)  # noqa: S102 - this is the codegen backend
        self.packet_filter = namespace["packet_filter"]
        #: The trie's burst classifier, generated, or None when the
        #: trie uses predicates the columnar layer cannot express.
        self.packet_filter_batch = namespace.get("packet_filter_batch")
        self.connection_filter = namespace["connection_filter"]
        self.session_filter = namespace["session_filter"]

    # -- packet filter -------------------------------------------------------
    def _gen_packet_filter(self, pool: _ConstPool) -> str:
        """Emit ``packet_filter(mbuf)`` reading parse-once stack slots.

        The emitted ladder branches on the memoized
        :class:`~repro.packet.stack.PacketStack` (``mbuf.stack``,
        parsed at most once per frame) instead of re-running header
        parsers per filter layer — the zero-copy analogue of Figure 3's
        ``if let`` ladder over in-mbuf views.
        """
        writer = _SourceWriter()
        writer.emit(0, "def packet_filter(mbuf):")
        root = self.trie.root
        if root.terminal:
            writer.emit(1, "return _terminal(0)")
            return writer.source()
        writer.emit(1, "stack = mbuf.stack")
        writer.emit(1, "if stack is None:")
        writer.emit(2, "stack = _stack(mbuf)")
        writer.emit(1, "eth = stack.eth")
        writer.emit(1, "if eth is None:")
        writer.emit(2, "return _NO_MATCH")
        env = {"eth": "eth"}
        # The root's packet-layer children are 'eth' unary nodes (chain
        # expansion always begins with eth), whose predicate is already
        # satisfied by the successful parse above.
        for child in root.children:
            if child.layer is Layer.PACKET:
                self._emit_packet_node(writer, child, 1, env, pool,
                                       parsed=True)
        writer.emit(1, "return _NO_MATCH")
        return writer.source()

    def _emit_packet_node(
        self,
        writer: _SourceWriter,
        node: TrieNode,
        indent: int,
        env: Dict[str, str],
        pool: _ConstPool,
        parsed: bool = False,
    ) -> None:
        pred = node.pred
        assert pred is not None
        if pred.is_unary:
            if parsed:
                # Predicate already satisfied (eth at the root).
                self._emit_packet_children(writer, node, indent, env, pool)
                return
            var = pred.protocol
            assert var in _STACK_SLOTS, f"no stack slot for {var!r}"
            writer.emit(indent, f"{var} = stack.{var}")
            writer.emit(indent, f"if {var} is not None:")
            child_env = dict(env)
            child_env[pred.protocol] = var
            self._emit_packet_children(writer, node, indent + 1, child_env,
                                       pool)
        else:
            var = env[pred.protocol]
            cond = _binary_condition(pred, var, pool, self.registry)
            writer.emit(indent, f"if {cond}:")
            self._emit_packet_children(writer, node, indent + 1, env, pool)

    def _emit_packet_children(
        self,
        writer: _SourceWriter,
        node: TrieNode,
        indent: int,
        env: Dict[str, str],
        pool: _ConstPool,
    ) -> None:
        for child in node.children:
            if child.layer is Layer.PACKET:
                self._emit_packet_node(writer, child, indent, env, pool)
        if _is_report(node):
            writer.emit(indent, _result_stmt(node))

    # -- connection filter -----------------------------------------------------
    def _gen_connection_filter(self, pool: _ConstPool) -> str:
        writer = _SourceWriter()
        writer.emit(0, "def connection_filter(conn, pkt_term_node):")
        writer.emit(1, "service = conn.service()")
        arms = 0
        for report in self.trie.packet_report_nodes():
            if report.terminal:
                continue  # terminal packet matches skip the conn filter
            candidates = self.trie.connection_candidates(report)
            if not candidates:
                continue
            writer.emit(1, f"if pkt_term_node == {report.id}:")
            for conn_node in candidates:
                proto = conn_node.pred.protocol
                writer.emit(2, f"if service == {proto!r}:")
                if conn_node.terminal:
                    writer.emit(3, f"return _terminal({conn_node.id})")
                else:
                    writer.emit(3, f"return _non_terminal({conn_node.id})")
            writer.emit(2, "return _NO_MATCH")
            arms += 1
        writer.emit(1, "return _NO_MATCH")
        return writer.source()

    # -- session filter ----------------------------------------------------------
    def _gen_session_filter(self, pool: _ConstPool) -> str:
        writer = _SourceWriter()
        writer.emit(0, "def session_filter(session, conn_term_node):")
        conn_nodes = [
            n for n in self.trie.nodes() if n.layer is Layer.CONNECTION
        ]
        for conn_node in conn_nodes:
            writer.emit(1, f"if conn_term_node == {conn_node.id}:")
            if conn_node.terminal:
                writer.emit(2, "return True")
                continue
            chains = self.trie.session_subtree(conn_node)
            if not chains:
                writer.emit(2, "return True")
                continue
            writer.emit(2, "d = session.data")
            for chain in chains:
                conds = [
                    _binary_condition(n.pred, "d", pool, self.registry)
                    for n in chain
                ]
                cond = " and ".join(f"({c})" for c in conds)
                writer.emit(2, f"if {cond}:")
                writer.emit(3, "return True")
            writer.emit(2, "return False")
        writer.emit(1, "return False")
        return writer.source()


# -- burst classifiers -----------------------------------------------------------

def burst_classifier_source(tree: BurstTree, name: str) -> str:
    """Emit ``name(cols)``: ``tree`` as one straight-line function.

    Each reachable node becomes one comprehension narrowing its
    parent's row list (``x<id>``, ``x0`` the burst's fast rows), skipped
    when the parent's list is empty; then each lane's verdict list
    (``o<lane>``) takes the tree's writes in rank order, first write
    wins — the interpreted walk's result, with no call per row.
    """
    body = _SourceWriter()
    used_cols: set = set()
    rows = {0: "x0"}

    def emit(node, parent: str) -> None:
        for child in node.children:
            kind = child.kind
            if kind == "never":
                continue
            var = parent
            if kind != "always":
                if kind == "binary":
                    cond = gen_batch_condition(child.pred, used_cols,
                                               tree.registry)
                else:
                    col, want = kind
                    used_cols.add(col)
                    cond = f"c_{col}[i] == {want}"
                var = f"x{child.id}"
                body.emit(1, f"{var} = [i for i in {parent} if {cond}] "
                             f"if {parent} else {parent}")
            rows[child.id] = var
            emit(child, var)

    emit(tree.root, "x0")
    writer = _SourceWriter()
    writer.emit(0, f"def {name}(cols):")
    writer.emit(1, "n = cols.n")
    writer.emit(1, "fast = cols.fast")
    for col in sorted(used_cols):
        writer.emit(1, f"c_{col} = cols.{col}")
    writer.emit(1, "x0 = [i for i in range(n) if fast[i]]")
    writer.lines.extend(body.lines)
    lanes = [f"o{lane}" for lane in range(tree.lanes)]
    for out in lanes:
        writer.emit(1, f"{out} = [-1] * n")
    written = set()
    for lane, _rank, verdict, node_id in tree.writes:
        out = lanes[lane]
        writer.emit(1, f"for i in {rows[node_id]}:")
        if lane in written:
            writer.emit(2, f"if {out}[i] < 0:")
            writer.emit(3, f"{out}[i] = {verdict}")
        else:  # the lane's first write: every row is still unmatched
            written.add(lane)
            writer.emit(2, f"{out}[i] = {verdict}")
    writer.emit(1, f"return {lanes[0]}" if tree.lanes == 1
                else f"return [{', '.join(lanes)}]")
    return writer.source()


def compile_burst_classifier(tree: BurstTree) -> Callable:
    """The generated form of ``tree`` (which must be ``supported``)."""
    namespace: Dict[str, Any] = {}
    exec(compile(burst_classifier_source(tree, "classify_burst"),  # noqa: S102
                 "<retina-filter>", "exec"), namespace)
    return namespace["classify_burst"]


def compile_hw_admit(hw) -> Union[bool, Callable, None]:
    """A hardware filter's admit check for columnar fast rows.

    Returns ``True`` when every fast row is admitted (no filter or
    accept-all), the generated classifier of its rules' one-lane tree
    (``cols -> verdicts``, non-negative: admitted) when every rule is
    column-expressible, or ``None`` when one is not (the NIC must then
    keep the scalar per-packet ingress path).
    """
    if hw is None or hw.accept_all:
        return True
    tree = BurstTree.of_rules(hw.rules)
    return compile_burst_classifier(tree) if tree.supported else None
