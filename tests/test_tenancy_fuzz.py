"""Shared-filter equivalence fuzz: merged trie == independent filters.

The whole multi-tenant design rests on one property: classifying a
packet once against the merged shared trie yields, for every tenant,
*exactly* the verdict that tenant's own compiled filter would have
produced on its own — same terminal flag, same tenant-native node id —
on both execution backends (codegen and interp), for every fast row of
a decoded batch (a slow row takes the tenant's own scalar filter).
This suite fuzzes random
filter sets over random traffic and asserts that equivalence
pointwise, plus the structural claims (predicate dedup, union hardware
filter) the tenancy layer advertises.
"""

import random

import pytest

from repro.filter import compile_filter
from repro.filter.batch import NO_MATCH, encode_verdict
from repro.packet import Mbuf, build_icmp_echo, build_tcp_packet, \
    build_udp_packet
from repro.packet.columnar import decode_mbufs
from repro.tenancy import SharedFilter, union_hardware

# -- random filter generation ---------------------------------------------

V4_ADDRS = ["10.0.0.1", "10.0.0.9", "10.1.2.3", "192.168.1.2",
            "8.8.8.8", "172.16.5.5"]
V6_ADDRS = ["2001:db8::1", "2001:db8::9", "2001:db8:ffff::2",
            "2606:4700::1111"]
PORTS = [53, 80, 443, 8080, 33000, 40000, 5353]


def random_conjunction(rng: random.Random) -> str:
    """One satisfiable conjunction: an ip/transport chain plus optional
    field constraints and an optional session-layer protocol."""
    ipproto = rng.choice(["ipv4", "ipv6", None])
    transport = rng.choice(["tcp", "udp", None])
    terms = []
    if ipproto:
        terms.append(ipproto)
        if rng.random() < 0.4:
            field = rng.choice(["src_addr", "dst_addr", "addr"])
            if ipproto == "ipv4":
                if rng.random() < 0.5:
                    terms.append(f"ipv4.{field} in 10.0.0.0/8")
                else:
                    terms.append(
                        f"ipv4.{field} = {rng.choice(V4_ADDRS)}")
            else:
                terms.append(f"ipv6.{field} = {rng.choice(V6_ADDRS)}")
    if transport:
        terms.append(transport)
        if rng.random() < 0.5:
            field = rng.choice(["src_port", "dst_port", "port"])
            terms.append(
                f"{transport}.{field} = {rng.choice(PORTS)}")
    if rng.random() < 0.25:
        if transport == "tcp":
            terms.append(rng.choice(["tls", "http"]))
        elif transport == "udp":
            terms.append("dns")
    if not terms:
        terms.append(rng.choice(["tcp", "udp", "ipv4", "ipv6"]))
    return " and ".join(terms)


def random_filter(rng: random.Random) -> str:
    if rng.random() < 0.06:
        return ""  # match-all tenant
    clauses = [random_conjunction(rng)
               for _ in range(rng.randint(1, 3))]
    return " or ".join(f"({c})" if " or " not in c else c
                       for c in clauses)


# -- random traffic --------------------------------------------------------

def random_frame(rng: random.Random) -> bytes:
    kind = rng.random()
    if kind < 0.04:
        return build_icmp_echo(rng.choice(V4_ADDRS),
                               rng.choice(V4_ADDRS))
    if kind < 0.08:
        # Truncated / malformed: exercises the slow-row path.
        base = build_tcp_packet(src="10.0.0.1", dst="10.0.0.2",
                                src_port=1, dst_port=2)
        return base[:rng.randint(0, len(base) - 1)]
    v6 = rng.random() < 0.35
    src = rng.choice(V6_ADDRS if v6 else V4_ADDRS)
    dst = rng.choice(V6_ADDRS if v6 else V4_ADDRS)
    sport = rng.choice(PORTS)
    dport = rng.choice(PORTS)
    payload = bytes(rng.randint(0, 40))
    if rng.random() < 0.5:
        return build_tcp_packet(src=src, dst=dst, src_port=sport,
                                dst_port=dport, payload=payload)
    return build_udp_packet(src=src, dst=dst, src_port=sport,
                            dst_port=dport, payload=payload)


def random_mbufs(rng: random.Random, count: int):
    return [Mbuf(random_frame(rng), 0.0001 * (i + 1), 0)
            for i in range(count)]


# -- the equivalence property ----------------------------------------------

def assert_equivalent(shared: SharedFilter, mbufs) -> None:
    """Shared verdicts == independent per-tenant verdicts, pointwise
    on fast rows, like every batch filter."""
    cols = decode_mbufs(mbufs)
    batched = shared.classify_batch(cols)
    independent = [compiled.packet_filter_batch
                   for compiled in shared.filters]
    if shared.batch_supported:
        assert batched is not None
        for t, batch_fn in enumerate(independent):
            assert batch_fn is not None
            want_vec = batch_fn(cols)
            for i in range(cols.n):
                if not cols.fast[i]:
                    continue
                assert batched[t][i] == want_vec[i], (
                    f"batch verdict diverges for tenant "
                    f"{shared.names[t]!r} "
                    f"({shared.filters[t].text!r}) row {i}")
    else:
        assert batched is None


class TestSharedFilterFuzz:
    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_filter_sets(self, seed, mode):
        rng = random.Random(0xBEEF + seed)
        tenant_count = rng.randint(2, 5)
        names = [f"tenant{i}" for i in range(tenant_count)]
        filters = []
        for _ in names:
            filters.append(
                compile_filter(random_filter(rng), mode=mode))
        shared = SharedFilter(names, filters)
        assert_equivalent(shared, random_mbufs(rng, 80))

    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    def test_overlapping_prefixes_dedup(self, mode):
        """Tenants sharing ipv4/tcp prefixes merge those nodes."""
        texts = ["ipv4 and tcp.dst_port = 443",
                 "ipv4 and tcp.dst_port = 80",
                 "ipv4 and tcp",
                 "ipv4 and udp.dst_port = 53"]
        filters = [compile_filter(t, mode=mode) for t in texts]
        shared = SharedFilter([f"t{i}" for i in range(len(texts))],
                              filters)
        assert shared.shared_packet_nodes < shared.tenant_packet_nodes
        rng = random.Random(7)
        assert_equivalent(shared, random_mbufs(rng, 60))

    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    def test_identical_filters_fan_out(self, mode):
        """N tenants with the same filter share the whole trie but
        keep distinct verdict fan-out slots."""
        filters = [compile_filter("tcp.dst_port = 443", mode=mode)
                   for _ in range(3)]
        shared = SharedFilter(["a", "b", "c"], filters)
        mbufs = random_mbufs(random.Random(11), 40)
        verdicts = shared.classify_batch(decode_mbufs(mbufs))
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert_equivalent(shared, mbufs)

    def test_match_all_tenant(self):
        """An empty filter is terminal at the root: every packet —
        including non-IP and malformed frames — matches node 0."""
        filters = [compile_filter(""), compile_filter("udp")]
        shared = SharedFilter(["all", "dns"], filters)
        mbufs = random_mbufs(random.Random(3), 50)
        for mbuf in mbufs:
            verdict = filters[0].packet_filter(mbuf)
            assert verdict.matched and verdict.terminal \
                and verdict.node == 0
        assert_equivalent(shared, mbufs)

    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    def test_first_match_priority_order(self, mode):
        """A tenant whose filter has overlapping OR branches must get
        the same branch's node id from the shared walk as from its own
        filter (the ladder-order property)."""
        texts = [
            "tcp.dst_port = 443 or tcp",
            "tcp or tcp.dst_port = 443",
            "ipv4 or (ipv4 and tcp)",
            "(ipv4 and tcp) or ipv4 or udp",
        ]
        filters = [compile_filter(t, mode=mode) for t in texts]
        shared = SharedFilter([f"t{i}" for i in range(len(texts))],
                              filters)
        assert_equivalent(shared, random_mbufs(random.Random(23), 80))

    def test_union_hardware_admits_every_tenant(self):
        filters = [compile_filter("tcp.dst_port = 443"),
                   compile_filter("udp.dst_port = 53"),
                   compile_filter("ipv4.src_addr in 10.0.0.0/8")]
        hw = union_hardware(filters)
        from repro.packet.stack import parse_stack
        rng = random.Random(5)
        for mbuf in random_mbufs(rng, 60):
            stack = parse_stack(mbuf)
            if stack.eth is None:
                continue
            admitted_any = any(f.hardware.admits(stack)
                               for f in filters)
            if admitted_any:
                assert hw.admits(stack)

    def test_match_all_hardware_union_is_accept_all(self):
        filters = [compile_filter("tcp"), compile_filter("")]
        assert union_hardware(filters).accept_all
