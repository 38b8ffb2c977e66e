"""The burst classifier against the scalar code it stands in for.

Every fast row's verdict out of a :class:`~repro.filter.batch.BurstTree`
— the NIC's flow rules, a lone filter, a tenant table — must be what
the scalar path computes for that frame: ``packet_filter`` per lane for
filter tries (same node, same terminal flag, so first-match order
across overlapping report nodes included), ``HardwareFilter.admits``
for rule sets. Both executions are held to it: the generated function
and the interpreted walk.
"""

import random

import pytest

from repro.filter import compile_filter
from repro.filter.batch import NO_MATCH, BurstTree, encode_verdict
from repro.filter.codegen import compile_burst_classifier, compile_hw_admit
from repro.packet import Mbuf, parse_stack
from repro.packet.columnar import decode_mbufs
from repro.tenancy import union_hardware
from tests.test_tenancy_fuzz import random_filter, random_mbufs

#: Filters where one row reaches two report nodes of one trie: a
#: non-terminal report (a connection-layer child) above or beside a
#: terminal one. The scalar ladder returns the first in its order.
OVERLAPPING = (
    "tcp.port = 80 or (tcp and http)",
    "(ipv4 and tls) or (ipv4 and tcp.dst_port = 443) or udp",
    "(tcp and http) or (tcp.src_port = 443 and tls) or tcp.dst_port = 443",
    "(udp and dns) or (ipv6 and udp.port = 53) or ipv4.addr in 10.0.0.0/8",
)


def _both_forms(tree, cols):
    """The generated and the interpreted verdicts, one list per lane."""
    got = [compile_burst_classifier(tree)(cols), tree.interpret(cols)]
    return [vecs if tree.lanes > 1 else [vecs] for vecs in got]


def _scalar_verdict(compiled, frame):
    result = compiled.packet_filter(Mbuf(frame))
    return encode_verdict(result.node, result.terminal) \
        if result.matched else NO_MATCH


@pytest.mark.parametrize("seed", range(16))
def test_filter_lanes_match_the_scalar_filters(seed):
    rng = random.Random(0xB0257 + seed)
    texts = [random_filter(rng) for _ in range(rng.randint(0, 3))]
    texts.insert(rng.randint(0, len(texts)),
                 OVERLAPPING[seed % len(OVERLAPPING)])
    filters = [compile_filter(text) for text in texts]
    tree = BurstTree.of_tries([compiled.trie for compiled in filters])
    assert tree.supported
    mbufs = random_mbufs(rng, 160)
    cols = decode_mbufs(mbufs)
    for vecs in _both_forms(tree, cols):
        for lane, compiled in enumerate(filters):
            for i, mbuf in enumerate(mbufs):
                if cols.fast[i]:
                    assert vecs[lane][i] == _scalar_verdict(
                        compiled, bytes(mbuf.data)), (texts[lane], i)


@pytest.mark.parametrize("seed", range(8))
def test_rule_lane_matches_the_scalar_rules(seed):
    rng = random.Random(0xAD417 + seed)
    hw = union_hardware([compile_filter(random_filter(rng))
                         for _ in range(rng.randint(1, 4))])
    if hw.accept_all:  # some tenant is match-all: no tree to build
        assert compile_hw_admit(hw) is True
        return
    tree = BurstTree.of_rules(hw.rules)
    assert tree.supported
    mbufs = random_mbufs(rng, 160)
    cols = decode_mbufs(mbufs)
    for (admitted,) in _both_forms(tree, cols):
        for i, mbuf in enumerate(mbufs):
            if cols.fast[i]:
                assert (admitted[i] >= 0) == hw.admits(
                    parse_stack(Mbuf(bytes(mbuf.data)))), i
