"""Columnar-vs-scalar parity over a malformed-frame corpus.

The columnar hot path (bulk header decode, mask-based batch filters,
column-keyed conntrack) must agree with the scalar parse-once path on
*every* frame: fast rows bit-for-bit, slow rows by falling back to
``parse_stack``. This suite drives a corpus of VLAN, QinQ, IPv4-option,
IPv6, extension-header, fragmented, truncated, and plain frames through
both and asserts identical five-tuples, filter verdicts (codegen and
interp), and end-to-end AggregateStats.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime, RuntimeConfig
from repro.filter import compile_filter
from repro.filter.batch import NO_MATCH, encode_verdict
from repro.packet import (
    Mbuf,
    build_icmp_echo,
    build_tcp_packet,
    build_udp_packet,
    parse_stack,
)
from repro.packet.columnar import decode_mbufs
from repro.traffic import CampusTrafficGenerator, HttpsWorkloadGenerator

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8


def _vlan(frame: bytes, tci: int = 0x0064,
          tpid: int = ETHERTYPE_VLAN) -> bytes:
    """Splice one 802.1Q/802.1ad tag after the MAC addresses."""
    return (frame[:12] + struct.pack("!HH", tpid, tci) + frame[12:])


def _ipv4_with_options(frame: bytes) -> bytes:
    """Grow IHL to 6 and splice in one 4-byte option word."""
    out = bytearray(frame)
    out[14] = 0x46
    total_len = struct.unpack_from("!H", out, 16)[0] + 4
    struct.pack_into("!H", out, 16, total_len)
    return bytes(out[:34]) + b"\x01\x01\x01\x00" + bytes(out[34:])


def _ipv4_fragment(frame: bytes, offset_words: int = 4) -> bytes:
    """Set a non-zero fragment offset (a non-first fragment)."""
    out = bytearray(frame)
    struct.pack_into("!H", out, 20, offset_words & 0x1FFF)
    return bytes(out)


def _ipv6_with_hopopts(frame: bytes) -> bytes:
    """Insert a hop-by-hop extension header before the transport."""
    out = bytearray(frame)
    transport_proto = out[20]
    out[20] = 0  # next header: hop-by-hop
    plen = struct.unpack_from("!H", out, 18)[0] + 8
    struct.pack_into("!H", out, 18, plen)
    ext = bytes([transport_proto, 0]) + b"\x00" * 6
    return bytes(out[:54]) + ext + bytes(out[54:])


def _tcp_with_options(frame: bytes, words: int) -> bytes:
    """Grow the TCP data offset by ``words`` NOP-filled option words
    (IPv4 or IPv6 frame, no IP options) and fix the IP length field."""
    out = bytearray(frame)
    v6 = out[12:14] == b"\x86\xdd"
    toff, len_off = (54, 18) if v6 else (34, 16)
    out[toff + 12] = (5 + words) << 4
    ip_len = struct.unpack_from("!H", out, len_off)[0] + 4 * words
    struct.pack_into("!H", out, len_off, ip_len)
    return bytes(out[:toff + 20]) + b"\x01" * (4 * words) + \
        bytes(out[toff + 20:])


def _tcp4(payload=b"hello", **kw):
    kw.setdefault("src", "10.0.0.1")
    kw.setdefault("dst", "192.168.1.2")
    kw.setdefault("src_port", 33000)
    kw.setdefault("dst_port", 443)
    return build_tcp_packet(payload=payload, **kw)


def _udp4(payload=b"q", **kw):
    kw.setdefault("src", "10.0.0.9")
    kw.setdefault("dst", "8.8.8.8")
    kw.setdefault("src_port", 5353)
    kw.setdefault("dst_port", 53)
    return build_udp_packet(payload=payload, **kw)


def _tcp6(payload=b"v6 payload", **kw):
    kw.setdefault("src", "2001:db8::1")
    kw.setdefault("dst", "2001:db8:ffff::2")
    kw.setdefault("src_port", 50000)
    kw.setdefault("dst_port", 443)
    return build_tcp_packet(payload=payload, **kw)


def _udp6(payload=b"dns", **kw):
    kw.setdefault("src", "2001:db8::9")
    kw.setdefault("dst", "2606:4700::1111")
    kw.setdefault("src_port", 40000)
    kw.setdefault("dst_port", 53)
    return build_udp_packet(payload=payload, **kw)


def corpus_frames():
    """(name, frame bytes, expect_fast) triples covering every decoder
    gate: plain v4/v6 TCP/UDP are fast; everything the 68-byte
    fixed-offset decode cannot prove simple must take the slow path."""
    return [
        ("tcp4", _tcp4(), True),
        ("tcp4_syn", _tcp4(payload=b"", flags=0x02), True),
        ("udp4", _udp4(), True),
        ("tcp6", _tcp6(), True),
        ("udp6", _udp6(), True),
        ("tcp4_matchport", _tcp4(dst_port=8080), True),
        ("vlan_tcp4", _vlan(_tcp4()), False),
        ("qinq_tcp4", _vlan(_vlan(_tcp4()), tpid=ETHERTYPE_QINQ), False),
        ("ipv4_options_tcp", _ipv4_with_options(_tcp4()), False),
        ("ipv4_fragment", _ipv4_fragment(_tcp4()), False),
        ("ipv6_hopopts_tcp", _ipv6_with_hopopts(_tcp6()), False),
        ("icmp_echo", build_icmp_echo("10.0.0.1", "10.0.0.2"), False),
        ("trunc_eth", _tcp4()[:10], False),
        ("trunc_ipv4", _tcp4()[:14 + 12], False),
        ("trunc_tcp", _tcp4()[:14 + 20 + 8], False),
        ("trunc_ipv6", _tcp6()[:14 + 20], False),
        ("empty", b"", False),
    ]


def corpus_mbufs():
    return [Mbuf(frame, 0.001 * (i + 1), 0)
            for i, (_name, frame, _fast) in enumerate(corpus_frames())]


FILTERS = [
    "tcp",
    "udp",
    "ipv4",
    "ipv6",
    "tcp.dst_port = 443",
    "ipv4.src_addr in 10.0.0.0/8 and tcp",
    "ipv6 and udp.dst_port = 53",
    "udp or tcp.dst_port = 8080",
]


class TestColumnarDecodeParity:
    def test_fast_mask_matches_expectations(self):
        mbufs = corpus_mbufs()
        cols = decode_mbufs(mbufs)
        got = {name: cols.fast[i]
               for i, (name, _f, _e) in enumerate(corpus_frames())}
        want = {name: expect for name, _f, expect in corpus_frames()}
        assert got == want

    def test_fast_row_five_tuples_match_parse_stack(self):
        mbufs = corpus_mbufs()
        cols = decode_mbufs(mbufs)
        for i, mbuf in enumerate(mbufs):
            if not cols.fast[i]:
                continue
            stack = parse_stack(Mbuf(bytes(mbuf.data)))
            ip = stack.ipv4 if stack.ipv4 is not None else stack.ipv6
            transport = stack.tcp if stack.tcp is not None else stack.udp
            assert cols.src_ip[i] == ip.src_addr().packed
            assert cols.dst_ip[i] == ip.dst_addr().packed
            assert cols.src_port[i] == transport.src_port()
            assert cols.dst_port[i] == transport.dst_port()
            assert cols.payload_len[i] == stack.l4_payload_len()
            assert cols.wire[i] == len(mbuf.data)
            if stack.tcp is not None:
                assert cols.proto[i] == 6
                assert cols.tcp_flags[i] == stack.tcp.flags_raw()
                assert cols.tcp_seq[i] == stack.tcp.seq_no()
            else:
                assert cols.proto[i] == 17


    @settings(max_examples=300, deadline=None)
    @given(v6=st.booleans(), udp=st.booleans(),
           opt_words=st.integers(0, 10), payload=st.binary(max_size=48),
           tail=st.integers(-60, 12), view=st.booleans())
    def test_payload_off_slices_l4_payload(self, v6, udp, opt_words,
                                           payload, tail, view):
        """``payload_off``/``payload_len`` address exactly the bytes
        ``l4_payload()`` returns: with TCP options, with Ethernet
        padding (``tail`` > 0: IP length < wire), truncated (``tail`` <
        0: IP length > wire), with no payload, on either buffer type."""
        if udp:
            frame = (_udp6 if v6 else _udp4)(payload=payload)
        else:
            frame = _tcp_with_options(
                (_tcp6 if v6 else _tcp4)(payload=payload), opt_words)
        if tail >= 0:
            frame += b"\xee" * tail
        else:
            frame = frame[:max(0, len(frame) + tail)]
        mbuf = Mbuf(memoryview(frame) if view else frame)
        cols = decode_mbufs([mbuf])
        # Fast exactly while the cut stays above the transport header.
        assert cols.fast[0] == (-tail <= len(payload))
        if cols.fast[0]:
            off = cols.payload_off[0]
            got = bytes(mbuf.data[off:off + cols.payload_len[0]])
            assert got == parse_stack(Mbuf(frame)).l4_payload()
            assert got == payload[:len(payload) + min(tail, 0)]
            assert mbuf.stack is None


class TestColumnarFilterParity:
    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    @pytest.mark.parametrize("filter_str", FILTERS)
    def test_batch_verdicts_match_scalar(self, filter_str, mode):
        compiled = compile_filter(filter_str, mode=mode)
        batch = compiled.packet_filter_batch
        assert batch is not None, \
            f"{filter_str!r} should be batch-expressible"
        mbufs = corpus_mbufs()
        cols = decode_mbufs(mbufs)
        verdicts = batch(cols)
        names = [name for name, _f, _e in corpus_frames()]
        for i, mbuf in enumerate(mbufs):
            if not cols.fast[i]:
                continue  # slow rows always re-run the scalar filter
            result = compiled.packet_filter(Mbuf(bytes(mbuf.data)))
            want = (encode_verdict(result.node, result.terminal)
                    if result.matched else NO_MATCH)
            assert verdicts[i] == want, \
                f"{filter_str!r} [{mode}] disagrees on {names[i]}"


class TestColumnarEndToEnd:
    def _canonical(self, columnar, filter_mode="codegen",
                   filter_str="tcp", datatype="connection"):
        # Replicate the corpus so batches mix fast and slow rows and
        # connections see multiple packets.
        traffic = []
        ts = 0.0
        for rep in range(40):
            for name, frame, _fast in corpus_frames():
                ts += 13e-6
                traffic.append(Mbuf(frame, ts, 0))
        runtime = Runtime(
            RuntimeConfig(cores=2, columnar=columnar,
                          filter_mode=filter_mode),
            filter_str=filter_str, datatype=datatype, callback=None)
        report = runtime.run(iter(traffic))
        return json.dumps(report.stats.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    def test_aggregate_stats_identical(self, mode):
        scalar = self._canonical(columnar=False, filter_mode=mode)
        columnar = self._canonical(columnar=True, filter_mode=mode)
        assert columnar == scalar

    def test_aggregate_stats_identical_ipv6_filter(self):
        scalar = self._canonical(columnar=False, filter_str="ipv6 and tcp")
        columnar = self._canonical(columnar=True, filter_str="ipv6 and tcp")
        assert columnar == scalar


class TestNoReparse:
    """After the burst decode a fast row is served from its columns:
    no ``PacketStack`` is ever memoised on its mbuf, whatever state its
    connection is in, and the stats still equal the scalar path's."""

    @pytest.fixture(scope="class")
    def traces(self):
        https = HttpsWorkloadGenerator(
            seed=5, response_bytes=24 * 1024).packets(40, duration=0.5)
        campus = CampusTrafficGenerator(seed=21).packets(
            duration=0.4, gbps=0.3)
        return {"https": [(m.data, m.timestamp, m.port) for m in https],
                "campus": [(m.data, m.timestamp, m.port) for m in campus]}

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["sequential", "parallel2"])
    @pytest.mark.parametrize("filter_str,datatype", [
        ("tcp.port = 443", "byte_stream"),
        ("tls.sni ~ 'e'", "tls_handshake"),
        ("tcp", "connection"),
    ], ids=["byte_stream", "tls_handshake", "connection"])
    @pytest.mark.parametrize("trace", ["https", "campus"])
    def test_fast_rows_keep_no_stack(self, traces, trace, filter_str,
                                     datatype, parallel):
        def run(columnar):
            mbufs = [Mbuf(*row) for row in traces[trace]]
            runtime = Runtime(
                RuntimeConfig(cores=2, columnar=columnar,
                              parallel=parallel),
                filter_str=filter_str, datatype=datatype, callback=None)
            stats = runtime.run(iter(mbufs)).stats
            return mbufs, json.dumps(stats.to_dict(), sort_keys=True)

        mbufs, digest = run(columnar=True)
        fast = decode_mbufs([Mbuf(m.data) for m in mbufs]).fast
        assert sum(fast) > 0.9 * len(mbufs)
        assert [m for m, f in zip(mbufs, fast)
                if f and m.stack is not None] == []
        scalar_mbufs, scalar_digest = run(columnar=False)
        assert all(m.stack is not None for m in scalar_mbufs)
        assert digest == scalar_digest

    def test_unbatchable_filter_decodes_each_burst_once(self, traces,
                                                        monkeypatch):
        """``ipv4.ttl`` has no column, so the packet filter runs per
        packet — but the rows still carry the ingress decode: nothing
        decodes a burst a second time, fast rows key conntrack off
        their columns, and the stats equal the scalar path's."""
        import repro.core.pipeline as pipeline_mod
        import repro.packet.columnar as columnar_mod
        decodes = []

        def counting(mbufs, columnar=True):
            decodes.append(len(mbufs))
            return decode_mbufs(mbufs, columnar)

        monkeypatch.setattr(columnar_mod, "decode_mbufs", counting)
        monkeypatch.setattr(pipeline_mod, "decode_mbufs", counting)

        def run(columnar):
            mbufs = [Mbuf(*row) for row in traces["campus"]]
            runtime = Runtime(
                RuntimeConfig(cores=2, columnar=columnar),
                filter_str="ipv4.ttl > 5 and tcp", datatype="connection",
                callback=None)
            assert runtime.pipelines[0].solo._pf_batch is None
            stats = runtime.run(iter(mbufs)).stats
            return mbufs, json.dumps(stats.to_dict(), sort_keys=True)

        mbufs, digest = run(columnar=True)
        assert sum(decodes) == len(mbufs)
        assert len(decodes) == -(-len(mbufs) // 256)
        assert digest == run(columnar=False)[1]

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_tenant_table_decodes_each_chunk_once(self, traces,
                                                  monkeypatch, cores):
        """The multiplexer classifies and fans out the rows the ingress
        decoded: a sequential multi-tenant run calls ``decode_mbufs``
        once per ingress chunk, however its bursts are cut."""
        import repro.core.pipeline as pipeline_mod
        import repro.packet.columnar as columnar_mod
        import repro.tenancy.pipeline as tenancy_mod
        from repro.tenancy import TenantRuntime, TenantSpec
        decodes = []

        def counting(mbufs, columnar=True):
            decodes.append(len(mbufs))
            return decode_mbufs(mbufs, columnar)

        for mod in (columnar_mod, pipeline_mod, tenancy_mod):
            monkeypatch.setattr(mod, "decode_mbufs", counting)

        def run(columnar):
            mbufs = [Mbuf(*row) for row in traces["campus"]]
            runtime = TenantRuntime(
                RuntimeConfig(cores=cores, columnar=columnar),
                [TenantSpec("web", "tcp.dst_port = 443", "connection"),
                 TenantSpec("dns", "udp", "packet"),
                 TenantSpec("all", "", "packet")])
            report = runtime.run(iter(mbufs), memory_sample_interval=0.01)
            return mbufs, json.dumps(
                {name: stats.to_dict() for name, stats
                 in runtime.aggregate_tenants(report).items()},
                sort_keys=True)

        mbufs, digest = run(columnar=True)
        assert decodes == [256] * (len(mbufs) // 256) + \
            [len(mbufs) % 256][:len(mbufs) % 256]
        assert digest == run(columnar=False)[1]
