"""Tests for the simulated NIC: Toeplitz RSS, redirection table, device."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.filter import compile_filter
from repro.nic import (
    SYMMETRIC_RSS_KEY,
    RedirectionTable,
    SimNic,
    rss_input_bytes,
    toeplitz_hash,
)
from repro.nic.rss import _toeplitz_tables, toeplitz_kernel
from repro.filter.ast import Op, Predicate
from repro.filter.batch import BurstTree
from repro.filter.hardware import FlowRule, HardwareFilter
from repro.packet import Mbuf, build_icmp_echo, build_tcp_packet, \
    build_udp_packet, parse_stack
from repro.packet.columnar import decode_mbufs, ingress_rows
from repro.tenancy import union_hardware

#: ``bench_tenancy``'s eight tenant filters.
TENANTS8 = ("tcp.dst_port = 443", "tcp.dst_port = 80",
            "tcp.dst_port = 8080", "tcp.dst_port = 22",
            "udp.dst_port = 53", "udp.dst_port = 123",
            "tcp.src_port = 443", "udp")

#: Flow-rule sets for the burst-admit parity test.
ADMIT_CASES = {
    "tenants8": lambda: union_hardware(
        [compile_filter(text) for text in TENANTS8]),
    "addresses": lambda: compile_filter(
        "ipv4.src_addr in 10.0.0.0/8 or ipv6.dst_addr = 2001:db8::9 "
        "or (udp and ipv4.addr = 8.8.8.8)").hardware,
    # An icmp rule and an ipv4-and-ipv6 rule match no fast row.
    "icmp_and_both_ips": lambda: HardwareFilter([
        FlowRule(("eth", "ipv4", "icmp")),
        FlowRule(("eth", "ipv4", "ipv6", "tcp")),
        FlowRule(("eth", "ipv6"), (Predicate("tcp", "dst_port", Op.EQ,
                                             443),)),
    ], accept_all=False),
    # No column holds the TTL: every row takes the scalar path.
    "no_column": lambda: HardwareFilter([
        FlowRule(("eth", "ipv4"), (Predicate("ipv4", "ttl", Op.GT, 5),)),
        FlowRule(("eth", "ipv6", "udp")),
    ], accept_all=False),
}


def admit_corpus():
    """IPv4 and IPv6 TCP/UDP frames over the tenant ports, plus ICMP
    and truncated frames (slow rows)."""
    frames = []
    hosts = (("10.0.0.1", "8.8.8.8"), ("192.168.1.2", "10.1.2.3"),
             ("2001:db8::1", "2001:db8::9"), ("2606:4700::1111",
                                               "2001:db8::1"))
    for k, (src, dst) in enumerate(hosts):
        for sport, dport in ((40000, 443), (443, 40000), (5000, 80),
                             (5001, 8080), (5002, 22), (5003, 9999)):
            frames.append(build_tcp_packet(src, dst, sport + k, dport))
        for sport, dport in ((5353, 53), (123, 123), (7000, 7001),
                             (5004, 443)):
            frames.append(build_udp_packet(src, dst, sport, dport))
    frames.append(build_icmp_echo("10.0.0.1", "8.8.8.8"))
    frames.append(build_tcp_packet("10.0.0.1", "8.8.8.8", 1, 443)[:30])
    return frames


def toeplitz_bit_serial(key: bytes, data: bytes) -> int:
    """The textbook definition, kept as the oracle for the table-driven
    ``toeplitz_hash``: XOR the key's 32-bit window at every set input bit."""
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    for i, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_bits - 32 - (i * 8 + bit)
                result ^= (key_int >> shift) & 0xFFFFFFFF
    return result


class TestToeplitz:
    @settings(max_examples=300, deadline=None)
    @given(key_len=st.sampled_from([16, 40, 52]), data=st.data())
    def test_tables_match_bit_serial_oracle(self, key_len, data):
        key = data.draw(st.binary(min_size=key_len, max_size=key_len))
        msg = data.draw(st.binary(max_size=min(36, key_len - 4)))
        assert toeplitz_hash(key, msg) == toeplitz_bit_serial(key, msg)

    @pytest.mark.parametrize("key_len", [16, 40, 52])
    def test_longest_input_and_one_past(self, key_len):
        key = bytes(range(1, key_len + 1))
        msg = b"\xff" * (key_len - 4)
        assert toeplitz_hash(key, msg) == toeplitz_bit_serial(key, msg)
        with pytest.raises(ValueError):
            toeplitz_hash(key, msg + b"\x00")

    def test_tables_built_once_per_key(self):
        key = bytes.fromhex("a5" * 40)
        _toeplitz_tables.cache_clear()
        for i in range(50):
            toeplitz_hash(key, i.to_bytes(12, "big"))
        info = _toeplitz_tables.cache_info()
        assert (info.misses, info.hits) == (1, 49)
        assert len(_toeplitz_tables(key)) == 36
        assert all(len(t) == 256 for t in _toeplitz_tables(key))

    def test_known_microsoft_vector(self):
        """Verification suite vector from the MS RSS specification."""
        key = bytes.fromhex(
            "6d5a56da255b0ec24167253d43a38fb0"
            "d0ca2bcbae7b30b477cb2da38030f20c"
            "6a42b73bbeac01fa"
        )
        # IPv4: src 66.9.149.187:2794 -> dst 161.142.100.80:1766
        data = (
            ipaddress.ip_address("66.9.149.187").packed
            + ipaddress.ip_address("161.142.100.80").packed
            + (2794).to_bytes(2, "big")
            + (1766).to_bytes(2, "big")
        )
        assert toeplitz_hash(key, data) == 0x51CCC178

    def test_known_microsoft_vector_ipv6(self):
        key = bytes.fromhex(
            "6d5a56da255b0ec24167253d43a38fb0"
            "d0ca2bcbae7b30b477cb2da38030f20c"
            "6a42b73bbeac01fa"
        )
        data = (
            ipaddress.ip_address("3ffe:2501:200:1fff::7").packed
            + ipaddress.ip_address("3ffe:2501:200:3::1").packed
            + (2794).to_bytes(2, "big")
            + (1766).to_bytes(2, "big")
        )
        assert toeplitz_hash(key, data) == 0x40207D3D

    def test_key_too_short(self):
        with pytest.raises(ValueError):
            toeplitz_hash(b"\x01\x02", b"\x00" * 12)

    @settings(max_examples=50, deadline=None)
    @given(
        src=st.integers(0, 2 ** 32 - 1),
        dst=st.integers(0, 2 ** 32 - 1),
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
    )
    def test_symmetry_property(self, src, dst, sport, dport):
        """With the 0x6d5a key, swapping direction preserves the hash —
        the property that makes per-core connection tables safe."""
        fwd = (
            src.to_bytes(4, "big") + dst.to_bytes(4, "big")
            + sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
        )
        rev = (
            dst.to_bytes(4, "big") + src.to_bytes(4, "big")
            + dport.to_bytes(2, "big") + sport.to_bytes(2, "big")
        )
        assert toeplitz_hash(SYMMETRIC_RSS_KEY, fwd) == \
            toeplitz_hash(SYMMETRIC_RSS_KEY, rev)

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from([SYMMETRIC_RSS_KEY + bytes.fromhex("6d5a6d5a"),
                                bytes.fromhex("abcd") * 22]),
           data=st.data())
    def test_periodic_keys_fold_and_match_bit_serial(self, key, data):
        """A 16-bit-periodic key's byte tables repeat with period two,
        which selects the XOR fold; it agrees with the oracle on every
        even length from 0 to 40 bytes, through the public hash and
        through the NIC's kernel alike."""
        tables = _toeplitz_tables(key)
        assert tables[2] is tables[0] and tables[3] is tables[1]
        size = data.draw(st.integers(0, 20)) * 2
        msg = data.draw(st.binary(min_size=size, max_size=size))
        expected = toeplitz_bit_serial(key, msg)
        assert toeplitz_hash(key, msg) == expected
        assert toeplitz_kernel(key)(msg) == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_microsoft_key_takes_per_byte_tables(self, data):
        key = bytes.fromhex(
            "6d5a56da255b0ec24167253d43a38fb0"
            "d0ca2bcbae7b30b477cb2da38030f20c"
            "6a42b73bbeac01fa"
        )
        tables = _toeplitz_tables(key)
        assert len({id(table) for table in tables}) == len(key) - 4
        size = data.draw(st.integers(0, (len(key) - 4) // 2)) * 2
        msg = data.draw(st.binary(min_size=size, max_size=size))
        expected = toeplitz_bit_serial(key, msg)
        assert toeplitz_hash(key, msg) == expected
        assert toeplitz_kernel(key)(msg) == expected

    @settings(max_examples=100, deadline=None)
    @given(addr_len=st.sampled_from([4, 16]), data=st.data())
    def test_swapping_address_and_port_halves_keeps_the_hash(
            self, addr_len, data):
        """Symmetric RSS: (src, dst, sport, dport) and (dst, src, dport,
        sport) hash alike, for both IP families, on the fold."""
        src, dst = (data.draw(st.binary(min_size=addr_len,
                                        max_size=addr_len))
                    for _ in range(2))
        sport, dport = (data.draw(st.binary(min_size=2, max_size=2))
                        for _ in range(2))
        kernel = toeplitz_kernel(SYMMETRIC_RSS_KEY)
        fwd = src + dst + sport + dport
        rev = dst + src + dport + sport
        assert kernel(fwd) == kernel(rev) == \
            toeplitz_bit_serial(SYMMETRIC_RSS_KEY, rev)

    def test_symmetry_ipv6(self):
        fwd = (
            ipaddress.ip_address("2001:db8::1").packed
            + ipaddress.ip_address("2001:db8::2").packed
            + (443).to_bytes(2, "big") + (51000).to_bytes(2, "big")
        )
        rev = (
            ipaddress.ip_address("2001:db8::2").packed
            + ipaddress.ip_address("2001:db8::1").packed
            + (51000).to_bytes(2, "big") + (443).to_bytes(2, "big")
        )
        assert toeplitz_hash(SYMMETRIC_RSS_KEY, fwd) == \
            toeplitz_hash(SYMMETRIC_RSS_KEY, rev)


class TestRssInput:
    def test_tcp_four_tuple(self):
        stack = parse_stack(Mbuf(build_tcp_packet("1.2.3.4", "5.6.7.8",
                                                  10, 20)))
        data = rss_input_bytes(stack)
        assert data == bytes([1, 2, 3, 4, 5, 6, 7, 8, 0, 10, 0, 20])

    def test_non_ip_none(self):
        assert rss_input_bytes(parse_stack(Mbuf(b"\x00" * 64))) is None

    def test_ip_only_uses_addresses(self):
        # ICMP-ish: protocol 1, no transport parse.
        from repro.packet.builder import build_ethernet, build_ipv4
        from repro.packet.ethernet import ETHERTYPE_IPV4
        frame = build_ethernet(
            build_ipv4(b"\x08\x00\x00\x00", "1.1.1.1", "2.2.2.2", 1),
            ETHERTYPE_IPV4,
        )
        data = rss_input_bytes(parse_stack(Mbuf(frame)))
        assert data == bytes([1, 1, 1, 1, 2, 2, 2, 2])


class TestRedirectionTable:
    def test_round_robin_default(self):
        table = RedirectionTable(4, size=8)
        assert table.entries == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_lookup_modulo(self):
        table = RedirectionTable(4, size=8)
        assert table.lookup(9) == table.entries[1]

    def test_sink_fraction(self):
        table = RedirectionTable(4, size=128)
        table.set_sink_fraction(0.25, SimNic.SINK)
        sink_entries = sum(1 for e in table.entries if e == SimNic.SINK)
        assert sink_entries == 32
        # Remaining entries still cover all queues.
        live = {e for e in table.entries if e != SimNic.SINK}
        assert live == {0, 1, 2, 3}

    def test_sink_reset(self):
        table = RedirectionTable(2, size=16)
        table.set_sink_fraction(0.5, SimNic.SINK)
        table.set_sink_fraction(0.0, SimNic.SINK)
        assert SimNic.SINK not in table.entries
        assert table.sink_queue is None

    def test_invalid_fraction(self):
        table = RedirectionTable(2)
        with pytest.raises(ValueError):
            table.set_sink_fraction(1.5, SimNic.SINK)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            RedirectionTable(0)
        with pytest.raises(ValueError):
            RedirectionTable(8, size=4)


class TestSimNic:
    def test_flow_affinity(self):
        """All packets of a connection (both directions) share a queue."""
        nic = SimNic(num_queues=8)
        fwd = Mbuf(build_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 443))
        rev = Mbuf(build_tcp_packet("10.0.0.2", "10.0.0.1", 443, 1234))
        assert nic.receive(fwd) == nic.receive(rev)
        assert fwd.queue == rev.queue

    def test_load_spread(self):
        """Many distinct flows spread across all queues."""
        nic = SimNic(num_queues=4)
        for i in range(400):
            mbuf = Mbuf(build_tcp_packet(f"10.0.{i % 250}.{i // 250 + 1}",
                                         "192.168.0.1", 1000 + i, 443))
            nic.receive(mbuf)
        used = set(nic.stats.dispatched_packets)
        assert used == {0, 1, 2, 3}
        counts = list(nic.stats.dispatched_packets.values())
        assert min(counts) > 0.5 * max(counts)  # roughly balanced

    def test_hardware_filter_drops(self):
        nic = SimNic(num_queues=2)
        nic.install_hardware_filter(
            compile_filter("tcp.port = 443 and ipv4").hardware)
        https = Mbuf(build_tcp_packet("1.1.1.1", "2.2.2.2", 1, 443))
        dns = Mbuf(build_udp_packet("1.1.1.1", "2.2.2.2", 53, 53))
        assert nic.receive(https) is not None
        assert nic.receive(dns) is None
        assert nic.stats.hw_dropped_packets == 1

    def test_sink_sampling_flow_consistent(self):
        nic = SimNic(num_queues=2)
        nic.set_sink_fraction(0.5)
        outcomes = {}
        for i in range(200):
            src = f"10.1.{i % 200}.7"
            first = nic.receive(Mbuf(build_tcp_packet(src, "8.8.8.8",
                                                      5000 + i, 443)))
            second = nic.receive(Mbuf(build_tcp_packet(src, "8.8.8.8",
                                                       5000 + i, 443)))
            assert first == second  # same four-tuple, same fate
            outcomes[i] = first
        dropped = sum(1 for q in outcomes.values() if q is None)
        assert 0.3 < dropped / len(outcomes) < 0.7

    def test_non_ip_goes_to_queue_zero(self):
        nic = SimNic(num_queues=4)
        assert nic.receive(Mbuf(b"\x00" * 64)) == 0

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SimNic(num_queues=0)

    def test_key_too_short_for_ipv6_is_refused_up_front(self):
        """The NIC's hash kernel does not check lengths per miss, so a
        key that cannot cover the 36-byte IPv6 input is refused when
        the NIC is programmed, not at the first IPv6 packet."""
        with pytest.raises(ConfigError):
            SimNic(num_queues=1, rss_key=SYMMETRIC_RSS_KEY[:-2])

    def test_entry_points_share_one_bounded_cache(self):
        """receive, receive_columnar and rss_hash go through the same
        miss path: one entry per flow, cleared when full."""
        nic = SimNic(num_queues=4, hash_cache_size=3)
        frames = [build_tcp_packet("10.0.0.1", "10.0.0.2", 1000 + i, 80)
                  for i in range(7)]
        mbufs = [Mbuf(frame) for frame in frames]
        cols = decode_mbufs(mbufs)
        for i, frame in enumerate(frames):
            queue = nic.receive_columnar(mbufs[i], cols, i)
            assert len(nic._hash_cache) == i % 3 + 1
            assert nic.receive(Mbuf(frame)) == queue
            assert nic.rss_hash(parse_stack(Mbuf(frame))) == \
                toeplitz_bit_serial(SYMMETRIC_RSS_KEY, frame[26:38])
            assert len(nic._hash_cache) == i % 3 + 1
        assert nic.stats.received_packets == 14

    @pytest.mark.parametrize("rules", sorted(ADMIT_CASES))
    def test_burst_admit_matches_scalar_rules(self, rules):
        """The burst admit against the scalar rules, frame by frame:
        ``receive_columnar`` over one decoded burst of IPv4 and IPv6
        TCP/UDP, ICMP and truncated rows leaves the same queue and the
        same counters after every frame as ``receive``, and a row is
        admitted exactly when ``HardwareFilter.admits`` says so."""
        hw = ADMIT_CASES[rules]()
        scalar, columnar = SimNic(num_queues=4), SimNic(num_queues=4)
        scalar.install_hardware_filter(hw)
        columnar.install_hardware_filter(hw)
        frames = admit_corpus()
        mbufs = [Mbuf(frame) for frame in frames]
        cols = decode_mbufs(mbufs)
        tree = BurstTree.of_rules(hw.rules)
        assert tree.supported == (rules != "no_column")
        if tree.supported:  # the generated form is the interpreted one
            assert columnar._col_admit(cols) == tree.interpret(cols)
        else:
            assert columnar._col_admit is None
        assert 0 < sum(cols.fast) < len(frames)
        assert any(len(cols.src_ip[i]) == 16 for i in range(cols.n)
                   if cols.fast[i])
        slow_calls = []
        receive = columnar.receive
        columnar.receive = lambda mbuf: slow_calls.append(mbuf) or \
            receive(mbuf)
        for i, frame in enumerate(frames):
            want = scalar.receive(Mbuf(frame))
            assert columnar.receive_columnar(mbufs[i], cols, i) == want
            assert columnar.stats.to_dict() == scalar.stats.to_dict()
            assert (want is not None) == \
                hw.admits(parse_stack(Mbuf(frame)))
        if rules == "no_column":
            assert slow_calls == mbufs  # every row stays on receive
        else:
            assert len(slow_calls) == cols.n - sum(cols.fast)
        assert 0 < scalar.stats.hw_dropped_packets < len(frames)

    def test_interleaved_ports_admit_once_per_burst(self):
        """Two ports interleaved in one chunk: each port's admit runs
        once per (batch, NIC filter), not once per row, and the rows
        fare as ``receive`` has them fare."""
        hws = [ADMIT_CASES["tenants8"](),
               compile_filter("ipv6 or udp.dst_port = 53").hardware]
        nics, oracles, calls = [], [], []
        for port, hw in enumerate(hws):
            nic, oracle = SimNic(num_queues=2), SimNic(num_queues=2)
            nic.install_hardware_filter(hw)
            oracle.install_hardware_filter(hw)
            admit = nic._col_admit

            def counting(cols, _admit=admit, _port=port):
                calls.append(_port)
                return _admit(cols)
            nic._col_admit = counting
            nics.append(nic)
            oracles.append(oracle)
        frames = admit_corpus()
        mbufs = [Mbuf(frame, 0.0, i % 2) for i, frame in enumerate(frames)]
        rows = list(ingress_rows(mbufs, nics, chunk_size=len(frames)))
        assert sorted(calls) == [0, 1]
        for mbuf, queue, _cols, _i in rows:
            assert queue == oracles[mbuf.port].receive(Mbuf(mbuf.data))
        for nic, oracle in zip(nics, oracles):
            assert nic.stats.to_dict() == oracle.stats.to_dict()
        list(ingress_rows(mbufs, nics, chunk_size=len(frames) // 3 + 1))
        assert sorted(calls) == [0] * 4 + [1] * 4

    def test_hash_cache_consistent(self):
        nic = SimNic(num_queues=4, hash_cache_size=2)
        mbuf = Mbuf(build_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        q1 = nic.receive(mbuf)
        # Overflow the cache with other flows, then re-receive.
        for i in range(5):
            nic.receive(Mbuf(build_tcp_packet("10.9.0.1", "10.0.0.2",
                                              100 + i, 2)))
        q2 = nic.receive(Mbuf(build_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)))
        assert q1 == q2
