"""Addresses as packed bytes: ``Direction`` builds the same frames from
packed addresses as from their text form, rejects a packed address of
the wrong length, and the campus generator draws its addresses packed —
no ``ipaddress`` parse while a trace is synthesized."""

import ipaddress
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.packet.builder import Direction, build_tcp_packet
from repro.traffic import (CampusProfile, CampusTrafficGenerator, FlowSpec,
                           TcpFlow, single_syn)
from tests.test_traffic_golden import CASES, GOLDEN, digest

_PORT = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)


def _frames(direction, payload, seq, ack, ident):
    """TCP, UDP and ICMP echo frames both ways along ``direction``."""
    out = []
    for d in (direction, direction.reverse):
        out += [d.tcp_frame(payload, seq, ack, 0x18),
                d.udp_frame(payload),
                d.icmp_echo_frame(ident, ident ^ 0xFFFF, payload=payload)]
    return out


@pytest.mark.parametrize("version", [4, 6])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), sport=_PORT, dport=_PORT,
       payload=st.binary(max_size=64), seq=_U32, ack=_U32, ident=_PORT)
def test_text_and_packed_addresses_build_identical_frames(
        version, data, sport, dport, payload, seq, ack, ident):
    src, dst = (data.draw(st.ip_addresses(v=version)) for _ in range(2))
    from_text = Direction(str(src), str(dst), sport, dport)
    from_packed = Direction(src.packed, dst.packed, sport, dport)
    assert _frames(from_text, payload, seq, ack, ident) == \
        _frames(from_packed, payload, seq, ack, ident)


@pytest.mark.parametrize("length", [0, 1, 3, 5, 8, 15, 17, 32])
def test_packed_address_of_wrong_length_is_rejected(length):
    with pytest.raises(ValueError, match="packed address"):
        Direction(bytes(length), bytes(4))
    with pytest.raises(ValueError, match="packed address"):
        Direction(bytes(16), bytes(length))
    with pytest.raises(ValueError, match="packed address"):
        build_tcp_packet(bytes(length), "10.0.0.1", 1, 2)


@pytest.mark.parametrize("spec", [
    FlowSpec("10.1.2.3", "171.64.9.9", 45555, 443),
    FlowSpec(bytes((10, 1, 2, 3)), bytes((171, 64, 9, 9)), 45555, 443),
    FlowSpec("2607:f6d0:1:2::3", "2607:f010:9::9", 45556, 22),
])
def test_single_syn_is_the_first_frame_of_a_tcp_flow(spec):
    lone, = single_syn(spec, 2.5)
    first, = TcpFlow(spec, start_ts=2.5).syn().build()
    assert (lone.data, lone.timestamp, lone.port) == \
        (first.data, first.timestamp, first.port)


@pytest.mark.parametrize("name", [
    "campus.bench_scan.connections[0]",
    "campus.bench_campus.packets[7]",
    "campus.bench_sessions.connections[42]",
])
def test_campus_synthesis_never_parses_an_address(monkeypatch, name):
    def parse(addr):
        raise AssertionError(f"ipaddress.ip_address({addr!r}) on the "
                             "synthesis path")

    monkeypatch.setattr(ipaddress, "ip_address", parse)
    assert digest(CASES[name]()) == GOLDEN[name]


def test_fresh_spec_addresses_follow_the_documented_plan():
    gen = CampusTrafficGenerator(3, CampusProfile(ipv6_fraction=0.5))
    families = set()
    for _ in range(10_000):
        spec = gen._fresh_spec(443)
        client, server = spec.client_ip, spec.server_ip
        assert type(client) is bytes and type(server) is bytes
        assert len(client) == len(server)
        assert 16384 <= spec.client_port < 65535
        families.add(len(client))
        if len(client) == 4:
            # 10.a.b.c → 171.64.b.c
            assert client[0] == 10 and 1 <= client[1] <= 31
            assert 1 <= client[3] <= 254
            assert server[:2] == b"\xab\x40" and 1 <= server[3] <= 254
            continue
        # 2607:f6d0:a:b::c → 2607:f010:d::e
        c = struct.unpack("!8H", client)
        s = struct.unpack("!8H", server)
        assert c[:2] == (0x2607, 0xF6D0) and c[2] != 0
        assert c[4:7] == (0, 0, 0) and c[7] != 0
        assert s[:2] == (0x2607, 0xF010)
        assert s[3:7] == (0, 0, 0, 0) and s[7] != 0
    assert families == {4, 16}
