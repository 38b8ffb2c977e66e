"""The checksum kernel (``repro.packet.builder``: ``word_sum``,
``fold_checksum``, ``checksum16``) against an independent word-by-word
RFC 1071 reference, and every frame the generators emit against the
ingress-side verifier."""

import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netem.impair import frame_checksums_ok
from repro.packet import build_icmp_echo, build_udp_packet, checksum16
from repro.packet.builder import fold_checksum, word_sum
from tests.test_traffic_golden import CASES


def rfc1071(data: bytes) -> int:
    """The reference: add 16-bit words one at a time, carry end-around
    after every addition, complement. Shares no code with the kernel."""
    total = 0
    for i in range(0, len(data) - 1, 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    if len(data) % 2:
        total += data[-1] << 8
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=3000))
@example(b"")
@example(b"\x00")
@example(b"\xff")
@example(bytes(64))
@example(b"\xff" * 64)
@example(b"\xff" * 65)
@example(b"\xff\xfe\x00\x01")          # sums to exactly 0xFFFF
@example(b"\x00\x00\xff\xff\x00")
def test_checksum16_equals_reference(data):
    assert checksum16(data) == rfc1071(data)
    assert checksum16(bytearray(data)) == rfc1071(data)
    assert checksum16(memoryview(data)) == rfc1071(data)


@pytest.mark.parametrize("size", [65536, 65537, 200_001])
@pytest.mark.parametrize("fill", ["random", "zero", "ones"])
def test_checksum16_beyond_64k(size, fill):
    data = {"random": random.Random(size).randbytes(size),
            "zero": bytes(size), "ones": b"\xff" * size}[fill]
    assert checksum16(data) == rfc1071(data)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.binary(max_size=200), max_size=5), st.binary(max_size=200))
def test_partial_sums_compose(parts, last):
    # Every part but the last must have even length (whole words).
    parts = [p + b"\x00" if len(p) % 2 else p for p in parts]
    whole = b"".join(parts) + last
    composed = fold_checksum(sum(map(word_sum, parts)) + word_sum(last))
    assert composed == checksum16(whole) == rfc1071(whole)


def test_all_zero_parts_stay_zero():
    # A sum of zero folds to zero (checksum 0xFFFF); only a non-zero
    # multiple of 0xFFFF folds to 0xFFFF (checksum 0).
    assert fold_checksum(0) == 0xFFFF
    assert fold_checksum(0xFFFF) == fold_checksum(3 * 0xFFFF) == 0


@pytest.mark.parametrize("src,dst", [("10.0.0.1", "10.0.0.2"),
                                     ("2607:f6d0::1", "2607:f010::2")])
def test_udp_checksum_zero_is_sent_as_ffff(src, dst):
    probe = build_udp_packet(src, dst, 1000, 2000, b"\x00\x00")
    field, = struct.unpack("!H", probe[-4:-2])
    # A payload word equal to the checksum brings the sum to 0xFFFF:
    # the computed checksum is 0, which UDP transmits as 0xFFFF.
    frame = build_udp_packet(src, dst, 1000, 2000, struct.pack("!H", field))
    assert frame[-4:-2] == b"\xff\xff"
    assert frame_checksums_ok(frame) is True


def test_icmp_echo_checksums():
    for reply, ident, seq, payload in [(False, 1, 1, bytes(32)),
                                       (True, 0, 0, bytes(32)),
                                       (True, 77, 9, b"odd length!")]:
        frame = build_icmp_echo("10.0.0.1", "10.0.0.2", ident, seq,
                                reply=reply, payload=payload)
        assert frame_checksums_ok(frame) is True      # IPv4 header
        assert rfc1071(frame[34:]) == 0               # ICMP message


@pytest.mark.parametrize("name", list(CASES))
def test_generated_frames_verify(name):
    verdicts = {frame_checksums_ok(m.data) for m in CASES[name]()}
    assert False not in verdicts
    assert True in verdicts
