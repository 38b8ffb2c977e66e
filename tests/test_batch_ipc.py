"""Zero-copy substrate tests: malformed input through the parse-once
views, a burst's private slot image round-tripping across the control
queue, and the allocation budget of the filtered-out fast path. The
image written into shm slots is tested in test_shm_transport.py."""

import pickle
import struct
import tracemalloc

from repro import Runtime, RuntimeConfig
from repro.packet import (
    ETHERTYPE_IPV4,
    Mbuf,
    build_ethernet,
    build_tcp_packet,
    build_udp_packet,
    parse_stack,
)
from repro.packet.batch import (
    SLOT_HEADER_BYTES,
    slot_image,
    slot_read,
    slot_rows,
)
from repro.packet.ethernet import ETHERTYPE_VLAN


def tcp_frame(**kwargs):
    defaults = dict(src="10.0.0.1", dst="192.168.1.2", src_port=12345,
                    dst_port=443, payload=b"hello")
    defaults.update(kwargs)
    return build_tcp_packet(**defaults)


class TestMalformedFrames:
    """parse_stack never raises; it records exactly the layers present."""

    def test_truncated_ethernet(self):
        stack = parse_stack(Mbuf(b"\x00" * 10))
        assert stack.eth is None
        assert stack.ip is None
        assert stack.l4_payload() == b""
        assert stack.l4_payload_len() == 0

    def test_empty_frame(self):
        stack = parse_stack(Mbuf(b""))
        assert stack.eth is None

    def test_truncated_ipv4_header(self):
        frame = tcp_frame()[:14 + 10]  # mid-IPv4 fixed header
        stack = parse_stack(Mbuf(frame))
        assert stack.eth is not None
        assert stack.ipv4 is None
        assert stack.tcp is None

    def test_truncated_tcp_header(self):
        frame = tcp_frame()
        stack = parse_stack(Mbuf(frame[:14 + 20 + 10]))  # mid-TCP
        assert stack.ipv4 is not None
        assert stack.tcp is None
        assert stack.l4_payload_len() == 0

    def test_truncated_vlan_tag_is_partial_not_error(self):
        # Frame ends inside the 802.1Q tag: the eager VLAN walk must
        # stop cleanly (historically this escaped as struct.error).
        frame = build_ethernet(b"", ETHERTYPE_VLAN) + b"\x00"
        stack = parse_stack(Mbuf(frame))
        assert stack.eth is not None
        assert stack.eth.next_protocol() is None
        assert stack.ip is None

    def test_ipv4_options_shift_transport_offset(self):
        # Rewrite IHL to 6 (one 4-byte option word) and splice the
        # option in; the TCP view must start 4 bytes later.
        frame = bytearray(tcp_frame(payload=b"PAYLOAD"))
        frame[14] = 0x46
        total_len = struct.unpack_from("!H", frame, 16)[0] + 4
        struct.pack_into("!H", frame, 16, total_len)
        frame = bytes(frame[:34]) + b"\x01\x01\x01\x00" + bytes(frame[34:])
        stack = parse_stack(Mbuf(frame))
        assert stack.ipv4 is not None
        assert stack.ipv4.header_len() == 24
        assert stack.tcp is not None
        assert stack.tcp.offset == 14 + 24
        assert stack.tcp.dst_port() == 443
        assert stack.l4_payload() == b"PAYLOAD"

    def test_vlan_offsets_through_parse_stack(self):
        # Single and double (QinQ) tags push every layer to odd
        # offsets; the cached header walk must follow them.
        inner = tcp_frame(payload=b"odd")[14:]
        single = build_ethernet(
            struct.pack("!HH", 7, ETHERTYPE_IPV4) + inner, ETHERTYPE_VLAN)
        double = build_ethernet(
            struct.pack("!HH", 8, ETHERTYPE_VLAN)
            + struct.pack("!HH", 9, ETHERTYPE_IPV4) + inner,
            ETHERTYPE_VLAN)
        for frame, hdr_len, vlans in ((single, 18, (7,)),
                                      (double, 22, (8, 9))):
            stack = parse_stack(Mbuf(frame))
            assert stack.eth.vlan_ids() == vlans
            assert stack.eth.header_len() == hdr_len
            assert stack.ipv4.offset == hdr_len
            assert stack.tcp is not None
            assert stack.l4_payload() == b"odd"

    def test_transport_claim_with_no_transport_bytes(self):
        # IPv4 says protocol=TCP but the frame stops at the IP header.
        frame = tcp_frame()[:34]
        stack = parse_stack(Mbuf(frame))
        assert stack.ipv4 is not None
        assert stack.tcp is None


def _over_ctrl(image):
    """The image as a burst too large for a slot crosses the control
    queue: pickled bytes."""
    return pickle.loads(pickle.dumps(bytes(image)))


class TestPackedBatch:
    """A burst packed into its private slot image (what the redo log
    keeps and the control queue carries) and read back."""

    def _mbufs(self):
        return [
            Mbuf(tcp_frame(payload=b"a" * 40), 1.25, 0),
            Mbuf(build_udp_packet("10.0.0.9", "8.8.8.8", 5353, 53,
                                  payload=b"q"), 2.5, 1),
            Mbuf(b"", 3.0625, 0),  # empty frame keeps its slot
        ]

    def test_round_trip_preserves_everything(self):
        mbufs = self._mbufs()
        out, seq, ctx = slot_read(_over_ctrl(slot_image(mbufs, 5)), 0)
        assert (seq, ctx) == (-1, None)
        assert len(out) == len(mbufs)
        for orig, new in zip(mbufs, out):
            assert bytes(new.data) == bytes(orig.data)
            assert new.timestamp == orig.timestamp  # exact float64
            assert new.port == orig.port
            assert new.queue == 5
            assert new.stack is None and new.pkt_term_node is None

    def test_unpacked_data_is_zero_copy_view(self):
        wire = _over_ctrl(slot_image(self._mbufs(), 0))
        views, _, _ = slot_read(wire, 0)
        assert all(isinstance(m.data, memoryview) for m in views)
        assert views[0].data.obj is wire

    def test_jumbo_frame_promotes_length_array(self):
        # A frame longer than 0xFFFF bytes cannot ship its length as
        # u16; the image must promote the whole length array to u32
        # and still round-trip byte-exactly (a silent u16 wrap would
        # corrupt every offset after the jumbo frame).
        # Built by appending raw bytes: the builder's checksum pseudo
        # header is u16-limited, but the image must not care what is
        # in a frame.
        jumbo = tcp_frame(payload=b"") + b"J" * 70000
        assert len(jumbo) > 0xFFFF
        mbufs = [
            Mbuf(tcp_frame(payload=b"before"), 1.0, 0),
            Mbuf(jumbo, 2.0, 1),
            Mbuf(tcp_frame(payload=b"after"), 3.0, 0),
        ]
        image = slot_image(mbufs, 2)
        frames = sum(len(m.data) for m in mbufs)
        # u32 lengths, f64 timestamps, a u16 port column (mixed ports)
        assert len(image) == SLOT_HEADER_BYTES + 3 * (4 + 8 + 2) + frames
        out, _, _ = slot_read(_over_ctrl(image), 0)
        assert len(out) == 3
        for orig, new in zip(mbufs, out):
            assert bytes(new.data) == bytes(orig.data)
            assert new.timestamp == orig.timestamp
            assert new.port == orig.port
            assert new.queue == 2

    def test_uniform_ports_collapse_on_the_wire(self):
        image = slot_image(
            [Mbuf(b"x" * 10, float(i), 3) for i in range(4)], None)
        # no port column: u16 length + f64 timestamp per row
        assert len(image) == SLOT_HEADER_BYTES + 4 * (2 + 8) + 40
        out, _, _ = slot_read(_over_ctrl(image), 0)
        assert [m.port for m in out] == [3, 3, 3, 3]
        assert all(m.queue is None for m in out)

    def test_mixed_ports_survive(self):
        image = slot_image([Mbuf(b"x", 0.0, 0), Mbuf(b"y", 0.5, 2)], 0)
        assert len(image) == SLOT_HEADER_BYTES + 2 * (2 + 8 + 2) + 2
        out, _, _ = slot_read(_over_ctrl(image), 0)
        assert [m.port for m in out] == [0, 2]

    def test_oversize_frame_uses_wide_lengths(self):
        image = slot_image([Mbuf(b"z" * 70000, 0.0, 0)], 0)
        assert len(image) == SLOT_HEADER_BYTES + 4 + 8 + 70000
        out, _, _ = slot_read(_over_ctrl(image), 0)
        assert len(out[0].data) == 70000

    def test_empty_batch(self):
        image = slot_image([], None)
        assert len(image) == SLOT_HEADER_BYTES
        assert slot_rows(image) == 0
        assert slot_read(_over_ctrl(image), 0) == ([], -1, None)


class TestFilteredOutAllocationBudget:
    def test_filtered_packets_do_not_copy_payloads(self):
        """Regression guard: a packet rejected by the software packet
        filter must not allocate a copy of its (large) payload — the
        parse-once views borrow from the frame in place.

        The budget covers the retained per-packet parse state (the
        memoized PacketStack plus header views, a few hundred bytes)
        with headroom for allocator noise; it is far below the ~1.5 KB
        frames, so any per-packet payload copy on the reject path
        trips it.
        """
        per_packet = self._reject_path_bytes_per_packet(columnar=False)
        assert per_packet < 700, \
            f"filtered-out path allocates {per_packet:.0f} B/packet"

    def test_columnar_reject_path_stays_below_payload_copy(self):
        """Columnar mode keeps per-burst column state alive while a
        batch is pending, so its budget is higher than the scalar
        path's — but it must stay well below frame size: a payload
        copy per rejected packet would add >= 1400 B/packet."""
        per_packet = self._reject_path_bytes_per_packet(columnar=True)
        assert per_packet < 1100, \
            f"columnar reject path allocates {per_packet:.0f} B/packet"

    def _reject_path_bytes_per_packet(self, columnar: bool) -> float:
        n = 400
        frame = tcp_frame(payload=b"\xab" * 1400)
        traffic = [Mbuf(frame, i * 1e-4, 0) for i in range(n)]
        runtime = Runtime(RuntimeConfig(cores=1, columnar=columnar),
                          filter_str="udp", datatype="packet",
                          callback=None)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            report = runtime.run(iter(traffic))
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.stats.pf_packets == 0  # everything filtered out
        return (peak - before) / n
