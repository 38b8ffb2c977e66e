"""Columnar bulk decode of packet batches (the Retina data-path idea).

Retina amortizes per-packet work by operating on *bursts*: headers are
parsed in place and the compiled subscription touches each field once.
The Python analogue of "one instruction, many packets" is one *C call*,
many packets: this module gathers the first 68 bytes of every frame in
a batch into one contiguous buffer and decodes all fixed-offset
Ethernet/IP/TCP/UDP fields with two ``struct.iter_unpack`` passes (one
per IP version's layout) — a handful of bulk operations per 256-packet
burst instead of dozens of attribute lookups and ``unpack_from`` calls
per packet.

The decoded :class:`ColumnarBatch` holds *columns* (one sequence per
field, indexed by packet position) plus a ``fast`` eligibility mask.
A row is fast-path eligible only when the fixed-offset decode is
provably identical to the layered :func:`~repro.packet.stack.parse_stack`
walk: untagged Ethernet II carrying either IPv4 with no options
(``ver_ihl == 0x45``, not a later fragment) or IPv6 with no extension
headers, plus a TCP/UDP header that fits inside the frame. Everything
else — VLAN/QinQ tags, ICMP, IPv4 options, IPv6 extension chains,
truncated or fragmented frames — keeps ``fast[i] == False`` and is
handled by the existing per-packet slow path, so the columnar layer
never changes observable behavior (property-tested in
``tests/test_columnar_parity``).
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.packet.mbuf import Mbuf

#: Fused fixed-offset layout for untagged-Ethernet / IPv4-no-options
#: frames (the IPv6 interpretation of the same bytes is `_PREFIX6`):
#:
#: ==========  ======  =============================
#: offset      fmt     field
#: ==========  ======  =============================
#: 0..11       12x     MAC addresses (skipped)
#: 12          H       EtherType
#: 14          B       IPv4 version/IHL byte
#: 16          H       IPv4 total length
#: 20          H       IPv4 flags/fragment offset
#: 23          B       IPv4 protocol
#: 26          4s      IPv4 source address
#: 30          4s      IPv4 destination address
#: 34          H       TCP/UDP source port
#: 36          H       TCP/UDP destination port
#: 38          I       TCP sequence number
#: 46          B       TCP data-offset byte
#: 47          B       TCP flags byte
#: 48..67      20x     (IPv6 tail; unused here)
#: ==========  ======  =============================
_PREFIX4 = struct.Struct("!12xHBxH2xHxB2x4s4sHHI4xBB20x")

#: The same 68 gathered bytes read as untagged Ethernet + extensionless
#: IPv6 + TCP/UDP:
#:
#: ==========  ======  =============================
#: offset      fmt     field
#: ==========  ======  =============================
#: 18          H       IPv6 payload length
#: 20          B       IPv6 next header
#: 22          16s     IPv6 source address
#: 38          16s     IPv6 destination address
#: 54          H       TCP/UDP source port
#: 56          H       TCP/UDP destination port
#: 58          I       TCP sequence number
#: 66          B       TCP data-offset byte
#: 67          B       TCP flags byte
#: ==========  ======  =============================
#:
#: (EtherType and the IP version nibble come from the `_PREFIX4` pass.)
_PREFIX6 = struct.Struct("!18xHBx16s16sHHI4xBB")

assert _PREFIX4.size == _PREFIX6.size == 68
_WIDTH = _PREFIX4.size

#: Zero padding for frames shorter than the gathered prefix; the padded
#: tail decodes to garbage, but such rows never pass the ``fast`` gate.
_PAD = bytes(_WIDTH)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
_VER_IHL_PLAIN = 0x45  # IPv4, 20-byte header, no options
_FRAG_OFFSET_MASK = 0x1FFF
#: IPv6 next-header values the fixed-offset decode understands; ext
#: headers (hop-by-hop/routing/dest-opts/fragment) force the slow path.
_V6_TCP = 6
_V6_UDP = 17


class ColumnarBatch:
    """Decoded field columns for one burst of frames.

    Columns are positional: index ``i`` of every column describes the
    ``i``-th mbuf of the burst the batch was decoded from. TCP-specific
    columns (``tcp_seq``, ``tcp_flags``) carry meaningless values for
    non-TCP rows; consumers must gate on ``proto``. Address columns
    hold raw wire bytes — 4 per row for IPv4, 16 for IPv6 — and
    ``ip_total_len`` is only meaningful on IPv4 rows; all columns other
    than ``wire``/``fast``/``payload_len``/``ethertype`` are only
    meaningful where ``fast[i]`` is True. ``payload_off`` is the frame
    offset of the first byte above TCP/UDP, so a fast row's L4 payload
    is ``data[payload_off:payload_off + payload_len]``.

    ``verdicts`` caches the packet filter's verdicts on the batch, one
    vector per lane (a lone filter has one lane, a shared table one per
    tenant), and ``verdicts_by`` the key of the classifier that computed
    them (None: none has). Every pipeline reading a row asks for the
    verdicts under its own key and the batch is classified again only
    when the key differs, so a chunk the ingress fans out to every core
    is classified once per table it meets. ``admitted`` likewise maps
    each NIC admit classifier that met the batch to its verdicts.
    """

    __slots__ = ("n", "wire", "fast", "ethertype", "proto", "src_ip",
                 "dst_ip", "src_port", "dst_port", "payload_len",
                 "tcp_flags", "tcp_seq", "ip_total_len", "payload_off",
                 "verdicts", "verdicts_by", "admitted")

    def __init__(self, n: int, wire: Sequence[int], fast: Sequence[bool],
                 ethertype: Sequence[int], proto: Sequence[int],
                 src_ip: Sequence[bytes], dst_ip: Sequence[bytes],
                 src_port: Sequence[int], dst_port: Sequence[int],
                 payload_len: Sequence[int], tcp_flags: Sequence[int],
                 tcp_seq: Sequence[int], ip_total_len: Sequence[int],
                 payload_off: Sequence[int]) -> None:
        self.n = n
        self.wire = wire
        self.fast = fast
        self.ethertype = ethertype
        self.proto = proto
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload_len = payload_len
        self.tcp_flags = tcp_flags
        self.tcp_seq = tcp_seq
        self.ip_total_len = ip_total_len
        self.payload_off = payload_off
        self.verdicts = None
        self.verdicts_by = None
        self.admitted = {}


_EMPTY: Tuple = ()


def decode_mbufs(mbufs: Sequence[Mbuf],
                 columnar: bool = True) -> ColumnarBatch:
    """Bulk-decode a burst of mbufs into field columns.

    ``columnar=False`` is ``RuntimeConfig.columnar``'s one meaning — no
    row of a decoded burst is fast: the batch carries ``wire`` and an
    all-False ``fast`` and nothing else, so every consumer takes its
    per-packet ``parse_stack`` path (the reference the parity tests
    compare the columns against).

    The gather loop is the only unconditional per-packet Python in the
    decode: one slice (zero-copy for memoryview-backed frames) per
    packet into a single ``b"".join``, then two ``iter_unpack`` passes
    emit every fixed-offset field of every frame under both IP-version
    layouts and ``zip(*...)`` transposes rows into columns. The
    eligibility loop then splices the IPv6 interpretation into the
    shared columns for rows whose EtherType says so.
    """
    n = len(mbufs)
    if n == 0 or not columnar:
        e = _EMPTY
        return ColumnarBatch(n, [len(m.data) for m in mbufs], [False] * n,
                             e, e, e, e, e, e, e, e, e, e, e)
    pad = _PAD
    width = _WIDTH
    parts: List[bytes] = []
    append = parts.append
    wire: List[int] = []
    wire_append = wire.append
    for m in mbufs:
        d = m.data
        ln = len(d)
        wire_append(ln)
        if ln >= width:
            append(d[:width])
        else:
            append(bytes(d) + pad[:width - ln])
    buf = b"".join(parts)
    (ethertype, ver_ihl, ip_total_len, flags_frag, proto4, src_ip4,
     dst_ip4, src_port4, dst_port4, tcp_seq4, doff4, tcp_flags4) = zip(
        *_PREFIX4.iter_unpack(buf))
    (v6_plen, v6_nh, src_ip6, dst_ip6, src_port6, dst_port6, tcp_seq6,
     doff6, tcp_flags6) = zip(*_PREFIX6.iter_unpack(buf))

    # Eligibility + payload length + column splice: mirrors
    # parse_stack/l4_payload_len exactly for the frames it accepts (see
    # module docstring). IPv4 rows read the already-transposed tuples;
    # IPv6 fast rows overwrite their slots with the v6 interpretation.
    fast = [False] * n
    payload_len = [0] * n
    payload_off = [0] * n
    proto: List[int] = list(proto4)
    src_ip: List[bytes] = list(src_ip4)
    dst_ip: List[bytes] = list(dst_ip4)
    src_port: List[int] = list(src_port4)
    dst_port: List[int] = list(dst_port4)
    tcp_seq: List[int] = list(tcp_seq4)
    tcp_flags: List[int] = list(tcp_flags4)
    for i in range(n):
        et = ethertype[i]
        w = wire[i]
        if et == ETHERTYPE_IPV4:
            if ver_ihl[i] != _VER_IHL_PLAIN or \
                    flags_frag[i] & _FRAG_OFFSET_MASK:
                continue
            p = proto4[i]
            if p == 6:
                if w < 54:
                    continue
                hdr = (doff4[i] >> 4) * 4
                if hdr < 20 or 34 + hdr > w:
                    continue
                start = 34 + hdr
            elif p == 17:
                if w < 42:
                    continue
                start = 42
            else:
                continue
            end = 14 + ip_total_len[i]
        elif et == ETHERTYPE_IPV6:
            if ver_ihl[i] >> 4 != 6:
                continue
            p = v6_nh[i]
            if p == _V6_TCP:
                if w < 74:
                    continue
                hdr = (doff6[i] >> 4) * 4
                if hdr < 20 or 54 + hdr > w:
                    continue
                start = 54 + hdr
            elif p == _V6_UDP:
                if w < 62:
                    continue
                start = 62
            else:
                continue
            proto[i] = p
            src_ip[i] = src_ip6[i]
            dst_ip[i] = dst_ip6[i]
            src_port[i] = src_port6[i]
            dst_port[i] = dst_port6[i]
            tcp_seq[i] = tcp_seq6[i]
            tcp_flags[i] = tcp_flags6[i]
            end = 54 + v6_plen[i]
        else:
            continue
        fast[i] = True
        payload_off[i] = start
        if end > w:
            end = w
        if end > start:
            payload_len[i] = end - start
    return ColumnarBatch(n, wire, fast, ethertype, proto, src_ip, dst_ip,
                         src_port, dst_port, payload_len, tcp_flags,
                         tcp_seq, ip_total_len, payload_off)


#: Queue value :func:`ingress_rows` yields for a fragment the
#: reassembler is holding: the frame reached no NIC, but its timestamp
#: still moves the run's clock and can fire a scheduled table swap.
HELD = object()


def ingress_rows(mbufs: Iterable[Mbuf], nics: Sequence,
                 chunk_size: int = 256, frag=None, columnar: bool = True
                 ) -> Iterator[Tuple[Mbuf, object, ColumnarBatch, int]]:
    """The ingress path of both backends: frames in, routed rows out.

    Pulls ``chunk_size`` frames, passes them through the IPv4 fragment
    reassembler ``frag`` when one is configured (before the decode: a
    completed datagram is a new frame), decodes the burst once
    (:func:`decode_mbufs`) and yields a row ``(mbuf, queue, cols, i)``
    per frame: the receive queue its port's NIC dispatched it to
    (``None`` when the NIC dropped it) and the row of ``cols`` that
    describes it. A row is what ``CorePipeline.process_batch_rows``
    consumes, so nothing downstream decodes the frame again; the packet
    filter runs there, once per batch and classifier, and caches its
    verdicts on ``cols`` (:class:`ColumnarBatch`).
    ``SimNic.receive_columnar`` itself falls back to the per-packet
    ``receive`` for slow rows and for flow rules that are not
    column-expressible, so only those rows pay for a stack parse. A
    fragment the reassembler keeps is yielded with queue ``HELD``, in
    its place in the stream.

    The generator is lazy per frame — the NIC runs when the consumer
    pulls the next row — so the consumer's bookkeeping interleaves with
    NIC state in arrival order (monitor snapshots and failure injection
    observe the same intermediate states whatever the chunk size).
    """
    num_nics = len(nics)
    nic0 = nics[0]
    it = iter(mbufs)
    while True:
        chunk = list(islice(it, chunk_size))
        if not chunk:
            return
        held = ()
        if frag is not None:
            # A held fragment keeps its place (and a row nobody reads)
            # so that row indices stay the frames' positions.
            held = set()
            for i, m in enumerate(chunk):
                pushed = frag.push(m)
                if pushed is None:
                    held.add(i)
                else:
                    chunk[i] = pushed
        cols = decode_mbufs(chunk, columnar)
        for i, m in enumerate(chunk):
            if held and i in held:
                yield m, HELD, cols, i
                continue
            port = m.port
            nic = nics[port] if 0 < port < num_nics else nic0
            yield m, nic.receive_columnar(m, cols, i), cols, i
