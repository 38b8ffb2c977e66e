"""Symmetric Receive Side Scaling: Toeplitz hash + redirection table.

Retina relies on symmetric RSS [Woo & Park 2012] so both directions of
a connection hash to the same receive queue, letting per-core
connection tables run with zero cross-core synchronization. Symmetry
comes from using a repeating 16-bit key pattern (``0x6d5a...``): every
hashed field (IPv4/IPv6 address words, ports) is 16-bit aligned, so
swapping source and destination leaves the Toeplitz output unchanged.

The same periodicity makes the hash cheap. An input bit at offset *i*
selects the key window at *i*, which for such a key equals the window
at *i mod 16*; the hash is linear over GF(2), so it is the hash of the
XOR of the input's 16-bit words — one fold and two table lookups
instead of one lookup per input byte.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from typing import Callable, List, Optional, Tuple

from repro.packet.ipv4 import Ipv4
from repro.packet.stack import PacketStack

#: The standard symmetric RSS key (repeating 0x6d5a), 40 bytes — long
#: enough for the IPv6 4-tuple input (36 bytes + 32-bit window).
SYMMETRIC_RSS_KEY = bytes.fromhex("6d5a" * 20)


def _byte_table(key_int: int, key_bits: int, i: int) -> array:
    """``table[b]``: the XOR of the key windows selected by the set
    bits of byte value ``b`` at input position ``i``."""
    windows = [(key_int >> (key_bits - 32 - (i * 8 + bit))) & 0xFFFFFFFF
               for bit in range(8)]
    table = [0] * 256
    for value in range(1, 256):
        # Peel the lowest set bit: mask 0x80 >> bit has bit_length
        # 8 - bit, and the rest of ``value`` is already tabulated.
        low = value & -value
        table[value] = table[value ^ low] ^ windows[8 - low.bit_length()]
    return array("I", table)


@lru_cache(maxsize=8)
def _toeplitz_tables(key: bytes) -> Tuple[array, ...]:
    """One 256-entry table per input byte position. Built once per key
    (a NIC is programmed with one key for its lifetime); ``array("I")``
    keeps a table at 1 KiB instead of 10 KiB of int objects.

    A 16-bit-periodic key's table at position *i* is its table at
    *i mod 2*, so only those two are built and then repeated: the
    repetition (``tables[2] is tables[0]``) is what selects the fold.
    """
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    count = len(key) - 4
    if count > 2 and key[2:] == key[:-2]:
        pair = (_byte_table(key_int, key_bits, 0),
                _byte_table(key_int, key_bits, 1))
        return (pair * (count // 2 + 1))[:count]
    return tuple(_byte_table(key_int, key_bits, i) for i in range(count))


_from_bytes = int.from_bytes  # one global load, not a global + attribute


def _fold_hash(even: array, odd: array, data: bytes) -> int:
    """The hash under a 16-bit-periodic key whose first two byte tables
    are ``even`` and ``odd``. Read little-endian, the input's 16-bit
    words sit in 16-bit lanes with the even-position byte low; halving
    shifts XOR every lane into the lowest (lanes beyond the input are
    zero, so an odd length needs no padding)."""
    x = _from_bytes(data, "little")
    if len(data) > 16:
        shift = 128
        while 2 * shift < 8 * len(data):
            shift <<= 1
        while shift > 64:
            x ^= x >> shift
            shift >>= 1
    x ^= x >> 64
    x ^= x >> 32
    x ^= x >> 16
    return even[x & 0xFF] ^ odd[x >> 8 & 0xFF]


def _per_byte_hash(tables: Tuple[array, ...], data: bytes) -> int:
    result = 0
    for table, byte in zip(tables, data):
        result ^= table[byte]
    return result


def toeplitz_kernel(key: bytes) -> Callable[[bytes], int]:
    """The Toeplitz hash under ``key`` as a function of the input alone,
    for inputs of at most ``len(key) - 4`` bytes (not checked): the
    fold when the key is 16-bit periodic, one table lookup per input
    byte otherwise. A NIC resolves it once, when it is programmed."""
    tables = _toeplitz_tables(key)
    if len(tables) > 2 and tables[2] is tables[0]:  # 16-bit periodic
        return partial(_fold_hash, tables[0], tables[1])
    return partial(_per_byte_hash, tables)


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """Compute the 32-bit Toeplitz hash of ``data`` under ``key``.

    Classic definition: for each set bit *i* of the input, XOR in the
    32-bit window of the key starting at bit *i*. The hash is linear
    over GF(2), so it is evaluated as the XOR of one table entry per
    input byte (what a NIC does in hardware) instead of per bit, or as
    one fold (module docstring) when the key is 16-bit periodic.
    """
    if len(key) < len(data) + 4:
        raise ValueError(
            f"key too short: {len(key)} bytes for {len(data)} bytes of input"
        )
    tables = _toeplitz_tables(key)
    if len(tables) > 2 and tables[2] is tables[0]:
        return _fold_hash(tables[0], tables[1], data)
    return _per_byte_hash(tables, data)


def rss_input_bytes(stack: PacketStack) -> Optional[bytes]:
    """Canonical RSS hash input for a parsed packet.

    4-tuple of (src ip, dst ip, src port, dst port); ``None`` for
    packets without an IP layer (they go to queue 0 by convention).
    Non-TCP/UDP IP packets hash over addresses only.
    """
    ip = stack.ip
    if ip is None:
        return None
    cached = stack._rss_input
    if cached is not None:
        return cached
    # Hot path: this runs once per ingress packet in the dispatching
    # process. The (src, dst) address fields are contiguous in both IP
    # headers, as are the transport's (src port, dst port), so the
    # canonical input is two raw slices — no address objects, no
    # per-field int round-trips. ``bytes()`` normalizes slices of
    # memoryview- or bytearray-backed mbufs so the result hashes and
    # concatenates; it is a no-op for bytes-backed frames.
    frame = stack.mbuf.data
    offset = ip.offset
    if isinstance(ip, Ipv4):
        addrs = bytes(frame[offset + 12:offset + 20])
    else:
        addrs = bytes(frame[offset + 8:offset + 40])
    transport = stack.tcp if stack.tcp is not None else stack.udp
    if transport is None:
        result = addrs
    else:
        toff = transport.offset
        result = addrs + bytes(frame[toff:toff + 4])
    stack._rss_input = result
    return result


class RedirectionTable:
    """The NIC's RSS indirection table: hash LSBs → receive queue.

    Also implements the paper's Section 6.1 sampling trick: entries can
    be re-pointed at a *sink* queue whose packets are dropped, reducing
    the effective ingress rate while preserving flow consistency
    (every packet of a four-tuple hits the same table entry).
    """

    def __init__(self, num_queues: int, size: int = 512) -> None:
        if num_queues < 1:
            raise ValueError("need at least one receive queue")
        if size < num_queues:
            raise ValueError("table smaller than queue count")
        self.size = size
        self.num_queues = num_queues
        self.entries: List[int] = [i % num_queues for i in range(size)]
        self._sink_fraction = 0.0
        self.sink_queue: Optional[int] = None

    def lookup(self, rss_hash: int) -> int:
        return self.entries[rss_hash % self.size]

    def set_sink_fraction(self, fraction: float, sink_queue: int) -> None:
        """Point ``fraction`` of the table's entries at ``sink_queue``.

        Entries are chosen deterministically (strided) so repeated
        configuration is reproducible; remaining entries are rebalanced
        round-robin over the true receive queues.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        self._sink_fraction = fraction
        self.sink_queue = sink_queue if fraction > 0 else None
        sink_count = round(self.size * fraction)
        # Spread sink entries evenly across the table.
        sink_slots = set()
        if sink_count:
            stride = self.size / sink_count
            sink_slots = {int(i * stride) for i in range(sink_count)}
        live = 0
        for slot in range(self.size):
            if slot in sink_slots:
                self.entries[slot] = sink_queue
            else:
                self.entries[slot] = live % self.num_queues
                live += 1

    @property
    def sink_fraction(self) -> float:
        return self._sink_fraction
