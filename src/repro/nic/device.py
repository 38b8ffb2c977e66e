"""The simulated NIC device: hardware filter → RSS → receive queues.

:class:`SimNic` models the data path of a ConnectX-5-class "dumb" NIC
as Retina uses it: ingress frames are matched against the installed
flow-rule table (zero CPU cost — the paper's Figure 7 charges the
hardware stage 0 cycles), surviving frames are hashed with symmetric
RSS and dispatched to per-core receive queues via the redirection
table. The sink queue drops its packets, implementing flow-consistent
sampling (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.filter.codegen import compile_hw_admit
from repro.filter.hardware import HardwareFilter
from repro.nic.rss import (
    SYMMETRIC_RSS_KEY,
    RedirectionTable,
    rss_input_bytes,
    toeplitz_kernel,
)
from repro.packet.columnar import ETHERTYPE_IPV4
from repro.packet.mbuf import Mbuf
from repro.packet.stack import PacketStack, parse_stack


@dataclass
class NicPortStats:
    """Ingress accounting for one simulated port."""

    received_packets: int = 0
    received_bytes: int = 0
    hw_dropped_packets: int = 0
    hw_dropped_bytes: int = 0
    sink_dropped_packets: int = 0
    sink_dropped_bytes: int = 0
    dispatched_packets: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Deterministic JSON-able snapshot. The span subsystem
        (:mod:`repro.telemetry.spans`) attaches this ingress context to
        flight-recorder dumps so a dump states what the NIC saw, not
        just what the cores ran."""
        return {
            "received_packets": self.received_packets,
            "received_bytes": self.received_bytes,
            "hw_dropped_packets": self.hw_dropped_packets,
            "hw_dropped_bytes": self.hw_dropped_bytes,
            "sink_dropped_packets": self.sink_dropped_packets,
            "sink_dropped_bytes": self.sink_dropped_bytes,
            "dispatched_packets": {
                str(q): n
                for q, n in sorted(self.dispatched_packets.items())
            },
        }


class _RssHashCache(dict):
    """RSS input bytes → Toeplitz hash, bounded by clear-when-full.

    A hit is one C-level dict subscript; ``__missing__`` is the single
    miss path shared by every ingress entry point, and runs the NIC's
    hash kernel (:func:`~repro.nic.rss.toeplitz_kernel`) directly.
    """

    __slots__ = ("kernel", "size")

    def __init__(self, kernel: Callable[[bytes], int], size: int) -> None:
        self.kernel = kernel
        self.size = size

    def __missing__(self, data: bytes) -> int:
        rss = self.kernel(data)
        if len(self) >= self.size:
            self.clear()
        self[data] = rss
        return rss


class SimNic:
    """A multi-queue NIC with a flow-rule table and symmetric RSS."""

    #: Sentinel queue id for the sink (appended after the real queues).
    SINK = -1

    def __init__(
        self,
        num_queues: int,
        rss_key: bytes = SYMMETRIC_RSS_KEY,
        redirection_size: int = 512,
        hash_cache_size: int = 8192,
    ) -> None:
        if num_queues < 1:
            raise ConfigError("NIC needs at least one receive queue")
        if len(rss_key) < len(SYMMETRIC_RSS_KEY):
            raise ConfigError(
                f"RSS key of {len(rss_key)} bytes: the IPv6 four-tuple "
                f"needs {len(SYMMETRIC_RSS_KEY)}")
        self.num_queues = num_queues
        self.rss_key = rss_key
        self.table = RedirectionTable(num_queues, redirection_size)
        self.hardware_filter: Optional[HardwareFilter] = None
        self.stats = NicPortStats()
        self._hash_cache = _RssHashCache(toeplitz_kernel(rss_key),
                                         hash_cache_size)
        # Fast-row admit check over decoded columns: True (admit all),
        # the rules' generated burst classifier, or None when the rule
        # set is not column-expressible (receive_columnar then hands
        # every row to receive).
        self._col_admit = compile_hw_admit(None)

    # -- configuration -----------------------------------------------------
    def install_hardware_filter(self, hw: Optional[HardwareFilter]) -> None:
        """Install (or clear, with None) the validated flow-rule set."""
        self.hardware_filter = hw
        self._col_admit = compile_hw_admit(hw)

    def set_sink_fraction(self, fraction: float) -> None:
        """Drop ``fraction`` of four-tuples at the NIC, flow-consistently.

        Mirrors the paper's Section 6.1 methodology: redirection-table
        entries are pointed at a sink queue whose packets are discarded,
        lowering the effective ingress rate at the CPU without breaking
        per-connection queue affinity.
        """
        self.table.set_sink_fraction(fraction, self.SINK)

    # -- data path -----------------------------------------------------------
    def rss_hash(self, stack: PacketStack) -> int:
        data = rss_input_bytes(stack)
        return 0 if data is None else self._hash_cache[data]

    def receive(self, mbuf: Mbuf) -> Optional[int]:
        """Process one ingress frame.

        Returns the receive queue the frame was dispatched to, or
        ``None`` if it was dropped by the hardware filter or the sink.
        Sets ``mbuf.queue`` on dispatch.

        This is the dispatching process's per-packet hot path (the
        parallel backend routes every frame here before sharding), so
        the redirection table is accessed inline.
        """
        stats = self.stats
        frame_bytes = len(mbuf.data)
        stats.received_packets += 1
        stats.received_bytes += frame_bytes
        stack = mbuf.stack
        if stack is None:
            stack = parse_stack(mbuf)
        hw = self.hardware_filter
        if hw is not None and not hw.admits(stack):
            stats.hw_dropped_packets += 1
            stats.hw_dropped_bytes += frame_bytes
            return None
        data = rss_input_bytes(stack)
        rss = 0 if data is None else self._hash_cache[data]
        table = self.table
        queue = table.entries[rss % table.size]
        if queue == self.SINK:
            stats.sink_dropped_packets += 1
            stats.sink_dropped_bytes += frame_bytes
            return None
        mbuf.queue = queue
        dispatched = stats.dispatched_packets
        dispatched[queue] = dispatched.get(queue, 0) + 1
        return queue

    def receive_columnar(self, mbuf: Mbuf, cols, i: int) -> Optional[int]:
        """Process one ingress frame using pre-decoded columns.

        Row ``i`` of ``cols`` describes ``mbuf``. Fast rows (plain
        IPv4/IPv6 TCP/UDP, see :mod:`repro.packet.columnar`) skip the
        header-stack parse entirely: the hardware filter reads the
        row's admit bit — the port's generated rule classifier runs
        once per burst, its result cached on ``cols`` per classifier, so
        ports interleaved in one chunk each classify it once — and the
        symmetric-RSS input is one contiguous frame slice (addresses and
        ports are adjacent in a plain IP+transport header, so
        ``frame[26:38]`` / ``frame[22:58]`` is value-equal to
        :func:`~repro.nic.rss.rss_input_bytes` — the hash cache behaves
        identically). Slow rows — and every row of a port whose flow
        rules do not compile to a column admit check — delegate to
        :meth:`receive`. Counter updates match :meth:`receive` exactly,
        frame by frame.
        """
        admit = self._col_admit
        if admit is None or not cols.fast[i]:
            return self.receive(mbuf)
        stats = self.stats
        frame_bytes = cols.wire[i]
        stats.received_packets += 1
        stats.received_bytes += frame_bytes
        if admit is not True:
            classified = cols.classified
            if admit not in classified:
                classified[admit] = admit(cols)
            if classified[admit][i] < 0:
                stats.hw_dropped_packets += 1
                stats.hw_dropped_bytes += frame_bytes
                return None
        if cols.ethertype[i] == ETHERTYPE_IPV4:
            rss = self._hash_cache[bytes(mbuf.data[26:38])]
        else:
            rss = self._hash_cache[bytes(mbuf.data[22:58])]
        table = self.table
        queue = table.entries[rss % table.size]
        if queue == self.SINK:
            stats.sink_dropped_packets += 1
            stats.sink_dropped_bytes += frame_bytes
            return None
        mbuf.queue = queue
        dispatched = stats.dispatched_packets
        dispatched[queue] = dispatched.get(queue, 0) + 1
        return queue
