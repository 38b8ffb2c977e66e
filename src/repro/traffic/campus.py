"""The campus-traffic generator (the paper's monitoring environment).

Synthesizes a live-tap-shaped packet stream: Poisson connection
arrivals; 65% of TCP connections are single unanswered SYNs (scanning);
data connections carry real TLS/HTTP/SSH payloads with heavy-tailed
sizes; UDP is a DNS + opaque-datagram mix; a configurable fraction of
flows arrive out of order or incomplete. The output is a
timestamp-sorted stream of :class:`~repro.packet.mbuf.Mbuf`.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.packet.mbuf import Mbuf
from repro.traffic.distributions import (
    FlowSizeModel,
    ServiceMix,
    TimingModel,
    choose_domain,
)
from repro.traffic.flows import (
    FlowSpec,
    TcpFlow,
    dns_flow,
    http_flow,
    merge_flows,
    quic_flow,
    single_syn,
    ssh_flow,
    tls_flow,
    udp_flow,
)

_PACK_8H = struct.Struct("!8H").pack


@dataclass
class CampusProfile:
    """Composition knobs, calibrated to Appendix C."""

    #: Fraction of connections that are TCP (Table 2: 69.7%).
    tcp_fraction: float = 0.697
    #: Of TCP connections, fraction that are single unanswered SYNs
    #: (Section 5.2: ~65%).
    single_syn_fraction: float = 0.65
    #: Of UDP connections, fraction that are DNS lookups.
    dns_fraction: float = 0.6
    #: Fraction of data flows with injected reordering (Table 2: 6%).
    ooo_flow_fraction: float = 0.06
    #: Fraction of data flows with a lost segment (Table 2: 4.6%).
    incomplete_flow_fraction: float = 0.046
    #: Fraction of data TCP flows torn down by RST instead of FIN.
    rst_fraction: float = 0.08
    #: Fraction of data flows stretched over a long lifetime (idle
    #: keepalive/streaming connections; drives Table 2's 163 s P99
    #: inter-segment gap and Figure 8's established population).
    long_lived_fraction: float = 0.25
    long_lived_max_duration: float = 600.0
    #: Fraction of connections carried over IPv6 (dual-stack campus).
    ipv6_fraction: float = 0.25
    service_mix: ServiceMix = field(default_factory=ServiceMix)
    flow_sizes: FlowSizeModel = field(default_factory=FlowSizeModel)
    timing: TimingModel = field(default_factory=TimingModel)

    #: Mean wire bytes contributed per connection, used to convert a
    #: target bit-rate into a connection arrival rate. Estimated from
    #: the mix (single SYNs ≈ 54 B; data flows ≈ sizes + overhead).
    def estimate_mean_conn_bytes(self) -> float:
        data_fraction = self.tcp_fraction * (1 - self.single_syn_fraction)
        syn_fraction = self.tcp_fraction * self.single_syn_fraction
        udp_fraction = 1 - self.tcp_fraction
        data_bytes = self.flow_sizes.mean_bytes * 1.12 + 2000  # hdr overhead
        return (
            syn_fraction * 54
            + udp_fraction * 600
            + data_fraction * data_bytes
        )


class CampusTrafficGenerator:
    """Deterministic (seeded) campus-mix traffic source.

    Address plan, drawn as packed bytes (never as text): IPv4 clients
    ``10.a.b.c`` (a 1-31, c 1-254) → servers ``171.64.b.c`` (c 1-254);
    IPv6 clients ``2607:f6d0:a:b::c`` (a, c ≠ 0) → servers
    ``2607:f010:d::e`` (e ≠ 0).
    """

    def __init__(self, seed: int = 0,
                 profile: Optional[CampusProfile] = None) -> None:
        self.rng = random.Random(seed)
        self.profile = profile or CampusProfile()

    # -- addressing -----------------------------------------------------------
    def _fresh_spec(self, server_port: int) -> FlowSpec:
        randrange = self.rng.randrange
        if self.rng.random() < self.profile.ipv6_fraction:
            client = _PACK_8H(0x2607, 0xf6d0, randrange(1, 0xffff),
                              randrange(0xffff), 0, 0, 0,
                              randrange(1, 0xffff))
            server = _PACK_8H(0x2607, 0xf010, randrange(0xffff), 0, 0, 0,
                              0, randrange(1, 0xffff))
        else:
            client = bytes((10, randrange(1, 32), randrange(256),
                            randrange(1, 255)))
            server = bytes((171, 64, randrange(256), randrange(1, 255)))
        return FlowSpec(client, server, randrange(16384, 65535), server_port)

    # -- one connection ---------------------------------------------------------
    def _one_connection(self, start_ts: float) -> List[Mbuf]:
        rng = self.rng
        profile = self.profile
        if rng.random() < profile.tcp_fraction:
            if rng.random() < profile.single_syn_fraction:
                return single_syn(self._fresh_spec(
                    rng.choice((22, 80, 443, 3389, 8080))), start_ts)
            return self._data_tcp_flow(start_ts)
        if rng.random() < profile.dns_fraction:
            return dns_flow(
                self._fresh_spec(53),
                name=choose_domain(rng),
                qtype=rng.choice(("A", "AAAA", "HTTPS")),
                rcode=0 if rng.random() < 0.92 else 3,
                txn_id=rng.randrange(1 << 16),
                start_ts=start_ts,
            )
        # Bulk UDP: QUIC-framed on 443 (real Initial + short-header
        # packets), opaque datagrams on VPN/STUN ports.
        sizes = [rng.randrange(400, 1350)
                 for _ in range(rng.randrange(10, 220))]
        port = rng.choice((443, 443, 51820, 3478))
        if port == 443:
            return quic_flow(
                self._fresh_spec(443), payload_sizes=sizes,
                dcid=rng.randbytes(8), scid=rng.randbytes(8),
                start_ts=start_ts,
            )
        return udp_flow(self._fresh_spec(port),
                        payload_sizes=sizes, start_ts=start_ts)

    def _data_tcp_flow(self, start_ts: float) -> List[Mbuf]:
        rng = self.rng
        profile = self.profile
        service = profile.service_mix.choose(rng)
        size = profile.flow_sizes.sample(rng)
        rtt = rng.uniform(0.002, 0.08)
        synack_delay = profile.timing.synack_delay(rng)
        teardown = "rst" if rng.random() < profile.rst_fraction else "fin"
        if service == "tls":
            domain = choose_domain(rng)
            packets = tls_flow(
                self._fresh_spec(443), domain, start_ts=start_ts,
                client_random=rng.randbytes(32),
                server_random=rng.randbytes(32),
                cipher_suite=rng.choice((0x1301, 0x1302, 0xC02F, 0xC030)),
                selected_version=rng.choice((0x0304, 0x0304, None)),
                appdata_bytes=size,
                appdata_up_bytes=min(size // 8, 4096),
                rtt=rtt, teardown=teardown, synack_delay=synack_delay,
                rng=rng,
            )
        elif service == "http":
            domain = choose_domain(rng)
            packets = http_flow(
                self._fresh_spec(80), host=domain,
                uri=f"/asset/{rng.randrange(1 << 20):x}",
                user_agent=rng.choice((
                    "Mozilla/5.0 (X11; Linux x86_64) Firefox/117.0",
                    "Mozilla/5.0 (Windows NT 10.0) Chrome/117.0",
                    "curl/8.1.2",
                )),
                response_bytes=size, start_ts=start_ts, rtt=rtt,
                teardown=teardown, synack_delay=synack_delay,
            )
        elif service == "ssh":
            packets = ssh_flow(
                self._fresh_spec(22),
                client_software=rng.choice((
                    "OpenSSH_8.9p1", "OpenSSH_9.3", "libssh2_1.10.0",
                )),
                start_ts=start_ts, kex_bytes=min(size, 16384), rtt=rtt,
                synack_delay=synack_delay,
            )
        else:  # opaque TCP (already-encrypted or unknown protocols)
            flow_builder = TcpFlow(self._fresh_spec(
                rng.choice((8443, 9000, 5223))), start_ts=start_ts, rtt=rtt)
            flow_builder.handshake(synack_delay)
            half = max(size // 2, 64)
            flow_builder.send(True, rng.randbytes(min(half, 4096)))
            flow_builder.send(False, bytes(half))
            if teardown == "fin":
                flow_builder.fin()
            else:
                flow_builder.rst()
            packets = flow_builder.build()
        packets = self._stretch(packets, start_ts)
        packets = self._perturb(packets)
        return packets

    def _stretch(self, packets: List[Mbuf], start_ts: float) -> List[Mbuf]:
        """Spread a fraction of data flows over minutes of lifetime."""
        rng = self.rng
        profile = self.profile
        if len(packets) < 6 or \
                rng.random() >= profile.long_lived_fraction:
            return packets
        target = rng.uniform(20.0, profile.long_lived_max_duration)
        actual = packets[-1].timestamp - packets[0].timestamp
        if actual <= 0:
            return packets
        # Keep the connection handshake at its natural pace; stretch
        # only the data phase.
        factor = target / actual
        for mbuf in packets[3:]:
            mbuf.timestamp = start_ts + (mbuf.timestamp - start_ts) * factor
        return packets

    def _perturb(self, packets: List[Mbuf]) -> List[Mbuf]:
        """Apply reordering / truncation to a built flow."""
        rng = self.rng
        profile = self.profile
        if len(packets) >= 5 and rng.random() < profile.ooo_flow_fraction:
            # Displace a payload-bearing packet so the reordering is
            # observable at the sequence level (pure ACK swaps are not).
            data_idx = [i for i, m in enumerate(packets)
                        if i >= 4 and len(m) > 100]
            if data_idx:
                index = rng.choice(data_idx)
                jump = min(rng.randrange(1, 4), index - 3)
                packets[index - jump], packets[index] = \
                    packets[index], packets[index - jump]
                times = sorted(m.timestamp for m in packets)
                for mbuf, ts in zip(packets, times):
                    mbuf.timestamp = ts
        if len(packets) >= 6 and \
                rng.random() < profile.incomplete_flow_fraction:
            # An incomplete flow: the tap never sees its termination
            # (mid-flow outage, asymmetric routing change, ...).
            cut = rng.randrange(4, len(packets))
            del packets[cut:]
        return packets

    # -- the stream ---------------------------------------------------------------
    def packets(
        self,
        duration: float = 1.0,
        gbps: float = 1.0,
        start_ts: float = 0.0,
    ) -> List[Mbuf]:
        """Generate ~``gbps`` of traffic for ``duration`` virtual seconds.

        Connection arrivals are Poisson at a rate derived from the
        profile's mean bytes per connection; all flows' packets are
        merged into one timestamp-sorted stream.
        """
        target_bytes = gbps * 1e9 / 8 * duration
        mean_conn_bytes = self.profile.estimate_mean_conn_bytes()
        n_conns = max(1, int(target_bytes / mean_conn_bytes))
        return self.connections(n_conns, duration, start_ts)

    def connections(self, n_conns: int,
                    duration: float = 1.0,
                    start_ts: float = 0.0) -> List[Mbuf]:
        """Generate exactly ``n_conns`` connections over ``duration``."""
        arrival_times = sorted(
            start_ts + self.rng.random() * duration
            for _ in range(n_conns)
        )
        return merge_flows(self._one_connection(ts) for ts in arrival_times)
