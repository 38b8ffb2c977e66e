"""Closed-loop HTTPS workload (the Figure 6 testbed substitute).

The paper drives the IDS comparison with wrk2 generating 128 parallel
closed-loop 256 KB HTTPS requests against Nginx at swept request
rates. This generator reproduces that offered-load structure: a fixed
pool of client connections issuing back-to-back HTTPS requests (real
TLS handshake + 256 KB of application data each) so that the aggregate
request rate matches the sweep point.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass
from typing import List

from repro.packet.mbuf import Mbuf
from repro.traffic.flows import FlowSpec, merge_flows, tls_flow


@dataclass
class HttpsWorkloadGenerator:
    """wrk2/Nginx-shaped closed-loop HTTPS traffic."""

    seed: int = 0
    parallel_clients: int = 128
    response_bytes: int = 256 * 1024
    server_ip: str = "192.168.100.10"
    sni: str = "bench.nginx.test"
    rtt: float = 0.0005  # LAN testbed

    def packets(self, requests_per_second: float,
                duration: float = 1.0) -> List[Mbuf]:
        """Generate ``requests_per_second`` of 256 KB HTTPS requests.

        Each request is one TLS connection (handshake + request + 256 KB
        response + teardown), spread across the client pool.
        """
        rng = random.Random(self.seed)
        server = ipaddress.ip_address(self.server_ip).packed
        total_requests = max(1, int(requests_per_second * duration))
        flows: List[List[Mbuf]] = []
        for i in range(total_requests):
            start = (i / requests_per_second) if requests_per_second else 0.0
            client = i % self.parallel_clients
            spec = FlowSpec(bytes((192, 168, 1 + client // 250,
                                   1 + client % 250)),
                            server, 20000 + (i % 40000), 443)
            flows.append(tls_flow(
                spec, self.sni, start_ts=start,
                client_random=rng.randbytes(32),
                server_random=rng.randbytes(32),
                appdata_bytes=self.response_bytes,
                appdata_up_bytes=300,
                rtt=self.rtt, rng=rng,
            ))
        return merge_flows(flows)

    def bytes_per_request(self) -> int:
        """Wire bytes of one request's flow (for rate conversions)."""
        sample = tls_flow(
            FlowSpec("10.0.0.1", self.server_ip, 30000, 443),
            self.sni, appdata_bytes=self.response_bytes,
            appdata_up_bytes=300, rtt=self.rtt,
        )
        return sum(len(m) for m in sample)
