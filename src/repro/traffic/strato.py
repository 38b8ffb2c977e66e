"""Stratosphere-like "normal user" traces (Appendix B's workloads).

The paper's filter-compilation microbenchmark replays four Stratosphere
CTU-Normal captures (7, 12, 20, 30) — desktop machines doing ordinary
browsing. We cannot ship those captures, so this module synthesizes
single-host traces with the same flavor: bursts of DNS lookups,
TLS-dominated browsing with a long domain tail, some plain HTTP, and
periodic keepalives. Each named trace uses a fixed seed and slightly
different composition so the four Appendix B bars differ, as the
originals do.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.packet.mbuf import Mbuf
from repro.traffic.distributions import choose_domain
from repro.traffic.flows import (FlowSpec, dns_flow, http_flow,
                                 merge_flows, tls_flow)

#: Named trace profiles: (seed, flows, http_share, mean_response_kb).
_PROFILES: Dict[str, tuple] = {
    "CTU-Normal-7": (7, 260, 0.25, 40),
    "CTU-Normal-12": (12, 420, 0.15, 90),
    "CTU-Normal-20": (20, 610, 0.08, 140),
    "CTU-Normal-30": (30, 540, 0.20, 60),
}


def trace_names() -> List[str]:
    return list(_PROFILES)


def stratosphere_trace(name: str, duration: float = 60.0) -> List[Mbuf]:
    """Synthesize one of the named normal-user traces."""
    try:
        seed, n_flows, http_share, mean_kb = _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; known: {trace_names()}") from None
    rng = random.Random(seed)
    host_ip = bytes((192, 168, 1, 10 + seed % 100))
    flows: List[List[Mbuf]] = []
    port = 30000
    for _ in range(n_flows):
        start = rng.random() * duration
        port = 30000 + (port - 29999) % 30000
        domain = choose_domain(rng)
        roll = rng.random()
        if roll < 0.22:
            flows.append(dns_flow(
                FlowSpec(host_ip, bytes((192, 168, 1, 1)), port, 53),
                name=domain, txn_id=rng.randrange(1 << 16),
                qtype=rng.choice(("A", "AAAA")), start_ts=start,
            ))
        elif roll < 0.22 + http_share:
            flows.append(http_flow(
                FlowSpec(host_ip, _server_ip(rng), port, 80),
                host=domain, uri=f"/{rng.randrange(1 << 16):x}",
                user_agent="Mozilla/5.0 (X11; Linux x86_64) Firefox/91.0",
                response_bytes=int(rng.expovariate(1 / (mean_kb * 256))),
                start_ts=start,
            ))
        else:
            flows.append(tls_flow(
                FlowSpec(host_ip, _server_ip(rng), port, 443),
                domain, start_ts=start,
                client_random=rng.randbytes(32),
                server_random=rng.randbytes(32),
                cipher_suite=rng.choice((0x1301, 0xC02F, 0xC030, 0x009C)),
                selected_version=rng.choice((0x0304, None)),
                appdata_bytes=int(rng.expovariate(1 / (mean_kb * 1024))),
                rng=rng,
            ))
    return merge_flows(flows)


def _server_ip(rng: random.Random) -> bytes:
    # Mix of CDN-looking space plus the odd Netflix prefix so the
    # 32-predicate Appendix B filter has something to match.
    if rng.random() < 0.06:
        return bytes((23, 246, rng.randrange(64), rng.randrange(1, 255)))
    return bytes((rng.choice((13, 31, 52, 104, 142, 151, 172)),
                  rng.randrange(256), rng.randrange(256),
                  rng.randrange(1, 255)))
