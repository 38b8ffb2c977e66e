"""Figure 9 — CDF of bytes up/down for Netflix and YouTube sessions.

Reproduces the Section 7.3 application: subscribe to TCP connection
records filtered by the video services' SNI patterns
(``(.+?\\.)?nflxvideo\\.net`` and ``googlevideo``), aggregate flows
into video sessions, and report the per-session byte distributions.

Expected shape (paper): downstream bytes per session are orders of
magnitude above upstream; Netflix sessions skew larger than YouTube;
both downstream CDFs span roughly 0.1 MB to several GB.
"""

from __future__ import annotations

import random
import zlib

import pytest

from _util import emit, table
from repro import Runtime, RuntimeConfig
from repro.analysis import VideoSessionAggregator
from repro.traffic import FlowSpec, tls_flow

SERVICES = {
    "netflix": (r"tcp.port = 443 and tls.sni ~ '(.+?\.)?nflxvideo\.net'",
                "occ-0-{i}.1.nflxvideo.net", 1_600_000),
    "youtube": (r"tcp.port = 443 and tls.sni ~ 'googlevideo'",
                "rr{i}---sn-abc.googlevideo.com", 750_000),
}


def _video_traffic(seed, sni_template, mean_chunk, n_clients=18):
    """Video sessions: several parallel flows per client, each a chain
    of large downstream segments with small upstream requests."""
    rng = random.Random(seed)
    flows = []
    for client in range(n_clients):
        client_ip = f"10.9.{client // 200}.{client % 200 + 1}"
        session_start = rng.uniform(0, 5.0)
        for flow_index in range(rng.randint(2, 5)):
            chunk = int(rng.lognormvariate(0, 0.8) * mean_chunk)
            flows.append(tls_flow(
                FlowSpec(client_ip, f"45.57.{client % 100}.9",
                         41000 + client * 8 + flow_index, 443),
                sni_template.format(i=client),
                start_ts=session_start + flow_index * 0.8,
                appdata_bytes=max(chunk, 50_000),
                appdata_up_bytes=max(chunk // 400, 400),
                rng=rng,
            ))
    packets = sorted((m for f in flows for m in f),
                     key=lambda m: m.timestamp)
    return packets


def run_figure9():
    sessions = {}
    for service, (filter_str, sni_template, mean_chunk) in \
            SERVICES.items():
        aggregator = VideoSessionAggregator(service)
        runtime = Runtime(
            RuntimeConfig(cores=8),
            filter_str=filter_str,
            datatype="connection",
            callback=aggregator,
        )
        traffic = _video_traffic(zlib.crc32(service.encode()) % 1000,
                                 sni_template, mean_chunk)
        runtime.run(iter(traffic))
        aggregator.finish()
        sessions[service] = aggregator
    return sessions


def _quantiles(values, qs=(0.1, 0.25, 0.5, 0.75, 0.9)):
    if not values:
        return [0.0] * len(qs)
    ordered = sorted(values)
    return [ordered[min(int(q * len(ordered)), len(ordered) - 1)]
            for q in qs]


def report(sessions):
    rows = []
    stats = {}
    for service, aggregator in sessions.items():
        for direction in ("up", "down"):
            values = [
                s.bytes_up if direction == "up" else s.bytes_down
                for s in aggregator.sessions
            ]
            mb = [v / 1e6 for v in values]
            stats[(service, direction)] = mb
            quantiles = _quantiles(mb)
            rows.append([f"{service} {direction}",
                         len(mb)] + [f"{q:.3f}" for q in quantiles])
    lines = table(
        ["series", "sessions", "P10 MB", "P25 MB", "P50 MB", "P75 MB",
         "P90 MB"], rows)
    lines.append("")
    lines.append("Paper reference: downstream >> upstream for both "
                 "services; heavy-tailed session sizes.")
    emit("fig9_video_cdf", lines)
    return stats


def test_fig9_video_cdf(benchmark):
    sessions = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    stats = report(sessions)
    for service in SERVICES:
        down = stats[(service, "down")]
        up = stats[(service, "up")]
        assert down, f"no {service} sessions captured"
        # Downstream dominates upstream by orders of magnitude.
        assert sorted(down)[len(down) // 2] > \
            sorted(up)[len(up) // 2] * 20
    # Netflix sessions skew larger than YouTube (chunk sizes differ).
    netflix_median = sorted(stats[("netflix", "down")])[
        len(stats[("netflix", "down")]) // 2]
    youtube_median = sorted(stats[("youtube", "down")])[
        len(stats[("youtube", "down")]) // 2]
    assert netflix_median > youtube_median


if __name__ == "__main__":
    report(run_figure9())
