"""Microbenchmarks of the substrates the headline results rest on.

Unlike the figure benchmarks (which measure virtual cycles), these
measure the *real* execution of the substrate data structures, and
check the qualitative properties the paper relies on:

* symmetric RSS spreads real flows evenly across queues (Section 5.1
  "the number of flows tends to be well distributed among cores");
* timer-wheel scheduling stays O(1)-ish as the table grows (Section
  5.2, citing Girondi et al.);
* the compiled packet filter executes at a healthy rate on real
  frames.
"""

from __future__ import annotations

import statistics

import pytest

from _util import emit, table
from repro.conntrack import TimerWheel
from repro.filter import compile_filter
from repro.nic import SimNic
from repro.packet import Mbuf, build_tcp_packet
from repro.traffic import CampusTrafficGenerator


@pytest.fixture(scope="module")
def campus_packets():
    return CampusTrafficGenerator(seed=61).packets(duration=0.4,
                                                   gbps=0.25)


class TestRssBalance:
    def test_rss_flow_balance(self, benchmark, campus_packets):
        """Dispatch real campus traffic across 16 queues and report the
        per-queue flow/byte balance."""
        def dispatch():
            nic = SimNic(num_queues=16)
            flows_per_queue = [set() for _ in range(16)]
            bytes_per_queue = [0] * 16
            for mbuf in campus_packets:
                queue = nic.receive(mbuf)
                if queue is None:
                    continue
                from repro.conntrack import FiveTuple
                from repro.packet import parse_stack
                tup = FiveTuple.from_stack(parse_stack(mbuf))
                if tup is not None:
                    flows_per_queue[queue].add(tup.canonical())
                bytes_per_queue[queue] += len(mbuf)
            return flows_per_queue, bytes_per_queue

        flows_per_queue, bytes_per_queue = benchmark.pedantic(
            dispatch, rounds=1, iterations=1)
        flow_counts = [len(f) for f in flows_per_queue]
        mean_flows = statistics.mean(flow_counts)
        cv_flows = statistics.pstdev(flow_counts) / mean_flows
        lines = table(
            ["queue", "flows", "MB"],
            [[i, flow_counts[i], f"{bytes_per_queue[i] / 1e6:.2f}"]
             for i in range(16)],
        )
        lines.append("")
        lines.append(f"flow-count coefficient of variation: "
                     f"{cv_flows:.3f} (lower = better balance)")
        emit("micro_rss_balance", lines)
        # Flows well distributed: every queue gets some; CV modest.
        assert min(flow_counts) > 0
        assert cv_flows < 0.5


class TestTimerWheel:
    @pytest.mark.parametrize("population", [1_000, 50_000])
    def test_schedule_advance_rate(self, benchmark, population):
        """Schedule/advance cost must not blow up with table size."""
        class Item:
            __slots__ = ("deadline",)

            def __init__(self):
                self.deadline = None

        def workload():
            wheel = TimerWheel(tick=0.5, num_slots=64)
            items = [Item() for _ in range(population)]
            for i, item in enumerate(items):
                wheel.schedule(item, 5.0 + (i % 300))
            # Refresh a third of them (the hot path: conn activity).
            for item in items[::3]:
                wheel.schedule(item, 400.0)
            fired = wheel.advance(1000.0)
            return len(fired)

        fired = benchmark.pedantic(workload, rounds=3, iterations=1)
        assert fired == population  # everything eventually expires


class TestCompiledFilterRate:
    def test_packet_filter_throughput(self, benchmark):
        """Real execution rate of one generated packet filter."""
        compiled = compile_filter(
            "tcp.port = 443 and ipv4.addr in 171.64.0.0/16")
        frames = [
            Mbuf(build_tcp_packet(f"10.0.{i % 200}.1", "171.64.9.9",
                                  30000 + i, 443 if i % 2 else 80))
            for i in range(2000)
        ]
        packet_filter = compiled.packet_filter

        def run_filter():
            matched = 0
            for mbuf in frames:
                if packet_filter(mbuf).matched:
                    matched += 1
            return matched

        matched = benchmark(run_filter)
        assert matched == 1000  # odd i → port 443 → match
