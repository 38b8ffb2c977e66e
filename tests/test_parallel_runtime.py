"""Parallel sharded backend: sequential/parallel equivalence.

The contract under test (ISSUE 1's determinism requirement): for a
fixed seed, the parallel backend produces **identical**
filter/connection/session/callback counts to the sequential backend,
because symmetric-RSS sharding makes per-core work order-independent
and ``process_batch`` charges stage costs per packet regardless of
batch boundaries.
"""

import json

import pytest

from repro import Runtime, RuntimeConfig
from repro.core.monitor import StatsMonitor
from repro.core.parallel import ParallelExecutionError
from repro.errors import ConfigError
from repro.traffic import CampusTrafficGenerator, FlowSpec
from repro.traffic.flows import single_syn


def _campus(seed=21, duration=0.4, gbps=0.1):
    return list(CampusTrafficGenerator(seed=seed).packets(
        duration=duration, gbps=gbps))


def _run(traffic, parallel, cores=4, filter_str="tcp",
         datatype="connection", monitor=None, **config_kwargs):
    config = RuntimeConfig(cores=cores, parallel=parallel, **config_kwargs)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=None)
    return runtime.run(iter(traffic), monitor=monitor)


#: to_dict() must match byte-for-byte between backends, including the
#: peak memory/connection figures: memory sampling is parent-clocked
#: (the feeder sends explicit sample points), so even the sample
#: series is identical.
def _comparable(stats):
    return stats.to_dict()


class TestParallelEquivalence:
    @pytest.fixture(scope="class")
    def traffic(self):
        return _campus()

    def test_connection_counts_identical(self, traffic):
        seq = _run(traffic, parallel=False).stats
        par = _run(traffic, parallel=True).stats
        assert _comparable(seq) == _comparable(par)

    def test_equivalence_across_worker_counts(self, traffic):
        baseline = None
        for cores in (1, 2, 4):
            seq = _run(traffic, parallel=False, cores=cores).stats
            par = _run(traffic, parallel=True, cores=cores).stats
            assert _comparable(seq) == _comparable(par), \
                f"backends diverged at {cores} cores"
            d = _comparable(par)
            # Totals are core-count-independent too (sharding only
            # redistributes work).
            totals = {k: d[k] for k in (
                "ingress_packets", "processed_packets", "callbacks",
                "sessions_parsed", "sessions_matched", "conns_created",
                "conns_delivered")}
            if baseline is None:
                baseline = totals
            else:
                assert totals == baseline

    def test_session_subscription_equivalent(self, traffic):
        seq = _run(traffic, parallel=False, filter_str="tls",
                   datatype="tls_handshake").stats
        par = _run(traffic, parallel=True, filter_str="tls",
                   datatype="tls_handshake").stats
        assert _comparable(seq) == _comparable(par)
        assert par.sessions_parsed > 0  # the comparison is not vacuous

    def test_packet_fast_path_equivalent(self, traffic):
        seq = _run(traffic, parallel=False, filter_str="",
                   datatype="packet").stats
        par = _run(traffic, parallel=True, filter_str="",
                   datatype="packet").stats
        assert _comparable(seq) == _comparable(par)
        assert par.callbacks > 0

    def test_batch_size_does_not_change_counts(self, traffic):
        base = _run(traffic, parallel=True).stats
        tiny = _run(traffic, parallel=True, parallel_batch_size=7).stats
        assert _comparable(base) == _comparable(tiny)

    def test_stats_json_roundtrip(self, traffic):
        """Merged parallel stats serialize like sequential ones."""
        par = _run(traffic, parallel=True).stats
        assert json.loads(json.dumps(par.to_dict())) == par.to_dict()

    def test_memory_samples_identical(self, traffic):
        """Parent-clocked sampling: the merged memory series matches
        the sequential one tuple-for-tuple, not just in shape."""
        seq = _run(traffic, parallel=False).stats
        par = _run(traffic, parallel=True).stats
        assert par.memory_samples
        assert par.memory_samples == seq.memory_samples
        timestamps = [t for t, _, _ in par.memory_samples]
        assert timestamps == sorted(timestamps)


def _syn(port, ts):
    return single_syn(FlowSpec("10.0.0.1", "10.0.0.2", port, 80), ts)


class TestOneIngestLoop:
    """Both backends run under the one ingest loop of ``Runtime.run``,
    so the virtual-time decisions it makes cannot differ between them."""

    @pytest.mark.parametrize("parallel", [False, True])
    def test_sample_deadline_is_one_expression(self, parallel):
        """1.4 - 0.4 is one ulp short of 1.0, yet the deadline 0.4 + 1.0
        is exactly 1.4: the sample is taken there, on either backend,
        with the first SYN's connection and the 50 half-open ones of
        0.5 s live (the first SYN is retransmitted at 1.4 and 6.0)."""
        traffic = _syn(1000, 0.4) + [
            m for port in range(2000, 2050) for m in _syn(port, 0.5)] + \
            _syn(1000, 1.4) + _syn(1000, 6.0)
        stats = _run(traffic, parallel=parallel, cores=1).stats
        assert (1.4, 51, 26112) in stats.memory_samples
        assert stats.peak_memory_bytes == 26112

    @pytest.mark.parametrize("parallel", [False, True])
    def test_monitor_does_not_change_the_run(self, parallel):
        """A monitor only observes: burst boundaries — and so span
        trees, flight dumps and stats — are the same without one."""
        traffic = list(CampusTrafficGenerator(seed=7).packets(
            duration=0.3, gbps=0.05))
        runs = [_run(traffic, parallel=parallel, cores=2, span_sample=1,
                     flight_recorder_depth=4, monitor=monitor)
                for monitor in (None, StatsMonitor(interval=0.05))]
        plain, watched = runs
        assert list(plain.spans.ndjson_lines()) == \
            list(watched.spans.ndjson_lines())
        assert json.dumps(plain.spans.flight_dump(), sort_keys=True) == \
            json.dumps(watched.spans.flight_dump(), sort_keys=True)
        assert plain.stats.to_dict() == watched.stats.to_dict()


class TestParallelBackendBehavior:
    def test_callback_counts_from_workers(self):
        traffic = _campus(seed=3, duration=0.2)
        par = _run(traffic, parallel=True, cores=2).stats
        seq = _run(traffic, parallel=False, cores=2).stats
        assert par.callbacks == seq.callbacks > 0

    def test_monitor_works_in_parallel_mode(self):
        traffic = _campus(seed=5, duration=1.0, gbps=0.05)
        monitor = StatsMonitor(interval=0.1)
        _run(traffic, parallel=True, cores=2, monitor=monitor)
        assert len(monitor.samples) >= 3
        assert sum(s.ingress_packets for s in monitor.samples) > 0

    def test_queued_callbacks_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(parallel=True, callback_execution="queued")

    def test_empty_traffic(self):
        report = _run([], parallel=True, cores=2)
        assert report.stats.ingress_packets == 0
        assert not report.out_of_memory

    def test_worker_failure_surfaces(self):
        """A crashing callback in a worker must raise in the parent,
        not hang the feed loop."""
        def exploding(obj):
            raise RuntimeError("callback boom")

        traffic = _campus(seed=9, duration=0.2)
        config = RuntimeConfig(cores=2, parallel=True)
        runtime = Runtime(config, filter_str="", datatype="packet",
                          callback=exploding)
        with pytest.raises(ParallelExecutionError, match="callback boom"):
            runtime.run(iter(traffic))


class TestMonitorStride:
    def test_observe_calls_are_o_samples(self):
        """Regression: Runtime.run used to call monitor.observe once
        per packet; it must now be called O(samples) times."""
        calls = []

        class CountingMonitor(StatsMonitor):
            def observe(self, runtime, now):
                calls.append(now)
                super().observe(runtime, now)

        traffic = _campus(seed=11, duration=1.0, gbps=0.05)
        monitor = CountingMonitor(interval=0.1)
        _run(traffic, parallel=False, cores=2, monitor=monitor)
        # one observe per elapsed interval, plus the baseline call —
        # NOT one per packet (the dense head of the trace packs many
        # packets into each 0.1s interval).
        assert len(calls) <= len(monitor.samples) + 2
        assert len(calls) < len(traffic) / 2

    def test_monitor_samples_still_cover_run(self):
        traffic = _campus(seed=11, duration=1.0, gbps=0.05)
        monitor = StatsMonitor(interval=0.1)
        _run(traffic, parallel=False, cores=2, monitor=monitor)
        assert len(monitor.samples) >= 3
        spread = monitor.samples[-1].timestamp - monitor.samples[0].timestamp
        assert spread > 0.5


class TestSequentialBatching:
    def test_batch_size_invariant_sequentially(self):
        traffic = _campus(seed=13, duration=0.3)
        one = _run(traffic, parallel=False, parallel_batch_size=1).stats
        big = _run(traffic, parallel=False, parallel_batch_size=4096).stats
        assert _comparable(one) == _comparable(big)

    def test_process_batch_matches_per_packet(self):
        """CorePipeline.process_batch == a loop of process_packet."""
        from repro.core.pipeline import CorePipeline
        from repro.core.subscription import Subscription

        traffic = _campus(seed=15, duration=0.2)
        config = RuntimeConfig(cores=1)
        sub = Subscription("tcp", "connection", None)
        batched = CorePipeline(0, sub, config)
        unbatched = CorePipeline(0, sub, config)
        batched.process_batch(traffic)
        for mbuf in traffic:
            unbatched.process_packet(mbuf)
        assert batched.stats.ledger.snapshot() == \
            unbatched.stats.ledger.snapshot()
        assert batched.stats.callbacks == unbatched.stats.callbacks
        assert batched.stats.conns_created == unbatched.stats.conns_created
