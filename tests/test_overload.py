"""Tests for the closed-loop overload control subsystem
(:mod:`repro.overload`): the degradation ladder, the loss ledger, the
burst traffic generator, failfast, cross-backend parity, and the
reassembly-truncation accounting.
"""


import pytest

from repro import Runtime, RuntimeConfig
from repro.core.cycles import CostModel
from repro.core.pipeline import CorePipeline
from repro.core.subscription import Subscription
from repro.core.datatypes import SUBSCRIBABLES
from repro.conntrack.conn import ConnState
from repro.errors import ConfigError
from repro.overload import (
    RUNG_DOWNGRADE,
    RUNG_NAMES,
    LossLedger,
    merge_ledgers,
)
from repro.telemetry import check
from repro.telemetry.funnel import RUN, fate_counters, fate_table
from repro.traffic import (
    BurstTrafficGenerator,
    BurstWindow,
    CampusTrafficGenerator,
    FlowSpec,
    tls_flow,
)

#: A per-packet conn-track cost (cycles) that makes the burst trace
#: overload a core: ~10 ms of virtual work per stateful packet.
HEAVY = CostModel(conn_track=3e7)


def burst_traffic(seed=1, duration=1.0, gbps=0.05):
    return BurstTrafficGenerator(seed=seed).packets(duration=duration,
                                                    gbps=gbps)


def run(traffic, policy="ladder", parallel=False, cores=2,
        filter_str="", datatype="connection", callback=None, **kw):
    kw.setdefault("cost_model", HEAVY)
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           overload_policy=policy,
                           overload_target_lag=0.02, **kw)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=callback)
    return runtime.run(iter(list(traffic)))


# ---------------------------------------------------------------------------
# burst traffic generator
# ---------------------------------------------------------------------------
class TestBurstTraffic:
    def test_deterministic(self):
        a = burst_traffic(seed=7)
        b = burst_traffic(seed=7)
        assert len(a) == len(b)
        assert all(x.timestamp == y.timestamp and x.data == y.data
                   for x, y in zip(a, b))

    def test_seed_changes_stream(self):
        a = burst_traffic(seed=1)
        b = burst_traffic(seed=2)
        assert [m.timestamp for m in a] != [m.timestamp for m in b]

    def test_burst_concentrates_arrivals(self):
        """The default window multiplies arrivals in [0.4, 0.6): that
        20% slice of the duration must hold far more than 20% of
        connection starts."""
        gen = BurstTrafficGenerator(seed=3)
        arrivals = []
        build = gen._campus._one_connection

        def spy(ts):
            arrivals.append(ts)
            return build(ts)

        gen._campus._one_connection = spy
        gen.packets(duration=1.0, gbps=0.05)
        in_window = sum(1 for t in arrivals if 0.4 <= t < 0.6)
        assert in_window > 0.4 * len(arrivals)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            BurstWindow(start=1.5)
        with pytest.raises(ValueError):
            BurstWindow(duration=0.0)
        with pytest.raises(ValueError):
            BurstWindow(intensity=0.5)

    def test_sorted_stream(self):
        ts = [m.timestamp for m in burst_traffic(seed=5)]
        assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# the ladder engages and accounts for every packet
# ---------------------------------------------------------------------------
class TestLadderEngages:
    def test_burst_overloads_without_ladder(self):
        """The scenario the ladder exists for: the same burst under no
        overload policy drives sustained loss (Section 5.3's signal)."""
        from repro.core.monitor import StatsMonitor
        monitor = StatsMonitor(interval=0.05)
        config = RuntimeConfig(cores=2, cost_model=HEAVY)
        runtime = Runtime(config, filter_str="", datatype="connection",
                          callback=None)
        runtime.run(iter(burst_traffic()), monitor=monitor)
        losses = [s.loss_fraction > 0 for s in monitor.samples]
        # Three consecutive lossy intervals — sustained_loss fires mid-
        # run (the quiet tail clears the trailing-window property).
        assert any(all(losses[i:i + 3]) for i
                   in range(len(losses) - 2))

    def test_ladder_sheds_and_accounts(self):
        report = run(burst_traffic())
        ov = report.overload
        assert ov is not None and ov.engaged
        assert ov.packets_shed > 0
        assert ov.max_rung_seen >= 1
        assert ov.transitions
        # Every packet the ledger saw is a processed one, every shed
        # one is attributed to a rung and to a funnel layer, and none
        # is left for ``memory_shed`` (conns_shed mirrors the refused-
        # packet count, the same convention as memory_policy="shed").
        check(report)
        fates = fate_table(fate_counters(report))[RUN]["fates"]
        assert "memory_shed" not in fates
        assert ov.packets_shed == sum(
            n for state, n in fates.items() if state.startswith("shed_"))

    def test_ladder_completes_where_failfast_aborts(self):
        ladder = run(burst_traffic())
        assert not ladder.failed_fast
        failfast = run(burst_traffic(), policy="failfast")
        assert failfast.failed_fast
        assert failfast.overload.failfast_at is not None

    def test_monitor_surfaces_rung_and_shed(self):
        from repro.core.monitor import StatsMonitor
        monitor = StatsMonitor(interval=0.05)
        config = RuntimeConfig(cores=2, overload_policy="ladder",
                               overload_target_lag=0.02,
                               cost_model=HEAVY)
        runtime = Runtime(config, filter_str="", datatype="connection",
                          callback=None)
        runtime.run(iter(burst_traffic()), monitor=monitor)
        assert max(s.overload_rung for s in monitor.samples) >= 1
        shed = sum(s.shed_packets for s in monitor.samples)
        assert shed > 0
        hot = [s for s in monitor.samples if s.overload_rung]
        assert any("rung=" in s.format() for s in hot)
        # Quiet samples keep the historical line format.
        config2 = RuntimeConfig(cores=2)
        monitor2 = StatsMonitor(interval=0.05)
        runtime2 = Runtime(config2, filter_str="",
                           datatype="connection", callback=None)
        runtime2.run(iter(CampusTrafficGenerator(seed=9).packets(
            duration=0.3, gbps=0.02)), monitor=monitor2)
        assert all("rung=" not in s.format() for s in monitor2.samples)

    def test_rung_time_covers_run(self):
        report = run(burst_traffic())
        ov = report.overload
        assert sum(ov.rung_time) > 0
        # Time was actually spent on an elevated rung.
        assert sum(ov.rung_time[1:]) > 0

    def test_off_policy_has_no_ledger(self):
        report = run(burst_traffic(), policy="off")
        assert report.overload is None
        assert report.stats.conns_shed == 0


# ---------------------------------------------------------------------------
# correctness invariant: admitted connections are unaffected
# ---------------------------------------------------------------------------
class TestAdmittedConnectionsExact:
    @staticmethod
    def _records(policy):
        collected = []

        def callback(record):
            collected.append(record)

        run(burst_traffic(), policy=policy, callback=callback,
            overload_max_rung=2)
        # Key on (tuple, first_ts): client ports are recycled across
        # the trace, so a canonical tuple can identify several
        # connection incarnations.
        return {
            (record.five_tuple.canonical(), record.first_ts): (
                record.pkts_orig, record.pkts_resp,
                record.bytes_orig, record.bytes_resp,
                record.payload_bytes_orig, record.payload_bytes_resp,
                record.history, record.service,
                record.terminated_gracefully,
            )
            for record in collected
        }

    def test_admitted_records_byte_identical(self):
        baseline = self._records("off")
        shedding = self._records("ladder")
        # The ladder refused a meaningful share of connections ...
        assert len(shedding) < len(baseline)
        assert shedding  # ... but not everything.
        # Every connection the ladder admitted produced a record
        # byte-identical to the unshedded run's.
        for key, summary in shedding.items():
            assert baseline[key] == summary


# ---------------------------------------------------------------------------
# failfast reproduces the historical behavior exactly
# ---------------------------------------------------------------------------
class TestFailfast:
    def test_light_run_identical_to_off(self):
        """failfast only watches; an unloaded run's stats must be
        byte-identical to overload_policy=off."""
        light = CampusTrafficGenerator(seed=3).packets(duration=0.3,
                                                       gbps=0.05)
        off = run(light, policy="off", cost_model=CostModel())
        ff = run(light, policy="failfast", cost_model=CostModel())
        assert off.stats.to_dict() == ff.stats.to_dict()
        assert not ff.failed_fast
        assert ff.overload is not None
        assert ff.overload.packets_shed == 0

    def test_hot_run_aborts_before_completion(self):
        off = run(burst_traffic(), policy="off")
        ff = run(burst_traffic(), policy="failfast")
        assert ff.failed_fast
        assert ff.overload.failfast_at is not None
        # failfast never sheds — it aborts instead.
        assert ff.overload.packets_shed == 0
        assert ff.stats.processed_packets < off.stats.processed_packets

    def test_failfast_at_identical_across_backends(self):
        seq = run(burst_traffic(), policy="failfast")
        par = run(burst_traffic(), policy="failfast", parallel=True)
        assert seq.overload.failfast_at == par.overload.failfast_at

    def test_ladder_with_rung4_trips(self):
        report = run(burst_traffic(), overload_max_rung=4)
        assert report.failed_fast
        # The climb is recorded: the run reached the failfast rung.
        assert report.overload.max_rung_seen == 4


# ---------------------------------------------------------------------------
# cross-backend parity on shedding runs
# ---------------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_ladder_parity(self, workers):
        seq = run(burst_traffic(), cores=workers)
        par = run(burst_traffic(), cores=workers, parallel=True)
        assert seq.stats.to_dict() == par.stats.to_dict()
        assert seq.overload.to_dict() == par.overload.to_dict()
        assert seq.overload.packets_shed > 0

    def test_downgrade_run_parity(self):
        seq = run(burst_traffic(), filter_str="tls",
                  datatype="tls_handshake", overload_heavy_bytes=0)
        par = run(burst_traffic(), filter_str="tls",
                  datatype="tls_handshake", overload_heavy_bytes=0,
                  parallel=True)
        assert seq.stats.to_dict() == par.stats.to_dict()
        assert seq.overload.to_dict() == par.overload.to_dict()


# ---------------------------------------------------------------------------
# rung 3: the heavy-connection circuit breaker
# ---------------------------------------------------------------------------
def _pipeline(**kw):
    config = RuntimeConfig(cores=1, overload_policy="ladder",
                           overload_target_lag=0.02, **kw)
    sub = Subscription("tls", SUBSCRIBABLES["tls_handshake"], None)
    return CorePipeline.of(0, sub, config)


def _stalled_flow(port: int, hole: int):
    """A TLS flow with a sequence hole so the buffered reassembler
    retains the segments past it and the connection stays mid-parse.
    The hole position controls how many bytes pile up behind it."""
    flow = tls_flow(FlowSpec("10.0.0.1", "171.64.0.1", port, 443),
                    "example.com", appdata_bytes=9000)
    return flow[:hole] + flow[hole + 1:hole + 8]


class TestDowngrade:
    def test_heavy_connections_ordering(self):
        """Victims come heaviest-first with the key as tiebreak."""
        pipeline = _pipeline(reassembler="buffered")
        # Two stalled flows buffering different amounts past the hole.
        pipeline.process_batch(_stalled_flow(40000, 4))
        pipeline.process_batch(_stalled_flow(40001, 3))
        lane = pipeline.lanes[0]
        probing = [c for c in lane.table
                   if c.state in (ConnState.PROBE, ConnState.PARSE)]
        assert len(probing) == 2
        heavy = lane.table.heavy_connections(0)
        assert len(heavy) == 2
        weights = [c.memory_bytes for c in heavy]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] > weights[1]

    def test_downgrade_records_and_stops_heavy_state(self):
        pipeline = _pipeline(reassembler="buffered",
                             overload_heavy_bytes=0)
        pipeline.process_batch(_stalled_flow(40000, 4))
        lane = pipeline.lanes[0]
        victims = lane.table.heavy_connections(0)
        assert victims
        lane._overload.rung = RUNG_DOWNGRADE
        lane._overload_downgrade(pipeline.now)
        ledger = pipeline.stats.overload
        assert ledger.conns_downgraded == len(victims)
        assert ledger.layer_packets.get("session_filter") is None or \
            ledger.conns_downgraded
        for conn in victims:
            # Heavy state is gone: either tombstoned or demoted to
            # plain tracking with the reassembler dropped.
            assert conn.state not in (ConnState.PROBE, ConnState.PARSE)


# ---------------------------------------------------------------------------
# reassembly truncation: explicit events, not silent drops
# ---------------------------------------------------------------------------
class TestTruncation:
    def test_buffer_overflow_records_events(self):
        """A never-filled hole forces drops once max_buffer is hit,
        and every drop is an explicit truncation event."""
        from repro.stream.buffered import BufferedReassembler
        from repro.stream.pdu import L4Pdu

        reasm = BufferedReassembler(max_buffer=100)
        # Seed the base at seq 0, then leave a hole at [0, 1000) and
        # pile segments up behind it.
        def pdu(seq, payload):
            return L4Pdu(mbuf=None, payload=payload, seq=seq, flags=0,
                         from_orig=True, timestamp=0.0)

        reasm.push(pdu(0, b""))
        assert reasm.push(pdu(1000, b"x" * 80)) == []  # held (fits)
        assert reasm.push(pdu(1080, b"y" * 80)) == []  # dropped
        assert reasm.truncated_segments == 1
        assert reasm.truncated_bytes == 80
        assert reasm.drain_truncations() == [80]
        assert reasm.drain_truncations() == []  # drained exactly once
        # Memory never exceeded the cap.
        assert reasm.memory_bytes <= 100

    def test_pipeline_surfaces_truncation(self):
        """Truncations flow into RuntimeStats and the loss ledger."""
        from repro.stream.buffered import BufferedReassembler

        pipeline = _pipeline(reassembler="buffered")
        flow = tls_flow(FlowSpec("10.0.0.1", "171.64.0.1", 40000, 443),
                        "example.com", appdata_bytes=9000)
        # Establish the connection, then cap its buffer so the stalled
        # tail overflows.
        pipeline.process_batch(flow[:3])
        conn = next(iter(pipeline.lanes[0].table))
        conn.reassembler = BufferedReassembler(max_buffer=64)
        pipeline.process_batch(flow[4:12])  # hole at segment 3
        stats = pipeline.stats
        assert stats.reasm_truncations > 0
        assert stats.reasm_truncated_bytes > 0
        ledger = stats.overload
        assert ledger.reasm_truncations == stats.reasm_truncations
        assert ledger.reasm_truncated_bytes == \
            stats.reasm_truncated_bytes

    def test_truncation_metrics_exported(self):
        """The truncation families appear in Prometheus output exactly
        when truncations happened (plain runs stay byte-identical)."""
        from repro.telemetry import export

        report = run(burst_traffic(gbps=0.01), policy="off",
                     cost_model=CostModel())
        stats = report.stats
        assert "repro_reassembly_truncations" not in \
            export.render_metrics(report)
        stats.reasm_truncations = 3
        stats.reasm_truncated_bytes = 4096
        text = export.render_metrics(report)
        assert "repro_reassembly_truncations_total 3" in text
        assert "repro_reassembly_truncated_bytes_total 4096" in text


# ---------------------------------------------------------------------------
# the loss ledger itself
# ---------------------------------------------------------------------------
class TestLossLedger:
    def test_record_and_invariants(self):
        ledger = LossLedger(core_id=0)
        ledger.packets_seen = 10
        ledger.record_shed(1, "packet_filter", 100)
        ledger.record_shed(2, "connection_filter", 200)
        ledger.record_shed(2, "connection_filter", 300)
        assert ledger.packets_shed == 3
        assert ledger.bytes_shed == 600
        assert ledger.packets_analyzed == 7
        assert ledger.layer_packets == {"packet_filter": 1,
                                        "connection_filter": 2}

    def test_merge_sums_and_sorts(self):
        a = LossLedger(core_id=0)
        a.packets_seen = 5
        a.record_transition(0.2, 0, 1, "pressure=2.00")
        a.record_shed(1, "packet_filter", 50)
        b = LossLedger(core_id=1)
        b.packets_seen = 7
        b.record_transition(0.1, 0, 1, "pressure=3.00")
        b.record_transition(0.3, 1, 0, "relaxed")
        merged = merge_ledgers([a, b])
        assert merged.packets_seen == 12
        assert merged.packets_shed == 1
        times = [t[0] for t in merged.transitions]
        assert times == sorted(times)
        assert merged.max_rung_seen == 1

    def test_merge_handles_none(self):
        assert merge_ledgers([None, None]) is None
        a = LossLedger(core_id=0)
        a.packets_seen = 1
        assert merge_ledgers([None, a]).packets_seen == 1

    def test_to_dict_and_describe(self):
        report = run(burst_traffic())
        payload = report.overload.to_dict()
        assert payload["packets_seen"] == report.stats.processed_packets
        assert payload["shed_by_rung"]
        assert payload["transitions"]
        assert set(payload["shed_by_rung"]) <= set(RUNG_NAMES)
        line = report.overload.describe()
        assert "shed=" in line and "max_rung=" in line


# ---------------------------------------------------------------------------
# exports: Prometheus families and the NDJSON ledger stream
# ---------------------------------------------------------------------------
class TestExports:
    def test_prometheus_families(self):
        from repro.telemetry import export
        report = run(burst_traffic(), telemetry=True)
        text = export.render_metrics(report)
        assert "repro_overload_shed_packets_total" in text
        assert "repro_overload_shed_layer_packets_total" in text
        assert "repro_overload_rung_transitions_total" in text
        assert "repro_overload_rung_seconds" in text
        assert "repro_overload_failfast 0" in text

    def test_plain_run_output_unchanged(self):
        """No ladder → no overload families: pre-overload byte-identical
        rendering is preserved."""
        from repro.telemetry import export
        light = CampusTrafficGenerator(seed=3).packets(duration=0.3,
                                                       gbps=0.05)
        report = run(light, policy="off", cost_model=CostModel())
        text = export.render_metrics(report)
        assert "repro_overload" not in text
        assert "repro_reassembly_truncations" not in text

    def test_ndjson_ledger(self):
        import json
        from repro.telemetry import export
        report = run(burst_traffic())
        lines = [json.loads(line) for line in
                 export.overload_lines(report.overload)]
        events = {line["event"] for line in lines}
        assert {"shed", "transition", "summary"} <= events
        summary = lines[-1]
        assert summary["packets_seen"] == report.stats.processed_packets
        assert summary["packets_shed"] == report.overload.packets_shed > 0

    def test_stats_dict_roundtrips_overload(self):
        import json
        report = run(burst_traffic())
        for stats in report.core_stats.values():
            payload = json.loads(json.dumps(stats.to_dict()))
            assert payload["overload"]["packets_seen"] == \
                stats.overload.packets_seen


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(overload_policy="aggressive")

    def test_conflicting_memory_policy(self):
        with pytest.raises(ConfigError, match="memory_policy"):
            RuntimeConfig(overload_policy="ladder",
                          memory_policy="shed",
                          memory_limit_bytes=1 << 20)

    def test_bad_knobs(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(overload_policy="ladder",
                          overload_target_lag=0.0)
        with pytest.raises(ConfigError):
            RuntimeConfig(overload_policy="ladder", overload_max_rung=5)
