"""Unit tests for core support modules: cycle ledger, aggregate stats
derivations, subscription planning, and generated-code structure."""

import pytest

from repro import (
    CostModel,
    CycleLedger,
    RuntimeConfig,
    Stage,
    Subscription,
    compile_filter,
)
from repro.core.stats import AggregateStats


class TestCostModel:
    def test_defaults_match_figure7(self):
        model = CostModel()
        assert model.packet_filter == 102.9
        assert model.conn_track == 41.6
        assert model.reassembly == 353.8
        assert model.parsing == 2122.9
        assert model.session_filter == 702.3
        assert model.hardware_filter == 0.0

    def test_cost_of_and_with_callback(self):
        model = CostModel().with_callback(5000.0)
        assert model.cost_of(Stage.CALLBACK) == 5000.0
        assert model.cost_of(Stage.PACKET_FILTER) == 102.9


class TestCycleLedger:
    def test_charge_accumulates(self):
        ledger = CycleLedger()
        ledger.charge(Stage.PACKET_FILTER, invocations=10)
        assert ledger.invocations[Stage.PACKET_FILTER] == 10
        assert ledger.centi_cycles(Stage.PACKET_FILTER) == 102_900
        assert ledger.cycles(Stage.PACKET_FILTER) == 1029.0

    def test_charge_cycles_explicit(self):
        ledger = CycleLedger()
        ledger.charge_extra(Stage.CALLBACK, 1_234_500)
        assert ledger.cycles(Stage.CALLBACK) == 12345.0
        assert ledger.invocations[Stage.CALLBACK] == 1

    def test_explicit_cost_adds_to_the_model_cost(self):
        ledger = CycleLedger()
        ledger.charge_extra(Stage.REASSEMBLY, 75 * 1000)
        assert ledger.centi_cycles(Stage.REASSEMBLY) == 35_380 + 75_000

    def test_costs_round_once_to_centi_cycles(self):
        ledger = CycleLedger(CostModel(conn_track=1 / 3, parsing=3e7))
        assert ledger.cost[Stage.CONN_TRACK] == 33
        assert ledger.cost[Stage.PARSING] == 3_000_000_000
        assert ledger.cost[Stage.PACKET_FILTER] == 10_290
        ledger.charge(Stage.CONN_TRACK, 3)
        assert ledger.centi_cycles(Stage.CONN_TRACK) == 99

    def test_busy_seconds(self):
        ledger = CycleLedger(CostModel(cpu_hz=1e9))
        ledger.charge_extra(Stage.CALLBACK, 5 * 10**10)
        assert ledger.busy_seconds == 0.5

    def test_merge(self):
        a, b = CycleLedger(), CycleLedger()
        a.charge(Stage.CONN_TRACK, 3)
        b.charge(Stage.CONN_TRACK, 4)
        b.charge_extra(Stage.CALLBACK, 250)
        a.merge(b)
        assert a.invocations[Stage.CONN_TRACK] == 7
        assert a.centi_cycles(Stage.CONN_TRACK) == 7 * 4160
        assert a.centi_cycles(Stage.CALLBACK) == 250

    def test_snapshot_shape(self):
        snap = CycleLedger().snapshot()
        assert set(snap) == {s.value for s in Stage}
        assert snap["parsing"] == {"invocations": 0, "cycles": 0.0}


def _stats(**overrides):
    default_cycles = {s: 0.0 for s in Stage}
    # Non-zero work so derived ceilings are finite.
    default_cycles[Stage.PACKET_FILTER] = 102_900.0
    base = dict(
        cores=4,
        cost_model=CostModel(),
        duration=1.0,
        ingress_packets=1000,
        ingress_bytes=1_000_000,
        hw_dropped_packets=0,
        sink_dropped_packets=0,
        processed_packets=1000,
        processed_bytes=1_000_000,
        callbacks=10,
        sessions_parsed=10,
        sessions_matched=10,
        conns_created=20,
        conns_delivered=10,
        stage_invocations={s: 0 for s in Stage},
        stage_cycles=default_cycles,
        per_core_busy_seconds=[0.1, 0.1, 0.1, 0.1],
        memory_samples=[(0.0, 5, 1000), (1.0, 8, 2000)],
    )
    base.update(overrides)
    return AggregateStats(**base)


class TestAggregateStats:
    def test_offered_rate(self):
        stats = _stats()
        assert stats.offered_rate_gbps == pytest.approx(0.008)

    def test_zero_loss_ceiling_balanced(self):
        # 4 cores each busy 0.1s for 250KB of their share:
        # per-core rate = 250KB / 0.1s; x4 cores x8 bits.
        stats = _stats()
        expected = (250_000 / 0.1) * 4 * 8 / 1e9
        assert stats.max_zero_loss_gbps() == pytest.approx(expected)

    def test_zero_loss_uses_busiest_core(self):
        balanced = _stats()
        skewed = _stats(per_core_busy_seconds=[0.4, 0.0, 0.0, 0.0])
        assert skewed.max_zero_loss_gbps() < \
            balanced.max_zero_loss_gbps()

    def test_loss_fraction(self):
        ok = _stats()
        assert ok.loss_fraction == 0.0
        overloaded = _stats(per_core_busy_seconds=[2.0, 0.1, 0.1, 0.1])
        assert overloaded.loss_fraction == pytest.approx(0.5)

    def test_stage_fractions_and_means(self):
        inv = {s: 0 for s in Stage}
        cyc = {s: 0.0 for s in Stage}
        inv[Stage.PACKET_FILTER] = 500
        cyc[Stage.PACKET_FILTER] = 51_450.0
        stats = _stats(stage_invocations=inv, stage_cycles=cyc)
        assert stats.stage_fractions()[Stage.PACKET_FILTER] == 0.5
        assert stats.stage_mean_cycles()[Stage.PACKET_FILTER] == \
            pytest.approx(102.9)
        assert stats.stage_mean_cycles()[Stage.PARSING] == 0.0

    def test_memory_peaks(self):
        stats = _stats()
        assert stats.peak_memory_bytes == 2000
        assert stats.peak_live_connections == 8

    def test_describe_mentions_key_numbers(self):
        text = _stats().describe()
        assert "1000 pkts" in text
        assert "zero-loss ceiling" in text


class TestSubscriptionPlanning:
    def _sub(self, filter_str, datatype, **kwargs):
        return Subscription(filter_str, datatype, lambda x: None, **kwargs)

    def test_packet_fast_path_plan(self):
        sub = self._sub("ipv4", "packet")
        assert not sub.needs_conntrack
        assert not sub.needs_probe
        assert not sub.buffers_packets

    def test_packet_with_conn_filter_plan(self):
        sub = self._sub("http", "packet")
        assert sub.needs_conntrack
        assert sub.buffers_packets
        assert sub.probe_protocols == {"http"}

    def test_connection_matchall_plan(self):
        sub = self._sub("", "connection")
        assert sub.needs_conntrack
        assert not sub.needs_probe

    def test_session_subscription_restricts_probes(self):
        sub = self._sub("", "tls_handshake")
        assert sub.probe_protocols == {"tls"}
        assert sub.needs_reassembly

    def test_identify_services_widens_probes(self):
        sub = self._sub("", "connection", identify_services=True)
        assert sub.probe_protocols == \
            {"tls", "http", "ssh", "dns", "quic"}

    def test_filter_protocols_probed_for_connection_level(self):
        sub = self._sub("ssh", "connection")
        assert sub.probe_protocols == {"ssh"}


class TestGeneratedCodeStructure:
    def test_fig3_packet_filter_shape(self):
        """Golden structural checks on the generated source."""
        source = compile_filter(
            "(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http"
        ).generated_source
        assert "def packet_filter(mbuf):" in source
        assert "def connection_filter(conn, pkt_term_node):" in source
        assert "def session_filter(session, conn_term_node):" in source
        # The if-let ladder reads each parse-once stack slot at most
        # once per branch (no re-parsing of headers per filter layer).
        assert source.count("ipv4 = stack.ipv4") == 1
        assert source.count("ipv6 = stack.ipv6") == 1
        assert "parse_from" not in source
        # The >= predicate expands to both port accessors.
        assert "tcp.src_port()" in source and "tcp.dst_port()" in source
        # Regexes are hoisted (lazy_static), not inline literals.
        assert "RE0.search" in source
        assert "re.compile" not in source

    def test_no_regex_recompilation_at_runtime(self):
        compiled = compile_filter("tls.sni ~ 'x+'")
        pool_keys = [k for k in compiled.generated_source.split()
                     if k.startswith("RE")]
        assert pool_keys  # at least one hoisted regex constant

    def test_match_all_generates_trivial_filter(self):
        source = compile_filter("").generated_source
        assert "return _terminal(0)" in source
