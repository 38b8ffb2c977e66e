"""Tests for the future-work features: callback executors and the
P4-capable pre-filter profile."""

import pytest

from repro import Runtime, RuntimeConfig, Stage, Subscription
from repro.core.executor import InlineExecutor, QueuedExecutor
from repro.errors import ConfigError
from repro.filter import compile_filter, expand_patterns, parse_filter
from repro.filter.hardware import (
    connectx5_capabilities,
    generate_hardware_filter,
    p4_capabilities,
)
from repro.packet import Mbuf, build_tcp_packet, parse_stack
from repro.traffic import FlowSpec, tls_flow


class TestInlineExecutor:
    def test_charges_callback_cycles(self):
        got = []
        executor = InlineExecutor(got.append, 5000.0)
        executor.submit("x")
        assert executor.rx_cycles == 5000.0
        assert got == ["x"]
        assert executor.stats.delivered == 1


class TestQueuedExecutor:
    def test_charges_enqueue_only_on_rx(self):
        executor = QueuedExecutor(None, 100_000.0, workers=2,
                                  enqueue_cycles=300.0)
        executor.submit("x")
        assert executor.rx_cycles == 300.0
        assert executor.stats.worker_cycles == 100_000.0

    def test_finalize_counts_overload(self):
        executor = QueuedExecutor(None, 1_000_000.0, workers=1)
        for _ in range(100):
            executor.submit("x")
        # 100M cycles of work; 1 worker x 3GHz x 0.01s = 30M capacity.
        executor.finalize(duration=0.01, cpu_hz=3e9)
        assert executor.stats.dropped == pytest.approx(70, abs=2)

    def test_no_drop_when_capacity_sufficient(self):
        executor = QueuedExecutor(None, 1000.0, workers=4)
        for _ in range(10):
            executor.submit("x")
        executor.finalize(duration=1.0, cpu_hz=3e9)
        assert executor.stats.dropped == 0

    def test_rate_ceiling(self):
        executor = QueuedExecutor(None, 100_000.0, workers=4)
        assert executor.max_zero_loss_callbacks_per_second(3e9) == \
            pytest.approx(120_000)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            QueuedExecutor(None, 0.0, workers=0)
        with pytest.raises(ConfigError):
            RuntimeConfig(callback_workers=0)
        with pytest.raises(ConfigError):
            RuntimeConfig(callback_execution="threads")

    def test_runtime_integration(self):
        got = []
        runtime = Runtime(
            RuntimeConfig(cores=2, callback_execution="queued",
                          callback_cycles=50_000.0, callback_workers=2),
            filter_str="tls",
            datatype="tls_handshake",
            callback=got.append,
        )
        packets = tls_flow(FlowSpec("10.0.0.1", "1.1.1.1", 1000, 443),
                           "q.example.com")
        stats = runtime.run(iter(packets)).stats
        assert [h.sni() for h in got] == ["q.example.com"]
        # RX side charged only the enqueue fee.
        assert stats.stage_cycles[Stage.CALLBACK] == pytest.approx(250.0)
        assert runtime.executor.stats.worker_cycles == \
            pytest.approx(50_000.0)


class TestP4Capabilities:
    def test_offloads_ranges_and_ordered_ops(self):
        patterns = expand_patterns(parse_filter(
            "tcp.port in 8000..9999 and ipv4.ttl > 32"))
        p4 = generate_hardware_filter(patterns, p4_capabilities())
        cx5 = generate_hardware_filter(patterns, connectx5_capabilities())
        p4_desc = " ".join(p4.describe())
        cx5_desc = " ".join(cx5.describe())
        assert "8000..9999" in p4_desc and "ttl > 32" in p4_desc
        assert "8000..9999" not in cx5_desc and "ttl" not in cx5_desc

    def test_no_regex_offload(self):
        # Session-layer regexes can never be offloaded; the rule set
        # stays at the protocol chain.
        f = compile_filter("tls.sni ~ 'x' and tcp.port > 1000",
                           nic=p4_capabilities())
        descriptions = " ".join(f.hardware.describe())
        assert "tcp.port > 1000" in descriptions
        assert "sni" not in descriptions

    def test_rules_still_sound(self):
        """P4 rules remain at least as broad as the software filter."""
        f = compile_filter("tcp.port in 8000..8999 and ipv4.ttl > 32",
                           nic=p4_capabilities())
        match = Mbuf(build_tcp_packet("1.1.1.1", "2.2.2.2", 100, 8443,
                                      ttl=64))
        miss_port = Mbuf(build_tcp_packet("1.1.1.1", "2.2.2.2", 100, 80,
                                          ttl=64))
        miss_ttl = Mbuf(build_tcp_packet("1.1.1.1", "2.2.2.2", 100, 8443,
                                         ttl=16))
        assert f.hardware.admits(parse_stack(match))
        assert not f.hardware.admits(parse_stack(miss_port))
        assert not f.hardware.admits(parse_stack(miss_ttl))
        assert f.packet_filter(match).matched
