"""Tests for the Section 5.3 monitor and the command-line interface."""

import pytest

from repro import Runtime, RuntimeConfig
from repro.cli import main
from repro.core.monitor import MonitorSample, StatsMonitor
from repro.traffic import CampusTrafficGenerator, FlowSpec, tls_flow, \
    write_pcap


class TestStatsMonitor:
    def _run_with_monitor(self, interval=0.1, **config_kwargs):
        monitor = StatsMonitor(interval=interval)
        runtime = Runtime(
            RuntimeConfig(cores=2, **config_kwargs),
            filter_str="",
            datatype="connection",
            callback=lambda r: None,
        )
        traffic = CampusTrafficGenerator(seed=17).packets(duration=1.0,
                                                          gbps=0.05)
        runtime.run(iter(traffic), monitor=monitor)
        return monitor

    def test_samples_collected(self):
        monitor = self._run_with_monitor()
        assert len(monitor.samples) >= 3
        timestamps = [s.timestamp for s in monitor.samples]
        assert timestamps == sorted(timestamps)

    def test_sample_contents(self):
        monitor = self._run_with_monitor()
        total_pkts = sum(s.ingress_packets for s in monitor.samples)
        assert total_pkts > 0
        assert all(s.interval_gbps >= 0 for s in monitor.samples)
        assert all(s.live_connections >= 0 for s in monitor.samples)

    def test_emit_callback(self):
        lines = []
        monitor = StatsMonitor(interval=0.1, emit=lines.append)
        runtime = Runtime(RuntimeConfig(cores=1), filter_str="",
                          datatype="packet", callback=None)
        traffic = CampusTrafficGenerator(seed=18).packets(duration=0.5,
                                                          gbps=0.05)
        runtime.run(iter(traffic), monitor=monitor)
        assert lines
        assert "Gbps" in lines[0]

    def test_loss_signal(self):
        """A hugely expensive per-packet callback overloads the core;
        the monitor's loss signal must fire (Section 5.3's feedback)."""
        from repro.traffic import CampusProfile
        monitor = StatsMonitor(interval=0.1)
        runtime = Runtime(
            RuntimeConfig(cores=1, callback_cycles=5e8),
            filter_str="", datatype="packet", callback=None,
        )
        # No long-lived stretched flows: keep the trace dense so every
        # monitoring interval carries load.
        profile = CampusProfile(long_lived_fraction=0.0)
        traffic = CampusTrafficGenerator(seed=18, profile=profile).packets(
            duration=0.5, gbps=0.05)
        runtime.run(iter(traffic), monitor=monitor)
        assert monitor.sustained_loss
        assert any(s.loss_fraction > 0.5 for s in monitor.samples)

    def test_no_loss_when_light(self):
        monitor = self._run_with_monitor()
        assert not monitor.sustained_loss

    def test_format_and_log_lines(self):
        monitor = self._run_with_monitor()
        lines = monitor.log_lines()
        assert len(lines) == len(monitor.samples)
        assert all("conns=" in line for line in lines)

    def test_one_stats_read_per_pipeline_per_snapshot(self, monkeypatch):
        """A core builds and merges a fresh bundle on every ``stats``
        read, so a snapshot reads each pipeline's once."""
        from repro.core.pipeline import CorePipeline
        from repro.tenancy import TenantRuntime, TenantSpec
        reads = []
        stats = CorePipeline.stats
        monkeypatch.setattr(
            CorePipeline, "stats",
            property(lambda self: reads.append(self.core_id)
                     or stats.fget(self)))
        runtime = TenantRuntime(RuntimeConfig(cores=2), [
            TenantSpec("web", "tcp.dst_port = 443", "connection"),
            TenantSpec("dns", "udp", "packet")])
        monitor = StatsMonitor(interval=0.1)
        traffic = list(CampusTrafficGenerator(seed=17).packets(
            duration=0.3, gbps=0.05))
        for mbuf in traffic:
            runtime.nic.receive(mbuf)
        monitor.observe(runtime, 0.0)
        del reads[:]
        monitor.observe(runtime, 1.0)
        assert len(monitor.samples) == 1
        assert sorted(reads) == [0, 1]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            StatsMonitor(interval=0)


class TestCli:
    def test_describe_filter(self, capsys):
        assert main(["--describe-filter", "tcp.port = 443 and tls"]) == 0
        out = capsys.readouterr().out
        assert "trie:" in out
        assert "ETH-IPV4-TCP" in out
        assert "def packet_filter" in out

    def test_describe_bad_filter(self, capsys):
        assert main(["--describe-filter", "bogus.field = 1"]) == 2
        assert "filter error" in capsys.readouterr().err

    def test_pcap_run(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        write_pcap(path, tls_flow(
            FlowSpec("10.0.0.1", "1.2.3.4", 999, 443), "cli.example.com"))
        code = main(["--pcap", str(path), "--filter", "tls",
                     "--datatype", "tls_handshake", "--cores", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sni=cli.example.com" in out
        assert "zero-loss ceiling" in out

    def test_synthetic_run_with_monitor(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.3",
                     "--gbps", "0.05", "--datatype", "connection",
                     "--print-limit", "2", "--monitor", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ConnectionRecord" in out
        assert "Gbps" in out

    def test_bad_config(self, capsys):
        code = main(["--cores", "0", "--synthetic", "campus"])
        assert code == 2

    def test_print_limit_zero(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.2",
                     "--gbps", "0.05", "--print-limit", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RawPacket" not in out


class TestFlagValidation:
    """Conflicting-flag combinations fail fast with actionable errors
    (exit code 2, remediation in the message) instead of surprising
    behavior deep in a run."""

    def test_overload_vs_memory_policy_conflict(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--overload-policy", "ladder",
                     "--memory-policy", "shed"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--overload-policy ladder" in err
        assert "--memory-policy shed" in err
        assert "drop --memory-policy" in err

    def test_overload_vs_memory_evict_conflict(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--overload-policy", "failfast",
                     "--memory-policy", "evict"])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_memory_record_is_compatible(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--gbps", "0.02", "--print-limit", "0",
                     "--overload-policy", "ladder",
                     "--memory-policy", "record"])
        assert code == 0

    def test_supervise_requires_parallel(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--supervise"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--supervise requires --parallel" in err
        assert "--parallel 2" in err  # the remediation

    def test_nonpositive_target_lag(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--overload-policy", "ladder",
                     "--overload-target-lag", "0"])
        assert code == 2
        assert "--overload-target-lag" in capsys.readouterr().err

    def test_burst_intensity_below_one(self, capsys):
        code = main(["--synthetic", "burst", "--duration", "0.1",
                     "--burst-intensity", "0.5"])
        assert code == 2
        assert "--burst-intensity" in capsys.readouterr().err

    # The three recorder rate knobs are only valid with the bundle
    # (``--report-dir``) that switches the recorders on.
    def test_trace_sample_without_trace_out(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--trace-sample", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--trace-sample" in err
        assert "--report-dir" in err  # the remediation

    def test_nonpositive_span_sample(self, tmp_path, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--report-dir", str(tmp_path / "run"),
                     "--span-sample", "0"])
        assert code == 2
        assert "--span-sample must be >= 1" in capsys.readouterr().err

    def test_span_sample_without_span_output(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--span-sample", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--span-sample" in err
        assert "--report-dir" in err  # the remediation

    def test_nonpositive_flight_depth(self, tmp_path, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--report-dir", str(tmp_path / "run"),
                     "--flight-recorder-depth", "-1"])
        assert code == 2
        assert "--flight-recorder-depth must be >= 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_flight_depth_without_flight_out(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--flight-recorder-depth", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--flight-recorder-depth" in err
        assert "--report-dir" in err  # the remediation

    def test_span_flags_compatible_combo(self, tmp_path, capsys):
        import json
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--gbps", "0.02", "--print-limit", "0",
                     "--report-dir", str(tmp_path),
                     "--span-sample", "2",
                     "--flight-recorder-depth", "4"])
        assert code == 0
        assert (tmp_path / "spans.json").exists()
        config = json.loads(
            (tmp_path / "manifest.json").read_text())["config"]
        assert config["span_sample"] == 2
        assert config["flight_recorder_depth"] == 4
        assert config["trace_sample"] == 0.01  # the default it turns on


class TestOverloadCli:
    def test_off_policy_prints_no_overload(self, capsys):
        code = main(["--synthetic", "burst", "--duration", "0.2",
                     "--gbps", "0.02", "--print-limit", "0"])
        assert code == 0
        assert "overload:" not in capsys.readouterr().out


class TestImpairFlagValidation:
    """--impair-* combinations fail fast with exit 2 and a remediation
    (the span-flag validation pattern)."""

    BASE = ["--synthetic", "campus", "--duration", "0.1",
            "--gbps", "0.02", "--print-limit", "0"]

    def test_impair_conflicts_with_packet_faults(self, tmp_path,
                                                 capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"kind": "corrupt_packet", "at_packet": 5}]}')
        code = main(self.BASE + ["--impair-loss", "0.1",
                                 "--fault-plan", str(plan)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--impair-" in err
        assert "--fault-plan" in err
        assert "--impair-corrupt" in err  # the remediation

    def test_impair_with_non_packet_fault_plan_ok(self, tmp_path,
                                                  capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"kind": "callback_error", "at_ordinal": 5}]}')
        code = main(self.BASE + ["--impair-loss", "0.1",
                                 "--fault-plan", str(plan)])
        assert code == 0

    def test_trace_conflicts_with_model_flags(self, capsys):
        code = main(self.BASE + ["--impair-trace", "x.trace",
                                 "--impair-loss", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--impair-trace" in err
        assert "drop the model flags" in err

    def test_record_conflicts_with_trace(self, capsys):
        code = main(self.BASE + ["--impair-trace", "x.trace",
                                 "--impair-record", "y.trace"])
        assert code == 2
        assert "--impair-record" in capsys.readouterr().err

    def test_reorder_depth_without_reorder(self, capsys):
        code = main(self.BASE + ["--impair-reorder-depth", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--impair-reorder-depth" in err
        assert "--impair-reorder" in err  # the remediation

    def test_repair_flags_without_threshold(self, capsys):
        code = main(self.BASE + ["--impair-repair-time", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--impair-disable-threshold" in err

    def test_bad_rate_rejected(self, capsys):
        code = main(self.BASE + ["--impair-loss", "1.5"])
        assert code == 2
        assert "loss_rate" in capsys.readouterr().err

    def test_bad_burst_spec_rejected(self, capsys):
        code = main(self.BASE + ["--impair-burst", "0.1"])
        assert code == 2
        assert "Gilbert-Elliott" in capsys.readouterr().err

    def test_corrupt_silent_without_corrupt(self, capsys):
        code = main(self.BASE + ["--impair-corrupt-silent"])
        assert code == 2
        assert "corrupt_silent" in capsys.readouterr().err


class TestImpairCli:
    def test_record_and_replay_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "link.trace"
        base = ["--synthetic", "campus", "--duration", "0.1",
                "--gbps", "0.05", "--print-limit", "0",
                "--datatype", "connection"]
        assert main(base + ["--impair-loss", "0.1",
                            "--impair-corrupt", "0.05",
                            "--impair-record", str(trace),
                            "--report-dir", str(tmp_path / "a")]) == 0
        assert trace.read_text().startswith("#repro-impair-trace")
        assert main(base + ["--impair-trace", str(trace),
                            "--impair-seed", "999",
                            "--report-dir", str(tmp_path / "b")]) == 0
        # (impairment.ndjson restates each run's own link config.)
        for name in ("stats.json", "fates.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_clean_run_prints_no_impairment(self, capsys):
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--gbps", "0.02", "--print-limit", "0"])
        assert code == 0
        assert "impairment:" not in capsys.readouterr().out


class TestJsonStats:
    def test_json_stats_written(self, tmp_path, capsys):
        import json
        code = main(["--synthetic", "campus", "--duration", "0.2",
                     "--gbps", "0.05", "--print-limit", "0",
                     "--report-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["ingress_packets"] > 0
        assert "max_zero_loss_gbps" in payload
        assert set(payload["stage_invocations"]) >= {"capture",
                                                     "packet_filter"}


class TestTenancyCli:
    def _subs(self, tmp_path, entries=None):
        import json
        if entries is None:
            entries = [
                {"name": "web", "filter": "tcp.dst_port = 443",
                 "datatype": "connection", "callback": "count"},
                {"name": "dns", "filter": "udp", "datatype": "packet"},
                {"name": "late", "filter": "tcp",
                 "datatype": "connection", "start": False},
            ]
        path = tmp_path / "subs.json"
        path.write_text(json.dumps({"tenants": entries}))
        return str(path)

    def test_subscriptions_conflicts_with_filter(self, tmp_path,
                                                 capsys):
        code = main(["--subscriptions", self._subs(tmp_path),
                     "--filter", "tcp", "--synthetic", "campus"])
        assert code == 2
        assert "--subscriptions conflicts with --filter" in \
            capsys.readouterr().err

    def test_reconfigure_requires_subscriptions(self, capsys):
        code = main(["--synthetic", "campus",
                     "--reconfigure-at", "0.1:drop:dns"])
        assert code == 2
        assert "--reconfigure-at has no effect without" in \
            capsys.readouterr().err

    def test_malformed_reconfigure_spec(self, tmp_path, capsys):
        code = main(["--subscriptions", self._subs(tmp_path),
                     "--synthetic", "campus",
                     "--reconfigure-at", "whenever:drop:dns"])
        assert code == 2
        assert "virtual-time float" in capsys.readouterr().err

    def test_unknown_event_tenant(self, tmp_path, capsys):
        code = main(["--subscriptions", self._subs(tmp_path),
                     "--synthetic", "campus",
                     "--reconfigure-at", "0.1:drop:nope"])
        assert code == 2
        assert "unknown tenant" in capsys.readouterr().err

    def test_nonworker_fault_plan_conflict(self, tmp_path, capsys):
        plan = ('{"seed": 1, "faults": '
                '[{"kind": "callback_error", "at_ordinal": 0}]}')
        code = main(["--subscriptions", self._subs(tmp_path),
                     "--synthetic", "campus", "--fault-plan", plan])
        assert code == 2
        assert "non-worker --fault-plan" in capsys.readouterr().err

    def test_worker_fault_plan_allowed(self, tmp_path, capsys):
        plan = ('{"seed": 1, "faults": '
                '[{"kind": "worker_crash", "core": 1, "at_batch": 1}]}')
        code = main(["--subscriptions", self._subs(tmp_path),
                     "--synthetic", "campus", "--duration", "0.2",
                     "--gbps", "0.05", "--print-limit", "0",
                     "--parallel", "2", "--supervise",
                     "--fault-plan", plan])
        assert code == 0

    def test_bad_subscriptions_json(self, tmp_path, capsys):
        path = tmp_path / "subs.json"
        path.write_text("[{\"filter\": \"tcp\"}]")
        code = main(["--subscriptions", str(path),
                     "--synthetic", "campus"])
        assert code == 2
        assert "needs a string 'name'" in capsys.readouterr().err
