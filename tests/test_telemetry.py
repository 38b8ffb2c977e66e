"""Telemetry subsystem: registry, funnel, tracing, exporters, monitor.

The load-bearing guarantees under test:

* the filter-funnel invariant (survivors monotonically non-increasing)
  holds for the entire filter corpus, on both backends;
* sequential and parallel runs produce byte-identical Prometheus and
  NDJSON trace exports at 1/2/4 workers;
* the monitor no longer drops the final partial interval and no longer
  flags "sustained" loss off a single lossy sample.
"""

import json
from dataclasses import replace

import pytest

from repro import Runtime, RuntimeConfig
from repro.conntrack.five_tuple import pack_key
from repro.core.monitor import MonitorSample, StatsMonitor
from repro.telemetry import (
    ConnectionTracer,
    MetricsRegistry,
    build_funnel,
    check,
    stable_sample_hash,
)
from repro.telemetry import export
from repro.telemetry.trace import sort_trace_events, trace_event_dicts
from repro.traffic import CampusTrafficGenerator
from tests.test_filter_compile import _FILTERS


def _campus(seed=23, duration=0.3, gbps=0.1):
    return list(CampusTrafficGenerator(seed=seed).packets(
        duration=duration, gbps=gbps))


def _run(traffic, filter_str="tcp", datatype="connection", cores=4,
         parallel=False, monitor=None, **config_kwargs):
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           **config_kwargs)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=None)
    return runtime.run(iter(traffic), monitor=monitor)


@pytest.fixture(scope="module")
def traffic():
    return _campus()


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("pkts_total", "packets", label_names=("q",))
        c.inc(labels=("0",))
        c.inc(4, labels=("0",))
        c.inc(2, labels=("1",))
        assert dict(c.samples()) == {'pkts_total{q="0"}': 5,
                                     'pkts_total{q="1"}': 2}
        with pytest.raises(ValueError):
            c.inc(-1, labels=("0",))

    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 5.0, 50.0):
            h.observe(v)
        samples = dict(h.samples())
        assert samples['lat_bucket{le="1"}'] == 1
        assert samples['lat_bucket{le="10"}'] == 3
        assert samples['lat_bucket{le="+Inf"}'] == 4
        assert samples["lat_count"] == 4
        assert samples["lat_sum"] == pytest.approx(60.5)

    def test_histogram_load_merges_bucket_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", buckets=(1.0, 10.0))
        h.load([1, 2, 3], 100.0)
        h.load([1, 0, 0], 0.5)
        assert dict(h.samples())['lat_bucket{le="+Inf"}'] == 7

    def test_volatile_excluded_from_default_render(self):
        reg = MetricsRegistry()
        reg.counter("stable_total").inc(1)
        reg.gauge("noisy", volatile=True).set(42)
        text = reg.render_prometheus()
        assert "stable_total 1" in text
        assert "noisy" not in text
        assert "noisy 42" in reg.render_prometheus(include_volatile=True)

    def test_render_deterministic_ordering(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc(2)
        reg.counter("a_total", label_names=("x",)).inc(1, labels=("z",))
        reg.counter("a_total", label_names=("x",)).inc(1, labels=("a",))
        text = reg.render_prometheus()
        assert text.index('a_total{x="a"}') < text.index('a_total{x="z"}')
        assert text.index("a_total") < text.index("b_total")
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        """Backslashes, quotes and newlines in label values render in
        the escaped exposition form (unescaped they corrupt the line
        and every line after it)."""
        reg = MetricsRegistry()
        c = reg.counter("weird_total", "weird labels",
                        label_names=("path",))
        c.inc(1, labels=('C:\\tmp\\"x"\nboom',))
        text = reg.render_prometheus()
        assert 'path="C:\\\\tmp\\\\\\"x\\"\\nboom"' in text
        assert "\nboom" not in text  # no raw newline leaked

    def test_histogram_label_values_escaped(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", buckets=(1.0,),
                          label_names=("node",))
        h.observe(0.5, labels=('a"b\\c',))
        samples = [name for name, _ in h.samples()]
        assert all('node="a\\"b\\\\c"' in name for name in samples)
        # Every rendered sample stays on one physical line.
        text = reg.render_prometheus()
        assert all(line.count('"') % 2 == 0 or "\\" in line
                   for line in text.splitlines())

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "first line\nsecond \\ line").inc(1)
        text = reg.render_prometheus()
        assert "# HELP x_total first line\\nsecond \\\\ line" in text
        # One HELP, one TYPE, one sample: nothing split across lines.
        assert len(text.strip().splitlines()) == 3

    def test_plain_labels_unchanged_by_escaping(self):
        """The escaping is a no-op for ordinary label values, so
        existing exports stay byte-identical."""
        reg = MetricsRegistry()
        reg.counter("pkts_total", "packets",
                    label_names=("stage",)).inc(3, labels=("parsing",))
        assert 'pkts_total{stage="parsing"} 3' in reg.render_prometheus()


# ---------------------------------------------------------------------------
# the filter funnel
# ---------------------------------------------------------------------------
class TestFunnel:
    @pytest.mark.parametrize("filter_str", _FILTERS)
    def test_funnel_invariant_over_corpus(self, traffic, filter_str):
        """Every filter in the corpus yields a monotone funnel."""
        report = _run(traffic, filter_str=filter_str)
        check(report)  # raises on a layer that lets more out than in
        layers = build_funnel(report.stats)
        assert [l.layer for l in layers] == [
            "nic_hardware", "packet_filter", "connection_filter",
            "session_filter"]
        # Layers chain: each layer's input is the previous's output.
        for prev, cur in zip(layers, layers[1:]):
            assert cur.packets_in == prev.packets_out

    def test_funnel_narrow_filter_drops(self, traffic):
        # With the NIC offload disabled, the software packet filter has
        # to do the dropping — the funnel must show it there.
        stats = _run(traffic, filter_str="tcp.port = 443",
                     hardware_filter=False).stats
        layers = {l.layer: l for l in build_funnel(stats)}
        assert layers["nic_hardware"].dropped_packets == 0
        assert layers["packet_filter"].dropped_packets > 0
        assert layers["packet_filter"].drop_fraction > 0

    def test_funnel_in_to_dict_and_describe(self, traffic):
        stats = _run(traffic).stats
        d = stats.to_dict()
        assert [row["layer"] for row in d["filter_funnel"]] == [
            "nic_hardware", "packet_filter", "connection_filter",
            "session_filter"]
        assert "filter funnel:" in stats.describe()

    def test_funnel_sequential_parallel_equal(self, traffic):
        """Funnel counters are identical across backends at 1/2/4
        workers (the determinism acceptance criterion)."""
        for cores in (1, 2, 4):
            seq = _run(traffic, cores=cores).stats
            par = _run(traffic, cores=cores, parallel=True).stats
            assert [l.to_dict() for l in build_funnel(seq)] == \
                [l.to_dict() for l in build_funnel(par)], \
                f"funnel diverged at {cores} workers"


# ---------------------------------------------------------------------------
# connection tracing
# ---------------------------------------------------------------------------
class TestTracer:
    def test_stable_hash_is_seed_independent(self):
        # CRC-32 of the packed canonical key: a fixed value, not
        # Python's randomized hash().
        key = pack_key(b"\x01\x02\x03\x04", 443, b"\x05\x06\x07\x08",
                       51000, 6)
        assert stable_sample_hash(key) == stable_sample_hash(key)
        assert 0 <= stable_sample_hash(key) < 2 ** 32

    def test_sample_fraction_bounds(self):
        all_events, no_events = [], []
        always = ConnectionTracer(1.0, all_events)
        never = ConnectionTracer(0.0, no_events)
        key = pack_key(b"\x01\x02\x03\x04", 1, b"\x05\x06\x07\x08", 2, 17)
        assert always.sampled(key)
        assert not never.sampled(key)
        with pytest.raises(ValueError):
            ConnectionTracer(1.5, [])

    def test_event_order_and_indices(self):
        events = [
            (2.0, "b", 7, "delivered", ""),
            (1.0, "a", 1, "created", ""),
            (1.0, "a", 2, "matched", "packet"),
        ]
        assert [e[1] for e in sort_trace_events(events)] == ["a", "a", "b"]
        dicts = trace_event_dicts(events)
        assert [d["i"] for d in dicts] == [0, 1, 0]
        assert "detail" not in dicts[0]
        assert dicts[1]["detail"] == "packet"

    def test_lifecycle_recorded(self, traffic):
        report = _run(traffic, trace_sample=1.0)
        events = trace_event_dicts(report.stats.trace_events)
        assert events, "full sampling must record events"
        names = {e["event"] for e in events}
        assert "created" in names and "matched" in names
        # Every connection's first event is its creation.
        firsts = [e for e in events if e["i"] == 0]
        assert all(e["event"] == "created" for e in firsts)

    def test_trace_identical_across_backends(self, traffic):
        for cores in (1, 2, 4):
            seq = _run(traffic, cores=cores, trace_sample=1.0)
            par = _run(traffic, cores=cores, parallel=True,
                       trace_sample=1.0)
            assert export.trace_lines(seq.stats) == \
                export.trace_lines(par.stats), \
                f"trace diverged at {cores} workers"

    def test_sampling_subsets_full_trace(self, traffic):
        full = _run(traffic, trace_sample=1.0)
        some = _run(traffic, trace_sample=0.25)
        full_lines = set(export.trace_lines(full.stats))
        some_lines = export.trace_lines(some.stats)
        assert set(some_lines) <= full_lines
        assert len(some_lines) < len(full_lines)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
class TestExport:
    def test_prometheus_identical_across_backends(self, traffic):
        for cores in (1, 2, 4):
            seq = _run(traffic, cores=cores, telemetry=True)
            par = _run(traffic, cores=cores, parallel=True,
                       telemetry=True)
            assert export.render_metrics(seq) == \
                export.render_metrics(par), \
                f"metrics diverged at {cores} workers"

    def test_funnel_metrics_match_stats(self, traffic):
        report = _run(traffic)
        reg = export.build_registry(report)
        samples = dict(reg.get("repro_funnel_packets_total").samples())
        for layer in build_funnel(report.stats):
            key = f'repro_funnel_packets_total{{layer="{layer.layer}"' \
                  f',edge="out"}}'
            assert samples[key] == layer.packets_out

    def test_stage_histograms_cover_invocations(self, traffic):
        """Histogram _count equals stage invocations — including the
        capture/packet-filter stages whose constant-cost observations
        the exporter synthesizes."""
        report = _run(traffic, telemetry=True)
        stats = report.stats
        assert stats.stage_cycle_hist is not None
        text = export.render_metrics(report)
        inv = {s.value: n for s, n in stats.stage_invocations.items()}
        for stage in ("capture", "packet_filter", "conn_track"):
            if not inv[stage]:
                continue
            needle = f'repro_stage_cost_cycles_count{{stage="{stage}"}} ' \
                     f'{inv[stage]}'
            assert needle in text, f"{stage}: missing {needle!r}"

    def test_disabled_telemetry_omits_histograms(self, traffic):
        report = _run(traffic)
        assert report.stats.stage_cycle_hist is None
        assert report.stats.reasm_hist is None
        assert "repro_stage_cost_cycles" not in \
            export.render_metrics(report)
        # The funnel itself is always on.
        assert "repro_funnel_packets_total" in \
            export.render_metrics(report)

    def test_backend_health_is_volatile(self, traffic, tmp_path):
        """Wall-clock and scheduling noise renders only on request: a
        bundle's metrics never have it, its manifest does."""
        from repro.telemetry.bundle import write_bundle
        report = _run(traffic, parallel=True, telemetry=True)
        assert report.backend_health is not None
        assert len(report.backend_health["workers"]) == 4
        default = export.render_metrics(report)
        assert "repro_worker" not in default
        assert "repro_feeder" not in default
        verbose = export.render_metrics(report, include_volatile=True)
        assert 'repro_worker_batch_occupancy_max{worker="3"}' in verbose
        assert "repro_worker_batches_total" in verbose
        assert "repro_feeder_block_seconds" in verbose
        assert "repro_ipc_bytes_per_packet" in verbose
        manifest = write_bundle(tmp_path, report)
        assert manifest["backend_health"] == report.backend_health
        assert (tmp_path / "metrics.prom").read_text() == default

    def test_write_trace_ndjson(self, traffic, tmp_path):
        from repro.telemetry.bundle import write_bundle
        report = _run(traffic, trace_sample=1.0)
        assert "trace.ndjson" in write_bundle(tmp_path, report)["files"]
        lines = (tmp_path / "trace.ndjson").read_text().splitlines()
        assert lines == export.trace_lines(report.stats) != []
        for line in lines:
            record = json.loads(line)
            assert {"ts", "conn", "i", "event"} <= set(record)


# ---------------------------------------------------------------------------
# monitor fixes
# ---------------------------------------------------------------------------
class TestMonitorFinalize:
    def test_short_run_still_sampled(self, traffic):
        """Regression: a run shorter than the monitor interval used to
        produce zero samples — the whole run fell in the dropped tail."""
        monitor = StatsMonitor(interval=10_000.0)
        _run(traffic, monitor=monitor)
        assert len(monitor.samples) == 1
        assert monitor.samples[-1].ingress_packets > 0

    def test_tail_interval_not_lost(self, traffic):
        monitor = StatsMonitor(interval=0.1)
        _run(traffic, monitor=monitor)
        total = sum(s.ingress_packets for s in monitor.samples)
        stats = _run(traffic).stats
        assert total == stats.ingress_packets

    def test_parallel_tail_matches_sequential(self, traffic):
        seq = StatsMonitor(interval=0.1)
        par = StatsMonitor(interval=0.1)
        _run(traffic, monitor=seq)
        _run(traffic, parallel=True, monitor=par)
        assert sum(s.ingress_packets for s in seq.samples) == \
            sum(s.ingress_packets for s in par.samples)

    def test_funnel_columns_in_samples(self, traffic):
        monitor = StatsMonitor(interval=0.1)
        _run(traffic, monitor=monitor)
        stats = _run(traffic).stats
        assert sum(s.pf_packets for s in monitor.samples) == \
            stats.pf_packets
        assert sum(s.sessf_packets for s in monitor.samples) == \
            stats.sessf_packets
        assert "funnel=" in monitor.samples[0].format()

    def test_finalize_idempotent(self, traffic):
        monitor = StatsMonitor(interval=0.1)
        report = _run(traffic, monitor=monitor)
        n = len(monitor.samples)
        monitor.finalize(report.stats.duration, None)  # same end time
        assert len(monitor.samples) == n


def _sample(**overrides):
    base = dict(timestamp=1.0, interval=1.0, ingress_packets=100,
                ingress_bytes=150_000, interval_gbps=0.0012,
                callbacks=3, live_connections=7, memory_bytes=4096,
                busy_fraction=0.5)
    base.update(overrides)
    return MonitorSample(**base)


class TestMonitorSampleEdges:
    def test_no_loss_under_capacity(self):
        assert _sample(busy_fraction=0.99).loss_fraction == 0.0
        assert _sample(busy_fraction=1.0).loss_fraction == 0.0

    def test_loss_over_capacity(self):
        assert _sample(busy_fraction=2.0).loss_fraction == \
            pytest.approx(0.5)
        assert _sample(busy_fraction=4.0).loss_fraction == \
            pytest.approx(0.75)

    def test_format_over_100_percent_busy(self):
        line = _sample(busy_fraction=2.5).format()
        assert "busy=250.0%" in line
        assert "loss=60.00%" in line
        assert "conns=7" in line

    def test_format_zero_packets(self):
        line = _sample(ingress_packets=0, ingress_bytes=0,
                       interval_gbps=0.0, busy_fraction=0.0).format()
        assert "pkts=0" in line and "loss=0" in line

    def test_zero_interval_sample_formats(self):
        # Degenerate but must not divide by zero in rendering paths.
        line = _sample(interval=0.0).format()
        assert "conns=" in line


class TestSustainedLoss:
    def _monitor_with(self, busy_fractions):
        monitor = StatsMonitor(interval=1.0)
        for i, busy in enumerate(busy_fractions):
            monitor.samples.append(
                _sample(timestamp=float(i), busy_fraction=busy))
        return monitor

    def test_single_lossy_sample_is_not_sustained(self):
        """Regression: one lossy interval used to trip the signal."""
        assert not self._monitor_with([5.0]).sustained_loss
        assert not self._monitor_with([5.0, 5.0]).sustained_loss

    def test_three_lossy_samples_sustained(self):
        assert self._monitor_with([1.5, 1.5, 1.5]).sustained_loss
        assert self._monitor_with([0.1, 1.5, 1.5, 1.5]).sustained_loss

    def test_recovery_clears_signal(self):
        assert not self._monitor_with([1.5, 1.5, 0.5]).sustained_loss
        assert not self._monitor_with([]).sustained_loss


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
class TestCliTelemetry:
    def test_metrics_and_trace_flags(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["--filter", "tcp", "--datatype", "connection",
                   "--synthetic", "campus", "--duration", "0.2",
                   "--gbps", "0.05", "--print-limit", "0",
                   "--report-dir", str(tmp_path),
                   "--trace-sample", "1.0"])
        assert rc == 0
        text = (tmp_path / "metrics.prom").read_text()
        assert "repro_funnel_packets_total" in text
        assert "repro_stage_cost_cycles_bucket" in text
        assert (tmp_path / "trace.ndjson").read_text().count("\n") > 0
        out = capsys.readouterr().out
        assert "run bundle written" in out
        assert "metrics.prom" in out and "trace.ndjson" in out

    def test_invalid_trace_sample_rejected(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["--synthetic", "campus", "--duration", "0.1",
                   "--print-limit", "0",
                   "--report-dir", str(tmp_path / "t"),
                   "--trace-sample", "1.5"])
        assert rc == 2
        assert "trace_sample" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# multi-tenant export
# ---------------------------------------------------------------------------
class TestTenantExport:
    def _tenant_run(self, traffic, specs, **config_kwargs):
        from repro.tenancy import TenantRuntime
        config = RuntimeConfig(cores=2, **config_kwargs)
        runtime = TenantRuntime(config, specs)
        report = runtime.run(iter(traffic))
        return runtime, report

    def test_single_tenant_metrics_byte_identical(self, traffic,
                                                  tmp_path):
        """A one-tenant TenantRuntime's run bundle, with its tenant
        artifacts set aside, is the plain Runtime's byte for byte on
        the sequential backend and on two workers: the multiplexer must
        not perturb any file."""
        from repro.telemetry.bundle import write_bundle
        from repro.tenancy import TenantSpec
        recorders = dict(telemetry=True, trace_sample=0.2, span_sample=1,
                         flight_recorder_depth=4)
        for parallel in (False, True):
            plain = _run(traffic, filter_str="tcp.dst_port = 443",
                         cores=2, parallel=parallel, **recorders)
            _, solo = self._tenant_run(
                traffic,
                [TenantSpec("solo", "tcp.dst_port = 443", "connection")],
                parallel=parallel, **recorders)
            bundles = []
            for name, report in (("plain", plain),
                                 ("solo", replace(solo, tenancy=None))):
                directory = tmp_path / f"{name}-{parallel}"
                write_bundle(directory, report)
                bundles.append({
                    path.name: path.read_bytes()
                    for path in directory.iterdir()
                    if path.name != "manifest.json"})
            assert {"stats.json", "fates.json", "metrics.prom",
                    "trace.ndjson", "spans.ndjson"} <= set(bundles[0])
            assert bundles[1] == bundles[0]

    def test_tenant_families_gated_on_payload(self, traffic):
        """repro_tenant_* families appear only with the breakdown a
        ``TenantRuntime`` puts on the report; the merged families stay
        byte-identical around it."""
        from repro.tenancy import TenantSpec
        specs = [TenantSpec("web", "tcp.dst_port = 443", "connection"),
                 TenantSpec("hog", "", "packet", quota_mbps=0.05)]
        runtime, report = self._tenant_run(traffic, specs)
        base = export.render_metrics(replace(report, tenancy=None))
        assert "repro_tenant" not in base
        assert set(report.tenancy["tenants"]) == {"web", "hog"}
        assert report.tenancy["shed"].keys() == \
            runtime.tenant_ledgers(report).keys() == {"hog"}
        text = export.render_metrics(report)
        assert 'repro_tenant_callbacks_total{tenant="web"}' in text
        assert 'repro_tenant_funnel_packets_total{tenant="hog"' in text
        assert 'repro_tenant_shed_packets_total{tenant="hog"' \
               ',layer="tenant_quota"}' in text
        assert "repro_tenancy_epoch 0" in text
        stripped = "\n".join(
            line for line in text.splitlines()
            if "repro_tenant" not in line and "repro_tenancy" not in line)
        assert stripped == base.rstrip("\n") or stripped + "\n" == base

    def test_tenant_export_identical_across_backends(self, traffic):
        from repro.tenancy import TenantSpec
        specs = [TenantSpec("web", "tcp.dst_port = 443", "connection"),
                 TenantSpec("dns", "udp", "packet")]
        texts = []
        for parallel in (False, True):
            _, report = self._tenant_run(traffic, specs,
                                         parallel=parallel)
            texts.append(export.render_metrics(report))
        assert texts[0] == texts[1]
