"""Burst span tracing, flight recorder, and hot-path profiler.

The contracts under test (ISSUE 7):

- span trees record exact per-burst stage deltas via ledger/funnel
  snapshots at burst boundaries;
- the trace stream, profiler, and flight dumps are **deterministic**:
  identical sequential-vs-parallel at 1/2/4 workers, because both
  backends flush per-queue pending lists at the same boundaries and
  sampling is by per-core burst ordinal;
- span recording never perturbs the report: ``AggregateStats`` is
  byte-identical with spans on and off (span data rides
  ``RuntimeReport.spans``, never the stats);
- the flight recorder dumps its ring with the triggering event on
  overload rung escalation, callback quarantine, and worker
  crash/restart;
- cycle-histogram totals equal ledger invocation counts on the scalar
  and columnar paths (fixed-cost stages get their one bucket from the
  counts, in ``Runtime.aggregate``).
"""

import json

import pytest

from repro import Runtime, RuntimeConfig
from repro.core.cycles import CostModel, Stage, hist_index, to_centi
from repro.core.stats import CoreStats
from repro.errors import ConfigError
from repro.telemetry.spans import (
    SpanRecorder,
    SpanReport,
    build_span_report,
    chrome_trace_events,
    tree_public,
)
from repro.traffic import CampusTrafficGenerator


def _campus(seed=21, duration=0.4, gbps=0.1):
    return list(CampusTrafficGenerator(seed=seed).packets(
        duration=duration, gbps=gbps))


def _run(traffic, parallel, cores=4, span_sample=1, flight_depth=4,
         filter_str="tcp", datatype="connection", **config_kwargs):
    config = RuntimeConfig(
        cores=cores, parallel=parallel, span_sample=span_sample,
        flight_recorder_depth=flight_depth, **config_kwargs)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=None)
    return runtime.run(iter(traffic))


# ---------------------------------------------------------------------------
# recorder unit behavior
# ---------------------------------------------------------------------------
class TestSpanRecorder:
    def _stats(self):
        return CoreStats(CostModel())

    def test_burst_tree_records_stage_deltas(self):
        stats = self._stats()
        rec = SpanRecorder(0, sample_every=1, flight_depth=4)
        token = rec.start(stats)
        stats.packets += 10
        stats.pf_packets += 7
        stats.callbacks += 2
        stats.ledger.counts[Stage.PARSING] += 3
        rec.finish(stats, 1.5, token)
        assert rec.bursts == 1 and rec.bursts_sampled == 1
        (tree,) = rec.trees
        assert tree["packets_in"] == 10
        assert tree["out"]["packet_filter"] == 7
        assert tree["out"]["callback"] == 2
        assert tree["ts"] == 1.5
        parsing = [row for row in tree["stages"]
                   if row[0] == Stage.PARSING.value]
        assert parsing == [[Stage.PARSING.value, 3, 3 * 212_290 / 100]]

    def test_sampling_cadence_is_by_burst_ordinal(self):
        stats = self._stats()
        rec = SpanRecorder(0, sample_every=3, flight_depth=0)
        for _ in range(9):
            rec.finish(stats, 0.0, rec.start(stats))
        assert rec.bursts == 9
        assert rec.bursts_sampled == 3  # bursts 0, 3, 6

    def test_trigger_dumps_ring(self):
        stats = self._stats()
        rec = SpanRecorder(2, sample_every=0, flight_depth=2)
        for _ in range(5):
            rec.finish(stats, 0.0, rec.start(stats))
        rec.trigger("overload_rung", "rung 0->1", 4.0)
        assert len(rec.dumps) == 1
        dump = rec.dumps[0]
        assert dump["trigger"]["event"] == "overload_rung"
        assert dump["trigger"]["core"] == 2
        # Ring depth 2: only the last two bursts survive.
        assert [t["seq"] for t in dump["bursts"]] == [3, 4]

    def test_tree_public_strips_volatile_fields(self):
        stats = self._stats()
        rec = SpanRecorder(0, sample_every=1, flight_depth=0)
        rec.ctx = (0, 7)
        rec.finish(stats, 0.0, rec.start(stats))
        tree = rec.trees[0]
        assert "wall_ns" in tree and tree["ctx"] == [0, 7]
        public = tree_public(tree)
        assert "wall_ns" not in public and "ctx" not in public

    def test_snapshot_is_json_roundtrippable(self):
        stats = self._stats()
        rec = SpanRecorder(0, sample_every=1, flight_depth=2)
        rec.finish(stats, 0.0, rec.start(stats))
        rec.trigger("parser_error", "probe", 0.1)
        snap = rec.snapshot()
        assert json.loads(json.dumps(snap)) == snap


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
class TestSpanConfig:
    def test_negative_span_sample_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(span_sample=-1)

    def test_negative_flight_depth_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(flight_recorder_depth=-1)


# ---------------------------------------------------------------------------
# determinism: sequential vs parallel, 1/2/4 workers
# ---------------------------------------------------------------------------
class TestSpanDeterminism:
    @pytest.fixture(scope="class")
    def traffic(self):
        return _campus()

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_ndjson_identical_across_backends(self, traffic, cores):
        seq = _run(traffic, parallel=False, cores=cores).spans
        par = _run(traffic, parallel=True, cores=cores).spans
        assert list(seq.ndjson_lines()) == list(par.ndjson_lines())

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_flight_dump_identical_across_backends(self, traffic, cores):
        seq = _run(traffic, parallel=False, cores=cores).spans
        par = _run(traffic, parallel=True, cores=cores).spans
        assert json.dumps(seq.flight_dump(), sort_keys=True) == \
            json.dumps(par.flight_dump(), sort_keys=True)

    def test_tree_packet_counts_match_funnel(self, traffic):
        report = _run(traffic, parallel=False, cores=2)
        trees = report.spans.trees()
        assert trees
        assert sum(t["packets_in"] for t in trees) == \
            report.stats.processed_packets
        # End-of-run drain delivers expirations outside any burst, so
        # burst-attributed callbacks are a lower bound.
        in_bursts = sum(t["out"]["callback"] for t in trees)
        assert 0 < in_bursts <= report.stats.callbacks

    def test_stats_byte_identical_spans_on_vs_off(self, traffic):
        on = _run(traffic, parallel=False).stats
        config = RuntimeConfig(cores=4, parallel=False)
        off = Runtime(config, filter_str="tcp", datatype="connection",
                      callback=None).run(iter(traffic)).stats
        assert json.dumps(on.to_dict(), sort_keys=True) == \
            json.dumps(off.to_dict(), sort_keys=True)

    def test_spans_none_when_disabled(self, traffic):
        config = RuntimeConfig(cores=2, parallel=False)
        report = Runtime(config, filter_str="tcp", datatype="connection",
                         callback=None).run(iter(traffic))
        assert report.spans is None

    def test_ipc_ctx_stitches_worker_bursts(self, traffic):
        """Parallel burst trees carry the feeder's (queue, seq) span
        context; sequential ones carry None — and the context is
        excluded from deterministic views (tree_public)."""
        par = _run(traffic, parallel=True, cores=2).spans
        ctxs = [t["ctx"] for snap in par.cores for t in snap["trees"]]
        assert any(c is not None for c in ctxs)
        for snap in par.cores:
            for tree in snap["trees"]:
                if tree["ctx"] is not None:
                    assert tree["ctx"][0] == snap["core"]


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------
class TestProfiler:
    @pytest.fixture(scope="class")
    def report(self):
        return _run(_campus(), parallel=False, cores=2)

    def test_profile_totals_match_ledger(self, report):
        prof = report.spans.profile()
        # span_sample=1: every burst sampled, so profiled invocations
        # equal the run's stage invocations for per-packet stages.
        assert prof["invocations"][Stage.PARSING.value] == \
            report.stats.stage_invocations[Stage.PARSING]
        assert prof["cycles"][Stage.PARSING.value] == \
            pytest.approx(report.stats.stage_cycles[Stage.PARSING])

    def test_hist_counts_bursts(self, report):
        prof = report.spans.profile()
        sampled = sum(s["bursts_sampled"] for s in report.spans.cores)
        for name, counts in prof["hist"].items():
            assert 0 <= sum(counts) <= sampled

    def test_hottest_attribution_table(self, report):
        hottest = report.spans.hottest()
        assert hottest
        top = hottest[0]
        assert set(top) == {"stage", "node", "packets", "cycles"}
        cycles = [row["cycles"] for row in hottest]
        assert cycles == sorted(cycles, reverse=True)

    def test_to_dict_is_json_roundtrippable(self, report):
        d = report.spans.to_dict()
        assert json.loads(json.dumps(d)) == d


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
class TestChromeTrace:
    def test_trace_has_all_workers_under_one_pid(self):
        report = _run(_campus(), parallel=True, cores=4)
        trace = report.spans.chrome_trace()
        events = trace["traceEvents"]
        assert {e["pid"] for e in events} == {0}
        thread_names = {e["tid"]: e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(thread_names) == {0, 1, 2, 3}
        burst_tids = {e["tid"] for e in events
                      if e["ph"] == "X" and e["name"] == "burst"}
        assert burst_tids == {0, 1, 2, 3}

    def test_stage_spans_nest_inside_burst(self):
        report = _run(_campus(duration=0.2), parallel=False, cores=1)
        events = chrome_trace_events(report.spans)
        bursts = [e for e in events
                  if e["ph"] == "X" and e["name"] == "burst"]
        stages = [e for e in events if e.get("cat") == "stage"]
        assert bursts and stages
        for burst in bursts:
            inside = [s for s in stages
                      if burst["ts"] - 1e-6 <= s["ts"]
                      and s["ts"] + s["dur"]
                      <= burst["ts"] + burst["dur"] + 1e-6]
            assert inside, "burst with no nested stage spans"

    def test_trace_is_valid_json(self, tmp_path):
        report = _run(_campus(duration=0.2), parallel=False, cores=2)
        from repro.telemetry.bundle import write_bundle
        write_bundle(tmp_path, report)
        loaded = json.loads((tmp_path / "spans.json").read_text())
        assert loaded == report.spans.chrome_trace()
        assert loaded["traceEvents"]


# ---------------------------------------------------------------------------
# flight recorder triggers (the ISSUE acceptance scenario)
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_worker_crash_produces_flight_dump(self):
        """Supervised run with an injected worker crash: the dump must
        contain the triggering event and at least one complete burst
        span tree per surviving core."""
        from repro.resilience import FaultPlan
        traffic = _campus(seed=7, duration=0.3)
        plan = FaultPlan.from_json(json.dumps({
            "seed": 1,
            "faults": [{"kind": "worker_crash", "core": 1,
                        "at_batch": 1}],
        }))
        config = RuntimeConfig(
            cores=2, parallel=True, supervise=True, fault_plan=plan,
            parallel_batch_size=16, span_sample=1,
            flight_recorder_depth=8)
        report = Runtime(config, filter_str="tcp", datatype="connection",
                         callback=None).run(iter(traffic))
        assert report.faults.worker_restarts == 1
        flight = report.spans.flight_dump()
        events = [e["event"] for e in flight["events"]]
        assert "worker_restart" in events
        restart_dumps = [d for d in flight["dumps"]
                         if d["trigger"]["event"] == "worker_restart"]
        assert restart_dumps and restart_dumps[0]["bursts"]
        for core in ("0", "1"):
            assert flight["rings"][core], f"core {core} has no bursts"
        for tree in restart_dumps[0]["bursts"]:
            assert tree["stages"], "incomplete burst tree in dump"

    def test_overload_escalation_triggers_dump(self):
        """A rung escalation on the overload ladder dumps the ring."""
        from repro.traffic import BurstTrafficGenerator
        traffic = list(BurstTrafficGenerator(seed=1).packets(
            duration=1.0, gbps=0.05))
        config = RuntimeConfig(
            cores=2, overload_policy="ladder",
            overload_target_lag=0.02,
            # ~10ms of virtual work per stateful packet: the burst
            # window overloads a core (same recipe as test_overload).
            cost_model=CostModel(conn_track=3e7), span_sample=1,
            flight_recorder_depth=4)
        report = Runtime(config, filter_str="tcp", datatype="connection",
                         callback=None).run(iter(traffic))
        assert report.overload is not None
        assert report.overload.max_rung_seen > 0
        flight = report.spans.flight_dump()
        rung_events = [e for e in flight["events"]
                       if e["event"] == "overload_rung"]
        assert rung_events
        assert any(d["trigger"]["event"] == "overload_rung"
                   for d in flight["dumps"])

    def test_callback_quarantine_triggers_event(self):
        def bad_callback(conn):
            raise RuntimeError("boom")

        config = RuntimeConfig(
            cores=1, callback_error_policy="isolate",
            callback_error_budget=2, span_sample=1,
            flight_recorder_depth=4)
        report = Runtime(config, filter_str="tcp", datatype="connection",
                         callback=bad_callback).run(
            iter(_campus(duration=0.3)))
        assert report.stats.quarantined_cores >= 1
        events = [e["event"] for e in report.spans.flight_dump()["events"]]
        assert "callback_quarantine" in events

    def test_flight_dump_carries_nic_context(self):
        report = _run(_campus(duration=0.2), parallel=False, cores=2)
        flight = report.spans.flight_dump()
        assert flight["nic"]
        assert "received_packets" in flight["nic"][0]


class TestPackedBatchCtx:
    def test_trace_ctx_survives_pickle(self):
        """A burst's span context rides its slot image header, so it
        survives the pickled control-queue crossing of an oversize
        burst."""
        import pickle

        from repro.packet.batch import slot_image, slot_read
        from repro.packet.mbuf import Mbuf
        image = slot_image([Mbuf(b"\x00" * 60, 0.5, 0)], 1,
                           trace_ctx=(1, 42))
        out, seq, ctx = slot_read(pickle.loads(pickle.dumps(bytes(image))),
                                  0)
        assert ctx == (1, 42) and seq == -1
        assert out[0].queue == 1 and len(out) == 1


# ---------------------------------------------------------------------------
# cycle-histogram / ledger parity (satellite: both hot paths)
# ---------------------------------------------------------------------------
class TestCycleHistParity:
    @pytest.mark.parametrize("columnar", [True, False])
    def test_parity_holds_on_both_paths(self, columnar):
        from repro.telemetry import check
        config = RuntimeConfig(cores=2, telemetry=True,
                               columnar=columnar)
        runtime = Runtime(config, filter_str="tcp",
                          datatype="connection", callback=None)
        report = runtime.run(iter(_campus(duration=0.3)))
        check(report)  # histogram totals == invocations, per stage
        assert report.stats.stage_cycle_hist is not None
        assert report.stats.processed_packets > 0

    def test_aggregate_fills_fixed_cost_buckets_from_counts(self):
        runtime = Runtime(RuntimeConfig(cores=2, telemetry=True),
                          filter_str="tcp", datatype="connection",
                          callback=None)
        stats = runtime.run(iter(_campus(duration=0.3))).stats
        for pipeline in runtime.pipelines:  # nothing bucketed per charge
            assert not any(pipeline.solo.stats.ledger.hist[Stage.CAPTURE])
        for stage in (Stage.CAPTURE, Stage.HARDWARE_FILTER,
                      Stage.CONN_TRACK):
            buckets = stats.stage_cycle_hist[stage]
            bucket = hist_index(to_centi(CostModel().cost_of(stage)))
            assert buckets[bucket] == sum(buckets) == \
                stats.stage_invocations[stage] > 0

    def test_parity_assertion_fires_on_mismatch(self):
        from repro.telemetry import check
        runtime = Runtime(RuntimeConfig(cores=1, telemetry=True),
                          filter_str="tcp", datatype="connection",
                          callback=None)
        report = runtime.run(iter(_campus(duration=0.1)))
        report.stats.stage_invocations[Stage.PARSING] += 5  # unobserved
        with pytest.raises(AssertionError,
                           match=r"cycle histogram \(parsing\)"):
            check(report)


# ---------------------------------------------------------------------------
# merged report assembly
# ---------------------------------------------------------------------------
class TestBuildSpanReport:
    def test_returns_none_without_snapshots(self):
        assert build_span_report([CoreStats(CostModel())],
                                 None, 3.0e9) is None

    def test_parent_events_synthesize_dumps(self):
        stats = CoreStats(CostModel())
        rec = SpanRecorder(0, sample_every=1, flight_depth=2)
        rec.finish(stats, 0.0, rec.start(stats))
        stats.spans = rec.snapshot()
        parent = [{"event": "worker_restart", "core": 0,
                   "detail": "restart 1, replaying 2 batches",
                   "ts": -1.0}]
        report = build_span_report([stats], parent, 3.0e9)
        assert [e["event"] for e in report.events] == ["worker_restart"]
        dump = report.flight_dump()["dumps"][0]
        assert dump["trigger"]["event"] == "worker_restart"
        assert len(dump["bursts"]) == 1
