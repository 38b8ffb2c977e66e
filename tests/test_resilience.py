"""Resilience subsystem: deterministic fault injection and graceful
degradation (repro.resilience), and how a dead worker ends a run.

The acceptance contract under test:

- **Determinism** — the same ``(seed, FaultPlan)`` produces
  byte-identical ``RuntimeReport.faults`` and aggregate stats across
  repeated runs and across backends (where the plan's coordinates
  permit the comparison; see faults.py's coordinate notes).
- **A dead worker is a diagnosis, never a hang** — a worker that dies
  with its ring full, or without reporting its stats, fails the run
  with a :class:`ParallelExecutionError` naming its core, and leaves no
  worker process behind.
- **Callback isolation** — under ``callback_error_policy="isolate"``
  the run completes, non-faulty counters match the baseline, and the
  quarantine fires exactly when the error budget is spent.
- **Zero overhead when disabled** — a plain run reports no faults
  section at all.
"""

import json
import multiprocessing as mp
import os
import signal
from contextlib import contextmanager

import pytest

from repro import FaultPlan, FaultSpec, Runtime, RuntimeConfig
from repro.core.parallel import ParallelExecutionError
from repro.errors import (
    CallbackError,
    FaultInjectionError,
    ResourceExhaustedError,
)
from repro.traffic import CampusProfile, CampusTrafficGenerator


@pytest.fixture(scope="module")
def traffic():
    return list(CampusTrafficGenerator(seed=21).packets(
        duration=0.4, gbps=0.1))


@pytest.fixture(scope="module")
def long_traffic():
    """Slower, longer trace: crosses several memory-sample points."""
    return list(CampusTrafficGenerator(seed=21).packets(
        duration=3.0, gbps=0.05))


def _run(traffic, plan=None, parallel=False, cores=4, filter_str="tcp",
         datatype="connection", **config_kwargs):
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           fault_plan=plan, **config_kwargs)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=None)
    return runtime.run(iter(traffic))


# ---------------------------------------------------------------------------
# plan model
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trip(self):
        plan = FaultPlan.from_dict({
            "seed": 9,
            "faults": [
                {"kind": "corrupt_packet", "at_packet": 5, "count": 2},
                {"kind": "callback_error", "at_ordinal": 3, "core": 1},
                {"kind": "parser_error", "at_ordinal": 2, "every": 4},
                {"kind": "memory_spike", "at_time": 1.5, "bytes": 4096,
                 "duration": 0.5},
            ],
        })
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    @pytest.mark.parametrize("kind", ["set_on_fire", "worker_crash",
                                      "worker_hang"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"faults": [{"kind": kind, "at_batch": 0}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault field"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "corrupt_packet", "at_packet": 0,
                             "at_pakcet": 1}]})

    def test_missing_coordinate_rejected(self):
        with pytest.raises(FaultInjectionError, match="at_packet"):
            FaultPlan(faults=(FaultSpec(kind="corrupt_packet"),))
        with pytest.raises(FaultInjectionError, match="bytes"):
            FaultPlan(faults=(FaultSpec(kind="memory_spike", at_time=1.0),))

    def test_bad_json_rejected(self):
        with pytest.raises(FaultInjectionError, match="not valid JSON"):
            FaultPlan.from_json("{nope")


# ---------------------------------------------------------------------------
# packet faults: parent-side, pre-RSS
# ---------------------------------------------------------------------------
class TestPacketFaults:
    PLAN = {"seed": 7, "faults": [
        {"kind": "corrupt_packet", "at_packet": 10, "count": 4},
        {"kind": "truncate_packet", "at_packet": 100, "keep_bytes": 20},
        {"kind": "truncate_packet", "at_packet": 101},
    ]}

    def test_injection_counts(self, traffic):
        report = _run(traffic, FaultPlan.from_dict(self.PLAN))
        assert report.faults.injected == {"corrupt_packet": 4,
                                          "truncate_packet": 2}

    def test_two_runs_byte_identical(self, traffic):
        plan = FaultPlan.from_dict(self.PLAN)
        one = _run(traffic, plan)
        two = _run(traffic, plan)
        assert one.faults.to_dict() == two.faults.to_dict()
        assert one.stats.to_dict() == two.stats.to_dict()

    def test_backends_byte_identical(self, traffic):
        plan = FaultPlan.from_dict(self.PLAN)
        for cores in (1, 2, 4):
            seq = _run(traffic, plan, cores=cores)
            par = _run(traffic, plan, parallel=True, cores=cores)
            assert seq.stats.to_dict() == par.stats.to_dict(), \
                f"backends diverged at {cores} cores"
            assert seq.faults.to_dict() == par.faults.to_dict()

    def test_seed_changes_corruption(self, traffic):
        """Different seeds corrupt differently — the seed is live."""
        base = dict(self.PLAN)
        one = _run(traffic, FaultPlan.from_dict({**base, "seed": 1}))
        two = _run(traffic, FaultPlan.from_dict({**base, "seed": 2}))
        # Same number of injections either way...
        assert one.faults.injected == two.faults.injected
        # ...but not necessarily the same downstream effect. (Equality
        # here would be astronomically unlikely to matter; we only
        # assert the runs completed with the same packet totals.)
        assert one.stats.ingress_packets == two.stats.ingress_packets


# ---------------------------------------------------------------------------
# callback faults + isolation policy
# ---------------------------------------------------------------------------
class TestCallbackIsolation:
    def test_raise_policy_propagates_callback_error(self, traffic):
        plan = FaultPlan(faults=(
            FaultSpec(kind="callback_error", at_ordinal=0),))
        with pytest.raises(CallbackError):
            _run(traffic, plan)

    def test_isolate_completes_and_counts(self, traffic):
        plan = FaultPlan(faults=(
            FaultSpec(kind="callback_error", at_ordinal=0, core=0),))
        report = _run(traffic, plan, callback_error_policy="isolate")
        assert report.faults.callback_errors == 1
        assert report.faults.quarantined_cores == []
        assert report.faults.injected.get("callback_error") == 1

    def test_quarantine_fires_exactly_at_budget(self, traffic):
        """Errors on every delivery: the quarantine engages after
        exactly ``budget`` errors and suppresses the rest — while every
        non-faulty counter stays equal to the fault-free baseline."""
        budget = 3
        plan = FaultPlan(faults=(
            FaultSpec(kind="callback_error", at_ordinal=0, every=1,
                      core=0),))
        base = _run(traffic, None)
        report = _run(traffic, plan, callback_error_policy="isolate",
                      callback_error_budget=budget)
        faults = report.faults
        assert faults.callback_errors == budget
        assert faults.quarantined_cores == [0]
        assert faults.callbacks_suppressed > 0
        # Delivery accounting is baseline-equal: the quarantine only
        # withholds the user function.
        basedict = base.stats.to_dict()
        gotdict = report.stats.to_dict()
        for key in ("ingress_packets", "processed_packets", "callbacks",
                    "conns_created", "conns_delivered", "sessions_parsed",
                    "stage_cycles", "peak_memory_bytes"):
            assert gotdict[key] == basedict[key], key
        assert report.stats.memory_samples == base.stats.memory_samples

    def test_isolation_identical_across_backends(self, traffic):
        plan = FaultPlan(faults=(
            FaultSpec(kind="callback_error", at_ordinal=2, core=1,
                      every=5),))
        seq = _run(traffic, plan, callback_error_policy="isolate",
                   callback_error_budget=2)
        par = _run(traffic, plan, parallel=True,
                   callback_error_policy="isolate",
                   callback_error_budget=2)
        assert seq.stats.to_dict() == par.stats.to_dict()
        assert seq.faults.to_dict() == par.faults.to_dict()

    def test_user_callback_exception_isolated_too(self, traffic):
        """The policy isolates *real* callback bugs, not only injected
        ones."""
        calls = []

        def flaky(obj):
            calls.append(obj)
            if len(calls) <= 2:
                raise ValueError("user bug")

        config = RuntimeConfig(cores=2, callback_error_policy="isolate")
        runtime = Runtime(config, filter_str="tcp", datatype="connection",
                          callback=flaky)
        report = runtime.run(iter(traffic))
        assert report.faults.callback_errors == 2
        assert calls  # the callback did run


# ---------------------------------------------------------------------------
# parser faults
# ---------------------------------------------------------------------------
class TestParserFaults:
    def test_parser_fault_absorbed(self, traffic):
        plan = FaultPlan(faults=(
            FaultSpec(kind="parser_error", at_ordinal=0, core=0),))
        base = _run(traffic, None, filter_str="tls",
                    datatype="tls_handshake")
        report = _run(traffic, plan, filter_str="tls",
                      datatype="tls_handshake")
        assert base.stats.sessions_parsed > 0  # comparison not vacuous
        assert report.faults.parser_exceptions == 1
        assert report.faults.injected.get("parser_error") == 1

    def test_parser_faults_identical_across_backends(self, traffic):
        plan = FaultPlan(faults=(
            FaultSpec(kind="parser_error", at_ordinal=1, every=10),))
        seq = _run(traffic, plan, filter_str="tls",
                   datatype="tls_handshake")
        par = _run(traffic, plan, parallel=True, filter_str="tls",
                   datatype="tls_handshake")
        assert seq.faults.parser_exceptions > 1
        assert seq.stats.to_dict() == par.stats.to_dict()
        assert seq.faults.to_dict() == par.faults.to_dict()


# ---------------------------------------------------------------------------
# memory pressure: record / evict / shed
# ---------------------------------------------------------------------------
class TestMemoryPolicies:
    def test_spike_triggers_oom_under_record(self, long_traffic):
        plan = FaultPlan(faults=(
            FaultSpec(kind="memory_spike", at_time=1.0,
                      bytes=10_000_000),))
        report = _run(long_traffic, plan, cores=2,
                      memory_limit_bytes=200_000)
        assert report.out_of_memory
        assert report.oom_at >= 1.0
        assert report.faults.injected.get("memory_spike") == 1

    def test_evict_keeps_run_alive(self, long_traffic):
        report = _run(long_traffic, cores=2, memory_policy="evict",
                      memory_limit_bytes=20_000)
        assert not report.out_of_memory
        assert report.faults.conns_evicted > 0
        assert report.faults.conns_shed == 0
        # The policy actually enforces the per-core share at sample
        # cadence.
        share = 20_000 // 2
        for _, _, memory in report.stats.memory_samples:
            assert memory <= 2 * share

    def test_shed_refuses_new_connections(self, long_traffic):
        report = _run(long_traffic, cores=2, memory_policy="shed",
                      memory_limit_bytes=20_000)
        assert not report.out_of_memory
        assert report.faults.conns_shed > 0
        assert report.faults.conns_evicted == 0

    def test_policies_identical_across_backends(self, long_traffic):
        for policy in ("evict", "shed"):
            seq = _run(long_traffic, cores=2, memory_policy=policy,
                       memory_limit_bytes=20_000)
            par = _run(long_traffic, cores=2, parallel=True,
                       memory_policy=policy, memory_limit_bytes=20_000)
            assert seq.stats.to_dict() == par.stats.to_dict(), policy
            assert seq.faults.to_dict() == par.faults.to_dict(), policy

    def test_evict_idle_unreachable_target_raises(self):
        from repro.conntrack.table import ConnTable
        table = ConnTable()
        with pytest.raises(ResourceExhaustedError):
            table.evict_idle(-1)
        # Non-destructive: a reachable target still works afterwards.
        assert table.evict_idle(0) == []


# ---------------------------------------------------------------------------
# pool lifecycle: a failed worker fails the run, and leaks no process
# ---------------------------------------------------------------------------
def _leaked_workers():
    return [p.name for p in mp.active_children()
            if p.name.startswith("repro-core-")]


@contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: a dead worker must end the run in a
    diagnosis well within ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"the parallel run did not end in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _die(obj):
    """A callback that kills its worker without a word to the parent."""
    os._exit(3)


@pytest.fixture(scope="module")
def lone_syns():
    """Lone SYNs only: ``tcp -> connection`` delivers every record at
    the end-of-run drain, after the last burst."""
    return list(CampusTrafficGenerator(
        seed=21, profile=CampusProfile(tcp_fraction=1.0,
                                       single_syn_fraction=1.0)).packets(
        duration=0.2, gbps=0.05))


class TestPoolLifecycle:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_dead_with_its_ring_full_is_named(self, traffic,
                                                      workers):
        """The first delivery kills its worker mid-trace; the feeder
        finds that core's ring full and names it."""
        runtime = Runtime(RuntimeConfig(cores=workers, parallel=True),
                          filter_str="", datatype="packet", callback=_die)
        with _deadline(30), pytest.raises(ParallelExecutionError) as excinfo:
            runtime.run(iter(traffic))
        core = excinfo.value.core_id
        assert core in range(workers)
        assert f"worker {core} died with its ring full" in \
            str(excinfo.value)
        assert _leaked_workers() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_dead_before_its_stats_is_named(self, lone_syns,
                                                    workers):
        """The drain's first delivery kills its worker after every
        burst went through: the gather at the end of the run notices
        the silent, dead worker and names it."""
        runtime = Runtime(RuntimeConfig(cores=workers, parallel=True),
                          filter_str="tcp", datatype="connection",
                          callback=_die)
        with _deadline(30), pytest.raises(ParallelExecutionError) as excinfo:
            runtime.run(iter(lone_syns))
        core = excinfo.value.core_id
        assert core in range(workers)
        assert f"worker(s) [{core}" in str(excinfo.value)
        assert "exited without reporting stats" in str(excinfo.value)
        assert _leaked_workers() == []

    def test_error_terminates_pool_and_keeps_partial_stats(self, traffic):
        def exploding(obj):
            raise RuntimeError("callback boom")

        config = RuntimeConfig(cores=2, parallel=True)
        runtime = Runtime(config, filter_str="", datatype="packet",
                          callback=exploding)
        with pytest.raises(ParallelExecutionError) as excinfo:
            runtime.run(iter(traffic))
        assert excinfo.value.core_id is not None
        # The pool was torn down before the exception propagated: no
        # repro worker processes survive.
        assert _leaked_workers() == []


# ---------------------------------------------------------------------------
# zero overhead when disabled
# ---------------------------------------------------------------------------
class TestDisabled:
    def test_plain_run_has_no_faults_section(self, traffic):
        report = _run(traffic, None)
        assert report.faults is None
        d = report.stats.to_dict()
        assert d["callback_errors"] == 0
        assert d["parser_exceptions"] == 0
        assert d["fault_counters"] == {}

    def test_report_json_round_trips(self, traffic):
        report = _run(traffic, FaultPlan.from_dict(TestPacketFaults.PLAN))
        payload = report.faults.to_dict()
        assert json.loads(json.dumps(payload)) == payload
