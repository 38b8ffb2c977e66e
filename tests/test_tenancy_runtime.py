"""Multi-tenant runtime determinism and tenant fault isolation.

Pins the robustness contract of :mod:`repro.tenancy`:

- **Live-reconfiguration determinism**: a run with mid-stream
  subscribe/unsubscribe events produces byte-identical per-tenant
  :class:`AggregateStats` on the sequential and parallel backends at
  1/2/4 workers, in both filter modes, and an always-present tenant's
  stats are byte-identical to a static (no-events) run.
- **Swap-window crash survival**: a supervised worker crash planned at
  an epoch bump's own batch sequence replays the bump to the restarted
  worker and leaves every tenant's stats byte-identical; a worker
  restarted before its first ack starts from the table the pool was
  built over, not from epoch 0.
- **Bumps carry names only**: a late joiner whose callback cannot
  pickle (a lambda) joins a parallel run mid-stream.
- **Shared stages priced once**: the run's face charges capture and the
  packet filter once per packet the cores were handed, while every
  tenant's own stats are its solo run's.
- **The face's memory series, per sample point**: a core idle across
  sample points records each point once, as the sum of its lanes.
- **Tenant fault isolation**: a quarantined-callback tenant and a
  quota-shed tenant each leave their co-tenants byte-identical to runs
  without the misbehaving tenant's faults, with every suppressed
  delivery / shed packet attributed in the tenant's own loss ledger.
"""

import signal

import pytest

from repro import Runtime, RuntimeConfig
from repro.core.cycles import Stage
from repro.errors import TenancyError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.telemetry import check
from repro.tenancy import ReconfigureEvent, TenantRuntime, TenantSpec
from repro.traffic import CampusTrafficGenerator, FlowSpec, \
    single_syn


@pytest.fixture(scope="module")
def traffic():
    return list(CampusTrafficGenerator(seed=21).packets(
        duration=0.3, gbps=0.1))


def _specs():
    return [
        TenantSpec("web", "tcp.dst_port = 443", "connection"),
        TenantSpec("dns", "udp", "packet"),
        TenantSpec("late", "tcp", "connection", start=False),
    ]


def _mid_events(traffic):
    mid = traffic[len(traffic) // 2].timestamp
    return [ReconfigureEvent(mid, "drop", "dns"),
            ReconfigureEvent(mid, "add", "late")]


def _run(traffic, specs, events=(), parallel=False, cores=2,
         **config_kwargs):
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           **config_kwargs)
    runtime = TenantRuntime(config, specs, events=list(events))
    report = runtime.run(iter(traffic))
    tenants = {name: stats.to_dict()
               for name, stats in runtime.aggregate_tenants(report).items()}
    return tenants, runtime, report


class TestLiveReconfigDeterminism:
    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_backends_identical_under_midrun_swap(self, traffic, cores,
                                                  mode):
        events = _mid_events(traffic)
        seq, _, _ = _run(traffic, _specs(), events, parallel=False,
                         cores=cores, filter_mode=mode)
        par, _, _ = _run(traffic, _specs(), events, parallel=True,
                         cores=cores, filter_mode=mode)
        assert sorted(seq) == ["dns", "late", "web"]
        assert seq == par

    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    def test_always_present_tenant_matches_static_run(self, traffic,
                                                      mode):
        """The tenant untouched by the swap gets byte-identical stats
        with or without the other tenants' reconfiguration."""
        static, _, _ = _run(traffic, _specs(), (), filter_mode=mode)
        live, _, _ = _run(traffic, _specs(), _mid_events(traffic),
                          filter_mode=mode)
        assert live["web"] == static["web"]
        assert "late" not in static and "late" in live

    def test_swap_lands_on_event_boundary(self, traffic):
        """The dropped tenant stops at the event and the added tenant
        starts there: their per-tenant packet counts partition the
        stream at the swap point."""
        events = _mid_events(traffic)
        tenants, runtime, report = _run(traffic, _specs(), events)
        assert runtime.table.epoch == 2
        assert runtime.table.active == ["web", "late"]
        total = tenants["web"]["processed_packets"]
        assert tenants["dns"]["processed_packets"] \
            + tenants["late"]["processed_packets"] == total
        # Every core adopted the final epoch.
        for bundle in report.core_stats.values():
            assert bundle.epoch == 2

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_event_strictly_inside_an_ingress_chunk(self, traffic, cores):
        """The ingress decodes 256-frame chunks; a swap due in the
        middle of one must still land between two packets. The rows
        before it classify under the old table, the rows after under
        the new one — the multiplexer classifies when a burst runs,
        not when its chunk was decoded."""
        k = 3 * 256 + 100
        before, after = traffic[k - 1].timestamp, traffic[k].timestamp
        assert before < after
        at = (before + after) / 2
        events = [ReconfigureEvent(at, "drop", "dns"),
                  ReconfigureEvent(at, "add", "late")]
        seq, _, _ = _run(traffic, _specs(), events, cores=cores)
        scalar, _, _ = _run(traffic, _specs(), events, cores=cores,
                            columnar=False)
        par, _, _ = _run(traffic, _specs(), events, cores=cores,
                         parallel=True)
        assert seq == scalar == par
        # The chunk's packets partition at the event, not at its edges.
        assert seq["dns"]["processed_packets"] + \
            seq["late"]["processed_packets"] == \
            seq["web"]["processed_packets"]

    def test_drop_then_readd_same_tenant(self, traffic):
        """A tenant can leave and rejoin; the rejoin starts a fresh
        pipeline while the dropped incarnation drains frozen."""
        third = traffic[len(traffic) // 3].timestamp
        two_thirds = traffic[2 * len(traffic) // 3].timestamp
        events = [ReconfigureEvent(third, "drop", "dns"),
                  ReconfigureEvent(two_thirds, "add", "dns")]
        seq, runtime, _ = _run(traffic, _specs(), events)
        par, _, _ = _run(traffic, _specs(), events, parallel=True)
        assert seq == par
        assert runtime.table.active == ["web", "dns"]
        # The rejoined tenant saw the first and last thirds only.
        assert 0 < seq["dns"]["processed_packets"] \
            < seq["web"]["processed_packets"]

    def test_live_subscribe_api_prerun(self, traffic):
        """subscribe()/unsubscribe() on the runtime object publish new
        epochs equivalent to declaring the same set statically."""
        specs = _specs()
        runtime = TenantRuntime(RuntimeConfig(cores=2), specs[:2])
        assert runtime.subscribe(specs[2].with_(start=True)) == 1
        assert runtime.unsubscribe("dns") == 2
        report = runtime.run(iter(traffic))
        got = {n: s.to_dict()
               for n, s in runtime.aggregate_tenants(report).items()}
        # Same tenant *universe* (dns stays known-but-dormant): the
        # union hardware plane is part of what makes runs comparable.
        config = RuntimeConfig(cores=2)
        static = TenantRuntime(config, [
            TenantSpec("web", "tcp.dst_port = 443", "connection"),
            TenantSpec("late", "tcp", "connection"),
            TenantSpec("dns", "udp", "packet", start=False),
        ])
        want = {n: s.to_dict() for n, s in static.aggregate_tenants(
            static.run(iter(traffic))).items()}
        assert got["web"] == want["web"]
        assert got["late"] == want["late"]

    def test_double_subscribe_rejected(self):
        runtime = TenantRuntime(RuntimeConfig(cores=1), _specs()[:1])
        with pytest.raises(TenancyError):
            runtime.subscribe(TenantSpec("web", "tcp"))

    def test_crash_during_swap_window(self, traffic):
        """A worker crash planned at the epoch bump's own sequence
        number: the supervisor replays the bump to the fresh worker and
        every tenant's stats stay byte-identical."""
        # Events at t=0 fire before any packet, so the two bump batches
        # are seqs 0 and 1 on every core; crashing core 1 at seq 1 puts
        # the failure inside the swap window with nothing acked yet.
        events = [ReconfigureEvent(0.0, "drop", "dns"),
                  ReconfigureEvent(0.0, "add", "late")]
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(kind="worker_crash", core=1, at_batch=1),))
        base, _, _ = _run(traffic, _specs(), events, parallel=True)
        crashed, _, report = _run(traffic, _specs(), events,
                                  parallel=True, fault_plan=plan,
                                  supervise=True)
        assert report.faults.worker_restarts == 1
        assert base == crashed

    def test_restart_seeds_from_the_pool_table(self, traffic):
        """A tenant subscribed before a supervised run is in the table
        at epoch 1; a worker that crashes before acknowledging anything
        restarts from that table, so the tenant's packets stay
        accounted for on every core."""
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(kind="worker_crash", core=1, at_batch=0),))
        runtime = TenantRuntime(RuntimeConfig(
            cores=2, parallel=True, supervise=True, fault_plan=plan),
            _specs())
        runtime.subscribe(runtime.table.by_name["late"])  # start=False
        report = runtime.run(iter(traffic))
        assert report.faults.worker_restarts == 1
        assert "late" in report.core_stats[1].per_tenant
        check(report)

    def test_late_joiner_with_a_lambda_callback(self, traffic):
        """An ``add`` bump names the tenant and never pickles its spec:
        fork-started workers inherit the lambda, and the run finishes
        with the sequential backend's stats instead of leaving a worker
        waiting for a bump that failed to pickle."""
        specs = [TenantSpec("web", "tcp.dst_port = 443", "connection"),
                 TenantSpec("late", "tcp", "connection", start=False,
                            callback=lambda obj: None)]
        events = [ReconfigureEvent(traffic[len(traffic) // 2].timestamp,
                                   "add", "late")]

        def deadline(signum, frame):
            raise TimeoutError("the parallel run did not finish in 30 s")

        previous = signal.signal(signal.SIGALRM, deadline)
        signal.alarm(30)
        try:
            par, _, _ = _run(traffic, specs, events, parallel=True)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seq, _, _ = _run(traffic, specs, events)
        assert sorted(seq) == ["late", "web"]
        assert par == seq


class TestTenantFaultIsolation:
    def test_quarantined_tenant_leaves_others_identical(self, traffic):
        """A tenant whose callback errors on every delivery quarantines
        after its budget — in its own pipelines only. Co-tenants are
        byte-identical to a run where that tenant is healthy."""
        budget = 2
        noisy_plan = FaultPlan(seed=3, faults=(
            FaultSpec(kind="callback_error", at_ordinal=0, every=1),))
        healthy = [
            TenantSpec("web", "tcp.dst_port = 443", "connection"),
            TenantSpec("noisy", "tcp", "connection"),
        ]
        faulty = [
            healthy[0],
            healthy[1].with_(fault_plan=noisy_plan,
                             callback_error_policy="isolate",
                             callback_error_budget=budget),
        ]
        base, _, _ = _run(traffic, healthy, cores=2)
        got, _, report = _run(traffic, faulty, cores=2)
        assert got["web"] == base["web"]
        assert got["noisy"]["callback_errors"] == 2 * budget  # per core
        assert got["noisy"]["quarantined_cores"] == 2
        assert base["noisy"]["callback_errors"] == 0
        # Deliveries are still counted for the quarantined tenant.
        assert got["noisy"]["callbacks"] == base["noisy"]["callbacks"]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_quota_shed_tenant_isolated(self, traffic, parallel):
        """A tiny ingress quota sheds the tenant's own rows (attributed
        to the tenant_quota funnel layer) and leaves the co-tenant
        byte-identical to the unmetered run."""
        unmetered = [
            TenantSpec("web", "tcp.dst_port = 443", "connection"),
            TenantSpec("hog", "", "packet"),
        ]
        metered = [unmetered[0], unmetered[1].with_(quota_mbps=0.05)]
        base, _, _ = _run(traffic, unmetered, parallel=parallel)
        got, runtime, report = _run(traffic, metered, parallel=parallel)
        assert got["web"] == base["web"]
        ledgers = runtime.tenant_ledgers(report)
        hog = ledgers["hog"]
        assert hog.layer_packets.get("tenant_quota", 0) > 0
        # The ledger counts everything the tenant was offered, so what
        # it calls analyzed is what the tenant's pipelines processed.
        check(report)
        assert hog.packets_analyzed == got["hog"]["processed_packets"]
        # Shed rows never reached the tenant pipeline.
        assert got["hog"]["processed_packets"] \
            + hog.layer_packets["tenant_quota"] \
            == base["hog"]["processed_packets"]
        assert "web" not in ledgers or \
            ledgers["web"].packets_shed == 0

    def test_pressure_downgrades_heaviest_tenant_first(self, traffic):
        """Under an aggregate pressure budget the multiplexer sheds the
        heaviest tenant's rows (rung 3, tenant_pressure layer) and the
        lighter tenant keeps its full feed."""
        specs = [
            TenantSpec("light", "tcp.dst_port = 443", "connection"),
            TenantSpec("heavy", "", "packet"),
        ]
        base, _, _ = _run(traffic, specs)
        got, runtime, report = _run(traffic, specs,
                                    tenancy_pressure_mbps=0.1)
        ledgers = runtime.tenant_ledgers(report)
        heavy = ledgers["heavy"]
        assert heavy.layer_packets.get("tenant_pressure", 0) > 0
        assert heavy.shed_packets[3] \
            == heavy.layer_packets["tenant_pressure"]
        assert got["light"] == base["light"]
        assert "light" not in ledgers or \
            ledgers["light"].packets_shed == 0

    @pytest.mark.parametrize("parallel", [False, True])
    def test_pressure_leaves_a_plain_runtime_alone(self, traffic,
                                                   parallel):
        """A runtime built from one subscription is a one-entry table
        too, but pressure ranks named tenants against each other: the
        budget that sheds the heavy tenant above sheds nothing here."""
        def plain(**pressure):
            config = RuntimeConfig(cores=2, parallel=parallel, **pressure)
            report = Runtime(config, filter_str="", datatype="packet").run(
                iter(traffic))
            assert report.tenancy is None
            return report.stats.to_dict()
        assert plain(tenancy_pressure_mbps=0.1) == plain()

    def test_shed_accounting_identical_across_backends(self, traffic):
        """Quota and pressure ledgers are part of the determinism
        contract too: byte-identical between backends at a fixed
        ``config.cores`` (the quota share is per core)."""
        specs = [
            TenantSpec("web", "tcp.dst_port = 443", "connection"),
            TenantSpec("hog", "", "packet", quota_mbps=0.05),
        ]
        _, rt_seq, rep_seq = _run(traffic, specs, parallel=False,
                                  cores=4)
        _, rt_par, rep_par = _run(traffic, specs, parallel=True,
                                  cores=4)
        seq = {n: led.to_dict()
               for n, led in rt_seq.tenant_ledgers(rep_seq).items()}
        par = {n: led.to_dict()
               for n, led in rt_par.tenant_ledgers(rep_par).items()}
        assert seq == par


#: Three tenants that split the campus trace unevenly: two stateful,
#: one on the fast path.
_PRICED = (("web", "tcp.dst_port = 443", "connection"),
           ("dns", "udp", "packet"),
           ("all", "tcp", "connection"))


class TestSharedStagesPricedOnce:
    @pytest.mark.parametrize("cores,parallel", [(1, False), (4, False),
                                                (2, True)],
                             ids=["cores1", "cores4", "par2"])
    def test_capture_priced_once_and_tenants_see_their_solo_run(
            self, traffic, cores, parallel):
        """One pipeline per core captures and software-filters each
        packet once, however many tenants it fans out to: the run's
        face prices CAPTURE and PACKET_FILTER once per packet the cores
        were handed. Every tenant's own stats still charge them as its
        solo run would — with the hardware plane off a solo run sees
        the shared link's exact ingress, so they are that run's bytes."""
        specs = [TenantSpec(*spec) for spec in _PRICED]
        for hardware_filter in (True, False):
            config = RuntimeConfig(cores=cores, parallel=parallel,
                                   hardware_filter=hardware_filter)
            runtime = TenantRuntime(config, specs)
            report = runtime.run(iter(traffic))
            check(report)
            stats = report.stats
            reached = stats.ingress_packets - stats.hw_dropped_packets \
                - stats.sink_dropped_packets
            assert stats.stage_invocations[Stage.CAPTURE] \
                == stats.stage_invocations[Stage.PACKET_FILTER] \
                == stats.processed_packets == reached
        assert stats.hw_dropped_packets == 0
        tenants = runtime.aggregate_tenants(report)
        assert sorted(tenants) == sorted(name for name, *_ in _PRICED)
        for name, filter_str, datatype in _PRICED:
            solo = Runtime(config, filter_str=filter_str,
                           datatype=datatype).run(iter(traffic))
            assert tenants[name].to_dict() == solo.stats.to_dict(), name


def _syns_on(queue, count, dport, start_ts, step):
    """``count`` lone SYNs to port ``dport``, one every ``step`` virtual
    seconds from ``start_ts``, that RSS sends to ``queue`` of 2."""
    nic = Runtime(RuntimeConfig(cores=2), "tcp", "connection").nic
    out = []
    for sport in range(20000, 30000):
        (syn,) = single_syn(FlowSpec("10.0.0.1", "171.64.0.1", sport, dport),
                            start_ts + step * len(out))
        if nic.receive(syn) == queue:
            out.append(syn)
            if len(out) == count:
                return out
    raise AssertionError("no such flows")


class TestFacePerSamplePoint:
    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["seq", "par2"])
    def test_idle_core_records_each_sample_point_once(self, parallel):
        """Core 0 gets one SYN at t=0, and core 1 gets one every 0.1 s
        after it: core 0 then samples at one virtual ``now`` at every
        sample point. Its face records each point once, as the sum of
        what its two lanes hold there (one connection each) — not one
        sample that adds up the points — so the run's peak is core 1's
        five connections."""
        specs = [TenantSpec("all", "tcp", "connection"),
                 TenantSpec("web", "tcp.dst_port = 443", "connection")]
        mbufs = _syns_on(0, 1, 443, 0.0, 0.0) + \
            _syns_on(1, 5, 80, 0.1, 0.1)
        runtime = TenantRuntime(RuntimeConfig(cores=2, parallel=parallel),
                                specs)
        report = runtime.run(iter(mbufs), memory_sample_interval=0.05)
        check(report)
        idle = report.core_stats[0]
        # Five sample points in the trace, one more at its end (after
        # the cores advance to the last timestamp).
        assert list(idle.memory_samples) == \
            [(0.0, 2, 1024)] * 5 + [(0.5, 2, 1024)]
        for name in ("all", "web"):
            assert list(idle.per_tenant[name].memory_samples) == \
                [(0.0, 1, 512)] * 5 + [(0.5, 1, 512)]
        assert [conns for _ts, conns, _mem
                in report.core_stats[1].memory_samples] == [1, 2, 3, 4, 5, 5]
        assert report.stats.peak_live_connections == 5
        assert report.stats.peak_memory_bytes == 5 * 512


class TestTenantRuntimeValidation:
    def test_queued_callbacks_rejected(self):
        config = RuntimeConfig(cores=1, callback_execution="queued")
        with pytest.raises(TenancyError):
            TenantRuntime(config, _specs()[:1])

    def test_unknown_event_tenant_rejected(self):
        with pytest.raises(TenancyError):
            TenantRuntime(RuntimeConfig(cores=1), _specs()[:1],
                          events=[ReconfigureEvent(1.0, "drop", "nope")])

    def test_redundant_add_rejected(self):
        with pytest.raises(TenancyError):
            TenantRuntime(RuntimeConfig(cores=1), _specs(),
                          events=[ReconfigureEvent(1.0, "add", "web")])
