"""Multi-tenant runtime determinism and tenant fault isolation.

Pins the robustness contract of :mod:`repro.tenancy`:

- **Live-reconfiguration determinism**: a run with mid-stream
  subscribe/unsubscribe events produces byte-identical per-tenant
  :class:`AggregateStats` on the sequential and parallel backends at
  1/2/4 workers, in both filter modes, and an always-present tenant's
  stats are byte-identical to a static (no-events) run.
- **Swap-window crash survival**: a supervised worker crash planned at
  an epoch bump's own batch sequence replays the bump to the restarted
  worker and leaves every tenant's stats byte-identical.
- **Tenant fault isolation**: a quarantined-callback tenant and a
  quota-shed tenant each leave their co-tenants byte-identical to runs
  without the misbehaving tenant's faults, with every suppressed
  delivery / shed packet attributed in the tenant's own loss ledger.
"""

import pytest

from repro import Runtime, RuntimeConfig
from repro.errors import TenancyError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.telemetry import check
from repro.tenancy import ReconfigureEvent, TenantRuntime, TenantSpec
from repro.traffic import CampusTrafficGenerator


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
