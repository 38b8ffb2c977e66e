"""The run bundle and the packet-fate table.

One run leaves one directory (``--report-dir``), and every packet the
run was offered has exactly one counted fate in it. Under test:

* the four CI scenarios, each through the CLI on the sequential backend
  and on two worker processes: the bundle re-checks, the manifest lists
  exactly the files present, every other file is byte-identical between
  the backends, and each subsystem's artifact says what its retired
  per-flag test and CI heredoc used to ask of it;
* an artifact the run did not produce is absent and the manifest says
  why;
* per-tenant conservation across a same-timestamp drop+add swap, and
  shed packets (overload rungs, ``memory_policy="shed"``) as fates of
  their own rather than connection-filter drops;
* the fate check names the leaking edge when any one counter it reads
  is off by one.
"""

import copy
import filecmp
import functools
import json
import re
from pathlib import Path

import pytest

from repro import Runtime, RuntimeConfig
from repro.cli import main
from repro.core.cycles import CostModel
from repro.netem import ImpairmentConfig
from repro.telemetry import check
from repro.telemetry.funnel import RUN, check_fates, fate_counters, \
    fate_table
from repro.telemetry.bundle import check_bundle, write_bundle
from repro.tenancy import TenantRuntime, parse_reconfigure, \
    parse_subscriptions
from repro.traffic import BurstTrafficGenerator, CampusTrafficGenerator

#: CI's tenancy scenario: three tenants (one quota-capped), then a
#: drop and an add of a dormant one at the same virtual timestamp.
SUBSCRIPTIONS = [
    {"name": "web", "filter": "tcp.dst_port = 443",
     "datatype": "connection", "callback": "count"},
    {"name": "dns", "filter": "udp.dst_port = 53", "datatype": "packet"},
    {"name": "hog", "filter": "udp", "datatype": "packet",
     "quota_mbps": 0.05},
    {"name": "late", "filter": "tcp.dst_port = 80", "datatype": "packet",
     "start": False},
]
SWAP = ["--reconfigure-at", "0.2:drop:dns", "--reconfigure-at",
        "0.2:add:late"]
#: The same with ``dns`` capped too: two tenants shedding under one
#: meter layer name (``tenant_quota``).
TWO_QUOTAS = [dict(spec, quota_mbps=0.001) if spec["name"] == "dns"
              else spec for spec in SUBSCRIPTIONS]
CONN = ["--filter", "tcp", "--datatype", "connection"]

#: name -> CLI arguments.
SCENARIOS = {
    "plain": CONN + ["--synthetic", "campus", "--duration", "0.2",
                     "--gbps", "0.05", "--trace-sample", "1.0"],
    "burst_ladder": CONN[2:] + ["--synthetic", "burst", "--duration",
                                "0.3", "--gbps", "0.02", "--seed", "3",
                                "--overload-policy", "ladder"],
    "degraded_link": CONN + [
        "--synthetic", "campus", "--duration", "0.15", "--gbps", "0.05",
        "--seed", "3", "--impair-burst", "0.02,0.3",
        "--impair-corrupt", "0.05", "--impair-quarantine",
        "--impair-disable-threshold", "3",
        "--impair-disable-window", "64", "--impair-repair-time", "0.02",
        "--impair-adaptive-reassembly"],
    "tenants_swap": ["--synthetic", "campus", "--duration", "0.4",
                     "--gbps", "0.1", "--seed", "5"] + SWAP,
}


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def subscriptions(tmp_path_factory):
    path = tmp_path_factory.mktemp("subs") / "subs.json"
    path.write_text(json.dumps(SUBSCRIPTIONS))
    return str(path)


@pytest.fixture
def bundles(request, tmp_path, subscriptions, capsys):
    """The scenario's bundle directory per backend, and what the CLI
    printed on the last of them."""
    args = SCENARIOS[request.param]
    if request.param == "tenants_swap":
        args = args + ["--subscriptions", subscriptions]
    out = {}
    for backend in ("seq", "par"):
        out[backend] = tmp_path / backend
        code = main(args + ["--print-limit", "0", "--report-dir",
                            str(out[backend])]
                    + (["--parallel", "2"] if backend == "par"
                       else ["--cores", "2"]))
        assert code == 0
    return request.param, out, capsys.readouterr().out


# -- what each scenario's artifacts must say -------------------------------
def _plain(path, stdout):
    text = (path / "metrics.prom").read_text()
    pattern = r'repro_funnel_packets_total\{layer="%s",edge="out"\} (\d+)'
    outs = [int(re.search(pattern % layer, text).group(1))
            for layer in ("nic_hardware", "packet_filter",
                          "connection_filter", "session_filter")]
    assert outs[0] > 0, "no packet survived the NIC"
    assert outs == sorted(outs, reverse=True), outs
    for record in _load(path / "trace.ndjson"):
        assert {"ts", "conn", "i", "event"} <= set(record)
    stats = _load(path / "stats.json")
    assert stats["ingress_packets"] > 0
    assert "max_zero_loss_gbps" in stats
    assert set(stats["stage_invocations"]) >= {"capture", "packet_filter"}
    assert "repro_overload" not in text and "repro_impair" not in text
    assert "overload:" not in stdout and "impairment:" not in stdout


def _burst_ladder(path, stdout):
    assert "overload:" in stdout
    records = _load(path / "overload.ndjson")
    summary = records[-1]
    assert summary["event"] == "summary"
    assert summary["packets_analyzed"] + summary["packets_shed"] \
        == summary["packets_seen"] \
        == _load(path / "stats.json")["processed_packets"]
    assert "repro_overload_failfast 0" in \
        (path / "metrics.prom").read_text()


def _degraded_link(path, stdout):
    assert "impairment:" in stdout
    records = _load(path / "impairment.ndjson")
    assert records[0]["event"] == "totals"
    assert records[-1]["event"] == "summary"
    assert records[-1]["balanced"] is True
    drops = {r["cause"]: r["packets"] for r in records
             if r["event"] == "drop"}
    assert drops.get("loss", 0) > 0, drops
    fates = _load(path / "fates.json")["fates"][RUN]
    assert fates["offered"] == records[0]["offered"] \
        + records[0]["duplicated"]
    assert fates["fates"]["link_loss"] == drops["loss"]
    text = (path / "metrics.prom").read_text()
    assert "repro_impair_offered_packets_total" in text
    assert "repro_impair_goodput_fraction" in text


def _tenants_swap(path, stdout):
    assert "tenants: 4 seen, epoch 2" in stdout
    payload = _load(path / "tenants.json")
    assert payload["epoch"] == 2  # one per event, one burst boundary
    assert payload["active"] == ["web", "hog", "late"]
    tenants = payload["tenants"]
    assert set(tenants) == {"web", "dns", "hog", "late"}
    hog = tenants["hog"]["shed"]
    assert hog["packets_shed"] > 0
    assert hog["shed_by_layer"] == {"tenant_quota": hog["packets_shed"]}
    assert tenants["late"]["stats"]["processed_packets"] > 0, \
        "the late joiner saw no traffic after the swap"
    assert tenants["web"]["stats"]["callbacks"] > 0
    assert tenants["dns"]["shed"] is None
    text = (path / "metrics.prom").read_text()
    assert "repro_tenancy_epoch 2" in text
    assert 'repro_tenant_active{tenant="late"} 1' in text
    assert 'repro_tenant_shed_packets_total{tenant="hog",' \
        'layer="tenant_quota"}' in text
    fates = _load(path / "fates.json")["fates"]
    assert fates["hog"]["fates"]["tenant_quota"] == hog["packets_shed"]
    assert fates["dns"]["fates"]["not_subscribed"] > 0
    assert fates["late"]["fates"]["not_subscribed"] > 0


class TestBundle:
    @pytest.mark.parametrize("bundles", list(SCENARIOS), indirect=True)
    def test_scenario(self, bundles):
        name, dirs, stdout = bundles
        for path in dirs.values():
            assert check_bundle(path)  # manifest + fate check; the table
            manifest = _load(path / "manifest.json")
            present = {p.name for p in path.iterdir()}
            assert present == set(manifest["files"]) | {"manifest.json"}
            assert not set(manifest["files"]) & set(manifest["absent"])
            assert all(manifest["absent"].values())
            globals()["_" + name](path, stdout)
        seq, par = dirs["seq"], dirs["par"]
        names = sorted(p.name for p in seq.iterdir()
                       if p.name != "manifest.json")
        same, differ, errors = filecmp.cmpfiles(seq, par, names,
                                                shallow=False)
        assert (differ, errors) == ([], []), f"{name}: backends disagree"
        assert _load(seq / "manifest.json")["backend_health"] is None


class TestAbsentArtifacts:
    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("plain")
        assert main(SCENARIOS["plain"] + ["--print-limit", "0",
                                          "--report-dir", str(path)]) == 0
        return path

    @pytest.mark.parametrize("name, why", [
        ("overload.ndjson", "overload policy off"),
        ("impairment.ndjson", "clean link"),
        ("faults.json", "no faults"),
        ("tenants.json", "single subscription"),
        # The span files are there; nothing tripped the flight recorder.
        ("flight.json", "no flight-recorder trigger fired"),
    ], ids=["overload", "impairment", "faults", "tenants", "flight"])
    def test_absent_artifact_is_stated(self, plain, name, why):
        manifest = _load(plain / "manifest.json")
        assert not (plain / name).exists()
        assert name not in manifest["files"]
        assert why in manifest["absent"][name]
        assert {"spans.json", "spans.ndjson"} <= set(manifest["files"])

    def test_recorders_off_is_stated_too(self, tmp_path):
        """``write_bundle`` on a run with no recorder on (the library
        default) names each recorder's files as absent."""
        runtime = Runtime(RuntimeConfig(cores=1), filter_str="tcp",
                          datatype="connection", callback=None)
        report = runtime.run(iter(CampusTrafficGenerator(seed=1).packets(
            duration=0.1, gbps=0.05)))
        manifest = write_bundle(tmp_path, report, config=runtime.config)
        assert manifest["files"] == ["stats.json", "fates.json",
                                     "metrics.prom"]
        assert manifest["absent"]["spans.json"] == "span recorder off"
        assert manifest["config"]["span_sample"] == 0
        check_bundle(tmp_path)

    def test_report_dir_that_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--report-dir", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--report-dir" in err and "not a directory" in err
        assert "name a new path" in err  # the remedy

    def test_unwritable_bundle_is_an_error_not_a_traceback(
            self, tmp_path, capsys, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("repro.telemetry.bundle.write_bundle",
                            full_disk)
        code = main(["--synthetic", "campus", "--duration", "0.1",
                     "--print-limit", "0", "--report-dir", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "ingress" in out  # the run's summary was still printed
        assert err.startswith("error: --report-dir")
        assert "No space left" in err and "Traceback" not in err

    def test_tampered_bundle_fails_the_check(self, plain, tmp_path):
        for victim in ("fates.json", "stats.json"):
            copy_dir = tmp_path / victim
            copy_dir.mkdir()
            for path in plain.iterdir():
                (copy_dir / path.name).write_text(path.read_text())
            text = (copy_dir / victim).read_text()
            bumped = re.sub(r'"hw_dropped_packets": (\d+)',
                            lambda m: '"hw_dropped_packets": %d'
                            % (int(m.group(1)) + 1), text, count=1)
            assert bumped != text
            (copy_dir / victim).write_text(bumped)
            with pytest.raises(AssertionError):
                check_bundle(copy_dir)
        (plain / "stray.txt").write_text("")
        with pytest.raises(AssertionError, match="stray.txt"):
            check_bundle(plain)
        (plain / "stray.txt").unlink()


# -- the fate table ---------------------------------------------------------
def _tenant_runtime(specs=SUBSCRIPTIONS, **config):
    return TenantRuntime(
        RuntimeConfig(**config),
        parse_subscriptions(json.dumps(specs)),
        events=[parse_reconfigure(text) for text in SWAP[1::2]])


def _tenant_run(**config):
    return _tenant_runtime(**config).run(iter(CampusTrafficGenerator(
        seed=5).packets(duration=0.4, gbps=0.1)))


#: ~10 ms of virtual work per stateful packet: the burst overloads.
HEAVY = CostModel(conn_track=3e7)


def _burst(seed=1):
    return iter(BurstTrafficGenerator(seed=seed).packets(duration=1.0,
                                                         gbps=0.05))


class TestFates:
    def test_every_tenant_accounts_for_the_whole_link(self):
        """Across the same-timestamp drop+add swap each tenant's fates
        sum to the shared link's ingress: the packets that came while
        it was out of the table are counted, not missing."""
        report = _tenant_run(cores=4)
        check(report)
        table = fate_table(fate_counters(report))
        link = report.stats.ingress_packets
        assert link == 3150
        for name, block in table.items():
            assert sum(block["fates"].values()) == block["offered"] == link
        assert table["dns"]["fates"]["not_subscribed"] == 1428
        assert table["late"]["fates"]["not_subscribed"] == 227
        assert table["web"]["fates"]["not_subscribed"] == 0
        assert table["hog"]["fates"]["tenant_quota"] == 859
        assert table[RUN]["fates"]["multiplexed"] == 1655
        # The ledger counts what the tenant was offered, not only what
        # it shed (its invariant held trivially before).
        hog = report.tenancy["shed"]["hog"]
        assert hog.packets_seen == 1655
        assert hog.packets_analyzed == \
            report.tenancy["tenants"]["hog"].processed_packets

    def test_tenant_fates_identical_on_two_workers(self):
        seq = _tenant_run(cores=2)
        par = _tenant_run(cores=2, parallel=True)
        check(par)
        assert fate_counters(seq) == fate_counters(par)
        table = fate_table(fate_counters(par))
        assert table["dns"]["fates"]["not_subscribed"] == 1428
        assert table["late"]["fates"]["not_subscribed"] == 227

    def test_two_metered_tenants_under_the_ladder(self, tmp_path):
        """The run's ladder is every tenant's less what each tenant's
        meter shed — under one layer name for all of them."""
        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps(TWO_QUOTAS))
        for backend in (["--cores", "2"], ["--parallel", "2"]):
            assert main(["--subscriptions", str(subs), "--synthetic",
                         "campus", "--duration", "0.4", "--gbps", "0.1",
                         "--seed", "5", "--overload-policy", "ladder",
                         "--report-dir", str(tmp_path / "run")]
                        + backend) == 0
            check_bundle(tmp_path / "run")
            fates = _load(tmp_path / "run" / "fates.json")["fates"]
            for name in ("dns", "hog"):
                block = fates[name]
                assert block["fates"]["tenant_quota"] > 0
                assert sum(block["fates"].values()) == block["offered"]

    def test_overload_shed_is_not_a_filter_verdict(self, tmp_path):
        runtime = Runtime(
            RuntimeConfig(cores=2, overload_policy="ladder",
                          overload_target_lag=0.02, cost_model=HEAVY),
            filter_str="", datatype="connection", callback=None)
        report = runtime.run(_burst())
        check(report)
        ledger, stats = report.overload, report.stats
        assert ledger.packets_shed > 0
        fates = fate_table(fate_counters(report))[RUN]["fates"]
        shed = {state: n for state, n in fates.items()
                if state.startswith("shed_")}
        from repro.overload import RUNG_NAMES
        assert shed == {"shed_" + RUNG_NAMES[rung]: n for rung, n
                        in enumerate(ledger.shed_packets) if n}
        assert "memory_shed" not in fates
        assert fates["connection_filter"] == stats.pf_packets \
            - stats.connf_packets - ledger.packets_shed
        assert sum(fates.values()) == stats.ingress_packets
        write_bundle(tmp_path, report)
        assert "shed_shed_new_conns" in check_bundle(tmp_path)

    def test_memory_policy_shed_is_a_fate_of_its_own(self):
        runtime = Runtime(
            RuntimeConfig(cores=2, memory_policy="shed",
                          memory_limit_bytes=20_000),
            filter_str="tcp", datatype="connection", callback=None)
        # Long enough to cross several memory-sample points.
        report = runtime.run(iter(CampusTrafficGenerator(seed=21).packets(
            duration=3.0, gbps=0.05)))
        check(report)
        stats = report.stats
        assert report.overload is None and stats.conns_shed > 0
        fates = fate_table(fate_counters(report))[RUN]["fates"]
        assert fates["memory_shed"] == stats.conns_shed
        assert fates["connection_filter"] == stats.pf_packets \
            - stats.connf_packets - stats.conns_shed

    def test_degraded_link_and_ladder_chain(self):
        runtime = Runtime(
            RuntimeConfig(cores=2, overload_policy="ladder",
                          overload_target_lag=0.02, cost_model=HEAVY,
                          impairment=ImpairmentConfig(
                              seed=3, loss_rate=0.05, duplicate_rate=0.02,
                              corrupt_rate=0.05, quarantine=True)),
            filter_str="", datatype="connection", callback=None)
        report = runtime.run(_burst())
        check(report)
        block = fate_table(fate_counters(report))[RUN]
        link = report.impairment
        assert block["offered"] == link.offered + link.duplicated
        assert sum(block["fates"].values()) == block["offered"]
        assert block["fates"]["link_loss"] == link.dropped["loss"] > 0
        assert block["fates"]["link_quarantine"] > 0


@functools.lru_cache(maxsize=None)
def _rich_counters():
    """The counters of one run that exercises every part of the table:
    impaired link, ladder, four tenants — two of them quota-capped —
    and a swap. (Read only: every test perturbs a deep copy.)"""
    return fate_counters(_tenant_runtime(
        TWO_QUOTAS, cores=2, overload_policy="ladder", overload_target_lag=0.02,
        cost_model=HEAVY, impairment=ImpairmentConfig(
            seed=3, loss_rate=0.05, duplicate_rate=0.02,
            corrupt_rate=0.05, quarantine=True)).run(_burst(seed=2)))


def _leaves(node, path=()):
    """Paths to every integer the fate check reads (byte counts are
    only ordered)."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "bytes":
                yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


class TestFateCheckNamesTheEdge:
    def test_clean_counters_pass(self):
        counters = _rich_counters()
        check_fates(counters)
        for name in ("dns", "hog"):
            assert counters["tenants"][name]["metered"]["tenant_quota"] > 0
        assert any(sum(view["ladder"]["rungs"])
                   for view in counters["tenants"].values())

    @pytest.mark.parametrize(
        "path", list(_leaves(_rich_counters())),
        ids=lambda path: ".".join(map(str, path)))
    def test_one_counter_off_by_one(self, path):
        counters = copy.deepcopy(_rich_counters())
        node = counters
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1
        with pytest.raises(AssertionError, match=r"^[\w .:>()-]+: -?\d+"):
            check_fates(counters)
