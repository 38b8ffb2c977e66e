"""Golden run digests: the licence for deleting duplicate data paths.

Each digest is a sha256 over everything deterministic a run reports —
``AggregateStats.to_dict()``, every tenant's, the overload, tenant and
impairment ledgers, and the span NDJSON bytes (the shape of
``benchmarks/perf/measure.py::_digest``, widened to the ledgers and
spans). The digests were first recorded on commit 63857fd (PR 19),
before ``core/pipeline.py``, either run loop or the parallel feeder were
edited, and licensed PR 20's deletions unmodified. **They were
re-recorded once, on the commit that made the cycle ledger integer
centi-cycles (parent 38a3d0f)**: every cycle-derived float
(``stage_cycles``, ``cycles_per_ingress_packet``, ``max_zero_loss_gbps``,
span ``cycles`` / stage self-times / profile and hottest-node cycles)
moved in its last bits, because a total is now one exact integer divided
once instead of a float summed packet by packet. The protocol: the exact
payload hashed here was dumped for all 18 cases x 4 variants on the
parent and on the change; every int/str/bool field was equal, every
float that moved sat under one of those keys, and the largest relative
change was 5.6e-13 (a per-burst span stage delta; 1.4e-13 on any
``stats`` field). The seven ``tenants_*`` cases after
``filter_not_batch_expressible`` (metered, not batch-expressible, spans,
ladder) were added by PR 22 and recorded on its parent, 14bf723, before
the multiplexer was edited; three supervised cases (a planned worker
crash / hang, fault report included) were deleted with worker
supervision.
**Four of the tenancy cases were re-recorded once more, on the child of
ce5c236 (PR 24)**, which made a metered tenant's ledger count every
packet the tenant was offered instead of only those it shed. Same
protocol: the payload was dumped for all 25 cases x 4 variants on both
sides; the 84 payloads of the other 21 cases were equal in every field,
and in ``tenants_metered``, ``tenants_mixed_burst_metered``,
``tenants_unexpressible_metered`` and ``tenants_spans_k1`` the only
fields that moved were ``tenant_ledgers.<tenant>.packets_seen`` (e.g.
1444 -> 14483, the link's dispatched packets) and the
``packets_analyzed`` derived from it (0 -> the tenant's processed
packets). Every case now also runs the fate check
(``repro.telemetry.check``) on every variant. The two one-entry-table
cases (``tenant_solo``; ``tenants_solo_multi_solo``, whose two swaps
fall inside one ingress chunk) were recorded on 2d35b3b, before
``Runtime`` itself ran a one-entry table through the multiplexer.
**The eleven multi-tenant cases were re-recorded once more, on the
change that made one pipeline per core price capture and the packet
filter once per packet (parent a73a2a0; every digest here passed
unmodified once the tenant multiplexer was folded into that pipeline,
before the pricing moved).** Same protocol: the payload was dumped for
all 30 cases x their variants (114 payloads) on both sides. The 70
payloads of the single-subscription cases, ``tenant_solo`` and the
supervised cases were equal in every field, and so were every
``tenants.<name>`` payload and every tenant ledger of the eleven. What moved is the
whole-run face alone, and only what it derives from ``packets`` and
``bytes``: ``processed_packets``, the CAPTURE and PACKET_FILTER
``stage_invocations`` and ``stage_cycles``, ``cycles_per_ingress_packet``,
``max_zero_loss_gbps`` (``loss_fraction`` on the one overloaded case),
and the funnel's ``nic_hardware`` bytes out and ``packet_filter`` row
in (``processed_bytes``). **Seven of those multi-tenant cases were
re-recorded once more, on the change that made a core's face combine its
lanes' memory samples per sample point instead of per virtual instant
(parent 3ec6237).** A core handed no packet between two sample points
samples twice at one ``now``, and the face used to add those two samples
together. Same protocol: all 114 payloads were dumped on both sides. In
86 of them every field was equal. In the other 28 (``tenancy_swap``,
``tenants_metered``, ``tenants_unexpressible``,
``tenants_unexpressible_metered``, ``tenants_spans_k1``,
``tenants_overload_ladder`` and ``tenants_solo_multi_solo``, every
variant) exactly two fields moved, both on the whole-run face:
``stats.peak_live_connections`` and ``stats.peak_memory_bytes`` (e.g.
9700 -> 28 and 4966400 -> 14336). A case added later is recorded the
same way, by running this file as a script:

    PYTHONPATH=src:. python tests/test_stats_golden.py

which prints the ``GOLDEN`` table. One digest per case: every variant —
the default columnar path and the ``columnar=False`` reference, on the
sequential backend and on two worker processes — must produce it, so a
case pins both "the backends agree" and "they agree with what the
parent computed". A change that is meant to keep the data path's
output identical must pass this file unmodified.

``campus_conn_par`` of the benchmark is ``campus_conn`` here on the
two-worker variants.
"""

import hashlib
import json

import pytest

from repro import Runtime, RuntimeConfig
from repro.core.cycles import CostModel, Stage, to_centi
from repro.filter import compile_filter
from repro.filter.hardware import p4_capabilities
from repro.netem import ImpairmentConfig
from repro.packet import Mbuf
from repro.packet.fragments import fragment_ipv4
from repro.telemetry import check
from repro.tenancy import ReconfigureEvent, TenantRuntime, TenantSpec
from repro.traffic import (
    BurstTrafficGenerator,
    CampusProfile,
    CampusTrafficGenerator,
    FlowSpec,
    HttpsWorkloadGenerator,
    http_flow,
    ping_flow,
    tls_flow,
    udp_flow,
)
from repro.traffic.distributions import FlowSizeModel
from repro.traffic.flows import merge_flows
from tests.test_columnar_parity import (
    _ipv4_fragment,
    _ipv4_with_options,
    _vlan,
)

SEED = 42
CORES = 2

#: name -> config overrides; every case runs under each.
VARIANTS = {
    "seq": {},
    "seq-scalar": {"columnar": False},
    "par2": {"parallel": True},
    "par2-scalar": {"parallel": True, "columnar": False},
}

#: The eight subscriptions of benchmarks/perf/workloads.py.
TENANTS8 = (
    ("web", "tcp.dst_port = 443", "connection"),
    ("http", "tcp.dst_port = 80", "connection"),
    ("alt", "tcp.dst_port = 8080", "packet"),
    ("ssh", "tcp.dst_port = 22", "packet"),
    ("dns", "udp.dst_port = 53", "packet"),
    ("ntp", "udp.dst_port = 123", "packet"),
    ("rweb", "tcp.src_port = 443", "packet"),
    ("udp_all", "udp", "packet"),
)


# -- traces (rows, so every run gets untouched Mbufs) ----------------------
def _rows(mbufs):
    return [(bytes(m.data), m.timestamp, m.port) for m in mbufs]


def _campus():
    # benchmarks/perf/workloads.py::_campus at scale 4.
    profile = CampusProfile(flow_sizes=FlowSizeModel(cap_bytes=150_000))
    return CampusTrafficGenerator(SEED, profile).connections(
        825, duration=0.4)


def _sessions():
    profile = CampusProfile(
        single_syn_fraction=0.3, long_lived_fraction=0.0,
        flow_sizes=FlowSizeModel(mu=7.5, sigma=1.0, cap_bytes=65536))
    return CampusTrafficGenerator(SEED, profile).connections(
        875, duration=1.0)


def _bulk():
    return HttpsWorkloadGenerator(SEED).packets(
        requests_per_second=100, duration=0.25)


def _scan():
    profile = CampusProfile(tcp_fraction=1.0, single_syn_fraction=1.0)
    return CampusTrafficGenerator(SEED, profile).connections(
        6250, duration=0.5)


def _small_campus():
    return CampusTrafficGenerator(seed=21).packets(duration=0.3, gbps=0.4)


def _burst():
    return BurstTrafficGenerator(seed=1).packets(duration=1.0, gbps=0.05)


def _fragmented():
    """Two TLS flows whose large segments are IP-fragmented, plain
    campus traffic around them, and — as the very last frame — the
    first fragment of a datagram that never completes."""
    out = []
    for n, sni in enumerate(("frag.example.com", "frag.example.net")):
        flow = tls_flow(
            FlowSpec(f"10.0.{n}.1", "171.64.2.2", 5555 + n, 443), sni,
            start_ts=0.01 * n, cert_bytes=2500, selected_version=None)
        for mbuf in flow:
            if len(mbuf) > 1300:
                out.extend(Mbuf(f, timestamp=mbuf.timestamp)
                           for f in fragment_ipv4(mbuf.data, 1208))
            else:
                out.append(mbuf)
    plain = CampusTrafficGenerator(seed=9).packets(duration=0.1, gbps=0.05)
    trace = merge_flows([out, plain])
    big = tls_flow(FlowSpec("10.0.9.1", "171.64.2.9", 6000, 443),
                   "held.example.com", cert_bytes=2500,
                   selected_version=None)
    frame = next(m.data for m in big if len(m) > 1300)
    last_ts = trace[-1].timestamp + 0.5
    trace.append(Mbuf(fragment_ipv4(frame, 1208)[0], timestamp=last_ts))
    return trace


def _mixed_burst():
    """One burst (< 256 frames) whose flows each arrive as a mix of
    plain, VLAN-tagged and IPv4-options frames, with a non-first
    fragment and ICMP echoes between the same endpoints."""
    web = FlowSpec("10.1.2.3", "171.64.9.9", 45555, 443)
    plain_http = FlowSpec("10.1.2.4", "171.64.9.9", 45556, 80)
    dns = FlowSpec("10.1.2.3", "171.64.9.9", 5353, 53)
    flows = [
        tls_flow(web, "mix.example.com", appdata_bytes=30000),
        http_flow(plain_http, host="mix.example.org",
                  response_bytes=20000, start_ts=0.001),
        udp_flow(dns, start_ts=0.002),
        ping_flow(web, count=2, start_ts=0.003, rtt=0.004),
    ]
    shapes = (lambda f: f, _vlan, _ipv4_with_options, lambda f: f,
              lambda f: _vlan(_vlan(f), tpid=0x88A8))
    out = []
    for mbuf in merge_flows(flows):
        frame = bytes(mbuf.data)
        if frame[23] != 1:  # leave ICMP as built
            frame = shapes[len(out) % len(shapes)](frame)
        out.append(Mbuf(frame, mbuf.timestamp, mbuf.port))
        if len(out) in (9, 30):
            out.append(Mbuf(_ipv4_fragment(bytes(mbuf.data)),
                            mbuf.timestamp, mbuf.port))
    assert len(out) < 256
    return out


TRACES = {
    "campus": _campus, "sessions": _sessions, "bulk": _bulk,
    "scan": _scan, "small_campus": _small_campus, "burst": _burst,
    "fragmented": _fragmented, "mixed_burst": _mixed_burst,
}
_trace_cache = {}


def trace(name):
    if name not in _trace_cache:
        _trace_cache[name] = _rows(TRACES[name]())
    return [Mbuf(*row) for row in _trace_cache[name]]


# -- cases -----------------------------------------------------------------
def _single(trace_name, filter_str, datatype, **config):
    def build(variant):
        runtime = Runtime(
            RuntimeConfig(cores=CORES, **{**config, **variant}),
            filter_str=filter_str, datatype=datatype, callback=None)
        return runtime, trace(trace_name)
    return build


def _tenants(trace_name, specs, events=None, **config):
    def build(variant):
        mbufs = trace(trace_name)
        runtime = TenantRuntime(
            RuntimeConfig(cores=CORES, **{**config, **variant}),
            [TenantSpec(*spec) if isinstance(spec, tuple) else spec
             for spec in specs],
            events=events(mbufs) if events else ())
        return runtime, mbufs
    return build


def _mid_run_swap(mbufs):
    third = mbufs[len(mbufs) // 3].timestamp
    mid = mbufs[len(mbufs) // 2].timestamp
    return [ReconfigureEvent(third, "drop", "dns"),
            ReconfigureEvent(mid, "add", "late"),
            ReconfigureEvent(mid, "add", "dns")]


def _solo_multi_solo(mbufs):
    """``add b`` then ``drop a``, both strictly inside one ingress chunk:
    the chunk is decoded while ``a`` is alone and its tail runs while
    ``b`` is, so no verdict computed for ``a`` may reach ``b``."""
    chunk = RuntimeConfig().parallel_batch_size
    base = len(mbufs) // 2 // chunk * chunk
    cuts = [k for k in range(base + 1, base + chunk)
            if mbufs[k - 1].timestamp < mbufs[k].timestamp]
    add, drop = cuts[len(cuts) // 3], cuts[2 * len(cuts) // 3]
    return [ReconfigureEvent(mbufs[add].timestamp, "add", "b"),
            ReconfigureEvent(mbufs[drop].timestamp, "drop", "a")]


def _unexpressible_hw(variant):
    """Software filter batch-expressible, flow rules not (``ipv4.ttl``
    has no column): every ingress row takes ``SimNic.receive``."""
    runtime, mbufs = _single("small_campus", "tcp.dst_port = 443",
                             "connection")(variant)
    hw = compile_filter("ipv4.ttl > 5 and tcp.dst_port = 443",
                        nic=p4_capabilities()).hardware
    for nic in runtime.nics:
        nic.install_hardware_filter(hw)
    return runtime, mbufs


#: ~10 ms of virtual work per stateful packet: the burst overloads.
_HEAVY = CostModel(conn_track=3e7)

#: Quota and pressure both shed on ``small_campus`` at these budgets.
_METERED = [
    TenantSpec("web", "tcp.port = 443", "connection", quota_mbps=2.0),
    TenantSpec("dns", "udp", "packet", quota_mbps=0.05),
    TenantSpec("all", "tcp", "connection"),
]
#: ``ipv4.ttl`` has no column: the table is not batch-expressible.
_UNEXPRESSIBLE = [
    TenantSpec("web", "tcp.dst_port = 443", "connection"),
    TenantSpec("ttl", "ipv4.ttl > 5", "packet"),
    TenantSpec("dns", "udp", "packet"),
]

CASES = {
    "campus_conn": _single("campus", "tcp", "connection"),
    "campus_pkt": _single("campus", "", "packet"),
    "sessions_tls": _single("sessions", r"tls.sni ~ '.*\.com$'",
                            "tls_handshake"),
    "bulk_stream": _single("bulk", "tcp.port = 443", "byte_stream"),
    "scan_conn": _single("scan", "tcp", "connection"),
    "tenants8": _tenants("campus", TENANTS8),
    "netem": _single(
        "small_campus", "tcp", "connection",
        impairment=ImpairmentConfig(seed=3, loss_rate=0.02,
                                    reorder_rate=0.05, reorder_depth=6,
                                    duplicate_rate=0.02)),
    "overload_ladder": _single(
        "burst", "", "connection", overload_policy="ladder",
        overload_target_lag=0.02, cost_model=_HEAVY),
    "spans_k1": _single("small_campus", "tcp", "connection",
                        span_sample=1, flight_recorder_depth=4),
    "tenancy_swap": _tenants(
        "small_campus",
        [TenantSpec("web", "tcp.dst_port = 443", "connection"),
         TenantSpec("dns", "udp", "packet"),
         TenantSpec("late", "tcp", "connection", start=False)],
        events=_mid_run_swap),
    "tenants_mixed_burst": _tenants(
        "mixed_burst",
        [("web", "tcp.dst_port = 443", "connection"),
         ("plain", "tcp.dst_port = 80", "byte_stream"),
         ("pings", "icmp", "packet"),
         ("udp_all", "udp", "packet")]),
    "fragments_held_tail": _single(
        "fragmented", "tls", "tls_handshake", reassemble_fragments=True),
    "mixed_burst[packet]": _single("mixed_burst", "icmp or tls",
                                   "packet"),
    "mixed_burst[connection]": _single("mixed_burst", "ipv4",
                                       "connection"),
    "mixed_burst[byte_stream]": _single("mixed_burst", "tcp",
                                        "byte_stream"),
    "mixed_burst[tls]": _single("mixed_burst", "tls", "tls_handshake"),
    "hw_not_column_expressible": _unexpressible_hw,
    "filter_not_batch_expressible": _single(
        "small_campus", "ipv4.ttl > 5 and tcp", "connection"),
    # -- the multiplexer's other branches (recorded on 14bf723) --------
    "tenants_metered": _tenants(
        "small_campus", _METERED, tenancy_pressure_mbps=4.0),
    "tenants_mixed_burst_metered": _tenants(
        "mixed_burst",
        [TenantSpec("web", "tcp.dst_port = 443", "connection",
                    quota_mbps=0.01),
         TenantSpec("plain", "tcp.dst_port = 80", "byte_stream"),
         TenantSpec("pings", "icmp", "packet", quota_mbps=0.002),
         TenantSpec("udp_all", "udp", "packet")],
        tenancy_pressure_mbps=0.2),
    "tenants_unexpressible": _tenants("small_campus", _UNEXPRESSIBLE),
    "tenants_unexpressible_metered": _tenants(
        "small_campus",
        [TenantSpec("web", "tcp.dst_port = 443", "connection"),
         TenantSpec("ttl", "ipv4.ttl > 5", "packet", quota_mbps=2.0),
         TenantSpec("dns", "udp", "packet", quota_mbps=0.05)],
        tenancy_pressure_mbps=4.0),
    "tenants_spans_k1": _tenants(
        "small_campus", _METERED[:1] + _UNEXPRESSIBLE[1:],
        span_sample=1, flight_recorder_depth=4),
    "tenants_overload_ladder": _tenants(
        "burst", [("conn", "", "connection"), ("dns", "udp", "packet"),
                  ("web", "tcp.port = 443", "tls_handshake")],
        overload_policy="ladder", overload_target_lag=0.02,
        cost_model=_HEAVY),
    "tenants_spans_ladder": _tenants(
        "burst", [("conn", "tcp", "connection"), ("dns", "udp", "packet")],
        overload_policy="ladder", overload_target_lag=0.02,
        cost_model=_HEAVY, span_sample=1),
    # -- a one-entry table (recorded on 2d35b3b) ------------------------
    "tenant_solo": _tenants("campus", [("solo", "tcp", "connection")]),
    "tenants_solo_multi_solo": _tenants(
        "small_campus",
        [TenantSpec("a", "tcp.dst_port = 443", "connection"),
         TenantSpec("b", "tcp", "connection", start=False)],
        events=_solo_multi_solo),
}


def digest(build, variant) -> str:
    runtime, mbufs = build(variant)
    report = runtime.run(iter(mbufs))
    check(report)  # every offered packet has exactly one counted fate
    tenants = ledgers = {}
    if isinstance(runtime, TenantRuntime):
        tenants = runtime.aggregate_tenants(report)
        ledgers = runtime.tenant_ledgers(report)
    blob = json.dumps({
        "stats": report.stats.to_dict(),
        "tenants": {n: t.to_dict() for n, t in sorted(tenants.items())},
        "tenant_ledgers": {n: l.to_dict()
                           for n, l in sorted(ledgers.items())},
        "overload": report.overload and report.overload.to_dict(),
        "impairment": report.impairment and report.impairment.to_dict(),
        "spans": report.spans and list(report.spans.ndjson_lines()),
    }, sort_keys=True, default=repr)
    return f"{report.stats.ingress_packets}:" \
        f"{hashlib.sha256(blob.encode()).hexdigest()}"


#: Re-recorded once for the integer cycle ledger; see the module docstring.
GOLDEN = {
    'campus_conn':
        '24164:6048db9c666c57a844840700d0c8d197a59329b3ef909e306f604032bb92bbb6',
    'campus_pkt':
        '24164:9d980e03df6460e5fc66586e40f4815b532a488c7ab6853c2b52dab2acba24fa',
    'sessions_tls':
        '17718:f11dba63b1cab5565e3d0456e5ff07e6a9aa8e3bd62bf0c209d144f3968e608b',
    'bulk_stream':
        '7675:299af76f95cafb1d4aed077ed2f4064f468a890fcdc883b6fc030ed9715f6778',
    'scan_conn':
        '6250:cbde145a9ac617d1c4ad7d041c59099b109872d3a245147384114cc7c054fce5',
    'tenants8':
        '24164:091d2fb789f2406932132342a23b2aba4e93665cddcfcb45e284b9eda208d7f5',
    'netem':
        '14487:ef524a8991a02f4c8afb1ba388bb78b0b9be18de09ecb97c6427e809128899d9',
    'overload_ladder':
        '18947:49f653182201f98df52f7d875a9cbe371493c391001f25ef03c271b3a6eefd63',
    'spans_k1':
        '14483:55d1f301302f4b841ddfa6c0015f59d88d0e8dd796d3987174cf3b7273068a7a',
    'tenancy_swap':
        '14483:3e970a1bcbfad1a96cf9eaaee161a6dd97e63f88e5f3711d1289f02382948f1d',
    'tenants_mixed_burst':
        '82:822568db6748df620d784340cebe72003898c8de094ee8b6de2a4a45216283a7',
    'fragments_held_tail':
        '72:e8fc97356d975fab44a3ca2302ffb6d813deb82c5f771d41eb8556b665705381',
    'mixed_burst[packet]':
        '82:2212675faa64ced22be29091eda86fcea0db258fc5427e9f1ee0a2c13403694e',
    'mixed_burst[connection]':
        '82:1785bb29d3ee9e6c54c01252f1da2ca450ded527d43201dbb28289b045fdc718',
    'mixed_burst[byte_stream]':
        '82:f3b0b8d63a2473132bf07fefc1f584ccd950b2847342c13326cef0c0afe980a4',
    'mixed_burst[tls]':
        '82:807820862afff81c6bf6aa6afe19d80fd1e9fc153bb30bd0b9b4ae668f0a982d',
    'hw_not_column_expressible':
        '14483:0464146e200d1aa1734edf266451b6bb45fb65535342d02a5cd61dc851b448a4',
    'filter_not_batch_expressible':
        '14483:9ab8d982f1d208799db8a270b1ef67b4d46b79f9d363419aed60256d1cd980aa',
    # Recorded on 14bf723 (PR 21), before PR 22 touched the multiplexer.
    # The four with a quota-metered tenant (tenants_metered,
    # tenants_mixed_burst_metered, tenants_unexpressible_metered,
    # tenants_spans_k1) were re-recorded on ce5c236's child, and all of
    # these once more when shared stages were priced once, and seven
    # of them when the face combined per sample point; see the module
    # docstring.
    'tenants_metered':
        '14483:654dad192e3f0ee04d909c85fd88e7e89805ebb77e10998964d7818f27bf181b',
    'tenants_mixed_burst_metered':
        '82:662d19564e4f5d29f835f88e58189dbe4a39f10ba1b767cfc6bf418ac6821bff',
    'tenants_unexpressible':
        '14483:08728ae731debfcd735bf1150ad210bd68db4770b5288b7c4fbee9eb4eb530ed',
    'tenants_unexpressible_metered':
        '14483:be1b66c7420a9e90de7249f6bbcbde6a78fd8a2830822bd17df59a1f5845c79a',
    'tenants_spans_k1':
        '14483:bf04e0776e3101d0b475751e334e0c23d61cd36683bb6b3f4de775d8bb76f091',
    'tenants_overload_ladder':
        '18947:03bf49046a78b3bf707f0ede8cafd4a14df724fb74afea022f56e88d40225f79',
    'tenants_spans_ladder':
        '18947:adbd1c0b8ab7004fefc23caea0408a94ca9759243884a31b695962fdc30905ca',
    # Recorded on 2d35b3b, before a plain subscription became a
    # one-entry filter table; tenants_solo_multi_solo re-recorded with
    # the other multi-tenant cases (see the module docstring).
    'tenant_solo':
        '24164:5c991305545d99cef11251f2e8f84bfb90f2eee2589104a3d201b4d9828ee815',
    'tenants_solo_multi_solo':
        '14483:97cf28e4e3fcaa2ecdc5a4903fed000b9f2e22cdee19f1c114a83dbb7fe0ba09',
}

@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("name", list(CASES))
def test_run_digest_matches_parent_commit(name, variant):
    assert digest(CASES[name], VARIANTS[variant]) == GOLDEN[name]


# -- cycles are counts x costs, exactly --------------------------------------
#: Every golden case, plus the one ablation whose reassembly cost is
#: not a function of its invocation count (the per-byte copy).
EXACT_CASES = {
    **CASES,
    "bulk_stream[buffered]": _single(
        "bulk", "tcp.port = 443", "byte_stream", reassembler="buffered",
        callback_cycles=1234.56),
}


def _assert_counts_times_costs(stats, ledgers, config):
    """What the fate check's cycles edge (cores' sums = the report =
    counts x costs + extra) leaves out: every ledger of the run, or of
    one tenant, prices at the runtime's one cost table — the callback
    at the model's cost plus the inline callback's, each rounded once
    — only the buffered reassembler's copy is extra, and every reported
    figure is one integer divided once."""
    model = config.cost_model
    costs = {stage: to_centi(model.cost_of(stage)) for stage in Stage}
    costs[Stage.CALLBACK] += to_centi(config.callback_cycles)
    copies = config.reassembler == "buffered"
    for ledger in ledgers:
        assert ledger.cost == costs
        assert not any(centi for stage, centi in ledger.extra.items()
                       if stage is not Stage.REASSEMBLY or not copies)
    for stage in Stage:
        assert stats.stage_cycles[stage] == sum(
            ledger.centi_cycles(stage) for ledger in ledgers) / 100, stage
    assert stats.per_core_busy_seconds == [
        ledger.total_centi_cycles / (100 * model.cpu_hz)
        for ledger in ledgers]


@pytest.mark.parametrize("variant", ["seq", "par2"])
@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_cycles_are_counts_times_costs(name, variant):
    runtime, mbufs = EXACT_CASES[name](VARIANTS[variant])
    report = runtime.run(iter(mbufs))
    check(report)
    cores = [report.core_stats[c] for c in sorted(report.core_stats)]
    _assert_counts_times_costs(
        report.stats, [core.ledger for core in cores], runtime.config)
    if name == "bulk_stream[buffered]":
        assert sum(core.ledger.extra[Stage.REASSEMBLY]
                   for core in cores) > 0
    if isinstance(runtime, TenantRuntime):
        for tenant, stats in runtime.aggregate_tenants(report).items():
            _assert_counts_times_costs(
                stats, [core.per_tenant[tenant].ledger for core in cores
                        if tenant in core.per_tenant], runtime.config)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case, build in CASES.items():
        got = {v: digest(build, config) for v, config in VARIANTS.items()}
        assert len(set(got.values())) == 1, (case, got)
        print(f"    {case!r}:\n        {got['seq']!r},")
    print("}")
