"""Golden run digests: the licence for deleting duplicate data paths.

Each digest is a sha256 over everything deterministic a run reports —
``AggregateStats.to_dict()``, every tenant's, the overload, tenant and
impairment ledgers, and the span NDJSON bytes (the shape of
``benchmarks/perf/measure.py::_digest``, widened to the ledgers and
spans). **All digests below were recorded on the parent commit 63857fd
(PR 19), before ``core/pipeline.py``, either run loop or the parallel
feeder were edited, and have never been regenerated** (a case added
later is recorded on a clean checkout of that commit), by running this
file as a script:

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
from repro.core.cycles import CostModel
from repro.filter import compile_filter
from repro.filter.hardware import p4_capabilities
from repro.netem import ImpairmentConfig
from repro.packet import Mbuf
from repro.packet.fragments import fragment_ipv4
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
}


def digest(build, variant) -> str:
    runtime, mbufs = build(variant)
    report = runtime.run(iter(mbufs))
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


#: Recorded on the parent commit 63857fd; see the module docstring.
GOLDEN = {
    'campus_conn':
        '24164:9282511cc4fab94ff109a2fee4e12fc9e7acbcf43fa2bcde59f0cc6395c3fb3c',
    'campus_pkt':
        '24164:49f7b64d22bc2179248c4cbfc51232fc3817cd46a10670317d46e38b64c249fe',
    'sessions_tls':
        '17718:93a033d518ec13a810dc51da3bd4f6ec02eb996a8f243280e5e611359cc51bd4',
    'bulk_stream':
        '7675:a6a740dfa9acbc4ad9b15430390384cc09f968e3e35ee4ed9cbb2e4e8ba860ef',
    'scan_conn':
        '6250:0dbcf05aa7e4260352a9b88bb5bc3e0ead1de7395d436b3071819288d8f20ea9',
    'tenants8':
        '24164:ce47fd02a4b89c0d6945759fb7833fc24c145a27faf9f333dfc211ce907be2fe',
    'netem':
        '14487:72dd4ea2f43cef849051c1a190ff824917ff1a8761cb533c67499a2418cba27c',
    'overload_ladder':
        '18947:ddebee96c2a105eb7720b7dc65bc3eed3ab84f1957cf5f0bf8596347d171d5ba',
    'spans_k1':
        '14483:eed84297df7a319388290b12ad47af49d88a8800a505a12191d336e22632dfb6',
    'tenancy_swap':
        '14483:c41adbbf2856e42dfbd02959b7a90008d93a16f0d060346037c398fef6f28edd',
    'tenants_mixed_burst':
        '82:cdfd2cc1fc0951c3275de99ee22ce3980e51329e51f29c784a2d0b7955e5b43c',
    'fragments_held_tail':
        '72:7e00db2ed7835fc780b443fa7a3dd2735514416cf58c12193e7339e7c013cc92',
    'mixed_burst[packet]':
        '82:a553b14287a73fadf9d7dd0039e1cb636083413aca5b9350ea7160e62d1b42c1',
    'mixed_burst[connection]':
        '82:716d688d7331ee901e3923a6c679f69200b418eae671ae17fd009af447b0a9f3',
    'mixed_burst[byte_stream]':
        '82:c312801e0cf04506a3b3d7120d129971e63ea649be4ac172cef52726604a905f',
    'mixed_burst[tls]':
        '82:3dbc5577c7e22833537499c470e0a318c2c55e94f5131c760834ea365ed764f6',
    'hw_not_column_expressible':
        '14483:738a64fdf04acb7f90cdb6e17f3b61ebaaab68cbc3bffe7a4f74d6a61b7fded7',
    'filter_not_batch_expressible':
        '14483:64ce730f5b78ed6d3cef33d9b4872dcd24ed2d46a80fd633ab744cc4fdf8cf77',
}


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("name", list(CASES))
def test_run_digest_matches_parent_commit(name, variant):
    assert digest(CASES[name], VARIANTS[variant]) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case, build in CASES.items():
        got = {v: digest(build, config) for v, config in VARIANTS.items()}
        assert len(set(got.values())) == 1, (case, got)
        print(f"    {case!r}:\n        {got['seq']!r},")
    print("}")
