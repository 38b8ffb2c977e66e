"""Golden trace digests: every generator emits the same bytes, the same
timestamps and the same order as it did before the packet builder was
rewritten around per-flow templates.

Each digest is a sha256 over every frame's ``(bytes, repr(timestamp),
port)`` in stream order. **All digests below were recorded on the parent
commit d6ea845 (PR 11), before ``repro.packet.builder`` or
``repro.traffic`` were edited**, by running this file as a script:

    PYTHONPATH=src python tests/test_traffic_golden.py

which prints the ``GOLDEN`` table. A generator change that is meant to
keep traces identical must pass this file unmodified; one that is meant
to change them re-records the table in the same PR and says so
(docs/PERFORMANCE.md, "Rules for future perf work").
"""

import hashlib
import random

import pytest

from repro.traffic import (
    BurstTrafficGenerator,
    CampusProfile,
    CampusTrafficGenerator,
    FlowSpec,
    HttpsWorkloadGenerator,
    TcpFlow,
    ping_flow,
    quic_flow,
    single_syn,
    ssh_flow,
    stratosphere_trace,
    udp_flow,
)
from repro.traffic.distributions import FlowSizeModel
from repro.traffic.strato import trace_names

SEEDS = (0, 7, 42)


def digest(packets) -> str:
    h = hashlib.sha256()
    for m in packets:
        data = bytes(m.data)
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
        h.update(f"|{m.timestamp!r}|{m.port}\n".encode())
    return f"{len(packets)}:{h.hexdigest()}"


# The three campus profiles of benchmarks/perf/workloads.py, at a
# quarter (scan: a tenth) of the benchmark's connection count.
def _bench_campus():
    return CampusProfile(flow_sizes=FlowSizeModel(cap_bytes=150_000))


def _bench_sessions():
    return CampusProfile(
        single_syn_fraction=0.3, long_lived_fraction=0.0,
        flow_sizes=FlowSizeModel(mu=7.5, sigma=1.0, cap_bytes=65536))


def _bench_scan():
    return CampusProfile(tcp_fraction=1.0, single_syn_fraction=1.0)


def _flow_helpers():
    """The flow builders no generator above reaches (ICMP, the
    standalone perturbations), over IPv4 and IPv6 endpoints."""
    v4 = FlowSpec("10.1.2.3", "171.64.9.9", 45555, 443)
    v6 = FlowSpec("2607:f6d0:1:2::3", "2607:f010:9::9", 45556, 443)
    out = []
    for spec in (v4, v6):
        out += single_syn(spec, 0.5)
        out += ssh_flow(spec, start_ts=1.0)
        out += udp_flow(spec, start_ts=2.0)
        out += quic_flow(spec, start_ts=3.0)
        rng = random.Random(5)
        flow = TcpFlow(spec, start_ts=4.0).handshake()
        flow.send(True, rng.randbytes(9000)).send(False, b"", ack_every=0)
        flow.idle(0.25).rst(from_client=False)
        flow.shuffle_segments(rng).drop_segment(rng)
        out += flow.build()
    out += ping_flow(v4, count=3, start_ts=5.0)
    return out


def _cases():
    for seed in SEEDS:
        yield (f"campus.default.packets[{seed}]", lambda s=seed:
               CampusTrafficGenerator(s).packets(duration=0.3, gbps=0.2))
        yield (f"campus.default.connections[{seed}]", lambda s=seed:
               CampusTrafficGenerator(s).connections(300, duration=0.5))
        yield (f"campus.bench_campus.connections[{seed}]", lambda s=seed:
               CampusTrafficGenerator(s, _bench_campus())
               .connections(825, duration=0.4))
        yield (f"campus.bench_campus.packets[{seed}]", lambda s=seed:
               CampusTrafficGenerator(s, _bench_campus())
               .packets(duration=0.3, gbps=0.2, start_ts=10.0))
        yield (f"campus.bench_sessions.connections[{seed}]", lambda s=seed:
               CampusTrafficGenerator(s, _bench_sessions())
               .connections(875, duration=1.0))
        yield (f"campus.bench_scan.connections[{seed}]", lambda s=seed:
               CampusTrafficGenerator(s, _bench_scan())
               .connections(2500, duration=0.2))
        yield (f"burst.packets[{seed}]", lambda s=seed:
               BurstTrafficGenerator(s).packets(duration=0.4, gbps=0.05))
        yield (f"https.packets[{seed}]", lambda s=seed:
               HttpsWorkloadGenerator(s).packets(
                   requests_per_second=100, duration=0.08))
    for name in trace_names():
        yield f"strato[{name}]", lambda n=name: stratosphere_trace(n)
    yield "flow_helpers", _flow_helpers


CASES = dict(_cases())

#: Recorded on the parent commit d6ea845; see the module docstring.
GOLDEN = {
    'campus.default.packets[0]':
        '10603:5222de518022b1a159d24a7c2363e9950c44af7349450e2df83ff91c675b2c41',
    'campus.default.connections[0]':
        '28625:939481543b52bcfca7328b295cb0bd2bfd68b1d7adf1419b682fa27bd5b79d9d',
    'campus.bench_campus.connections[0]':
        '25489:02662964187a2db31bedf814bd8f8c1fa456dcaf27b69c186becdef2b21b2e6e',
    'campus.bench_campus.packets[0]':
        '2873:760987cde7c44b9c8874d212af281d6889e12b1811c2280bc86fe9321dd49e68',
    'campus.bench_sessions.connections[0]':
        '18049:c453f151dfc3e2b63e8748aceb49c09d9844b7d46c67c63f21a78e6e6c1358e5',
    'campus.bench_scan.connections[0]':
        '2500:c7e5900f2ac2f1f1071ab89ff0f11bb5e180825ef836f339c69a1aa323c9f66c',
    'burst.packets[0]':
        '10269:72be12effaf38bd7684aff61dac3ff4c68111e877cb296280a6394956fd1450c',
    'https.packets[0]':
        '2456:71b81429381bd84df7540405e06e3481397ac52fad9962594587b9c8c71d9212',
    'campus.default.packets[7]':
        '4903:242c3cf4190bfe4887188c4aa197d0c59896600ac1394ff5ea8604bb5a4c4a88',
    'campus.default.connections[7]':
        '18884:f85ffbb6201771a53b517467446b35f0b1aeee05964af68f3583d57c5a7c7f7f',
    'campus.bench_campus.connections[7]':
        '25393:c364489f88a3b5ea657fbf1c4a637d53bc7d696efa1f5d0b3b6edba20118f14b',
    'campus.bench_campus.packets[7]':
        '3075:d6949e37f3f73f7ad6a584d2d17e4a4b564efe681497433cc91c1fdb60e7b4da',
    'campus.bench_sessions.connections[7]':
        '18875:f3a3a1c55188fe43aba9b1b73d72b6e291a5c9db3b615d424605b09a833c0e73',
    'campus.bench_scan.connections[7]':
        '2500:b24e7218b882e53cb0be19640af21565812532fbf786d74b41d54b19bf6f4f9d',
    'burst.packets[7]':
        '2219:0fa2ddc08efc1484184e237ce5e9764ef8f1452f3e7d0729a1e76f2a7e772ec9',
    'https.packets[7]':
        '2456:6b23efbc6d2d2ea2a01acad4f2dc9f0b658eba666b78d7d309993a6a3bdfe039',
    'campus.default.packets[42]':
        '1892:50ed30eb12b9808a573776233700db1dd76beae253a028bdd2cdf7833aed5274',
    'campus.default.connections[42]':
        '33078:e838f7cc12c38dcf971502a7069df3265ec6532fb7e7430e227e90179f9d365d',
    'campus.bench_campus.connections[42]':
        '24164:be9412555c9faeda51316ee6af3fdba43a57996cff18168fe628210fac142b5a',
    'campus.bench_campus.packets[42]':
        '1803:ae1a63e328a7cfb815f255ca320940777d138b0518422637e8e706e917c6f092',
    'campus.bench_sessions.connections[42]':
        '17718:0428dd19d1d01c44a9737bfaca5a14da4f629adaba54450d9ee4a2a16f566585',
    'campus.bench_scan.connections[42]':
        '2500:9edd969e0b4c08a6d057cf84aa2ad35e03c029e37aef97f8d0691f0619410499',
    'burst.packets[42]':
        '2366:28fe5229dc91cc1a0554f4ea72fe98d2fcae5840c29fe131f69f03b6738627c6',
    'https.packets[42]':
        '2456:233ce1c1bbe24f41f2a24dbd312dd6c3ee3447af23b23440418873dc550ce320',
    'strato[CTU-Normal-7]':
        '10011:5de088583a49b53c6e14cd8577e031c0469183d0809ede1578f25793cb1e38cf',
    'strato[CTU-Normal-12]':
        '34136:e8bae88951ddb29611ee7015d20fb62cad228e20ef76482e1fe143a2642007c6',
    'strato[CTU-Normal-20]':
        '71589:f77a2393fe565e40b03447716d03596a307b7434564a747de712976a918c2758',
    'strato[CTU-Normal-30]':
        '27594:af07525fc3ac66728fd1b59452cf7b4bdf5d0143693f7c9445615980344ce91d',
    'flow_helpers':
        '70:ee50002ab20b50a0211bb8e9332e87f229ecf3f9ff60af576f24da45e549cf37',
}


@pytest.mark.parametrize("name", list(CASES))
def test_trace_digest_matches_parent_commit(name):
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case, make in CASES.items():
        print(f"    {case!r}:\n        {digest(make())!r},")
    print("}")
