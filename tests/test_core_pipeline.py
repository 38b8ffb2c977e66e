"""Integration tests for the runtime pipeline (Figure 4 behaviours)."""

import itertools
import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConnectionRecord,
    RawPacket,
    Runtime,
    RuntimeConfig,
    Stage,
    Subscription,
    TimeoutConfig,
)
from repro.core.pipeline import CorePipeline
from repro.core.stats import CoreStats
from repro.errors import ConfigError, SubscriptionError
from repro.packet import Mbuf
from repro.packet.columnar import decode_mbufs
from repro.traffic import (
    FlowSpec,
    dns_flow,
    http_flow,
    single_syn,
    ssh_flow,
    tls_flow,
    udp_flow,
)
from repro.traffic.flows import merge_flows
from tests.test_stats_golden import trace as golden_trace


def run_subscription(packets, filter_str, datatype, config=None, **kwargs):
    got = []
    config = config or RuntimeConfig(cores=2)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=got.append)
    report = runtime.run(iter(sorted(packets, key=lambda m: m.timestamp)),
                         **kwargs)
    return got, report


def spec(i=0, dport=443):
    return FlowSpec(f"10.0.{i // 250}.{i % 250 + 1}", "171.64.7.7",
                    40000 + i, dport)


class TestPacketSubscription:
    def test_fast_path_no_conntrack(self):
        packets = tls_flow(spec(), "a.example.com")
        got, report = run_subscription(packets, "ipv4", "packet")
        assert len(got) == len(packets)
        # Fast path: no connection tracking charged at all.
        assert report.stats.stage_invocations[Stage.CONN_TRACK] == 0
        assert report.stats.conns_created == 0

    def test_fig4a_packets_in_http_connections(self):
        """Figure 4a: buffer while probing, deliver buffered + rest."""
        http_packets = http_flow(spec(0, 80), host="h.test")
        tls_packets = tls_flow(spec(1), "x.com", start_ts=0.001)
        got, report = run_subscription(http_packets + tls_packets,
                                       "http", "packet")
        # The HTTP connection's packets — everything up to termination
        # (the ACK after both FINs arrives once the connection has been
        # removed, matching Figure 4's early deletion).
        assert len(got) == len(http_packets) - 1
        assert all(isinstance(p, RawPacket) for p in got)
        assert all(p.five_tuple is not None for p in got)
        # The buffered handshake packets were delivered on match.
        assert min(len(p.mbuf) for p in got) == 54

    def test_packet_filter_drop_early(self):
        packets = udp_flow(spec(0, 9999))
        got, report = run_subscription(packets, "tcp", "packet")
        assert got == []
        # Dropped by the packet filter: never tracked.
        assert report.stats.stage_invocations[Stage.CONN_TRACK] == 0


class TestConnectionSubscription:
    def test_records_on_termination(self):
        packets = http_flow(spec(), host="h.test", response_bytes=5000)
        got, _ = run_subscription(packets, "", "connection", drain=False)
        assert len(got) == 1
        record = got[0]
        assert record.terminated_gracefully
        assert record.total_packets == len(packets) - 1  # trailing ACK
        assert record.history.startswith("S")

    def test_single_syn_delivered_via_timeout(self):
        packets = single_syn(spec())
        # Advance virtual time past the establish timeout with a second
        # unrelated flow.
        late = single_syn(spec(1), start_ts=10.0)
        got, _ = run_subscription(packets + late, "", "connection",
                                  drain=True)
        assert len(got) == 2
        assert any(r.is_single_syn for r in got)

    def test_no_double_delivery_after_fin(self):
        """The trailing ACK of a FIN teardown must not re-create or
        re-deliver the connection (TIME_WAIT linger)."""
        packets = http_flow(spec(), host="h.test")
        got, report = run_subscription(packets, "", "connection")
        assert len(got) == 1
        assert report.stats.conns_created == 1

    def test_conn_filter_discards_other_services(self):
        """ConnectionRecord filtered to tls: http flows are dropped at
        the connection filter and never delivered."""
        packets = (
            tls_flow(spec(0), "a.test") + http_flow(spec(1, 80), host="b")
        )
        got, _ = run_subscription(packets, "tls", "connection")
        assert len(got) == 1
        assert got[0].service == "tls"

    def test_session_filter_gates_connection_records(self):
        """The Figure 7 workload shape: records only for matching SNI."""
        packets = (
            tls_flow(spec(0), "occ-0-1.1.nflxvideo.net")
            + tls_flow(spec(1), "www.example.com", start_ts=0.3)
        )
        got, report = run_subscription(
            packets, "tcp.port = 443 and tls.sni ~ '(.+?\\.)?nflxvideo\\.net'",
            "connection")
        assert len(got) == 1
        assert got[0].service == "tls"
        assert report.stats.sessions_parsed == 2
        assert report.stats.sessions_matched == 1

    def test_rst_terminates(self):
        packets = tls_flow(spec(), "r.test", teardown="rst")
        got, _ = run_subscription(packets, "", "connection", drain=False)
        assert len(got) == 1
        assert got[0].history.endswith("R")

    def test_udp_records(self):
        packets = dns_flow(spec(0, 53), name="q.example")
        got, _ = run_subscription(packets, "udp", "connection")
        assert len(got) == 1
        assert got[0].five_tuple.protocol == 17


class TestSessionSubscription:
    def test_tls_handshake_delivery(self):
        packets = tls_flow(spec(), "video.netflix.com",
                           cipher_suite=0xC02F, selected_version=None)
        got, report = run_subscription(packets, "tls", "tls_handshake")
        assert len(got) == 1
        assert got[0].sni() == "video.netflix.com"
        assert got[0].cipher() == "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"

    def test_early_conn_drop_after_handshake(self):
        """Figure 4b: after delivering the handshake, the connection's
        heavy state is freed even though data keeps flowing."""
        packets = tls_flow(spec(), "x.com", appdata_bytes=200_000)
        got, report = run_subscription(packets, "tls", "tls_handshake")
        assert len(got) == 1
        # Parsing must stop after the handshake: far fewer parse calls
        # than payload packets.
        assert report.stats.stage_invocations[Stage.PARSING] < 10

    def test_session_filter_regex(self):
        packets = (
            tls_flow(spec(0), "a.shop.com")
            + tls_flow(spec(1), "b.example.org", start_ts=0.4)
        )
        got, _ = run_subscription(packets, "tls.sni ~ '.*\\.com$'",
                                  "tls_handshake")
        assert [hs.sni() for hs in got] == ["a.shop.com"]

    def test_http_transactions_keep_coming(self):
        packets = http_flow(spec(0, 80), host="h.test", uri="/one")
        got, _ = run_subscription(packets, "http", "http_transaction")
        assert len(got) == 1
        assert got[0].uri() == "/one"

    def test_ssh_handshake(self):
        packets = ssh_flow(spec(0, 22), client_software="OpenSSH_9.3")
        got, _ = run_subscription(packets, "ssh", "ssh_handshake")
        assert len(got) == 1
        assert got[0].client_software() == "OpenSSH_9.3"

    def test_dns_transaction(self):
        packets = dns_flow(spec(0, 53), name="www.stanford.edu",
                           rcode=0)
        got, _ = run_subscription(packets, "dns", "dns_transaction")
        assert len(got) == 1
        assert got[0].query_name() == "www.stanford.edu"

    def test_session_sub_filter_on_other_protocol_rejected(self):
        with pytest.raises(SubscriptionError):
            Subscription("http", "tls_handshake", lambda x: None)

    def test_mid_connection_tls_never_delivers(self):
        """A flow whose handshake was missed (ciphertext only) probes,
        fails, and is discarded without delivery."""
        from repro.traffic.flows import TcpFlow
        from repro.protocols.tls.build import build_application_data
        flow = TcpFlow(spec())
        flow.handshake()
        flow.send(True, b"\x99" * 500)  # not TLS records
        flow.fin()
        got, _ = run_subscription(flow.build(), "tls", "tls_handshake")
        assert got == []


class TestLazinessProperties:
    def test_reassembly_skipped_for_track_state(self):
        """After the session filter resolves, remaining packets are not
        reassembled (the Figure 7 claim)."""
        packets = tls_flow(spec(), "big.example.net",
                           appdata_bytes=500_000)
        got, report = run_subscription(
            packets, "tls.sni ~ 'example'", "connection")
        data_packets = sum(1 for p in packets if len(p) > 100)
        reassembled = report.stats.stage_invocations[Stage.REASSEMBLY]
        assert reassembled < data_packets * 0.2

    def test_non_matching_sni_stops_all_processing(self):
        packets = tls_flow(spec(), "big.example.net",
                           appdata_bytes=500_000)
        got, report = run_subscription(
            packets, "tls.sni ~ 'netflix'", "connection")
        assert got == []
        assert report.stats.stage_invocations[Stage.REASSEMBLY] < 20

    def test_hw_filter_cuts_ingress(self):
        """With hardware filtering on, non-TCP never reaches software."""
        packets = (tls_flow(spec(0), "x.com")
                   + dns_flow(spec(1, 53), start_ts=0.1))
        got, report = run_subscription(packets, "tcp and ipv4",
                                       "packet")
        assert report.stats.hw_dropped_packets == 2  # the DNS pair
        assert report.stats.stage_invocations[Stage.PACKET_FILTER] == \
            len(packets) - 2

    def test_hw_filter_disabled(self):
        packets = dns_flow(spec(1, 53))
        cfg = RuntimeConfig(cores=1, hardware_filter=False)
        got, report = run_subscription(packets, "tcp and ipv4", "packet",
                                       config=cfg)
        assert report.stats.hw_dropped_packets == 0
        assert got == []  # software filter still drops


class TestSinkSampling:
    def test_sink_reduces_processed_share(self):
        # One-packet flows so the dropped-packet fraction equals the
        # dropped-four-tuple fraction the redirection table implements.
        packets = [m for i in range(400)
                   for m in single_syn(spec(i), start_ts=i * 1e-4)]
        cfg = RuntimeConfig(cores=2, sink_fraction=0.5)
        got, report = run_subscription(packets, "", "connection",
                                       config=cfg)
        frac = report.stats.sink_dropped_packets / \
            report.stats.ingress_packets
        assert 0.35 < frac < 0.65


class TestTimeoutSchemes:
    def test_no_timeout_keeps_syns(self):
        packets = [m for i in range(50) for m in single_syn(spec(i),
                                                            start_ts=0.01 * i)]
        cfg = RuntimeConfig(cores=1,
                            timeouts=TimeoutConfig.no_timeouts())
        runtime = Runtime(cfg, filter_str="", datatype="connection",
                          callback=lambda r: None)
        runtime.run(iter(packets), drain=False)
        assert runtime.live_connections == 50

    def test_default_timeout_reaps_syns(self):
        packets = [m for i in range(50) for m in single_syn(spec(i),
                                                            start_ts=0.01 * i)]
        # A late packet pushes virtual time past the establish timeout.
        packets += single_syn(spec(99), start_ts=30.0)
        cfg = RuntimeConfig(cores=1)
        runtime = Runtime(cfg, filter_str="", datatype="connection",
                          callback=lambda r: None)
        runtime.run(iter(packets), drain=False)
        assert runtime.live_connections <= 1


class TestConfigValidation:
    def test_bad_cores(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(cores=0)

    def test_bad_sink(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(sink_fraction=2.0)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(filter_mode="jit")

    def test_unknown_datatype(self):
        with pytest.raises(SubscriptionError):
            Subscription("", "flowlets", lambda x: None)


class TestBurstShapeDoesNotMatter:
    """``CorePipeline`` has one per-row loop; however a trace is cut
    into bursts — one frame at a time, bursts of 7, one burst of 256,
    or rows whose columns come from several decoded batches — the core
    counts the same and delivers the same objects in the same order."""

    @staticmethod
    def _describe(obj):
        if isinstance(obj, RawPacket):
            return ("packet", bytes(obj.mbuf.data), obj.mbuf.timestamp)
        return repr(obj)

    @classmethod
    def _run(cls, feed, filter_str, datatype):
        # Plain, VLAN, QinQ, IPv4-options, fragment and ICMP frames of
        # the same flows (see tests/test_stats_golden.py).
        mbufs = golden_trace("mixed_burst")
        got = []
        pipeline = CorePipeline.of(
            0, Subscription(filter_str, datatype,
                            lambda obj: got.append(cls._describe(obj))),
            RuntimeConfig(cores=1))
        feed(pipeline, mbufs)
        pipeline.advance_time(mbufs[-1].timestamp + 600.0)
        pipeline.drain()
        return pipeline.stats.to_dict(), got

    @staticmethod
    def _one_at_a_time(pipeline, mbufs):
        for mbuf in mbufs:
            pipeline.process_batch((mbuf,))

    @staticmethod
    def _bursts_of(size):
        def feed(pipeline, mbufs):
            for start in range(0, len(mbufs), size):
                pipeline.process_batch(mbufs[start:start + size])
        return feed

    @staticmethod
    def _rows_across_batches(pipeline, mbufs):
        """Bursts of 16 rows, each drawn from four 5-frame decodes."""
        rows = []
        for start in range(0, len(mbufs), 5):
            chunk = mbufs[start:start + 5]
            cols = decode_mbufs(chunk)
            rows.extend(zip(chunk, [None] * len(chunk),
                            [cols] * len(chunk), range(len(chunk))))
        for start in range(0, len(rows), 16):
            pipeline.process_batch_rows(rows[start:start + 16])

    @pytest.mark.parametrize("filter_str,datatype", [
        ("icmp or tls", "packet"),
        ("ipv4", "connection"),
        ("tcp", "byte_stream"),
    ])
    def test_same_stats_same_delivery_order(self, filter_str, datatype):
        want = self._run(self._one_at_a_time, filter_str, datatype)
        assert want[1], "nothing was delivered"
        for feed in (self._bursts_of(7), self._bursts_of(256),
                     self._rows_across_batches):
            assert self._run(feed, filter_str, datatype) == want

    @pytest.mark.parametrize("quota", [None, 0.01],
                             ids=["unmetered", "metered"])
    def test_tenant_multiplexer_same_stats_same_delivery_order(self,
                                                               quota):
        """A table of tenants runs the same one loop: ``process_batch``
        in 256s, or ``process_batch_rows`` with 16-row bursts whose rows
        point into four different decodes. Tenants' deliveries
        interleave row by row, so it is each tenant's own delivery order
        that holds."""
        from repro.tenancy import FilterTable, TenantSpec

        def run(feed):
            mbufs = golden_trace("mixed_burst")
            got = {}

            def tenant(name, filter_str, datatype, **kw):
                return TenantSpec(
                    name, filter_str, datatype, callback=lambda obj:
                    got.setdefault(name, []).append(self._describe(obj)),
                    **kw)

            specs = [tenant("web", "tcp.dst_port = 443", "connection",
                            quota_mbps=quota),
                     tenant("plain", "tcp.dst_port = 80", "byte_stream"),
                     tenant("pings", "icmp", "packet"),
                     tenant("udp_all", "udp", "packet")]
            mux = CorePipeline(0, FilterTable(specs),
                               RuntimeConfig(cores=1))
            feed(mux, mbufs)
            mux.advance_time(mbufs[-1].timestamp + 600.0)
            mux.drain()
            return mux.stats.to_dict(), got

        def rows_across_batches(mux, mbufs):
            rows = []
            for start in range(0, len(mbufs), 5):
                chunk = mbufs[start:start + 5]
                cols = decode_mbufs(chunk)
                rows.extend((m, None, cols, i)
                            for i, m in enumerate(chunk))
            for start in range(0, len(rows), 16):
                mux.process_batch_rows(rows[start:start + 16])

        want = run(self._bursts_of(256))
        assert set(want[1]) == {"web", "plain", "pings", "udp_all"}
        assert bool(want[0].get("tenant_shed")) == (quota is not None)
        assert run(rows_across_batches) == want
        assert run(self._bursts_of(7)) == want

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_merge_order_does_not_matter(self, workers):
        """Aggregating the workers' per-core snapshots in any order
        gives the same report bytes: cycle totals are integer sums."""
        runtime = Runtime(
            RuntimeConfig(cores=workers, parallel=True,
                          callback_cycles=1234.56),
            filter_str=r"tls.sni ~ '.*\.com$'", datatype="tls_handshake",
            callback=None)
        report = runtime.run(iter(golden_trace("small_campus")))
        cores = list(report.core_stats.values())
        assert len(cores) == workers
        want = json.dumps(report.stats.to_dict(), sort_keys=True)
        assert report.stats.stage_cycles[Stage.CALLBACK] > 0
        for order in itertools.permutations(cores):
            got = runtime.aggregate(core_stats=list(order))
            assert json.dumps(got.to_dict(), sort_keys=True) == want

    @staticmethod
    def _keyed_trace():
        """Interleaved TLS and HTTP flows as ``(frame, ts, flow key)``
        rows — a core is chosen per flow, as RSS would."""
        flows = [
            tls_flow(spec(i), f"host{i}.{'com' if i % 3 else 'net'}",
                     start_ts=0.003 * i, appdata_bytes=6000)
            for i in range(12)
        ] + [http_flow(spec(20 + i, dport=80), start_ts=0.004 * i)
             for i in range(4)]
        mbufs = merge_flows(flows)
        cols = decode_mbufs(mbufs)
        assert all(cols.fast)
        return [
            (bytes(m.data), m.timestamp, repr(sorted(
                [(cols.src_ip[i], cols.src_port[i]),
                 (cols.dst_ip[i], cols.dst_port[i])])).encode())
            for i, m in enumerate(mbufs)]

    @staticmethod
    def _merged_ledger(shares, burst_sizes, merge_order):
        """Run each share through its own pipeline in bursts of the
        given sizes (cycled), then merge the stats (and with them the
        ledgers, views over them) in ``merge_order``."""
        config = RuntimeConfig(cores=1, reassembler="buffered",
                               callback_cycles=77.77)
        subscription = Subscription(r"tls.sni ~ '.*\.com$'",
                                    "tls_handshake", None)
        ledgers = []
        for share in shares:
            pipeline = CorePipeline.of(0, subscription, config)
            sizes = itertools.cycle(burst_sizes)
            start = 0
            while start < len(share):
                size = next(sizes)
                pipeline.process_batch(
                    [Mbuf(data, ts) for data, ts, _key
                     in share[start:start + size]])
                start += size
            pipeline.advance_time(600.0)
            pipeline.drain()
            ledgers.append(pipeline.stats)
        merged = CoreStats(config.cost_model)
        for index in merge_order:
            merged.merge(ledgers[index])
        return merged.ledger

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), cores=st.integers(1, 4),
           salt=st.integers(0, 2**32 - 1),
           burst_sizes=st.lists(st.integers(1, 300), min_size=1,
                                max_size=6))
    def test_any_burst_sizes_any_core_partition(self, data, cores, salt,
                                                burst_sizes):
        """Cut the trace into random bursts, spread its flows over a
        random number of cores, merge in a random order: the ledger is
        the one a single pipeline fed one frame at a time ends with."""
        keyed = self._keyed_trace()
        whole = self._merged_ledger([keyed], [1], [0])
        shares = [[] for _ in range(cores)]
        for row in keyed:
            shares[zlib.crc32(row[2], salt) % cores].append(row)
        order = data.draw(st.permutations(range(cores)))
        merged = self._merged_ledger(shares, burst_sizes, order)
        assert merged.snapshot() == whole.snapshot()
        assert merged.extra == whole.extra
        assert merged.extra[Stage.REASSEMBLY] > 0 < \
            merged.centi_cycles(Stage.CALLBACK)
