"""Tests for the seeded link-impairment layer (repro.netem).

Covers the Gilbert-Elliott model, the trace record/replay format,
frame corruption and checksum verification, the receiver mitigation
policies (quarantine, disable-and-repair), the impairment ledger's
conservation invariant, and the runtime integration (zero-cost when
disabled, byte-identical across backends and worker counts).
"""

import dataclasses
import json
from random import Random

import pytest

from repro import Runtime, RuntimeConfig
from repro.errors import ConfigError
from repro.netem import (CLEAN, Decision, GilbertElliott,
                         GilbertElliottChain, ImpairedLink,
                         ImpairmentConfig, ImpairmentLedger,
                         ImpairmentTrace, corrupt_frame, fix_checksums,
                         frame_checksums_ok)
from repro.packet.builder import build_tcp_packet, build_udp_packet
from repro.packet.mbuf import Mbuf
from repro.telemetry import check
from repro.traffic import CampusTrafficGenerator


def _campus(seed=1, duration=0.1, gbps=0.05):
    return list(CampusTrafficGenerator(seed=seed).packets(
        duration=duration, gbps=gbps))


def _run(impairment, *, cores=2, parallel=False, columnar=True,
         seed=1, **kwargs):
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           columnar=columnar, impairment=impairment,
                           **kwargs)
    runtime = Runtime(config, filter_str="tcp", datatype="connection",
                      callback=lambda obj: None)
    return runtime.run(iter(_campus(seed=seed)))


class TestGilbertElliott:
    def test_parse_forms(self):
        ge = GilbertElliott.parse("0.01,0.25")
        assert (ge.p, ge.r, ge.loss_bad, ge.loss_good) == \
            (0.01, 0.25, 1.0, 0.0)
        ge = GilbertElliott.parse("0.01, 0.25, 0.8, 0.001")
        assert (ge.loss_bad, ge.loss_good) == (0.8, 0.001)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            GilbertElliott.parse("0.01")
        with pytest.raises(ConfigError):
            GilbertElliott.parse("0.01,x")
        with pytest.raises(ConfigError):
            GilbertElliott(p=1.5, r=0.1)

    def test_chain_deterministic(self):
        params = GilbertElliott(p=0.05, r=0.3)
        a = GilbertElliottChain(params, Random(42))
        b = GilbertElliottChain(params, Random(42))
        assert [a.step() for _ in range(500)] == \
            [b.step() for _ in range(500)]

    def test_chain_is_bursty(self):
        """Losses cluster: runs of consecutive losses are much longer
        than an independent model with the same mean rate produces."""
        params = GilbertElliott(p=0.01, r=0.2)  # mean bad dwell: 5 pkts
        chain = GilbertElliottChain(params, Random(7))
        losses = [chain.step() for _ in range(20000)]
        runs, current = [], 0
        for lost in losses:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "no loss bursts sampled"
        assert max(runs) >= 3  # geometric dwell produces multi-loss runs
        assert sum(losses) / len(losses) < 0.2


class TestImpairmentConfig:
    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            ImpairmentConfig(loss_rate=1.5)
        with pytest.raises(ConfigError):
            ImpairmentConfig(reorder_rate=0.1, reorder_depth=0)
        with pytest.raises(ConfigError):
            ImpairmentConfig(jitter_s=-1.0)

    def test_silent_needs_corruption(self):
        with pytest.raises(ConfigError):
            ImpairmentConfig(corrupt_silent=True)
        ImpairmentConfig(corrupt_rate=0.1, corrupt_silent=True)

    def test_trace_conflicts_with_model(self):
        with pytest.raises(ConfigError):
            ImpairmentConfig(trace_path="t", loss_rate=0.1)
        with pytest.raises(ConfigError):
            ImpairmentConfig(trace_path="t", record_path="r")

    def test_enabled_flags(self):
        assert not ImpairmentConfig().enabled
        assert ImpairmentConfig(loss_rate=0.1).impairs
        assert ImpairmentConfig(quarantine=True).mitigates
        assert ImpairmentConfig(record_path="r").enabled


class TestTrace:
    def test_round_trip(self):
        trace = ImpairmentTrace(seed=9)
        trace.record(0, Decision(drop=True))
        trace.record(3, Decision(corrupt_flips=4, corrupt_silent=True))
        trace.record(5, Decision(dup=True))
        trace.record(7, Decision(delay=0.00125))
        trace.record(9, Decision(displace=6))
        trace.record(10, CLEAN)  # clean decisions are not recorded
        loaded = ImpairmentTrace.from_lines(trace.to_lines())
        assert loaded.seed == 9
        assert loaded.max_index == 9
        for index in range(12):
            a, b = trace.decision_for(index), loaded.decision_for(index)
            assert (a.drop, a.corrupt_flips, a.corrupt_silent, a.dup,
                    a.delay, a.displace) == \
                (b.drop, b.corrupt_flips, b.corrupt_silent, b.dup,
                 b.delay, b.displace)
        assert loaded.decision_for(10).clean

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "impair.trace"
        trace = ImpairmentTrace(seed=4)
        trace.record(2, Decision(drop=True))
        trace.save(path)
        text = path.read_text()
        assert text.startswith("#repro-impair-trace v1 seed=4")
        assert ImpairmentTrace.load(path).decision_for(2).drop

    def test_malformed_lines_rejected(self):
        with pytest.raises(ConfigError):
            ImpairmentTrace.from_lines(["#bogus header"])
        with pytest.raises(ConfigError):
            ImpairmentTrace.from_lines(
                ["#repro-impair-trace v1 seed=0", "3 explode"])


class TestCorruption:
    def _tcp_frame(self, payload=b"x" * 64):
        return build_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 443,
                                payload=payload, seq=100, flags=0x18)

    def test_builder_frames_verify_clean(self):
        assert frame_checksums_ok(self._tcp_frame()) is True
        udp = build_udp_packet("10.0.0.1", "10.0.0.2", 53, 53,
                               payload=b"q" * 16)
        assert frame_checksums_ok(udp) is True

    def test_non_ip_is_unverifiable(self):
        assert frame_checksums_ok(b"\x00" * 60) is None

    def test_detectable_corruption_fails_checksums(self):
        frame = self._tcp_frame()
        bad = corrupt_frame(frame, flips=3, silent=False, rng=Random(1))
        assert bad != frame
        assert frame_checksums_ok(bad) is False

    def test_silent_corruption_verifies_clean(self):
        frame = self._tcp_frame()
        bad = corrupt_frame(frame, flips=3, silent=True, rng=Random(1))
        assert bad != frame
        assert frame_checksums_ok(bad) is True

    def test_corruption_deterministic(self):
        frame = self._tcp_frame()
        assert corrupt_frame(frame, 5, False, Random(3)) == \
            corrupt_frame(frame, 5, False, Random(3))

    def test_fix_checksums_repairs(self):
        frame = bytearray(self._tcp_frame())
        frame[-1] ^= 0xFF  # damage the payload
        assert frame_checksums_ok(bytes(frame)) is False
        fix_checksums(frame)
        assert frame_checksums_ok(bytes(frame)) is True


def _mbufs(count=40, port=0):
    frames = [build_tcp_packet("10.0.0.1", "10.0.0.2", 1000 + i, 80,
                               payload=bytes([i % 256]) * 32,
                               seq=i * 100)
              for i in range(count)]
    return [Mbuf(frame, 0.001 * i, port) for i, frame in
            enumerate(frames)]


def _collect(link, mbufs):
    return list(link.wrap(iter(mbufs)))


class TestImpairedLink:
    def test_noop_model_passes_originals_through(self):
        mbufs = _mbufs(8)
        link = ImpairedLink(ImpairmentConfig(quarantine=True))
        out = _collect(link, mbufs)
        assert out == mbufs  # identical objects, zero copies
        assert link.ledger.offered == link.ledger.delivered == 8

    def test_loss_accounted(self):
        mbufs = _mbufs(200)
        link = ImpairedLink(ImpairmentConfig(seed=3, loss_rate=0.2))
        out = _collect(link, mbufs)
        ledger = link.ledger
        assert ledger.dropped["loss"] > 0
        assert len(out) == ledger.delivered
        ledger.check()

    def test_duplication_and_reorder(self):
        mbufs = _mbufs(200)
        link = ImpairedLink(ImpairmentConfig(
            seed=3, duplicate_rate=0.1, reorder_rate=0.2,
            reorder_depth=5))
        out = _collect(link, mbufs)
        ledger = link.ledger
        assert ledger.duplicated > 0 and ledger.reordered > 0
        assert len(out) == 200 + ledger.duplicated
        # Every offered frame survives (no loss model), some displaced.
        assert {bytes(m.data) for m in out} == \
            {bytes(m.data) for m in mbufs}
        order = [m.data[14 + 20 + 1] for m in out]  # src-port low byte
        assert order != sorted(order) or ledger.reordered == 0

    def test_timestamps_stay_monotone_under_jitter(self):
        mbufs = _mbufs(300)
        link = ImpairedLink(ImpairmentConfig(
            seed=5, jitter_s=0.01, reorder_rate=0.3, reorder_depth=8))
        out = _collect(link, mbufs)
        stamps = [m.timestamp for m in out]
        assert stamps == sorted(stamps)
        assert link.ledger.delayed > 0

    def test_deterministic_per_seed(self):
        config = ImpairmentConfig(seed=11, loss_rate=0.1,
                                  corrupt_rate=0.1, duplicate_rate=0.1,
                                  reorder_rate=0.2)
        a = _collect(ImpairedLink(config), _mbufs(150))
        b = _collect(ImpairedLink(config), _mbufs(150))
        assert [(bytes(m.data), m.timestamp) for m in a] == \
            [(bytes(m.data), m.timestamp) for m in b]
        other = _collect(
            ImpairedLink(dataclasses.replace(config, seed=12)),
            _mbufs(150))
        assert [(bytes(m.data), m.timestamp) for m in a] != \
            [(bytes(m.data), m.timestamp) for m in other]

    def test_quarantine_drops_detectable_only(self):
        config = ImpairmentConfig(seed=2, corrupt_rate=0.3,
                                  quarantine=True)
        link = ImpairedLink(config)
        _collect(link, _mbufs(200))
        ledger = link.ledger
        assert ledger.corrupted > 0
        assert ledger.dropped["quarantine"] == ledger.corrupted
        ledger.check()

    def test_silent_corruption_evades_quarantine(self):
        config = ImpairmentConfig(seed=2, corrupt_rate=0.3,
                                  corrupt_silent=True, quarantine=True)
        link = ImpairedLink(config)
        out = _collect(link, _mbufs(200))
        ledger = link.ledger
        assert ledger.corrupted_silent == ledger.corrupted > 0
        assert ledger.dropped["quarantine"] == 0
        assert len(out) == 200

    def test_disable_and_repair_cycle(self):
        """A persistently corrupting link trips the disable threshold;
        frames during the repair window are shed and attributed; the
        link re-enables after repair_time."""
        config = ImpairmentConfig(seed=6, corrupt_rate=0.5,
                                  disable_threshold=3,
                                  disable_window=32,
                                  repair_time=0.02)
        link = ImpairedLink(config)
        _collect(link, _mbufs(400))
        ledger = link.ledger
        events = [e[2] for e in ledger.link_events]
        assert "disable" in events and "enable" in events
        assert ledger.dropped["link_disabled"] > 0
        assert ledger.per_link[0]["disables"] >= 1
        ledger.check()

    def test_per_link_attribution(self):
        mbufs = _mbufs(100, port=0) + _mbufs(100, port=1)
        mbufs.sort(key=lambda m: m.timestamp)
        link = ImpairedLink(ImpairmentConfig(seed=1, loss_rate=0.2))
        _collect(link, mbufs)
        per_link = link.ledger.per_link
        assert set(per_link) == {0, 1}
        for port in (0, 1):
            row = per_link[port]
            assert row["offered"] == 100
            assert row["offered"] == row["delivered"] + row["loss"]

    def test_record_then_replay_identical(self, tmp_path):
        path = tmp_path / "link.trace"
        model = ImpairmentConfig(seed=8, loss_rate=0.1,
                                 corrupt_rate=0.1, duplicate_rate=0.1,
                                 reorder_rate=0.2, record_path=str(path))
        recorded = _collect(ImpairedLink(model), _mbufs(150))
        # A different seed replaying the trace reproduces everything,
        # including the exact corrupted bits (content keys off the
        # trace's recorded seed).
        replay = ImpairmentConfig(seed=999, trace_path=str(path))
        replayed = _collect(ImpairedLink(replay), _mbufs(150))
        assert [(bytes(m.data), m.timestamp) for m in recorded] == \
            [(bytes(m.data), m.timestamp) for m in replayed]


class TestLedger:
    def test_conservation_check(self):
        ledger = ImpairmentLedger()
        ledger.record_offered(0, 100)
        ledger.record_offered(0, 100)
        ledger.record_delivered(0, 100)
        with pytest.raises(AssertionError):
            ledger.check()
        ledger.record_drop(0, 100, "loss")
        ledger.check()

    def test_to_dict_json_round_trip(self):
        link = ImpairedLink(ImpairmentConfig(seed=3, loss_rate=0.2,
                                             duplicate_rate=0.1))
        _collect(link, _mbufs(100))
        payload = link.ledger.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["offered"] == 100
        assert payload["config"]["loss_rate"] == 0.2

    def test_describe_mentions_goodput(self):
        link = ImpairedLink(ImpairmentConfig(seed=3, loss_rate=0.2))
        _collect(link, _mbufs(100))
        text = link.ledger.describe()
        assert "goodput" in text and "lost=" in text


IMPAIR = ImpairmentConfig(
    seed=7, loss_rate=0.05, burst=GilbertElliott(p=0.02, r=0.3),
    corrupt_rate=0.02, reorder_rate=0.05, duplicate_rate=0.02,
    jitter_s=0.0005, quarantine=True, disable_threshold=3,
    disable_window=64, repair_time=0.02)


class TestRuntimeIntegration:
    def test_disabled_is_byte_identical(self):
        base = _run(None)
        noop = _run(ImpairmentConfig(seed=9))
        assert noop.impairment is None
        assert base.stats.to_dict() == noop.stats.to_dict()

    def test_ledger_attached_and_balanced(self):
        report = _run(IMPAIR)
        assert report.impairment is not None
        check(report)
        assert report.impairment.delivered == \
            report.stats.ingress_packets

    def test_backend_parity_across_worker_counts(self):
        baseline = None
        for cores in (1, 2, 4):
            seq = _run(IMPAIR, cores=cores, parallel=False)
            par = _run(IMPAIR, cores=cores, parallel=True)
            assert seq.stats.to_dict() == par.stats.to_dict(), \
                f"backends diverged at {cores} cores"
            assert seq.impairment.to_dict() == par.impairment.to_dict()
            if baseline is None:
                baseline = seq.impairment.to_dict()
            else:
                # The link runs parent-side: the ledger cannot depend
                # on the worker count at all.
                assert seq.impairment.to_dict() == baseline
        check(par)

    def test_columnar_and_mbuf_paths_agree(self):
        col = _run(IMPAIR, columnar=True)
        row = _run(IMPAIR, columnar=False)
        assert col.impairment.to_dict() == row.impairment.to_dict()

    def test_overload_chain_balances(self):
        report = _run(IMPAIR, overload_policy="ladder")
        check(report)

    def test_export_families_render(self):
        from repro.telemetry.export import (impairment_lines,
                                            render_metrics)
        report = _run(IMPAIR)
        text = render_metrics(report)
        assert "repro_impair_offered_packets_total" in text
        assert 'cause="quarantine"' in text or \
            report.impairment.dropped["quarantine"] == 0
        assert "repro_impair_goodput_fraction" in text
        clean = render_metrics(_run(None))
        assert "repro_impair" not in clean
        lines = [json.loads(line) for line in
                 impairment_lines(report.impairment)]
        assert lines[0]["event"] == "totals"
        assert lines[-1]["event"] == "summary"
        assert lines[-1]["balanced"] is True

    def test_write_impairment_stream(self, tmp_path):
        from repro.telemetry.bundle import write_bundle
        from repro.telemetry.export import impairment_lines
        report = _run(IMPAIR)
        write_bundle(tmp_path, report)
        written = (tmp_path / "impairment.ndjson").read_text()
        assert written.splitlines() == \
            impairment_lines(report.impairment)
        assert written.count("\n") >= 2


class TestAdaptiveReassembly:
    def _pdu(self, seq, payload=b"d" * 8, ts=0.0):
        from repro.stream.pdu import L4Pdu
        return L4Pdu(mbuf=Mbuf(b"\x00" * 60, ts, 0), payload=payload,
                     seq=seq, flags=0x18, from_orig=True, timestamp=ts)

    def test_window_grows_instead_of_dropping(self):
        from repro.stream.reassembly import LazyReassembler
        reasm = LazyReassembler(capacity=2, adaptive=True,
                                max_capacity=16)
        reasm.push(self._pdu(0))
        # A hole at seq 8, then a deep out-of-order run that overflows
        # a fixed 2-slot ring.
        for i in range(2, 8):
            reasm.push(self._pdu(8 * i))
        assert reasm.orig.capacity > 2
        assert reasm.overflow_drops == 0
        assert reasm.orig.window_grows > 0
        # Filling the hole releases everything that was held.
        out = reasm.push(self._pdu(8))
        assert len(out) == 7

    def test_fixed_window_still_drops(self):
        from repro.stream.reassembly import LazyReassembler
        reasm = LazyReassembler(capacity=2, adaptive=False)
        reasm.push(self._pdu(0))
        for i in range(2, 8):
            reasm.push(self._pdu(8 * i))
        assert reasm.overflow_drops == 4

    def test_window_shrinks_after_inorder_streak(self):
        from repro.stream.reassembly import (ADAPTIVE_SHRINK_STREAK,
                                             LazyReassembler)
        reasm = LazyReassembler(capacity=64, adaptive=True,
                                min_capacity=4)
        for i in range(ADAPTIVE_SHRINK_STREAK + 1):
            reasm.push(self._pdu(8 * i))
        assert reasm.orig.capacity == 32
        assert reasm.orig.window_shrinks == 1

    def test_stats_sink_mirrors_counters(self):
        from types import SimpleNamespace
        from repro.stream.reassembly import LazyReassembler
        stats = SimpleNamespace(reasm_dup_segments=0,
                                reasm_overlap_segments=0,
                                reasm_stale_retransmits=0,
                                reasm_overflow_drops=0,
                                reasm_window_grows=0,
                                reasm_window_shrinks=0)
        reasm = LazyReassembler(capacity=2, adaptive=True,
                                max_capacity=8, stats=stats)
        reasm.push(self._pdu(0))
        for i in range(2, 6):
            reasm.push(self._pdu(8 * i))
        assert stats.reasm_window_grows == reasm.orig.window_grows > 0


class TestReassemblyDiscardAccounting:
    """Satellite: the previously silent discard paths are now counted
    and surfaced (dup retransmits, partial overlaps, stale held
    copies)."""

    def _pdu(self, seq, payload, ts=0.0):
        from repro.stream.pdu import L4Pdu
        return L4Pdu(mbuf=Mbuf(b"\x00" * 60, ts, 0), payload=payload,
                     seq=seq, flags=0x18, from_orig=True, timestamp=ts)

    def test_duplicate_counted(self):
        from repro.stream.reassembly import LazyReassembler
        reasm = LazyReassembler()
        reasm.push(self._pdu(0, b"abcd"))
        assert reasm.push(self._pdu(0, b"abcd")) == []
        assert reasm.dup_segments == 1

    def test_overlap_counted_and_tail_forwarded(self):
        from repro.stream.reassembly import LazyReassembler
        reasm = LazyReassembler()
        reasm.push(self._pdu(0, b"abcd"))
        out = reasm.push(self._pdu(2, b"cdEF"))
        assert [s.payload for s in out] == [b"EF"]
        assert reasm.overlap_segments == 1
        assert reasm.dup_segments == 0

    def test_stale_retransmit_counted(self):
        """A held out-of-order copy wholly superseded by a racing
        retransmit used to vanish without a trace."""
        from repro.stream.reassembly import LazyReassembler
        reasm = LazyReassembler()
        reasm.push(self._pdu(0, b"aaaa"))          # expected -> 4
        reasm.push(self._pdu(8, b"cccc"))          # held: hole at 4
        reasm.push(self._pdu(6, b"bb"))            # held: inside hole
        # A fat retransmit covers 4..12 in one segment: both held
        # copies are now redundant; 6 is wholly stale.
        out = reasm.push(self._pdu(4, b"bbccdddd"))
        assert b"".join(s.payload for s in out) == b"bbccdddd"
        assert reasm.stale_retransmits >= 1

    def test_counters_reach_aggregate_stats(self):
        report = _run(IMPAIR, ooo_adaptive=True)
        d = report.stats.to_dict()
        for key in ("reasm_dup_segments", "reasm_overlap_segments",
                    "reasm_stale_retransmits", "reasm_overflow_drops",
                    "reasm_window_grows", "reasm_window_shrinks"):
            assert key in d

    def test_funnel_table_mentions_discards(self):
        from repro.telemetry.funnel import funnel_table
        report = _run(None)
        stats = report.stats
        assert "reassembly discards" not in funnel_table(stats)
        stats.reasm_dup_segments = 3
        assert "reassembly discards" in funnel_table(stats)
        assert "dup=3" in funnel_table(stats)
