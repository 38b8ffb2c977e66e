"""Property-style fuzz for degraded-link scenarios (PR-8 satellite).

Seeded loss/reorder/duplication/corruption schedules drive the lazy
reassembler and the full conntrack pipeline; in every case the
reconstructed byte stream must match an in-order oracle exactly, and a
fixed impairment seed must produce byte-identical runs at 1, 2 and 4
workers on both backends.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime, RuntimeConfig
from repro.netem import GilbertElliott, ImpairmentConfig
from repro.packet.mbuf import Mbuf
from repro.stream import L4Pdu, LazyReassembler
from repro.telemetry import check
from repro.traffic import CampusTrafficGenerator


def _pdu(seq, payload, ts=0.0):
    return L4Pdu(mbuf=Mbuf(b"\x00" * 54 + payload, timestamp=ts),
                 payload=payload, seq=seq, flags=0x18, from_orig=True,
                 timestamp=ts)


def _schedule(seed, count=120):
    """A seeded impairment schedule over one TCP direction.

    Returns (arrivals, oracle): ``arrivals`` is the segment sequence
    as the receiver sees it — duplicates inserted, some segments
    displaced by bounded reordering, and every "lost" segment re-sent
    a few positions later (the retransmit model: unrecovered loss
    would legitimately leave a hole forever, so the schedule always
    heals). ``oracle`` is the byte stream a perfect in-order receiver
    reconstructs.
    """
    rng = Random(seed)
    segments = []
    seq = rng.randrange(1 << 32)
    for _ in range(count):
        payload = bytes(rng.randrange(256)
                        for _ in range(rng.randint(1, 9)))
        segments.append((seq, payload))
        seq = (seq + len(payload)) % (1 << 32)
    arrivals = []  # (slot, tie, seq, payload)
    tie = 0
    for i, (seg_seq, payload) in enumerate(segments):
        slot = i
        if rng.random() < 0.15:
            # Lost on the wire: only the retransmit arrives, later.
            slot = i + rng.randint(1, 12)
        elif rng.random() < 0.2:
            slot = i + rng.randint(1, 6)  # plain reordering
        arrivals.append((slot, tie, seg_seq, payload))
        tie += 1
        if rng.random() < 0.1:
            # Duplicate delivery (possibly displaced further).
            arrivals.append((slot + rng.randint(0, 4), tie, seg_seq,
                             payload))
            tie += 1
        if rng.random() < 0.08:
            # Spurious retransmit of an older segment.
            old_seq, old_payload = segments[rng.randrange(i + 1)]
            arrivals.append((slot + rng.randint(0, 4), tie, old_seq,
                             old_payload))
            tie += 1
    arrivals.sort()
    # Anchor the direction the way a real connection does (the SYN is
    # never displaced past its own data here): an empty segment at the
    # initial sequence number pins `expected` before any data arrives.
    arrivals.insert(0, (-1, -1, segments[0][0], b""))
    oracle = b"".join(payload for _, payload in segments)
    return arrivals, oracle


class TestReassemblerOracle:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_matches_oracle(self, seed):
        arrivals, oracle = _schedule(seed)
        reasm = LazyReassembler(capacity=8, adaptive=True,
                                max_capacity=512)
        out = []
        for _slot, _tie, seq, payload in arrivals:
            out.extend(reasm.push(_pdu(seq, payload)))
        assert b"".join(s.payload for s in out) == oracle
        assert reasm.overflow_drops == 0
        assert not reasm.has_hole

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_discards_are_accounted(self, seed):
        """Every arrival is either delivered (possibly trimmed) or
        lands in exactly one discard counter."""
        arrivals, oracle = _schedule(seed)
        reasm = LazyReassembler(capacity=8, adaptive=True,
                                max_capacity=512)
        delivered = 0
        for _slot, _tie, seq, payload in arrivals:
            delivered += len(reasm.push(_pdu(seq, payload)))
        discarded = (reasm.dup_segments + reasm.stale_retransmits)
        # Overlap-trimmed segments still deliver their tail, so they
        # are not pure discards; pure discards + deliveries must cover
        # every arrival that was not held-then-released.
        assert delivered + discarded + reasm.overlap_segments >= \
            len(arrivals) - reasm.ooo_events
        assert b"".join([]) == b"" if delivered == 0 else True

    def test_deterministic_for_fixed_seed(self):
        a_arrivals, _ = _schedule(4242)
        b_arrivals, _ = _schedule(4242)
        assert a_arrivals == b_arrivals


def _run(impairment, *, cores=2, parallel=False, datatype="connection",
         filter_str="tcp", duration=0.15):
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           impairment=impairment, ooo_adaptive=True)
    delivered = []
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=delivered.append)
    traffic = iter(CampusTrafficGenerator(seed=5).packets(
        duration=duration, gbps=0.05))
    report = runtime.run(traffic)
    return report, delivered


class TestConntrackUnderImpairment:
    def test_reorder_and_dup_do_not_change_sessions(self):
        """Reordering within the reassembler's reach and duplicate
        frames are absorbed: parsed sessions and delivered session
        payloads are identical to the clean run."""
        _, clean = _run(None, datatype="tls_handshake",
                        filter_str="tls")
        impair = ImpairmentConfig(seed=3, reorder_rate=0.25,
                                  reorder_depth=4, duplicate_rate=0.1)
        report, impaired = _run(impair, datatype="tls_handshake",
                                filter_str="tls")
        assert sorted(h.sni() for h in impaired) == \
            sorted(h.sni() for h in clean)
        assert len(clean) > 0
        check(report)

    def test_seeded_loss_keeps_books_balanced(self):
        impair = ImpairmentConfig(
            seed=9, burst=GilbertElliott(p=0.03, r=0.25),
            corrupt_rate=0.03, quarantine=True, duplicate_rate=0.05,
            reorder_rate=0.1)
        report, _ = _run(impair)
        ledger = report.impairment
        assert ledger.dropped_total > 0
        check(report)


FUZZ_IMPAIR = ImpairmentConfig(
    seed=21, loss_rate=0.03, burst=GilbertElliott(p=0.02, r=0.3),
    corrupt_rate=0.03, corrupt_silent=False, reorder_rate=0.1,
    reorder_depth=6, duplicate_rate=0.05, jitter_s=0.0003,
    quarantine=True, disable_threshold=4, disable_window=64,
    repair_time=0.02)


class TestWorkerCountDeterminism:
    def test_identical_at_1_2_4_workers(self):
        """The acceptance bar: a fixed impairment seed produces
        byte-identical aggregate stats and ledgers sequentially and in
        parallel at every worker count."""
        reference = None
        for cores in (1, 2, 4):
            seq, _ = _run(FUZZ_IMPAIR, cores=cores, parallel=False)
            par, _ = _run(FUZZ_IMPAIR, cores=cores, parallel=True)
            assert seq.stats.to_dict() == par.stats.to_dict(), \
                f"backends diverged at {cores} workers"
            assert seq.impairment.to_dict() == par.impairment.to_dict()
            check(seq)
            check(par)
            if reference is None:
                reference = seq.impairment.to_dict()
            else:
                assert seq.impairment.to_dict() == reference, \
                    f"impairment ledger varies with {cores} workers"

    def test_repeated_run_identical(self):
        a, _ = _run(FUZZ_IMPAIR)
        b, _ = _run(FUZZ_IMPAIR)
        assert a.stats.to_dict() == b.stats.to_dict()
        assert a.impairment.to_dict() == b.impairment.to_dict()
