"""What one tracked-but-idle flow costs in live Python bytes, what one
lone SYN's whole life costs in Python calls, and what one delivery on
the §5.1 fast path costs in Python calls (the last two tests).

A scan is the population the two-tier timers exist for (paper §5.2:
65 % of campus connections are single unanswered SYNs), and every SYN
of one leaves state in the connection table, the timer wheel and the
NIC's hash memo until its establishment timer fires. This measures all
of it at once — ``tracemalloc`` over ``Runtime.run``, read when the
trace is exhausted and nothing has been drained — and divides by the
connections tracked at that moment.

The scan is 10,000 flows, not fewer, so that it outgrows the NIC memo
(8,192 entries, ~113 B each): below that bound the memo is still one
more per-flow cost; beyond it the memo is what it is meant to be, a
bounded cache. The parent of the change that added this test read
~1,170 B here (~1,250 B at the ``scan_conn`` benchmark's 25,000 flows).
A connection keyed by a tuple of five objects read ~624 B; keyed by one
packed 13-byte ``bytes`` it reads ~475 B (Python 3.11).
"""

import gc
import os
import sys
import tracemalloc

import repro
from repro import Runtime, RuntimeConfig
from repro.conntrack import Connection
from repro.conntrack.five_tuple import pack_key
from repro.core.datatypes import ConnectionRecord
from repro.packet import Mbuf
from repro.traffic import CampusProfile, CampusTrafficGenerator

FLOWS = 10_000
MAX_BYTES_PER_CONN = 520

SYNS = 2_000
MAX_CALLS_PER_SYN = 25.2

CONNECTIONS = 400
MAX_CALLS_PER_DELIVERY = 5.3
CYCLES_PY = os.path.join(os.path.dirname(repro.__file__), "core",
                         "cycles.py")


def test_single_syn_flow_costs_at_most_520_live_bytes():
    profile = CampusProfile(tcp_fraction=1.0, single_syn_fraction=1.0)
    rows = [(bytes(m.data), m.timestamp, m.port)
            for m in CampusTrafficGenerator(7, profile).connections(
                FLOWS, duration=0.4)]
    assert len(rows) == FLOWS
    runtime = Runtime(RuntimeConfig(cores=1), filter_str="tcp",
                      datatype="connection", callback=None)
    table = runtime.pipelines[0].solo.table
    memo = runtime.nic._hash_cache
    seen = {"memo_peak": 0}

    def source():
        for data, timestamp, port in rows:
            seen["memo_peak"] = max(seen["memo_peak"], len(memo))
            yield Mbuf(data, timestamp, port)
        # Trace exhausted, last burst still pending, nothing drained.
        gc.collect()
        seen["live_bytes"] = tracemalloc.get_traced_memory()[0] - baseline
        seen["conns"] = len(table)
        # Nothing a single SYN never used was built for it.
        seen["lean"] = all(
            conn._five_tuple is None
            and type(conn.key) is bytes and len(conn.key) in (13, 37)
            and conn.history == "S"
            and conn.weirds == {} and not isinstance(conn.weirds, dict)
            and conn.buffered_mbufs == ()
            and not isinstance(conn.buffered_mbufs, list)
            and conn.timer_establish is not None
            and conn.timer_inactive is None
            for conn in table)

    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        report = runtime.run(source())
    finally:
        tracemalloc.stop()
    assert report.stats.conns_created == FLOWS

    assert seen["conns"] > 0.95 * FLOWS  # all but the pending burst
    per_conn = seen["live_bytes"] / seen["conns"]
    assert per_conn <= MAX_BYTES_PER_CONN, (
        f"{per_conn:.0f} live bytes per tracked connection")
    assert seen["lean"]

    # The memo filled, emptied itself, and never outgrew its bound.
    assert memo.size == 8192
    assert seen["memo_peak"] <= memo.size
    assert len(memo) <= FLOWS - memo.size


def test_five_tuple_materialises_once_and_records_do_not_cache():
    key = pack_key(b"\x0a\x00\x00\x01", 443, b"\x0a\x00\x00\x02", 50000, 6)
    conn = Connection(key, orig_first=False, now=0.0)
    record = ConnectionRecord.from_connection(conn)
    assert conn._five_tuple is None
    assert (record.five_tuple.src_port, record.five_tuple.dst_port) == \
        (50000, 443)
    tup = conn.five_tuple
    assert tup is conn.five_tuple and tup == record.five_tuple
    assert tup.canonical() is key


def test_single_syn_flow_costs_at_most_26_python_calls():
    """What one lone SYN costs in Python function calls inside
    ``repro``, over its whole life: NIC hash miss, conntrack insert and
    arming, first packet, and the record delivered at drain. The count
    is deterministic for a fixed trace (like ``TestNoReparse``), so it
    is a budget, not a timing: 2,000 SYNs at ``scan_conn``'s rate
    through ``tcp -> connection``, ``call`` events counted with
    ``sys.setprofile`` while ``Runtime.run`` runs.

    The tree before the change that added this test made 66,241 calls
    here (33.1 per SYN, Python 3.11); it made 52,204 (26.1), and 50,210
    (25.1) once a delivery stopped charging the cycle ledger. Newer
    Pythons inline comprehensions and only count fewer.
    """
    profile = CampusProfile(tcp_fraction=1.0, single_syn_fraction=1.0)
    mbufs = [Mbuf(bytes(m.data), m.timestamp, m.port)
             for m in CampusTrafficGenerator(7, profile).connections(
                 SYNS, duration=0.2)]
    report, calls, _ = _count_calls(
        Runtime(RuntimeConfig(cores=1), "tcp", "connection"), mbufs)
    assert report.stats.conns_created == report.stats.callbacks == SYNS
    assert calls <= MAX_CALLS_PER_SYN * SYNS, (
        f"{calls / SYNS:.2f} Python calls per single-SYN flow")


def test_fast_path_delivery_costs_at_most_5_3_python_calls():
    """What one packet costs in Python calls inside ``repro`` on the
    §5.1 fast path — match-all filter, packet subscription: decode,
    NIC, packet filter, delivery — and that none of them is a cycle
    ledger charge: the ledger prices ``packets`` and ``callbacks``, the
    counts the pipeline keeps anyway, so ``core/cycles.py`` runs only a
    fixed handful of calls per run (construction, the report).

    The tree before the change that added this test made 6.29 calls
    per packet here, 1.00 of them into ``core/cycles.py`` (26,350
    frames, Python 3.11); it makes 5.29, and 95 calls into
    ``core/cycles.py`` per run.
    """
    mbufs = [Mbuf(bytes(m.data), m.timestamp, m.port)
             for m in CampusTrafficGenerator(7).connections(
                 CONNECTIONS, duration=0.2)]
    report, calls, ledger_calls = _count_calls(
        Runtime(RuntimeConfig(cores=1), "", "packet"), mbufs)
    packets = len(mbufs)
    assert report.stats.callbacks == packets
    assert calls <= MAX_CALLS_PER_DELIVERY * packets, (
        f"{calls / packets:.2f} Python calls per delivered packet")
    assert ledger_calls / packets < 0.005, (
        f"{ledger_calls / packets:.2f} calls into core/cycles.py per "
        f"delivered packet")


def _count_calls(runtime, mbufs):
    """``runtime.run(mbufs)``'s report, with the Python calls it made
    inside ``repro`` and those of them into ``core/cycles.py``."""
    package = os.path.dirname(repro.__file__) + os.sep
    calls = ledger_calls = 0

    def count(frame, event, _arg):
        nonlocal calls, ledger_calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(package):
                calls += 1
                ledger_calls += filename == CYCLES_PY

    sys.setprofile(count)
    try:
        report = runtime.run(iter(mbufs))
    finally:
        sys.setprofile(None)
    return report, calls, ledger_calls
