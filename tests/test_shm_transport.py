"""Shared-memory ring transport (ISSUE 10; the only one since ISSUE 23).

Four layers under test:

- **Slot codec** — ``slot_write_mbufs`` / ``slot_read`` round-trip a
  burst's slot image inside a plain buffer or a shm slot (the same
  bytes either way: an oversize burst crosses the control queue as the
  private image), refuse oversize bursts instead of overrunning, and
  hand back zero-copy frame views.
- **Ring mechanics** — SPSC descriptor publication with lap-tag
  validation, credit-based slot recycling, and the never-overwrite-a-
  live-slot guarantee when the ring is smaller than the in-flight batch
  count (satellite: slot exhaustion + wraparound, 1/2/4 workers).
- **End-to-end determinism** — AggregateStats byte-identical to the
  sequential backend at 1/2/4 workers, with spans/tenancy/netem/overload
  riding the batches.
- **Failure edges** — an unusable ``/dev/shm`` is a
  ``ParallelExecutionError`` with a remedy, and a killed feeder leaves
  no worker and no segment behind.
"""

import glob
import json
import os
import signal
import struct
import subprocess
import sys
import time

import pytest

from repro import Runtime, RuntimeConfig
from repro.core import shm
from repro.core.parallel import ParallelExecutionError
from repro.errors import ConfigError
from repro.packet import Mbuf, build_tcp_packet
from repro.packet.batch import (
    SLOT_HEADER_BYTES,
    slot_image,
    slot_read,
    slot_write_mbufs,
)
from repro.traffic import CampusTrafficGenerator

pytestmark = pytest.mark.skipif(
    not shm.shm_available(),
    reason="multiprocessing.shared_memory unavailable")


@pytest.fixture(scope="module")
def traffic():
    return list(CampusTrafficGenerator(seed=21).packets(
        duration=0.4, gbps=0.1))


def _run(traffic, parallel=True, cores=4, filter_str="tcp",
         datatype="connection", **config_kwargs):
    config = RuntimeConfig(cores=cores, parallel=parallel,
                           **config_kwargs)
    runtime = Runtime(config, filter_str=filter_str, datatype=datatype,
                      callback=None)
    return runtime.run(iter(traffic))


# ---------------------------------------------------------------------------
# slot codec
# ---------------------------------------------------------------------------

def _rows(mbufs):
    return [(bytes(m.data), m.timestamp, m.port, m.queue) for m in mbufs]


class TestSlotCodec:
    def _mbufs(self, traffic, n=32):
        return traffic[:n]

    def test_mbuf_round_trip(self, traffic):
        mbufs = self._mbufs(traffic)
        buf = memoryview(bytearray(1 << 20))
        written = slot_write_mbufs(buf, 0, len(buf), mbufs, 3)
        assert written > SLOT_HEADER_BYTES
        out, ctx = slot_read(buf, 0)
        assert ctx is None
        assert len(out) == len(mbufs)
        for orig, view in zip(mbufs, out):
            assert bytes(view.data) == bytes(orig.data)
            assert view.timestamp == orig.timestamp
            assert view.port == orig.port
            assert view.queue == 3

    def test_private_image_matches_slot_image(self, traffic, tiny_channel):
        """A burst imaged into a private bytearray (how an oversize
        burst crosses the control queue) and straight into a shm slot
        is the same bytes, and reads back as the same mbufs and ctx."""
        mbufs = self._mbufs(traffic, 16)
        image = slot_image(mbufs, 0, (0, 5))
        n = len(image)
        assert tiny_channel.send_mbufs(mbufs, 0, (0, 5), _alive)
        slot = tiny_channel._buf[tiny_channel.layout.slot_offset(0):][:n]
        assert bytes(slot) == bytes(image)
        want, want_ctx = slot_read(image, 0)
        assert want_ctx == (0, 5)
        got, ctx = slot_read(slot, 0)
        assert (_rows(got), ctx) == (_rows(want), want_ctx)
        assert _rows(want) == _rows(
            [Mbuf(m.data, m.timestamp, m.port, 0) for m in mbufs])

    def test_trace_ctx_round_trip(self, traffic):
        mbufs = self._mbufs(traffic, 8)
        buf = memoryview(bytearray(1 << 20))
        slot_write_mbufs(buf, 0, len(buf), mbufs, 0, trace_ctx=(2, 17))
        _, ctx = slot_read(buf, 0)
        assert ctx == (2, 17)

    def test_oversize_burst_refused(self, traffic):
        mbufs = self._mbufs(traffic)
        buf = memoryview(bytearray(1 << 20))
        assert slot_write_mbufs(buf, 0, 128, mbufs, 0) == -1

    def test_offset_respected(self, traffic):
        mbufs = self._mbufs(traffic, 4)
        buf = memoryview(bytearray(1 << 20))
        canary = b"\xee" * 64
        buf[0:64] = canary
        written = slot_write_mbufs(buf, 64, 4096, mbufs, 0)
        assert written > 0
        assert bytes(buf[0:64]) == canary
        out, _ = slot_read(buf, 64)
        assert len(out) == 4

    def test_blob_is_zero_copy_view(self, traffic):
        mbufs = self._mbufs(traffic, 4)
        buf = memoryview(bytearray(1 << 20))
        slot_write_mbufs(buf, 0, len(buf), mbufs, 0)
        out, _ = slot_read(buf, 0)
        assert all(isinstance(m.data, memoryview) for m in out)
        assert out[0].data.obj is buf.obj

    def test_empty_batch(self):
        buf = memoryview(bytearray(4096))
        written = slot_write_mbufs(buf, 0, len(buf), [], 2)
        assert written == SLOT_HEADER_BYTES
        assert slot_read(buf, 0) == ([], None)

    def test_float64_timestamps_round_trip_exactly(self):
        stamps = [0.1 + 0.2, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
                  -0.0, 1234567.000000001]
        mbufs = [Mbuf(b"t", ts, 0) for ts in stamps]
        buf = bytearray(4096)
        slot_write_mbufs(buf, 0, len(buf), mbufs, 0)
        out, _ = slot_read(buf, 0)
        assert [struct.pack("<d", m.timestamp) for m in out] == \
            [struct.pack("<d", ts) for ts in stamps]


# ---------------------------------------------------------------------------
# ring mechanics (feeder channel against a simulated consumer)
# ---------------------------------------------------------------------------

def _alive():
    return True


class _SimConsumer:
    """Drives a ShmWorkerChannel against an in-process feeder so ring
    behavior is testable without real worker processes."""

    def __init__(self, feeder):
        self.chan = shm.ShmWorkerChannel(feeder.name,
                                         feeder.layout.ring_size,
                                         feeder.layout.slot_bytes)
        self.ordinal = 0
        self.batches = []

    def consume_one(self):
        kind, slot, rows = self.chan.wait_descriptor(self.ordinal)
        if kind == shm.KIND_BATCH:
            mbufs, _ctx = self.chan.read_batch(slot)
            # Copy out: the slot is recycled the moment we credit it.
            self.batches.append(([bytes(m.data) for m in mbufs], rows))
        self.ordinal += 1
        self.chan.mark_consumed(self.ordinal)
        return kind

    def close(self):
        self.chan.close()


@pytest.fixture
def tiny_channel():
    feeder = shm.ShmFeederChannel(0, shm.ShmLayout(2, 1 << 16))
    try:
        yield feeder
    finally:
        feeder.close()


class TestRingMechanics:
    def test_wraparound_many_laps(self, traffic, tiny_channel):
        """A 2-entry ring carries far more batches than its size; tags
        keep each lap's descriptors distinct and every payload lands
        intact and in order."""
        consumer = _SimConsumer(tiny_channel)
        try:
            sent = []
            for i in range(25):
                mbufs = traffic[i * 4:(i + 1) * 4]
                sent.append([bytes(m.data) for m in mbufs])
                assert tiny_channel.send_mbufs(mbufs, 0, None, _alive)
                consumer.consume_one()
            assert [payload for payload, _ in consumer.batches] == sent
        finally:
            consumer.close()

    def test_full_ring_blocks_feeder(self, traffic, tiny_channel):
        """With both slots in flight the feeder's capacity wait must
        trip (and be accounted), not overwrite a live slot."""
        consumer = _SimConsumer(tiny_channel)
        try:
            first = [bytes(m.data) for m in traffic[0:4]]
            second = [bytes(m.data) for m in traffic[4:8]]
            assert tiny_channel.send_mbufs(traffic[0:4], 0, None,
                                           _alive)
            assert tiny_channel.send_mbufs(traffic[4:8], 0, None,
                                           _alive)
            # Ring full: a dead-worker poll must surface, proving the
            # feeder waited instead of clobbering slot 0.
            with pytest.raises(shm.WorkerGone):
                tiny_channel.send_mbufs(traffic[8:12], 0, None,
                                        lambda: False)
            assert tiny_channel.slot_starvation_waits == 1
            assert tiny_channel.slot_starvation_seconds > 0
            # The in-flight payloads survived the blocked attempt.
            consumer.consume_one()
            consumer.consume_one()
            assert consumer.batches[0][0] == first
            assert consumer.batches[1][0] == second
            # Credits returned: the third burst now goes through.
            assert tiny_channel.send_mbufs(traffic[8:12], 0, None,
                                           _alive)
            consumer.consume_one()
            assert consumer.batches[2][0] == \
                [bytes(m.data) for m in traffic[8:12]]
        finally:
            consumer.close()

    def test_slot_recycled_only_after_credit(self, traffic,
                                             tiny_channel):
        """A consumed-but-uncredited descriptor keeps its slot out of
        the free pool."""
        assert tiny_channel.send_mbufs(traffic[0:2], 0, None,
                                       _alive)
        assert len(tiny_channel._free) == 1
        assert tiny_channel.send_mbufs(traffic[2:4], 0, None,
                                       _alive)
        assert len(tiny_channel._free) == 0
        consumer = _SimConsumer(tiny_channel)
        try:
            consumer.consume_one()
            tiny_channel._refresh_consumed()
            assert len(tiny_channel._free) == 1
        finally:
            consumer.close()

    def test_ctrl_and_sample_occupy_ring_order(self, tiny_channel,
                                               traffic):
        consumer = _SimConsumer(tiny_channel)
        try:
            assert tiny_channel.send_mbufs(traffic[0:2], 0, None,
                                           _alive)
            tiny_channel.send_sample(_alive)
            assert consumer.consume_one() == shm.KIND_BATCH
            assert consumer.consume_one() == shm.KIND_SAMPLE
            tiny_channel.send_ctrl(_alive)
            assert consumer.consume_one() == shm.KIND_CTRL
        finally:
            consumer.close()

    def test_ring_highwater_tracks_depth(self, tiny_channel, traffic):
        assert tiny_channel.ring_highwater == 0
        tiny_channel.send_mbufs(traffic[0:2], 0, None, _alive)
        tiny_channel.send_mbufs(traffic[2:4], 0, None, _alive)
        assert tiny_channel.ring_highwater == 2


# ---------------------------------------------------------------------------
# transport equivalence: the ring against the sequential backend
# ---------------------------------------------------------------------------

class TestTransportEquivalence:
    def test_shm_vs_queue_vs_sequential(self, traffic):
        for cores in (1, 2, 4):
            seq = _run(traffic, parallel=False,
                       cores=cores).stats.to_dict()
            par = _run(traffic, cores=cores).stats.to_dict()
            assert par == seq, f"ring diverged at {cores} cores"

    def test_tiny_ring_forces_starvation_and_stays_identical(
            self, traffic):
        """Slot exhaustion (satellite): a 2-deep ring at 1/2/4 workers
        blocks the feeder instead of corrupting batches."""
        for cores in (1, 2, 4):
            baseline = _run(traffic, parallel=False, cores=cores,
                            parallel_batch_size=32).stats.to_dict()
            par = _run(traffic, cores=cores, parallel_queue_depth=2,
                       parallel_batch_size=32).stats.to_dict()
            assert par == baseline, f"tiny ring diverged at {cores}"

    def test_oversize_batches_fall_back_to_ctrl(self):
        """Jumbo frames: eight ~9 KB frames overflow a 64 KiB slot, so
        full bursts cross the CTRL queue as their image and the run
        still matches byte-for-byte."""
        jumbo = []
        for flow in range(32):
            args = (f"10.0.{flow}.1", "10.1.0.1", 40000 + flow, 443)
            jumbo.append(build_tcp_packet(*args, seq=0, flags=0x02))
            jumbo += [build_tcp_packet(*args, payload=bytes(9000),
                                       seq=1 + 9000 * k)
                      for k in range(5)]
        # Interleave the flows so every queue fills bursts of eight.
        frames = [jumbo[flow * 6 + k] for k in range(6)
                  for flow in range(32)]
        traffic = [Mbuf(f, i * 1e-4) for i, f in enumerate(frames)]
        for cores in (1, 2, 4):
            baseline = _run(traffic, parallel=False, cores=cores,
                            parallel_batch_size=8).stats.to_dict()
            par = _run(traffic, cores=cores, parallel_batch_size=8,
                       telemetry=True)
            assert par.stats.to_dict() == baseline
            # Whole images crossed pickled, not 8-byte descriptors.
            assert par.backend_health["ipc_bytes_per_packet"] > 1000

    def test_spans_identical_across_transports(self, traffic):
        kwargs = dict(span_sample=1, flight_recorder_depth=4)
        for cores in (1, 2, 4):
            seq = _run(traffic, parallel=False, cores=cores, **kwargs)
            par = _run(traffic, cores=cores, **kwargs)
            assert par.stats.to_dict() == seq.stats.to_dict()
            assert par.spans is not None
            assert par.spans.to_dict() == seq.spans.to_dict()

    def test_netem_identical_across_transports(self, traffic):
        from repro.config import ImpairmentConfig

        impair = ImpairmentConfig(seed=7, loss_rate=0.05,
                                  reorder_rate=0.05,
                                  duplicate_rate=0.02)
        for cores in (1, 2, 4):
            seq = _run(traffic, parallel=False, cores=cores,
                       impairment=impair)
            par = _run(traffic, cores=cores, impairment=impair)
            assert par.stats.to_dict() == seq.stats.to_dict()
            assert par.impairment.to_dict() == seq.impairment.to_dict()

    def test_overload_identical_across_transports(self, traffic):
        kwargs = dict(filter_str="tcp", datatype="connection",
                      overload_policy="ladder",
                      overload_target_lag=0.0001)
        for cores in (1, 2, 4):
            seq = _run(traffic, parallel=False, cores=cores, **kwargs)
            par = _run(traffic, cores=cores, **kwargs)
            assert par.stats.to_dict() == seq.stats.to_dict()
            assert par.overload.to_dict() == seq.overload.to_dict()

    def test_tenancy_epoch_swap_across_transports(self, traffic):
        from repro.tenancy.runtime import TenantRuntime
        from repro.tenancy.spec import parse_reconfigure, \
            parse_subscriptions

        specs = parse_subscriptions(json.dumps({"tenants": [
            {"name": "alpha", "filter": "tcp",
             "datatype": "connection", "callback": "count"},
            {"name": "beta", "filter": "udp",
             "datatype": "packet", "callback": "count"},
        ]}))
        events = [parse_reconfigure("0.2:drop:beta")]

        def run(parallel, cores):
            config = RuntimeConfig(cores=cores, parallel=parallel)
            runtime = TenantRuntime(config, specs, events=events)
            return runtime.run(iter(traffic))

        for cores in (1, 2, 4):
            assert run(True, cores).stats.to_dict() == \
                run(False, cores).stats.to_dict()


# ---------------------------------------------------------------------------
# health + config + CLI surfaces
# ---------------------------------------------------------------------------

class TestHealthAndConfig:
    def test_backend_health_reports_shm(self, traffic):
        report = _run(traffic, cores=2, telemetry=True)
        health = report.backend_health
        assert health["transport"] == "shm"
        assert health["ring_size"] >= 1
        assert health["slot_bytes"] >= 4096
        assert "slot_starvation_seconds" in health
        for row in health["workers"]:
            assert "ring_highwater" in row
            assert "slot_starvation_waits" in row
        # Descriptor-only IPC: ~8 bytes per batch, far below one byte
        # per packet for any realistic batch size.
        assert 0 < health["ipc_bytes_per_packet"] < 2.0

    @pytest.mark.parametrize("cores", [1, 2])
    def test_backend_health_reports_cpu_seconds(self, traffic, cores):
        """The two costs the serial-stage ceiling is made of."""
        health = _run(traffic, cores=cores, telemetry=True).backend_health
        assert health["feeder_cpu_seconds"] > 0
        assert len(health["workers"]) == cores
        assert all(row["cpu_seconds"] > 0 for row in health["workers"])

    def test_prometheus_ring_families_gated(self, traffic, tmp_path):
        """Present on every parallel run, behind the volatile gate —
        so never in a bundle's ``metrics.prom``, whose manifest holds
        the same numbers."""
        from repro.telemetry.bundle import write_bundle
        from repro.telemetry.export import render_metrics

        report = _run(traffic, cores=2, telemetry=True)
        verbose = render_metrics(report, include_volatile=True)
        assert "repro_worker_ring_highwater" in verbose
        assert "repro_worker_slot_starvation_total" in verbose
        assert "repro_slot_starvation_seconds" in verbose
        assert "repro_worker_queue_highwater" not in verbose
        default = render_metrics(report)
        assert "repro_worker_ring_highwater" not in default
        assert "repro_slot_starvation_seconds" not in default
        health = write_bundle(tmp_path, report)["backend_health"]
        assert "slot_starvation_seconds" in health
        assert (tmp_path / "metrics.prom").read_text() == default

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(parallel_queue_depth=0)
        # A descriptor's slot field is 16 bits: depth 65,537 would map
        # slot 65,536 onto slot 0.
        for field in ("parallel_queue_depth", "parallel_batch_size"):
            with pytest.raises(ConfigError, match="16 bits"):
                RuntimeConfig(**{field: 0x10000})
            RuntimeConfig(**{field: 0xFFFF})

    def test_unusable_dev_shm_is_a_parallel_execution_error(
            self, traffic, monkeypatch):
        """No second transport: the error names the segments asked for
        and the remedy."""
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shm._shared_memory, "SharedMemory", refuse)
        layout = shm.default_layout(RuntimeConfig())
        with pytest.raises(ParallelExecutionError) as excinfo:
            _run(traffic, cores=2)
        message = str(excinfo.value)
        assert f"2 x {layout.total_bytes} bytes" in message
        assert "No space left on device" in message
        assert "without --parallel" in message

    def test_cli_ipc_smoke(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["--parallel", "2",
                   "--duration", "0.1", "--report-dir", str(tmp_path)])
        assert rc == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["ingress_packets"] > 0
        health = json.loads(
            (tmp_path / "manifest.json").read_text())["backend_health"]
        assert health["transport"] == "shm"


# ---------------------------------------------------------------------------
# a killed feeder leaves nothing behind
# ---------------------------------------------------------------------------

_FEEDER = """
import itertools, sys
from repro import Runtime, RuntimeConfig
from repro.traffic import CampusTrafficGenerator

mbufs = list(CampusTrafficGenerator(seed=21).packets(duration=0.2, gbps=0.1))
runtime = Runtime(RuntimeConfig(cores=2, parallel=True), filter_str="tcp",
                  datatype="connection", callback=None)

def endless():
    for n in itertools.count():
        if n == 1:
            print("feeding", flush=True)
        yield from mbufs

runtime.run(endless())
"""


def _children(pid):
    out = subprocess.run(["ps", "-o", "pid=", "--ppid", str(pid)],
                         capture_output=True, text=True).stdout
    return [int(p) for p in out.split()]


def _running(pid):
    """False once ``pid`` has exited (a zombie waiting for init to reap
    it has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.isdir("/dev/shm") or
                    not os.path.isdir("/proc/self"),
                    reason="needs /dev/shm and /proc")
def test_workers_do_not_outlive_a_killed_feeder():
    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))
    feeder = subprocess.Popen([sys.executable, "-c", _FEEDER], env=env,
                              stdout=subprocess.PIPE, text=True)
    workers, segments = [], []
    try:
        assert feeder.stdout.readline().strip() == "feeding"
        # The resource tracker is a child too; the workers are the forks.
        workers = _children(feeder.pid)
        assert len(workers) >= 2
        segments = glob.glob(f"/dev/shm/rpr{feeder.pid:x}c*")
        assert len(segments) == 2
        feeder.kill()
        feeder.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and (
                any(_running(pid) for pid in workers)
                or any(os.path.exists(path) for path in segments)):
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
        assert [path for path in segments if os.path.exists(path)] == []
    finally:
        feeder.kill()
        feeder.wait(timeout=10)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        for path in segments:
            if os.path.exists(path):
                os.unlink(path)
