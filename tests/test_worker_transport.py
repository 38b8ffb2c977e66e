"""The feeder→worker transport: one ordered pipe per worker.

Three layers under test:

- **Slot codec** — ``slot_write_mbufs`` / ``slot_read`` round-trip a
  burst's slot image (appended to a plain buffer, or by
  ``slot_image`` after the pipe's kind tag) and hand back zero-copy
  frame views.
- **End-to-end determinism** — AggregateStats byte-identical to the
  sequential backend at 1/2/4 workers, with spans/tenancy/netem/overload
  riding the bursts.
- **Failure edges** — a pipe the host refuses is a
  ``ParallelExecutionError`` with a remedy, and a killed feeder leaves
  no worker behind.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import time

import pytest

from repro import Runtime, RuntimeConfig
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
        buf = bytearray()
        written = slot_write_mbufs(buf, mbufs, 3)
        assert written == len(buf)
        assert written > SLOT_HEADER_BYTES
        out, ctx = slot_read(buf, 0)
        assert ctx is None
        assert len(out) == len(mbufs)
        for orig, view in zip(mbufs, out):
            assert bytes(view.data) == bytes(orig.data)
            assert view.timestamp == orig.timestamp
            assert view.port == orig.port
            assert view.queue == 3

    def test_private_image_matches_slot_image(self, traffic):
        """``slot_image`` holds the bytes ``slot_write_mbufs`` appends
        to a plain buffer, and they read back as the same mbufs and
        ctx."""
        mbufs = self._mbufs(traffic, 16)
        image = slot_image(mbufs, 0, (0, 5))
        buf = bytearray(b"prefix")
        assert slot_write_mbufs(buf, mbufs, 0, (0, 5)) == len(image)
        assert buf == b"prefix" + image
        got, ctx = slot_read(image, 0)
        assert ctx == (0, 5)
        assert _rows(got) == _rows(
            [Mbuf(m.data, m.timestamp, m.port, 0) for m in mbufs])

    def test_trace_ctx_round_trip(self, traffic):
        mbufs = self._mbufs(traffic, 8)
        buf = bytearray()
        slot_write_mbufs(buf, mbufs, 0, trace_ctx=(2, 17))
        _, ctx = slot_read(buf, 0)
        assert ctx == (2, 17)

    def test_head_precedes_image(self, traffic):
        """The pipe's kind tag goes first; the image after it is the
        tagless image, byte for byte."""
        mbufs = self._mbufs(traffic, 4)
        tagged = slot_image(mbufs, 0, None, b"\x07")
        assert tagged[:1] == b"\x07"
        assert tagged[1:] == slot_image(mbufs, 0)
        out, _ = slot_read(bytes(tagged), 1)
        assert _rows(out) == _rows(slot_read(tagged, 1)[0])
        assert len(out) == 4

    def test_blob_is_zero_copy_view(self, traffic):
        mbufs = self._mbufs(traffic, 4)
        buf = bytearray()
        slot_write_mbufs(buf, mbufs, 0)
        out, _ = slot_read(buf, 0)
        assert all(isinstance(m.data, memoryview) for m in out)
        assert out[0].data.obj is buf

    def test_empty_batch(self):
        buf = bytearray()
        written = slot_write_mbufs(buf, [], 2)
        assert written == SLOT_HEADER_BYTES
        assert slot_read(buf, 0) == ([], None)

    def test_float64_timestamps_round_trip_exactly(self):
        stamps = [0.1 + 0.2, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
                  -0.0, 1234567.000000001]
        mbufs = [Mbuf(b"t", ts, 0) for ts in stamps]
        buf = bytearray()
        slot_write_mbufs(buf, mbufs, 0)
        out, _ = slot_read(buf, 0)
        assert [struct.pack("<d", m.timestamp) for m in out] == \
            [struct.pack("<d", ts) for ts in stamps]


# ---------------------------------------------------------------------------
# transport equivalence: the pipes against the sequential backend
# ---------------------------------------------------------------------------

class TestTransportEquivalence:
    def test_pipe_vs_sequential(self, traffic):
        for cores in (1, 2, 4):
            seq = _run(traffic, parallel=False,
                       cores=cores).stats.to_dict()
            par = _run(traffic, cores=cores).stats.to_dict()
            assert par == seq, f"pipes diverged at {cores} cores"

    def test_jumbo_bursts_are_ordinary_bursts(self):
        """Eight ~9 KB frames a burst: each crosses its pipe as one
        72 KB image, larger than a default 64 KiB pipe, and the run
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
            # The frames crossed inside the images.
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
    def test_backend_health_reports_pipe(self, traffic):
        report = _run(traffic, cores=2, telemetry=True)
        health = report.backend_health
        assert health["transport"] == "pipe"
        assert health["feeder_block_seconds"] > 0
        assert set(health["workers"][0]) == {
            "worker", "batches", "packets", "ipc_bytes",
            "batch_occupancy_max", "cpu_seconds"}
        # Every frame (54 to 1,514 bytes here) crosses inside its
        # image, with 10 bytes of per-row columns (u16 length, f64
        # timestamp) and a share of the header.
        assert 64 < health["ipc_bytes_per_packet"] < 1600

    def test_batches_count_bursts_not_epoch_bumps(self, traffic,
                                                  monkeypatch):
        """Two scheduled swaps bump every worker's epoch twice: each
        worker's ``batches`` counts the bursts the loop dispatched to
        it and nothing else, and its ``ipc_bytes`` every byte of its
        bursts and bumps."""
        from repro.core.parallel import WorkerPool
        from repro.tenancy.runtime import TenantRuntime
        from repro.tenancy.spec import parse_reconfigure, \
            parse_subscriptions

        bursts, sent = [0, 0], [0, 0]
        burst, send = WorkerPool._burst, WorkerPool._send

        def counted_burst(pool, queue, rows):
            bursts[queue] += 1
            return burst(pool, queue, rows)

        def counted_send(pool, core_id, message):
            if message[0] in (0, 2):  # a burst's image, an epoch bump
                sent[core_id] += len(message)
            send(pool, core_id, message)

        monkeypatch.setattr(WorkerPool, "_burst", counted_burst)
        monkeypatch.setattr(WorkerPool, "_send", counted_send)
        specs = parse_subscriptions(json.dumps({"tenants": [
            {"name": "alpha", "filter": "tcp", "datatype": "connection"},
            {"name": "beta", "filter": "udp", "datatype": "packet"},
        ]}))
        events = [parse_reconfigure("0.1:drop:beta"),
                  parse_reconfigure("0.2:add:beta")]
        runtime = TenantRuntime(
            RuntimeConfig(cores=2, parallel=True, telemetry=True), specs,
            events=events)
        workers = runtime.run(iter(traffic)).backend_health["workers"]
        assert [row["batches"] for row in workers] == bursts
        assert sum(bursts) > 2
        assert [row["ipc_bytes"] for row in workers] == sent

    @pytest.mark.parametrize("cores", [1, 2])
    def test_backend_health_reports_cpu_seconds(self, traffic, cores):
        """The two costs the serial-stage ceiling is made of."""
        health = _run(traffic, cores=cores, telemetry=True).backend_health
        assert health["feeder_cpu_seconds"] > 0
        assert len(health["workers"]) == cores
        assert all(row["cpu_seconds"] > 0 for row in health["workers"])

    def test_prometheus_health_families_gated(self, traffic, tmp_path):
        """Present on every parallel run, behind the volatile gate —
        so never in a bundle's ``metrics.prom``, whose manifest holds
        the same numbers."""
        from repro.telemetry.bundle import write_bundle
        from repro.telemetry.export import render_metrics

        report = _run(traffic, cores=2, telemetry=True)
        verbose = render_metrics(report, include_volatile=True)
        assert "repro_worker_batch_occupancy_max" in verbose
        assert "repro_feeder_block_seconds" in verbose
        assert "repro_worker_ring_highwater" not in verbose
        assert "repro_slot_starvation_seconds" not in verbose
        default = render_metrics(report)
        assert "repro_worker_batch_occupancy_max" not in default
        assert "repro_feeder_block_seconds" not in default
        health = write_bundle(tmp_path, report)["backend_health"]
        assert "feeder_block_seconds" in health
        assert (tmp_path / "metrics.prom").read_text() == default

    def test_config_validation(self):
        with pytest.raises(ConfigError, match=">= 1"):
            RuntimeConfig(parallel_batch_size=0)
        # The image header holds a burst's rows as u32.
        RuntimeConfig(parallel_batch_size=0x10000)
        with pytest.raises(TypeError):
            RuntimeConfig(parallel_queue_depth=8)

    def test_refused_pipe_is_a_parallel_execution_error(
            self, traffic, monkeypatch):
        """No second transport: the error names the core whose pipe
        the host refused, and the remedy; no worker is left."""
        import multiprocessing as mp

        def refuse(*args, **kwargs):
            raise OSError(24, "Too many open files")

        ctx = mp.get_context("fork" if "fork" in
                             mp.get_all_start_methods() else None)
        monkeypatch.setattr(ctx, "Pipe", refuse)
        with pytest.raises(ParallelExecutionError) as excinfo:
            _run(traffic, cores=2)
        assert excinfo.value.core_id == 0
        message = str(excinfo.value)
        assert "cannot create worker 0's pipe" in message
        assert "Too many open files" in message
        assert "without --parallel" in message
        assert [p for p in mp.active_children()
                if p.name.startswith("repro-core-")] == []

    def test_cli_ipc_smoke(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["--parallel", "2",
                   "--duration", "0.1", "--report-dir", str(tmp_path)])
        assert rc == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["ingress_packets"] > 0
        health = json.loads(
            (tmp_path / "manifest.json").read_text())["backend_health"]
        assert health["transport"] == "pipe"


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


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_do_not_outlive_a_killed_feeder():
    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))
    feeder = subprocess.Popen([sys.executable, "-c", _FEEDER], env=env,
                              stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        assert feeder.stdout.readline().strip() == "feeding"
        # The resource tracker is a child too; the workers are the forks.
        workers = _children(feeder.pid)
        assert len(workers) >= 2
        feeder.kill()
        feeder.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(
                _running(pid) for pid in workers):
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        feeder.kill()
        feeder.wait(timeout=10)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
