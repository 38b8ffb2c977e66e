"""Measure one workload in this process. ``run.py`` starts one of these
per workload (``PYTHONHASHSEED=0``, own process group, watchdog) and
reads the JSON object this prints as its last line.

Order: set-up (generate + construct, ``--setups`` times), one untimed
reference run, one warm-up, the timed repetitions, then — only when
asked — one repetition under ``cProfile``. The traced repetition never
feeds an end-to-end metric.

Timing. The sandbox this runs on slows by up to 1.6x for tens of
milliseconds to minutes at a time (neighbours on the host), so the
median of one-second repetitions moves 15-40 % between runs of the same
code. What repeats is the fastest the machine ran each piece of the
work. So every repetition is timed in slices of a few thousand packets
(the traffic source reads the clocks as the runtime pulls from it), and
a timing's value is the sum, over slices, of the fastest any repetition
took for that slice: 2-5 % between runs. The per-repetition median and
quartiles are reported next to it.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.core.cycles import Stage
from repro.packet.mbuf import Mbuf

import layers
from workloads import BY_NAME, Workload, tenant_stats

#: Timed repetitions a ``--seconds`` run makes at the least, so that
#: quartiles exist on a slow host.
MIN_REPS = 3
#: ``campus_conn_par`` makes one sequential repetition per this many
#: parallel ones when the layer ratio is wanted.
SEQ_EVERY = 3


class Spans:
    """Harness-side spans: name, start, end, parent. Kept in memory and
    handed to ``run.py`` with the result."""

    def __init__(self) -> None:
        self.rows: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        row = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None}
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()


def _children_cpu() -> float:
    """User + system CPU of the children this process has waited for
    (the parallel backend joins its workers inside run())."""
    u = resource.getrusage(resource.RUSAGE_CHILDREN)
    return u.ru_utime + u.ru_stime


def _peak_rss_mib() -> float:
    return sum(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _digest(stats, tenants: Dict) -> str:
    """Everything deterministic a run reports, as one hash."""
    blob = json.dumps(
        {"stats": stats.to_dict(),
         "tenants": {name: t.to_dict() for name, t in tenants.items()}},
        sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def check(workload: Workload, stats, tenants: Dict, offered: int,
          scale: int, digest: str, reference_digest: Optional[str]
          ) -> List[str]:
    """What is wrong with this run's output; empty when it is correct."""
    wrong = []
    if stats.ingress_packets != offered:
        wrong.append(f"ingress {stats.ingress_packets} != offered "
                     f"{offered}")
    # Every tenant sees the whole link, so packets are conserved per
    # tenant; the aggregate sums their processed counts.
    for name, view in (tenants or {"run": stats}).items():
        fates = (view.processed_packets + view.hw_dropped_packets
                 + view.sink_dropped_packets)
        if fates != view.ingress_packets:
            wrong.append(
                f"{name}: processed + hw_dropped + sink_dropped = "
                f"{fates} != ingress {view.ingress_packets}")
    for label, holds in workload.known:
        if not holds(stats, offered, scale):
            wrong.append(f"generator-known count broken: {label}")
    if reference_digest is not None and digest != reference_digest:
        wrong.append("stats digest differs from the reference run")
    return wrong


class Rep:
    """One repetition over fresh ``Mbuf``s built outside the timed
    region, so no parse memo or queue stamp survives from the last."""

    def __init__(self, workload: Workload, rows, scale: int, spans: Spans,
                 reference_digest: Optional[str] = None) -> None:
        self.workload = workload
        self.rows = rows
        self.scale = scale
        self.spans = spans
        self.reference_digest = reference_digest
        #: Wall and own-process CPU seconds per slice of the trace.
        self.wall_slices: List[float] = []
        self.cpu_slices: List[float] = []
        self.children_cpu = 0.0
        self.failures: List[str] = []
        # What outlives the run: the report's numbers, never the runtime
        # (a kept conntrack table per repetition would grow the heap
        # that the next repetition's collector has to walk).
        self.stats = None
        self.health: Dict = {}
        self.tenants: Dict = {}
        self.digest: Optional[str] = None

    @property
    def wall(self) -> float:
        return sum(self.wall_slices)

    @property
    def cpu(self) -> float:
        return sum(self.cpu_slices) + self.children_cpu

    def _source(self, mbufs, stamps):
        """The traffic, reading both clocks at every slice boundary the
        runtime pulls across."""
        step = self.workload.slice_pkts
        for start in range(0, len(mbufs), step):
            if start:
                stamps.append((time.perf_counter(), time.process_time()))
            yield from mbufs[start:start + step]

    def run(self, profile: Optional[cProfile.Profile] = None,
            **build) -> "Rep":
        mbufs = [Mbuf(data, ts, port) for data, ts, port in self.rows]
        try:
            with self.spans.span("construct"):
                runtime = self.workload.build(**build)
            gc.collect()
            with self.spans.span("run"):
                children0 = _children_cpu()
                stamps = [(time.perf_counter(), time.process_time())]
                if profile is not None:
                    profile.enable()
                try:
                    report = runtime.run(self._source(mbufs, stamps))
                finally:
                    if profile is not None:
                        profile.disable()
                stamps.append((time.perf_counter(), time.process_time()))
                self.children_cpu = _children_cpu() - children0
            self.wall_slices = [b[0] - a[0]
                                for a, b in zip(stamps, stamps[1:])]
            self.cpu_slices = [b[1] - a[1]
                               for a, b in zip(stamps, stamps[1:])]
            with self.spans.span("digest"):
                self.stats = report.stats
                self.health = report.backend_health or {}
                self.tenants = tenant_stats(runtime, report)
                self.digest = _digest(self.stats, self.tenants)
                self.failures = check(
                    self.workload, self.stats, self.tenants,
                    len(self.rows), self.scale, self.digest,
                    self.reference_digest)
        except Exception:  # a failed repetition is a result, not a crash
            self.failures = [traceback.format_exc(limit=8)]
        return self


def fastest(reps: List[Rep], slices) -> float:
    """Seconds for the whole trace at the fastest any of ``reps`` took
    for each slice of it."""
    return sum(map(min, zip(*map(slices, reps))))


def fastest_wall(reps: List[Rep]) -> float:
    return fastest(reps, lambda r: r.wall_slices)


def fastest_cpu(reps: List[Rep]) -> float:
    return fastest(reps, lambda r: r.cpu_slices) \
        + min(r.children_cpu for r in reps)


def _timing(estimate, reps: List[Rep], per_rep: List[float],
            unit: str) -> Dict:
    """A timing's value over all repetitions, with what says how far to
    trust it: the per-repetition median and quartiles, n, and how far
    the odd and the even repetitions' own values are apart."""
    value = estimate(reps)
    out = {"value": value, "unit": unit, "n": len(reps),
           "median": statistics.median(per_rep), "samples": per_rep}
    if len(reps) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(per_rep, n=4)
        out["split"] = abs(estimate(reps[0::2]) - estimate(reps[1::2])) \
            / value
    return out


def _summary(values: List[float], unit: str) -> Dict:
    """Median, quartiles and n of a timing that cannot be sliced."""
    median = statistics.median(values)
    out = {"value": median, "unit": unit, "n": len(values),
           "median": median, "samples": values}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _exact(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: List[Rep], offered: int, setup: Dict,
               peak_rss: float) -> Dict[str, Dict]:
    return {
        "pkts_per_s": _timing(
            lambda rs: offered / fastest_wall(rs), reps,
            [offered / r.wall for r in reps], "pkts/s"),
        "cpu_us_per_pkt": _timing(
            lambda rs: fastest_cpu(rs) * 1e6 / offered, reps,
            [r.cpu * 1e6 / offered for r in reps], "us"),
        "zero_loss_gbps": _exact(
            reps[0].stats.max_zero_loss_gbps(), "Gbit/s"),
        "peak_rss_mb": _exact(peak_rss, "MiB"),
        "setup_s": setup,
    }


def per_layer(traced: Rep, profile, reps: List[Rep],
              seq_reps: List[Rep], rows, generate_s: float
              ) -> Dict[str, Dict]:
    offered = len(rows)
    stats = traced.stats
    ingress = stats.ingress_packets or 1
    out: Dict[str, Dict] = {}
    buckets = layers.bucket(profile)
    whole = sum(b["self_s"] for b in buckets.values())
    for layer, b in buckets.items():
        out[f"{layer}.self_share"] = _exact(b["self_s"] / whole, "ratio")
        out[f"{layer}.self_us_per_pkt"] = _exact(
            b["self_s"] * 1e6 / offered, "us")
        out[f"{layer}.calls_per_pkt"] = _exact(b["calls"] / offered,
                                               "count")

    inv = stats.stage_invocations
    out["nic.hw_drop_share"] = _exact(
        stats.hw_dropped_packets / ingress, "ratio")
    out["conntrack.inserts_per_kpkt"] = _exact(
        stats.conns_created * 1000.0 / ingress, "count")
    software = ingress - stats.hw_dropped_packets \
        - stats.sink_dropped_packets
    out["conntrack.pkts_per_conn"] = _exact(
        software / stats.conns_created if stats.conns_created else 0.0,
        "count")
    out["conntrack.peak_live_conns"] = _exact(
        stats.peak_live_connections, "count")
    out["conntrack.peak_state_bytes"] = _exact(
        stats.peak_memory_bytes, "bytes")
    out["stream.reasm_share"] = _exact(
        inv[Stage.REASSEMBLY] / ingress, "ratio")
    out["protocols.parse_share"] = _exact(
        inv[Stage.PARSING] / ingress, "ratio")
    out["protocols.sessions_parsed"] = _exact(stats.sessions_parsed,
                                              "count")
    out["core.pipeline.callbacks_per_kpkt"] = _exact(
        stats.callbacks * 1000.0 / ingress, "count")
    out["tenancy.deliveries_per_pkt"] = _exact(
        sum(t.callbacks for t in traced.tenants.values()) / ingress,
        "count")

    wall = fastest_wall(reps)
    health = traced.health
    workers = [w["packets"] for w in health.get("workers", [])]
    out["core.parallel.par_over_seq"] = _exact(
        fastest_wall(seq_reps) / wall if seq_reps else 0.0, "ratio")
    out["core.parallel.feeder_block_share"] = _exact(
        health.get("feeder_block_seconds", 0.0) / traced.wall, "ratio")
    out["core.parallel.ipc_bytes_per_pkt"] = _exact(
        health.get("ipc_bytes_per_packet", 0.0), "bytes")
    out["core.parallel.worker_pkt_skew"] = _exact(
        max(workers) * len(workers) / sum(workers)
        if sum(workers) else 0.0, "ratio")
    out["core.parallel.cpu_over_wall"] = _exact(
        fastest_cpu(reps) / wall if workers else 0.0, "ratio")
    out["core.shm.ring_highwater"] = _exact(
        health.get("ring_highwater", 0), "count")
    out["core.shm.slot_starvation_waits"] = _exact(
        health.get("slot_starvation_waits", 0), "count")

    out["core.cycles.cycles_per_pkt"] = _exact(
        stats.cycles_per_ingress_packet, "cycles")
    for stage in Stage:
        out[f"core.cycles.{stage.value}_cycles_per_pkt"] = _exact(
            stats.stage_cycles[stage] / ingress, "cycles")

    # The generators run in set-up only, so their cost is a span of the
    # harness, not a share of the traced repetition.
    out["traffic.gen_us_per_pkt"] = _exact(generate_s * 1e6 / offered,
                                           "us")
    out["traffic.pkts"] = _exact(offered, "count")
    out["traffic.mean_pkt_bytes"] = _exact(
        sum(len(row[0]) for row in rows) / offered, "bytes")

    # How far to trust the rest: the profiler's cost over the median
    # untraced repetition, and how far whole repetitions scatter.
    median = statistics.median(r.wall for r in reps)
    q1, _, q3 = statistics.quantiles([r.wall for r in reps], n=4)
    out["bench.trace_overhead_x"] = _exact(traced.wall / median, "ratio")
    out["bench.rep_iqr_share"] = _exact((q3 - q1) / median, "ratio")
    return out


def measure(args) -> Dict:
    startup_s = time.time() - args.spawned_at
    workload = BY_NAME[args.workload]
    scale = args.scale
    spans = Spans()

    # Set-up: what must happen before the first packet can be timed.
    setup_samples = []
    for _ in range(args.setups):
        rows = None  # two traces alive at once would double peak RSS
        start = time.perf_counter()
        with spans.span("generate") as generate:
            rows = workload.trace(args.seed, scale)
        with spans.span("construct"):
            workload.build()
        setup_samples.append(time.perf_counter() - start)
    offered = len(rows)

    new_rep = functools.partial(Rep, workload, rows, scale, spans)
    with spans.span("reference"):
        reference = new_rep().run(reference=True)
    reference_failures = list(reference.failures)
    if args.break_oracle:
        reference.digest = "0" * 64

    with spans.span("warmup"):
        start = time.perf_counter()
        new_rep().run()
        warmup_s = time.perf_counter() - start
    setup = _summary(setup_samples, "s")
    for key in ("value", "median", "q1", "q3"):
        if key in setup:
            setup[key] += startup_s + warmup_s

    want_layers = args.trace != 0
    reps: List[Rep] = []
    seq_reps: List[Rep] = []
    deadline = None if args.seconds is None \
        else time.perf_counter() + args.seconds

    def more() -> bool:
        if deadline is None:
            return len(reps) < args.reps
        return len(reps) < MIN_REPS or time.perf_counter() < deadline

    while more():
        reps.append(new_rep(reference.digest).run())
        if workload.parallel and want_layers \
                and len(reps) % SEQ_EVERY == 0:
            seq_reps.append(
                new_rep(reference.digest).run(sequential=True))
    peak_rss = _peak_rss_mib()

    failures = [f"reference run: {f}" for f in reference_failures]
    failed = 0
    for i, rep in enumerate(reps + seq_reps):
        if rep.failures or reference_failures:
            failed += 1
        failures.extend(f"rep {i}: {f}" for f in rep.failures)
    attempted = len(reps) + len(seq_reps)

    result = {
        "workload": workload.name,
        "packets": offered,
        "W": workload.cores() if workload.parallel else None,
        "reps": len(reps),
        "end_to_end": None,
        "per_layer": None,
    }
    # Timings come from every repetition that ran to the end; one that
    # broke an oracle is still counted as failed above.
    reps = [r for r in reps if r.stats is not None]
    seq_reps = [r for r in seq_reps if r.stats is not None]
    if reps:
        result["end_to_end"] = end_to_end(reps, offered, setup, peak_rss)
    if reps and want_layers:
        profile = cProfile.Profile()
        with spans.span("traced"):
            traced = new_rep(reference.digest).run(profile,
                                                   telemetry=True)
        attempted += 1
        if traced.failures:
            failed += 1
            failures.extend(f"traced rep: {f}" for f in traced.failures)
        else:
            result["per_layer"] = per_layer(
                traced, profile, reps, seq_reps, rows,
                generate["end"] - generate["start"])
    result.update(attempted=attempted, failed=failed, failures=failures,
                  spans=spans.rows)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=BY_NAME)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        required=True, help="1: add the traced repetition "
                        "and the per-layer metrics")
    parser.add_argument("--spawned-at", type=float, default=time.time())
    # Self-test: a wrong oracle must turn every repetition into a failure.
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
