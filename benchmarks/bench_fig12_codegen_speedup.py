"""Figure 12 / Appendix B — speedup from compiled filter code.

The paper replays four Stratosphere "normal user" traces in offline
mode on one core (no hardware filtering), logging TLS handshakes, and
compares natively generated filter code against runtime-interpreted
filters across filters of increasing complexity. Measured speedups
range 5.4%-300.4%, growing with filter complexity.

This is the one benchmark where the *real* execution time of this
Python implementation is the measurement (both backends do identical
semantic work; only the execution strategy differs — exactly the
paper's variable), so it uses wall-clock timing rather than the
virtual cycle ledger.

What is measured is what Appendix B varies: the packet sub-filter's own
execution, compiled against interpreted, both ways the pipeline runs it
— ``packet_filter(mbuf)`` over parsed stacks (slow rows, filters with no
batch form) and ``packet_filter_batch(cols)`` over decoded 256-row
bursts (fast rows). Each trace is cut into 256-packet slices, every
slice is timed ``REPS`` times per backend, and a timing's value is the
sum over slices of the fastest repetition — the estimator
``benchmarks/perf/README.md`` prescribes for this host. The whole-run
table (the paper's setup) follows: since both backends evaluate fast
rows per batch, the interpreter's per-packet overhead is amortised away
there and one ``process_time()`` of a whole run cannot resolve what is
left.

What is asserted is the work, not the wall clock: the Python calls
each backend makes per packet over the same slices, counted under
``cProfile``. The count repeats exactly run to run, where a ratio of
two timings on a shared host does not; the timing tables stay,
unasserted.
"""

from __future__ import annotations

import cProfile
import pstats
import time

import pytest

from _util import emit, table
from repro import Runtime, RuntimeConfig
from repro.filter import compile_filter
from repro.packet import parse_stack
from repro.packet.columnar import decode_mbufs
from repro.traffic import stratosphere_trace
from repro.traffic.strato import trace_names

NETFLIX_32 = (
    "ipv4.addr in 23.246.0.0/18 or ipv4.addr in 37.77.184.0/21 or "
    "ipv4.addr in 45.57.0.0/17 or ipv4.addr in 64.120.128.0/17 or "
    "ipv4.addr in 66.197.128.0/17 or ipv4.addr in 108.175.32.0/20 or "
    "ipv4.addr in 185.2.220.0/22 or ipv4.addr in 185.9.188.0/22 or "
    "ipv4.addr in 192.173.64.0/18 or ipv4.addr in 198.38.96.0/19 or "
    "ipv4.addr in 198.45.48.0/20 or ipv4.addr in 208.75.79.0/24 or "
    "ipv6.addr in 2620:10c:7000::/44 or ipv6.addr in 2a00:86c0::/32 or "
    "tls.sni ~ 'netflix.com' or tls.sni ~ 'nflxvideo.net' or "
    "tls.sni ~ 'nflximg.net' or tls.sni ~ 'nflxext.com' or "
    "tls.sni ~ 'nflximg.com' or tls.sni ~ 'nflxso.net'"
)

FILTERS = [
    ("None", ""),
    ("ipv4", "ipv4"),
    ("tcp.port = 443", "tcp.port = 443"),
    ("tls.cipher ~ AES_128_GCM", "tls.cipher ~ 'AES_128_GCM'"),
    ("Netflix traffic (32 preds)", NETFLIX_32),
]


def _time_run(trace, filter_str, mode):
    """Best-of-three CPU-time measurement.

    ``process_time`` (not wall clock) so a contended machine does not
    drown the signal, with the garbage collector paused during the
    measured region.
    """
    import gc

    best = float("inf")
    for _ in range(3):
        runtime = Runtime(
            RuntimeConfig(cores=1, hardware_filter=False,
                          filter_mode=mode),
            filter_str=filter_str,
            datatype="tls_handshake",
            callback=lambda hs: None,
        )
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            runtime.run(iter(trace))
            best = min(best, time.process_time() - start)
        finally:
            gc.enable()
    return best


SLICE = 256
REPS = 9
#: Frames of each trace the filter-only table replays (32 slices).
FILTER_ONLY_FRAMES = 32 * SLICE


def _fastest_slices(fn, slices) -> float:
    """Seconds ``fn`` takes over all slices, each at its fastest."""
    clock = time.perf_counter
    best = [float("inf")] * len(slices)
    for _ in range(REPS):
        for k, piece in enumerate(slices):
            start = clock()
            fn(piece)
            took = clock() - start
            if took < best[k]:
                best[k] = took
    return sum(best)


def _calls_per_packet(fn, slices, packets: int) -> float:
    """Python calls ``fn`` makes over all slices, per packet, counted
    under ``cProfile``: the same on every run."""
    profile = cProfile.Profile()
    profile.enable()
    for piece in slices:
        fn(piece)
    profile.disable()
    return pstats.Stats(profile).total_calls / packets


def _time_filter(trace, filter_str):
    """``({(path, mode): us per packet}, {(path, mode): calls per
    packet})`` for the packet sub-filter alone: ``stacks`` is the
    scalar filter over parsed stacks, ``rows`` the batch filter over
    decoded bursts."""
    import gc

    for mbuf in trace:
        mbuf.stack = parse_stack(mbuf)
    bursts = [trace[i:i + SLICE] for i in range(0, len(trace), SLICE)]
    columns = [decode_mbufs(burst) for burst in bursts]
    out = {}
    calls = {}
    gc.collect()
    gc.disable()
    try:
        for mode in ("codegen", "interp"):
            compiled = compile_filter(filter_str, mode=mode)
            scalar = compiled.packet_filter
            for path, fn, slices in (
                    ("stacks", lambda burst: list(map(scalar, burst)),
                     bursts),
                    ("rows", compiled.packet_filter_batch, columns)):
                out[path, mode] = _fastest_slices(fn, slices)
                calls[path, mode] = _calls_per_packet(fn, slices,
                                                      len(trace))
    finally:
        gc.enable()
    return {key: secs * 1e6 / len(trace) for key, secs in out.items()}, \
        calls


def run_filter_only():
    """``(us, calls)``: each maps ``(trace, filter label)`` to
    :func:`_time_filter`'s figures for that filter on that trace."""
    us, calls = {}, {}
    for trace_name in trace_names():
        trace = list(stratosphere_trace(
            trace_name, duration=8.0))[:FILTER_ONLY_FRAMES]
        for label, filter_str in FILTERS:
            key = (trace_name, label)
            us[key], calls[key] = _time_filter(trace, filter_str)
    return us, calls


def run_figure12():
    traces = {name: stratosphere_trace(name, duration=8.0)
              for name in trace_names()}
    speedups = {}
    for trace_name, trace in traces.items():
        for label, filter_str in FILTERS:
            compiled = _time_run(trace, filter_str, "codegen")
            interpreted = _time_run(trace, filter_str, "interp")
            speedups[(trace_name, label)] = interpreted / compiled
    return speedups


def _short(trace_name):
    return trace_name.replace("CTU-Normal-", "norm-")


PATHS = (("stacks", "packet_filter(mbuf) over parsed stacks"),
         ("rows", "packet_filter_batch(cols) over decoded rows"))


def _tables(figures, fmt):
    """One table per path of ``interp -> codegen (ratio)`` cells."""
    lines = []
    for path, what in PATHS:
        lines.append(what)
        lines.extend(table(
            ["trace"] + [label for label, _ in FILTERS],
            [[_short(trace_name)] + [
                (fmt + " -> " + fmt + " (%.2fx)") % (
                    got[path, "interp"], got[path, "codegen"],
                    got[path, "interp"] / got[path, "codegen"])
                for got in (figures[(trace_name, label)]
                            for label, _ in FILTERS)]
             for trace_name in trace_names()]))
        lines.append("")
    return lines


def report(filter_us, filter_calls, speedups):
    lines = ["packet sub-filter alone, Python calls per packet "
             "(asserted): interpreted -> compiled (ratio)", ""]
    lines.extend(_tables(filter_calls, "%.3f"))
    lines.append("packet sub-filter alone, us per packet (not asserted): "
                 "interpreted -> compiled (speedup); fastest of %d "
                 "repetitions per %d-packet slice" % (REPS, SLICE))
    lines.append("")
    lines.extend(_tables(filter_us, "%.3f"))
    lines.append("whole run, one core, tls_handshake subscription "
                 "(not asserted): interpreted / compiled process time, "
                 "best of three")
    lines.extend(table(
        ["trace"] + [label for label, _ in FILTERS],
        [[_short(trace_name)] + [
            f"{speedups[(trace_name, label)]:.2f}x"
            for label, _ in FILTERS]
         for trace_name in trace_names()]))
    lines.append("")
    lines.append("speedup = interpreted runtime / compiled runtime "
                 "(same semantics, different execution strategy)")
    lines.append("Paper reference: 5.4%-300.4% whole-run speedups, "
                 "larger for complex filters (the 32-predicate Netflix "
                 "filter exceeds 3x).")
    emit("fig12_codegen_speedup", lines)


def check(filter_calls):
    """Appendix B's claim, counted in Python calls per packet."""
    simple, complex_ = FILTERS[1][0], FILTERS[-1][0]

    def saved(trace_name, label):
        calls = filter_calls[(trace_name, label)]
        return calls["stacks", "interp"] - calls["stacks", "codegen"]

    for trace_name in trace_names():
        # Compiled code does a fraction of the trie walk's work on
        # every filter with a predicate, both ways the pipeline runs
        # it (match-all evaluates nothing either way).
        for label, filter_str in FILTERS:
            if not filter_str:
                continue
            calls = filter_calls[(trace_name, label)]
            for path, _ in PATHS:
                assert calls[path, "interp"] >= \
                    1.5 * calls[path, "codegen"], \
                    (trace_name, label, path)
        # What grows with filter complexity is the work compiling
        # saves on each packet (the ratio need not: the simplest
        # filters are all interpreter overhead).
        assert saved(trace_name, complex_) >= \
            2 * saved(trace_name, simple), trace_name


def test_fig12_codegen_speedup(benchmark):
    (filter_us, filter_calls), speedups = benchmark.pedantic(
        lambda: (run_filter_only(), run_figure12()),
        rounds=1, iterations=1)
    report(filter_us, filter_calls, speedups)
    check(filter_calls)


if __name__ == "__main__":
    measured_us, measured_calls = run_filter_only()
    report(measured_us, measured_calls, run_figure12())
    check(measured_calls)
