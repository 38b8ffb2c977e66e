"""Command-line interface: run a subscription over a pcap or synthetic
traffic.

Examples::

    python -m repro --filter "tls.sni ~ 'netflix'" \\
        --datatype tls_handshake --pcap trace.pcap

    python -m repro --filter "tcp" --datatype connection \\
        --synthetic campus --duration 0.5 --gbps 0.2 --cores 8 --monitor

    python -m repro --describe-filter "(ipv4 and tcp.port >= 100 and \\
        tls.sni ~ 'netflix') or http"

    python -m repro --subscriptions tenants.json \\
        --reconfigure-at 0.5:drop:dns --reconfigure-at 0.5:add:late \\
        --synthetic campus --duration 1.0 --report-dir run1
    python -m repro.telemetry.bundle run1  # re-check, print the fates

``--report-dir DIR`` is the only output path: it turns the recorders on
and writes the run bundle (docs/OBSERVABILITY.md, "Run bundle").
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import Runtime, RuntimeConfig, compile_filter
from repro.core.datatypes import SUBSCRIBABLES
from repro.core.monitor import StatsMonitor
from repro.errors import RetinaError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Retina-reproduction traffic analysis runtime",
    )
    parser.add_argument("--filter", default="", dest="filter_str",
                        help="subscription filter (default: match all)")
    parser.add_argument("--datatype", default="packet",
                        choices=sorted(SUBSCRIBABLES),
                        help="subscribable data type")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--pcap", help="read traffic from a pcap file")
    source.add_argument("--synthetic", choices=["campus", "https", "burst"],
                        help="generate synthetic traffic")
    parser.add_argument("--duration", type=float, default=0.5,
                        help="synthetic traffic duration (virtual s)")
    parser.add_argument("--gbps", type=float, default=0.2,
                        help="synthetic campus traffic rate")
    parser.add_argument("--seed", type=int, default=0,
                        help="synthetic traffic seed")
    parser.add_argument("--burst-intensity", type=float, default=8.0,
                        metavar="X",
                        help="with --synthetic burst, arrival-rate "
                             "multiplier inside the burst window "
                             "(default: 8.0)")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--parallel", type=int, metavar="N", default=0,
                        help="run N cores as real OS worker processes "
                             "(overrides --cores; 0 = sequential)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="packets per dispatch batch (both backends)")
    parser.add_argument("--mode", default="codegen",
                        choices=["codegen", "interp"],
                        help="filter execution backend")
    parser.add_argument("--no-hardware-filter", action="store_true",
                        help="disable NIC flow-rule offload")
    parser.add_argument("--sink-fraction", type=float, default=0.0,
                        help="flow-sample fraction dropped at the NIC")
    parser.add_argument("--print-limit", type=int, default=10,
                        help="print at most N deliveries (0: none)")
    parser.add_argument("--monitor", action="store_true",
                        help="emit periodic throughput/loss/memory lines")
    bundle = parser.add_argument_group(
        "run bundle", "the run's one output (see docs/OBSERVABILITY.md)")
    bundle.add_argument("--report-dir", metavar="DIR",
                        help="turn the recorders on and write the run "
                             "bundle there: manifest, stats, packet "
                             "fates, metrics, traces, spans and every "
                             "ledger the run kept")
    bundle.add_argument("--trace-sample", type=float, default=None,
                        metavar="F",
                        help="fraction of connections traced "
                             "(default: 0.01)")
    bundle.add_argument("--span-sample", type=int, default=None,
                        metavar="K",
                        help="profile every Kth burst per core "
                             "(default: 1)")
    bundle.add_argument("--flight-recorder-depth", type=int,
                        default=None, metavar="N",
                        help="bursts retained per core in the flight "
                             "ring (default: 8)")
    tenancy = parser.add_argument_group(
        "tenancy", "multi-tenant subscriptions and live "
        "reconfiguration (see docs/MULTITENANT.md)")
    tenancy.add_argument("--subscriptions", metavar="PATH",
                         help="JSON tenant subscriptions file: run all "
                              "tenants over one shared filter table "
                              "(conflicts with --filter)")
    tenancy.add_argument("--reconfigure-at", metavar="T:ACTION:NAME",
                         action="append", default=[],
                         help="schedule a live reconfiguration at "
                              "virtual time T: <vt>:<add|drop>:<name> "
                              "(repeatable; requires --subscriptions)")
    resilience = parser.add_argument_group(
        "resilience", "fault injection, supervision and degradation "
        "(see docs/RESILIENCE.md)")
    resilience.add_argument("--fault-plan", metavar="PLAN",
                            help="JSON fault plan: a file path or an "
                                 "inline JSON object")
    resilience.add_argument("--callback-errors", default="raise",
                            choices=["raise", "isolate"],
                            help="callback exception policy: abort the "
                                 "run or isolate per subscription "
                                 "(default: raise)")
    resilience.add_argument("--callback-error-budget", type=int,
                            default=3, metavar="N",
                            help="with --callback-errors isolate, "
                                 "quarantine a core's subscription "
                                 "after N errors (default: 3)")
    resilience.add_argument("--memory-policy", default="record",
                            choices=["record", "evict", "shed"],
                            help="memory-pressure policy when a limit "
                                 "is set (default: record)")
    resilience.add_argument("--memory-limit", type=int, default=0,
                            metavar="BYTES",
                            help="total connection-state budget in "
                                 "bytes (0: unlimited)")
    resilience.add_argument("--supervise", action="store_true",
                            help="supervise parallel workers: restart "
                                 "crashed/hung cores with batch replay")
    overload = parser.add_argument_group(
        "overload", "closed-loop overload control "
        "(see docs/OVERLOAD.md)")
    overload.add_argument("--overload-policy", default="off",
                          choices=["off", "ladder", "failfast"],
                          help="degradation ladder under sustained "
                               "pressure, failfast abort, or off "
                               "(default: off)")
    overload.add_argument("--overload-target-lag", type=float,
                          default=0.05, metavar="S",
                          help="virtual seconds a core may lag the "
                               "arrival clock before climbing the "
                               "ladder (default: 0.05)")
    netem = parser.add_argument_group(
        "netem", "seeded link impairment and degraded-link mitigation "
        "(see docs/SCENARIOS.md)")
    netem.add_argument("--impair-loss", type=float, default=0.0,
                       metavar="F",
                       help="independent per-packet loss probability")
    netem.add_argument("--impair-burst", metavar="P,R[,LB[,LG]]",
                       help="Gilbert-Elliott burst loss: good->bad "
                            "prob P, bad->good prob R, optional "
                            "loss-while-bad (default 1.0) and "
                            "loss-while-good (default 0.0)")
    netem.add_argument("--impair-corrupt", type=float, default=0.0,
                       metavar="F",
                       help="per-packet frame-corruption probability "
                            "(1-8 payload bit flips)")
    netem.add_argument("--impair-corrupt-silent", action="store_true",
                       help="recompute checksums after corrupting "
                            "(silent corruption: undetectable by "
                            "checksum quarantine)")
    netem.add_argument("--impair-reorder", type=float, default=0.0,
                       metavar="F",
                       help="per-packet bounded-reordering probability")
    netem.add_argument("--impair-reorder-depth", type=int, default=None,
                       metavar="N",
                       help="max positions a reordered packet is "
                            "displaced (default: 8)")
    netem.add_argument("--impair-dup", type=float, default=0.0,
                       metavar="F",
                       help="per-packet duplication probability")
    netem.add_argument("--impair-jitter", type=float, default=0.0,
                       metavar="S",
                       help="max extra per-packet latency (virtual s)")
    netem.add_argument("--impair-seed", type=int, default=None,
                       metavar="N",
                       help="impairment RNG seed (default: --seed)")
    netem.add_argument("--impair-trace", metavar="PATH",
                       help="replay per-packet impairment decisions "
                            "from a recorded trace file")
    netem.add_argument("--impair-record", metavar="PATH",
                       help="record every sampled impairment decision "
                            "to a replayable trace file")
    netem.add_argument("--impair-quarantine", action="store_true",
                       help="verify IPv4/TCP/UDP checksums at ingress "
                            "and drop (quarantine) frames that fail, "
                            "attributed per link")
    netem.add_argument("--impair-disable-threshold", type=int,
                       default=0, metavar="N",
                       help="disable an ingress link after N detected-"
                            "bad frames within the sliding window "
                            "(0: policy off)")
    netem.add_argument("--impair-disable-window", type=int,
                       default=None, metavar="N",
                       help="sliding window (frames) for the disable "
                            "decision (default: 256)")
    netem.add_argument("--impair-repair-time", type=float, default=None,
                       metavar="S",
                       help="virtual seconds a disabled link stays "
                            "down (default: 0.5)")
    netem.add_argument("--impair-adaptive-reassembly",
                       action="store_true",
                       help="let the reassembler widen/narrow its "
                            "out-of-order window with observed reorder "
                            "depth")
    parser.add_argument("--describe-filter", metavar="FILTER",
                        help="print a filter's decomposition and exit")
    return parser


def _render(obj) -> str:
    name = type(obj).__name__
    if hasattr(obj, "sni"):
        return f"{name}: sni={obj.sni()} cipher={getattr(obj, 'cipher', lambda: None)()}"
    if hasattr(obj, "uri"):
        return f"{name}: {obj.method()} {obj.uri()} -> {obj.status_code()}"
    if hasattr(obj, "query_name"):
        return f"{name}: {obj.query_name()} rc={obj.response_code()}"
    if hasattr(obj, "five_tuple") and hasattr(obj, "total_packets"):
        return (f"{name}: {obj.five_tuple} pkts={obj.total_packets} "
                f"bytes={obj.total_bytes} svc={obj.service}")
    if hasattr(obj, "mbuf"):
        return f"{name}: {len(obj.mbuf)}B @ {obj.timestamp:.6f}"
    return f"{name}: {obj!r}"


def _fail(message, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.describe_filter is not None:
        try:
            compiled = compile_filter(args.describe_filter)
        except RetinaError as exc:
            print(f"filter error: {exc}", file=sys.stderr)
            return 2
        print(compiled.describe())
        print()
        print("generated code:")
        print(compiled.generated_source)
        return 0

    # Conflicting-flag validation, with errors that say what to change
    # instead of just what is wrong.
    fault_plan = None
    if args.fault_plan:  # inline JSON (starts with '{') or a file
        from repro.resilience import FaultPlan
        try:
            fault_plan = FaultPlan.from_json(args.fault_plan)
        except RetinaError as exc:
            return _fail(exc)
    if args.overload_policy != "off" and \
            args.memory_policy in ("evict", "shed"):
        return _fail(
            f"--overload-policy {args.overload_policy} conflicts with "
            f"--memory-policy {args.memory_policy}: the overload ladder "
            f"already owns admission control under memory pressure; drop "
            f"--memory-policy (keeping the default 'record') or use "
            f"--overload-policy off")
    if args.subscriptions and args.filter_str:
        return _fail(
            "--subscriptions conflicts with --filter: tenant filters "
            "live in the subscriptions file (one per tenant); move the "
            "filter into a tenant entry or drop --subscriptions")
    if args.reconfigure_at and not args.subscriptions:
        return _fail(
            "--reconfigure-at has no effect without --subscriptions: "
            "live reconfiguration swaps tenants in a multi-tenant filter "
            "table; add --subscriptions PATH or drop --reconfigure-at")
    if args.subscriptions and fault_plan is not None:
        from repro.resilience.faults import WORKER_FAULT_KINDS
        if any(s.kind not in WORKER_FAULT_KINDS
               for s in fault_plan.faults):
            return _fail(
                "--subscriptions conflicts with non-worker --fault-plan "
                "entries: pipeline-level faults (callback_error/"
                "parser_error/corrupt_packet/...) cannot be attributed "
                "to one tenant from a run-level plan; keep only "
                "worker_crash/worker_hang entries")
    tenancy_specs = None
    tenancy_events = []
    if args.subscriptions:
        from repro.tenancy import load_subscriptions, parse_reconfigure
        try:
            tenancy_specs = load_subscriptions(args.subscriptions)
            tenancy_events = [parse_reconfigure(text)
                              for text in args.reconfigure_at]
        except RetinaError as exc:
            return _fail(exc)
    if args.supervise and args.parallel <= 0:
        return _fail(
            "--supervise requires --parallel N: supervision restarts "
            "worker *processes*, which only exist on the parallel "
            "backend; add --parallel 2 (or more) or drop --supervise")
    if args.overload_target_lag <= 0:
        return _fail("--overload-target-lag must be positive (virtual "
                     "seconds of tolerated backlog)")
    if args.burst_intensity < 1.0:
        return _fail("--burst-intensity must be >= 1.0 (it multiplies "
                     "the baseline arrival rate)")
    if args.span_sample is not None and args.span_sample <= 0:
        return _fail("--span-sample must be >= 1 (profile every Kth "
                     "burst per core; use --span-sample 1 to profile "
                     "every burst)")
    if args.flight_recorder_depth is not None and \
            args.flight_recorder_depth <= 0:
        return _fail("--flight-recorder-depth must be >= 1 (bursts "
                     "retained per core in the flight ring)")
    for flag in ("trace_sample", "span_sample", "flight_recorder_depth"):
        if getattr(args, flag) is not None and not args.report_dir:
            flag = "--" + flag.replace("_", "-")
            return _fail(
                f"{flag} has no effect without --report-dir: the "
                f"recorders only run for the bundle; add --report-dir "
                f"DIR or drop {flag}")
    impair_models = bool(args.impair_loss or args.impair_burst
                         or args.impair_corrupt or args.impair_reorder
                         or args.impair_dup or args.impair_jitter)
    impair_any = (impair_models or args.impair_trace
                  or args.impair_record or args.impair_quarantine
                  or args.impair_disable_threshold > 0)
    if args.impair_trace and impair_models:
        return _fail(
            "--impair-trace conflicts with the impairment model flags "
            "(--impair-loss/--impair-burst/--impair-corrupt/"
            "--impair-reorder/--impair-dup/--impair-jitter): a replay "
            "trace already fixes every per-packet decision; drop the "
            "model flags or the trace")
    if args.impair_record and args.impair_trace:
        return _fail("--impair-record with --impair-trace would "
                     "re-record the replayed trace verbatim; drop one "
                     "of them")
    if args.impair_corrupt_silent and not (args.impair_corrupt
                                           or args.impair_trace):
        return _fail(
            "--impair-corrupt-silent has no effect without "
            "--impair-corrupt (corrupt_silent only changes how flipped "
            "bits are checksummed); add --impair-corrupt F or drop "
            "--impair-corrupt-silent")
    if args.impair_reorder_depth is not None and not args.impair_reorder:
        return _fail(
            "--impair-reorder-depth has no effect without "
            "--impair-reorder: no packets are displaced; add "
            "--impair-reorder F or drop --impair-reorder-depth")
    if (args.impair_disable_window is not None
            or args.impair_repair_time is not None) and \
            args.impair_disable_threshold <= 0:
        return _fail(
            "--impair-disable-window/--impair-repair-time have no "
            "effect without --impair-disable-threshold: the "
            "disable-and-repair policy is off; add "
            "--impair-disable-threshold N or drop them")
    if impair_any and fault_plan is not None \
            and fault_plan.has_packet_faults:
        return _fail(
            "--impair-* flags conflict with --fault-plan "
            "packet-corruption entries (corrupt_packet/truncate_packet): "
            "two uncoordinated layers mutating the same frames make loss "
            "attribution ambiguous; move the corruption into the "
            "impairment layer (--impair-corrupt) or strip packet faults "
            "from the plan")

    if args.pcap:
        from repro.traffic.pcap import iter_pcap
        traffic = iter_pcap(args.pcap)
    elif args.synthetic == "https":
        from repro.traffic import HttpsWorkloadGenerator
        traffic = iter(HttpsWorkloadGenerator(seed=args.seed).packets(
            requests_per_second=50, duration=args.duration))
    elif args.synthetic == "burst":
        from repro.traffic import BurstTrafficGenerator, BurstWindow
        traffic = iter(BurstTrafficGenerator(
            seed=args.seed,
            windows=(BurstWindow(intensity=args.burst_intensity),),
        ).packets(duration=args.duration, gbps=args.gbps))
    else:
        from repro.traffic import CampusTrafficGenerator
        traffic = iter(CampusTrafficGenerator(seed=args.seed).packets(
            duration=args.duration, gbps=args.gbps))

    printed = 0

    def callback(obj) -> None:
        nonlocal printed
        if printed < args.print_limit:
            print(_render(obj))
            printed += 1
        elif printed == args.print_limit:
            print("... (further deliveries suppressed)")
            printed += 1

    try:
        if args.report_dir:
            from repro.telemetry.bundle import prepare
            prepare(args.report_dir)
        impairment = None
        if impair_any:
            from repro.netem import GilbertElliott, ImpairmentConfig
            impairment = ImpairmentConfig(
                seed=(args.impair_seed if args.impair_seed is not None
                      else args.seed),
                loss_rate=args.impair_loss,
                burst=(GilbertElliott.parse(args.impair_burst)
                       if args.impair_burst else None),
                corrupt_rate=args.impair_corrupt,
                corrupt_silent=args.impair_corrupt_silent,
                reorder_rate=args.impair_reorder,
                duplicate_rate=args.impair_dup,
                jitter_s=args.impair_jitter,
                trace_path=args.impair_trace,
                record_path=args.impair_record,
                quarantine=args.impair_quarantine,
                disable_threshold=args.impair_disable_threshold,
                # The config's own default unless the flag was given.
                **{field: getattr(args, "impair_" + field) for field
                   in ("reorder_depth", "disable_window", "repair_time")
                   if getattr(args, "impair_" + field) is not None})
        config = RuntimeConfig(
            cores=args.parallel if args.parallel > 0 else args.cores,
            parallel=args.parallel > 0,
            parallel_batch_size=args.batch_size,
            filter_mode=args.mode,
            hardware_filter=not args.no_hardware_filter,
            sink_fraction=args.sink_fraction,
            **({"telemetry": True,
                "trace_sample": 0.01 if args.trace_sample is None
                else args.trace_sample,
                "span_sample": args.span_sample or 1,
                "flight_recorder_depth": args.flight_recorder_depth or 8}
               if args.report_dir else {}),
            fault_plan=fault_plan,
            callback_error_policy=args.callback_errors,
            callback_error_budget=args.callback_error_budget,
            memory_policy=args.memory_policy,
            memory_limit_bytes=args.memory_limit or None,
            supervise=args.supervise,
            overload_policy=args.overload_policy,
            overload_target_lag=args.overload_target_lag,
            impairment=impairment,
            ooo_adaptive=args.impair_adaptive_reassembly,
        )
        runtime = Runtime(config, filter_str=args.filter_str,
                          datatype=args.datatype, callback=callback,
                          tenants=tenancy_specs, events=tenancy_events)
    except RetinaError as exc:
        return _fail(exc)

    monitor = StatsMonitor(emit=print) if args.monitor else None
    try:
        report = runtime.run(traffic, monitor=monitor)
    except RetinaError as exc:
        return _fail(exc, 1)
    print()
    print(report.stats.describe())
    if report.tenancy is not None:
        tenancy = report.tenancy
        print(f"tenants: {len(tenancy['tenants'])} seen, epoch "
              f"{tenancy['epoch']}, active "
              f"{','.join(tenancy['active']) or '(none)'}")
        for name in sorted(tenancy["tenants"]):
            stats = tenancy["tenants"][name]
            line = (f"  {name}: processed={stats.processed_packets} "
                    f"callbacks={stats.callbacks} "
                    f"conns={stats.conns_delivered}")
            shed = tenancy["shed"].get(name)
            if shed is not None and shed.packets_shed:
                line += f" shed={shed.packets_shed}"
            print(line)
    if report.impairment is not None:
        print(report.impairment.describe())
    if report.overload is not None:
        print(report.overload.describe())
    if report.faults is not None:
        faults = report.faults
        line = (f"faults: injected={sum(faults.injected.values())} "
                f"callback_errors={faults.callback_errors} "
                f"restarts={faults.worker_restarts} "
                f"replayed={faults.replayed_batches}")
        if faults.degraded:
            line += f" DEGRADED lost_cores={faults.lost_cores}"
        print(line)
    if args.report_dir:
        from repro.telemetry.bundle import write_bundle
        try:
            manifest = write_bundle(args.report_dir, report, config=config,
                                    argv=sys.argv[1:] if argv is None
                                    else list(argv))
        except (OSError, RetinaError) as exc:
            return _fail(f"--report-dir {args.report_dir}: {exc}", 1)
        print(f"(run bundle written to {args.report_dir}: "
              f"{', '.join(manifest['files'])})")
    if args.impair_record and report.impairment is not None:
        print(f"(impairment trace recorded to {args.impair_record})")
    if report.failed_fast:
        print(f"aborted: overload failfast at "
              f"{report.overload.failfast_at:.3f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
