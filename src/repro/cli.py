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
        --synthetic campus --duration 1.0 --tenants-out tenants-stats.json
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
    parser.add_argument("--json-stats", metavar="PATH",
                        help="write the run's aggregate stats as JSON")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write Prometheus-text metrics (funnel, "
                             "stage histograms, connection outcomes)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write sampled connection-lifecycle traces "
                             "as NDJSON")
    parser.add_argument("--trace-sample", type=float, default=None,
                        metavar="F",
                        help="fraction of connections traced when "
                             "--trace-out is set (default: 0.01)")
    spans = parser.add_argument_group(
        "spans", "burst span tracing, flight recorder and hot-path "
        "profiler (see docs/OBSERVABILITY.md)")
    spans.add_argument("--spans-out", metavar="PATH",
                       help="write sampled burst span trees as Chrome "
                            "trace-event JSON (load in Perfetto)")
    spans.add_argument("--spans-ndjson", metavar="PATH",
                       help="write burst spans, trigger events and the "
                            "profile summary as NDJSON")
    spans.add_argument("--flight-out", metavar="PATH",
                       help="write the flight-recorder dump (last N "
                            "bursts per core around each trigger) as "
                            "JSON")
    spans.add_argument("--span-sample", type=int, default=None,
                       metavar="K",
                       help="profile every Kth burst per core "
                            "(default: 1 when a span output is set)")
    spans.add_argument("--flight-recorder-depth", type=int, default=None,
                       metavar="N",
                       help="bursts retained per core in the flight "
                            "ring (default: 8 when --flight-out is "
                            "set)")
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
    tenancy.add_argument("--tenants-out", metavar="PATH",
                         help="write per-tenant aggregate stats and "
                              "shed ledgers as JSON")
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
    resilience.add_argument("--faults-out", metavar="PATH",
                            help="write the run's fault report as JSON")
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
    overload.add_argument("--overload-out", metavar="PATH",
                          help="write the loss ledger as NDJSON")
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
    netem.add_argument("--impair-out", metavar="PATH",
                       help="write the impairment ledger as NDJSON")
    parser.add_argument("--describe-filter", metavar="FILTER",
                        help="print a filter's decomposition and exit")
    return parser


def _load_fault_plan(spec: Optional[str]):
    """Parse --fault-plan: inline JSON (starts with '{') or a file."""
    if not spec:
        return None
    from repro.resilience import FaultPlan
    return FaultPlan.from_json(spec)


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
    if args.overload_policy != "off" and \
            args.memory_policy in ("evict", "shed"):
        print(f"error: --overload-policy {args.overload_policy} "
              f"conflicts with --memory-policy {args.memory_policy}: "
              f"the overload ladder already owns admission control "
              f"under memory pressure; drop --memory-policy (keeping "
              f"the default 'record') or use --overload-policy off",
              file=sys.stderr)
        return 2
    if args.subscriptions and args.filter_str:
        print("error: --subscriptions conflicts with --filter: tenant "
              "filters live in the subscriptions file (one per "
              "tenant); move the filter into a tenant entry or drop "
              "--subscriptions", file=sys.stderr)
        return 2
    if args.reconfigure_at and not args.subscriptions:
        print("error: --reconfigure-at has no effect without "
              "--subscriptions: live reconfiguration swaps tenants in "
              "a multi-tenant filter table; add --subscriptions PATH "
              "or drop --reconfigure-at", file=sys.stderr)
        return 2
    if args.tenants_out and not args.subscriptions:
        print("error: --tenants-out has no effect without "
              "--subscriptions: per-tenant stats only exist on a "
              "multi-tenant run; add --subscriptions PATH or drop "
              "--tenants-out", file=sys.stderr)
        return 2
    if args.subscriptions and args.fault_plan:
        try:
            plan_probe = _load_fault_plan(args.fault_plan)
        except RetinaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from repro.resilience.faults import WORKER_FAULT_KINDS
        if plan_probe is not None and any(
                s.kind not in WORKER_FAULT_KINDS
                for s in plan_probe.faults):
            print("error: --subscriptions conflicts with non-worker "
                  "--fault-plan entries: pipeline-level faults "
                  "(callback_error/parser_error/corrupt_packet/...) "
                  "cannot be attributed to one tenant from a run-level "
                  "plan; keep only worker_crash/worker_hang entries",
                  file=sys.stderr)
            return 2
    tenancy_specs = None
    tenancy_events = []
    if args.subscriptions:
        from repro.tenancy import load_subscriptions, parse_reconfigure
        try:
            tenancy_specs = load_subscriptions(args.subscriptions)
            tenancy_events = [parse_reconfigure(text)
                              for text in args.reconfigure_at]
        except RetinaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.supervise and args.parallel <= 0:
        print("error: --supervise requires --parallel N: supervision "
              "restarts worker *processes*, which only exist on the "
              "parallel backend; add --parallel 2 (or more) or drop "
              "--supervise", file=sys.stderr)
        return 2
    if args.overload_target_lag <= 0:
        print("error: --overload-target-lag must be positive "
              "(virtual seconds of tolerated backlog)", file=sys.stderr)
        return 2
    if args.burst_intensity < 1.0:
        print("error: --burst-intensity must be >= 1.0 (it multiplies "
              "the baseline arrival rate)", file=sys.stderr)
        return 2
    if args.trace_sample is not None and not args.trace_out:
        print("error: --trace-sample has no effect without --trace-out: "
              "connection tracing is off; add --trace-out PATH or drop "
              "--trace-sample", file=sys.stderr)
        return 2
    span_output = bool(args.spans_out or args.spans_ndjson
                       or args.flight_out)
    if args.span_sample is not None and args.span_sample <= 0:
        print("error: --span-sample must be >= 1 (profile every Kth "
              "burst per core; use --span-sample 1 to profile every "
              "burst)", file=sys.stderr)
        return 2
    if args.span_sample is not None and not span_output:
        print("error: --span-sample has no effect without a span "
              "output: add --spans-out, --spans-ndjson or --flight-out, "
              "or drop --span-sample", file=sys.stderr)
        return 2
    if args.flight_recorder_depth is not None and \
            args.flight_recorder_depth <= 0:
        print("error: --flight-recorder-depth must be >= 1 (bursts "
              "retained per core in the flight ring)", file=sys.stderr)
        return 2
    if args.flight_recorder_depth is not None and not args.flight_out:
        print("error: --flight-recorder-depth has no effect without "
              "--flight-out: the ring is only dumped there; add "
              "--flight-out PATH or drop --flight-recorder-depth",
              file=sys.stderr)
        return 2
    impair_models = bool(args.impair_loss or args.impair_burst
                         or args.impair_corrupt or args.impair_reorder
                         or args.impair_dup or args.impair_jitter)
    impair_any = (impair_models or args.impair_trace
                  or args.impair_record or args.impair_quarantine
                  or args.impair_disable_threshold > 0)
    if args.impair_trace and impair_models:
        print("error: --impair-trace conflicts with the impairment "
              "model flags (--impair-loss/--impair-burst/"
              "--impair-corrupt/--impair-reorder/--impair-dup/"
              "--impair-jitter): a replay trace already fixes every "
              "per-packet decision; drop the model flags or the trace",
              file=sys.stderr)
        return 2
    if args.impair_record and args.impair_trace:
        print("error: --impair-record with --impair-trace would "
              "re-record the replayed trace verbatim; drop one of them",
              file=sys.stderr)
        return 2
    if args.impair_corrupt_silent and not (args.impair_corrupt
                                           or args.impair_trace):
        print("error: --impair-corrupt-silent has no effect without "
              "--impair-corrupt (corrupt_silent only changes how "
              "flipped bits are checksummed); add --impair-corrupt F "
              "or drop --impair-corrupt-silent", file=sys.stderr)
        return 2
    if args.impair_reorder_depth is not None and not args.impair_reorder:
        print("error: --impair-reorder-depth has no effect without "
              "--impair-reorder: no packets are displaced; add "
              "--impair-reorder F or drop --impair-reorder-depth",
              file=sys.stderr)
        return 2
    if (args.impair_disable_window is not None
            or args.impair_repair_time is not None) and \
            args.impair_disable_threshold <= 0:
        print("error: --impair-disable-window/--impair-repair-time "
              "have no effect without --impair-disable-threshold: the "
              "disable-and-repair policy is off; add "
              "--impair-disable-threshold N or drop them",
              file=sys.stderr)
        return 2
    if args.impair_out and not impair_any:
        print("error: --impair-out has no effect without an impairment "
              "or mitigation flag: no ledger is kept; add an "
              "--impair-* flag (e.g. --impair-loss) or drop "
              "--impair-out", file=sys.stderr)
        return 2
    if impair_any and args.fault_plan:
        try:
            plan_probe = _load_fault_plan(args.fault_plan)
        except RetinaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if plan_probe is not None and plan_probe.has_packet_faults:
            print("error: --impair-* flags conflict with --fault-plan "
                  "packet-corruption entries (corrupt_packet/"
                  "truncate_packet): two uncoordinated layers mutating "
                  "the same frames make loss attribution ambiguous; "
                  "move the corruption into the impairment layer "
                  "(--impair-corrupt) or strip packet faults from the "
                  "plan", file=sys.stderr)
            return 2

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
        fault_plan = _load_fault_plan(args.fault_plan)
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
                reorder_depth=(args.impair_reorder_depth
                               if args.impair_reorder_depth is not None
                               else 8),
                duplicate_rate=args.impair_dup,
                jitter_s=args.impair_jitter,
                trace_path=args.impair_trace,
                record_path=args.impair_record,
                quarantine=args.impair_quarantine,
                disable_threshold=args.impair_disable_threshold,
                disable_window=(args.impair_disable_window
                                if args.impair_disable_window is not None
                                else 256),
                repair_time=(args.impair_repair_time
                             if args.impair_repair_time is not None
                             else 0.5),
            )
        config = RuntimeConfig(
            cores=args.parallel if args.parallel > 0 else args.cores,
            parallel=args.parallel > 0,
            parallel_batch_size=args.batch_size,
            filter_mode=args.mode,
            hardware_filter=not args.no_hardware_filter,
            sink_fraction=args.sink_fraction,
            telemetry=bool(args.metrics_out or args.trace_out),
            trace_sample=(args.trace_sample if args.trace_sample
                          is not None else 0.01)
            if args.trace_out else 0.0,
            span_sample=(args.span_sample if args.span_sample is not None
                         else 1) if (args.spans_out or args.spans_ndjson)
            else (args.span_sample or 0),
            flight_recorder_depth=(
                args.flight_recorder_depth
                if args.flight_recorder_depth is not None
                else 8) if args.flight_out else 0,
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
        if tenancy_specs is not None:
            from repro.tenancy import TenantRuntime
            runtime = TenantRuntime(config, tenancy_specs,
                                    events=tenancy_events)
        else:
            runtime = Runtime(config, filter_str=args.filter_str,
                              datatype=args.datatype, callback=callback)
    except RetinaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    monitor = StatsMonitor(emit=print) if args.monitor else None
    try:
        report = runtime.run(traffic, monitor=monitor)
    except RetinaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print()
    print(report.stats.describe())
    tenancy_payload = None
    if tenancy_specs is not None:
        tenants = runtime.aggregate_tenants(report)
        ledgers = runtime.tenant_ledgers(report)
        tenancy_payload = {"epoch": runtime.table.epoch,
                           "active": list(runtime.table.active),
                           "tenants": tenants, "shed": ledgers}
        print(f"tenants: {len(tenants)} seen, epoch "
              f"{runtime.table.epoch}, active "
              f"{','.join(runtime.table.active) or '(none)'}")
        for name in sorted(tenants):
            stats = tenants[name]
            line = (f"  {name}: processed={stats.processed_packets} "
                    f"callbacks={stats.callbacks} "
                    f"conns={stats.conns_delivered}")
            shed = ledgers.get(name)
            if shed is not None and shed.packets_shed:
                line += f" shed={shed.packets_shed}"
            print(line)
        if args.tenants_out:
            import json
            payload = {
                "epoch": runtime.table.epoch,
                "active": list(runtime.table.active),
                "tenants": {
                    name: {
                        "stats": stats.to_dict(),
                        "shed": (ledgers[name].to_dict()
                                 if name in ledgers else None),
                    }
                    for name, stats in tenants.items()
                },
            }
            with open(args.tenants_out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"(per-tenant stats written to {args.tenants_out})")
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
    if args.faults_out:
        import json
        payload = (report.faults.to_dict()
                   if report.faults is not None else {})
        with open(args.faults_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"(fault report written to {args.faults_out})")
    if args.json_stats:
        import json
        with open(args.json_stats, "w") as handle:
            json.dump(report.stats.to_dict(), handle, indent=2)
        print(f"(stats written to {args.json_stats})")
    if args.metrics_out:
        from repro.telemetry import export
        export.write_metrics(args.metrics_out, report.stats,
                             backend_health=report.backend_health,
                             faults=report.faults,
                             overload=report.overload,
                             impairment=report.impairment,
                             tenancy=tenancy_payload)
        print(f"(metrics written to {args.metrics_out})")
    if args.trace_out:
        from repro.telemetry import export
        events = export.write_trace(args.trace_out, report.stats)
        print(f"({events} trace events written to {args.trace_out})")
    if span_output:
        from repro.telemetry import export
        if report.spans is None:
            print("(no span data recorded)", file=sys.stderr)
        else:
            if args.spans_out:
                n = export.write_chrome_trace(args.spans_out,
                                              report.spans)
                print(f"({n} span events written to {args.spans_out})")
            if args.spans_ndjson:
                n = export.write_spans(args.spans_ndjson, report.spans)
                print(f"({n} span records written to "
                      f"{args.spans_ndjson})")
            if args.flight_out:
                n = export.write_flight(args.flight_out, report.spans)
                print(f"({n} flight dumps written to {args.flight_out})")
    if args.overload_out and report.overload is not None:
        from repro.telemetry import export
        records = export.write_overload(args.overload_out,
                                        report.overload)
        print(f"({records} overload records written to "
              f"{args.overload_out})")
    if args.impair_out and report.impairment is not None:
        from repro.telemetry import export
        records = export.write_impairment(args.impair_out,
                                          report.impairment)
        print(f"({records} impairment records written to "
              f"{args.impair_out})")
    if args.impair_record and report.impairment is not None:
        print(f"(impairment trace recorded to {args.impair_record})")
    if report.failed_fast:
        print(f"aborted: overload failfast at "
              f"{report.overload.failfast_at:.3f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
