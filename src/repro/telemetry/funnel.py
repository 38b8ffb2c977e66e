"""The filter funnel and the packet-fate table: where every packet went.

Retina's headline design rule is "discard as early as possible": the
NIC's hardware filter drops what flow rules can express, the software
packet filter drops per packet, the connection filter drops at protocol
resolution, and the session filter drops at session completion. The
four-layer funnel (:func:`build_funnel`) is that claim as a per-run
table of packets and bytes *surviving* each layer.

The fate table is the same run seen from the other side: every packet
the run was offered reaches exactly one terminal state (lost on the
link, filtered by the NIC, shed at a ladder rung, stopped at a filter
layer, matched, ... — docs/OBSERVABILITY.md lists them).
:func:`fate_counters` reads everything the table needs off a finished
:class:`~repro.core.runtime.RuntimeReport` as plain integers (the run
bundle's ``fates.json`` stores them), :func:`fate_table` derives the
rows, and :func:`check_fates` is the run's one conservation check: it
raises ``AssertionError`` naming the edge that leaks. A funnel layer's
drops are the fates charged to it, so the funnel table, the
``repro_funnel_*`` metric families and the monitor's ``funnel=`` column
are views of the same counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from repro.core.cycles import Stage
from repro.core.stats import AGGREGATE_NAMES
from repro.overload.ledger import RUNG_NAMES

#: The four filter layers, in pipeline order (Figure 7's bars).
FUNNEL_LAYERS = (
    "nic_hardware",
    "packet_filter",
    "connection_filter",
    "session_filter",
)

#: The per-core counters the fate table reads, by ``CoreStats`` name.
_CORE_COUNTERS = ("packets", "pf_packets", "connf_packets",
                  "sessf_packets", "conns_shed")
_BYTE_COUNTERS = ("ingress_bytes", "processed_bytes", "pf_bytes",
                  "connf_bytes", "sessf_bytes")
#: The run's own block in a fate table; a tenant's is under its name,
#: which is never empty.
RUN = ""


@dataclass(frozen=True)
class FunnelLayer:
    """One row of the funnel table."""

    layer: str
    packets_in: int
    packets_out: int
    bytes_in: int
    bytes_out: int

    @property
    def dropped_packets(self) -> int:
        return self.packets_in - self.packets_out

    @property
    def drop_fraction(self) -> float:
        if not self.packets_in:
            return 0.0
        return self.dropped_packets / self.packets_in

    def to_dict(self) -> dict:
        return {**asdict(self), "dropped_packets": self.dropped_packets,
                "drop_fraction": self.drop_fraction}


def build_funnel(stats) -> List[FunnelLayer]:
    """The four-layer funnel from merged aggregate stats.

    Survivor semantics, chosen so monotonicity holds per packet:

    * ``nic_hardware`` — ingress packets minus hardware-filter and
      sink-queue drops (what reaches the CPU);
    * ``packet_filter`` — packets the software packet filter matched;
    * ``connection_filter`` — matched packets whose connection had
      passed the connection layer (or needed none) when the packet was
      processed — packets of still-undecided (probing), rejected or
      shed connections do not survive;
    * ``session_filter`` — packets of connections whose *full* filter
      was satisfied when the packet was processed.
    """
    dispatched = (stats.ingress_packets - stats.hw_dropped_packets
                  - stats.sink_dropped_packets)
    return [
        FunnelLayer("nic_hardware",
                    stats.ingress_packets, dispatched,
                    stats.ingress_bytes, stats.processed_bytes),
        FunnelLayer("packet_filter",
                    stats.processed_packets, stats.pf_packets,
                    stats.processed_bytes, stats.pf_bytes),
        FunnelLayer("connection_filter",
                    stats.pf_packets, stats.connf_packets,
                    stats.pf_bytes, stats.connf_bytes),
        FunnelLayer("session_filter",
                    stats.connf_packets, stats.sessf_packets,
                    stats.connf_bytes, stats.sessf_bytes),
    ]


def funnel_table(stats) -> str:
    """Human-readable funnel (the §5.3 feedback table)."""
    layers = build_funnel(stats)
    width = max(len(layer.layer) for layer in layers)
    lines = [f"{'layer':<{width}}  {'pkts in':>10}  {'pkts out':>10}  "
             f"{'dropped':>10}  {'drop%':>6}"]
    for layer in layers:
        lines.append(
            f"{layer.layer:<{width}}  {layer.packets_in:>10}  "
            f"{layer.packets_out:>10}  {layer.dropped_packets:>10}  "
            f"{layer.drop_fraction * 100:>5.1f}%")
    discards = (stats.reasm_dup_segments + stats.reasm_overlap_segments
                + stats.reasm_stale_retransmits
                + stats.reasm_overflow_drops)
    if discards:
        # Reassembly discards happen past the funnel (inside accepted
        # connections) but belong in the same loss-accounting story:
        # these segments were admitted, then not delivered to callbacks.
        lines.append(
            f"reassembly discards: dup={stats.reasm_dup_segments} "
            f"overlap={stats.reasm_overlap_segments} "
            f"stale_retransmit={stats.reasm_stale_retransmits} "
            f"window_overflow={stats.reasm_overflow_drops}")
    return "\n".join(lines)


# -- the fate table ---------------------------------------------------------
def link_counters(ledger) -> dict:
    """What the table reads off an ``ImpairmentLedger``."""
    return {"offered": ledger.offered, "duplicated": ledger.duplicated,
            "delivered": ledger.delivered, "dropped": dict(ledger.dropped)}


def _view(stats, ledger, cores) -> dict:
    """What the table reads about one set of pipelines — the run's, or
    one tenant's: the merged counters, each core's share of them, and
    the pipelines' own ladder ledger when one was armed."""
    ledgers = [cores[core].ledger for core in sorted(cores)]
    cost = ledgers[0].cost if ledgers else dict.fromkeys(Stage, 0)
    view = {"ingress_packets": stats.ingress_packets,
            "hw_dropped_packets": stats.hw_dropped_packets,
            "sink_dropped_packets": stats.sink_dropped_packets,
            # Per stage, centi-cycles summed over the cores, the
            # report's, and the report's count x cost + the cores' extra.
            "cycles": {stage.value: [
                sum(ledger.centi_cycles(stage) for ledger in ledgers),
                round(stats.stage_cycles[stage] * 100),
                stats.stage_invocations[stage] * cost[stage]
                + sum(ledger.extra[stage] for ledger in ledgers)]
                for stage in Stage},
            # Per stage, cycle-histogram observations and invocations.
            "hist": {stage.value: [sum(buckets),
                                   stats.stage_invocations[stage]]
                     for stage, buckets
                     in (stats.stage_cycle_hist or {}).items()},
            "bytes": [getattr(stats, name) for name in _BYTE_COUNTERS],
            "cores": {str(core): [getattr(cores[core], name)
                                  for name in _CORE_COUNTERS]
                      for core in sorted(cores)}}
    for name in _CORE_COUNTERS:
        name = AGGREGATE_NAMES.get(name, name)
        view[name] = getattr(stats, name)
    if ledger is not None:
        view["ladder"] = {"seen": ledger.packets_seen,
                          "rungs": list(ledger.shed_packets),
                          "layers": dict(ledger.layer_packets)}
    return view


def fate_counters(report) -> dict:
    """Every counter the fate table reads, off a finished report."""
    cores = report.core_stats or {}
    tenancy = report.tenancy
    # A multi-tenant run's own table ends at the cores' packet loop:
    # each tenant's goes on from there, with that tenant's ladder.
    run = _view(report.stats,
                report.overload if tenancy is None else None, cores)
    out = {"run": run}
    if report.impairment is not None:
        out["link"] = link_counters(report.impairment)
    if tenancy is not None:
        out["tenants"] = {}
        for name, stats in sorted(tenancy["tenants"].items()):
            view = _view(stats, tenancy["ladders"][name],
                         {core: bundle.per_tenant[name]
                          for core, bundle in cores.items()
                          if name in bundle.per_tenant})
            view["not_subscribed"] = tenancy["not_subscribed"][name]
            mux = tenancy["metered"].get(name)
            view["metered"] = {} if mux is None else \
                dict(mux.layer_packets)
            out["tenants"][name] = view
    return out


def _pipeline_fates(view: dict) -> Dict[str, int]:
    """Where the packets one set of pipelines processed ended up."""
    fates = {"packet_filter": view["processed_packets"]
             - view["pf_packets"]}
    shed = 0
    for rung, packets in enumerate(view.get("ladder", {})
                                   .get("rungs", ())):
        if packets:
            fates["shed_" + RUNG_NAMES[rung]] = packets
            shed += packets
    if view["conns_shed"] != shed:
        fates["memory_shed"] = view["conns_shed"] - shed
    fates["connection_filter"] = view["pf_packets"] \
        - view["connf_packets"] - view["conns_shed"]
    fates["session_filter"] = view["connf_packets"] \
        - view["sessf_packets"]
    fates["matched"] = view["sessf_packets"]
    return fates


def fate_table(counters: dict) -> Dict[str, dict]:
    """``{RUN: {"offered", "fates"}, <tenant>: ...}``: each ``fates``
    maps a terminal state to its packets, in pipeline order, and sums
    to ``offered`` (a tenant is offered the shared link's ingress). On
    a multi-tenant run the run's own table ends at ``multiplexed``, the
    packets the cores processed, and the tenants' tables go on from
    there."""
    run = counters["run"]
    link = counters.get("link")
    tenants = counters.get("tenants")
    fates = {}
    offered = run["ingress_packets"]
    if link is not None:
        offered = link["offered"] + link["duplicated"]
        for cause, packets in link["dropped"].items():
            fates[cause if cause.startswith("link_")
                  else "link_" + cause] = packets
    shared = {"hw_filtered": run["hw_dropped_packets"],
              "sink_dropped": run["sink_dropped_packets"]}
    fates.update(shared)
    table = {RUN: {"offered": offered, "fates": fates}}
    if tenants is None:
        fates.update(_pipeline_fates(run))
        return table
    fates["multiplexed"] = run["processed_packets"]
    for name, view in tenants.items():
        table[name] = {
            "offered": run["ingress_packets"],
            "fates": {**shared, "not_subscribed": view["not_subscribed"],
                      **view["metered"], **_pipeline_fates(view)}}
    return table


def render_fates(table: Dict[str, dict]) -> str:
    """The fate table as text: the run's block, then one a tenant."""
    width = max(len(state) for block in table.values()
                for state in block["fates"])
    lines = []
    for name, block in table.items():
        lines.append(f"{name or 'run'}: {block['offered']} packets "
                     f"offered")
        for state, packets in block["fates"].items():
            share = packets / block["offered"] if block["offered"] else 0
            lines.append(f"  {state:<{width}}  {packets:>10}  "
                         f"{share * 100:>5.1f}%")
    return "\n".join(lines)


def _edges(counters: dict):
    """``(edge, packets in, packets accounted for)`` — equal, edge by
    edge, on a run that conserved every packet."""
    link = counters.get("link")
    run = counters.get("run")
    if link is not None:
        yield "link", link["offered"] + link["duplicated"], \
            link["delivered"] + sum(link["dropped"].values())
        if run is not None:
            yield "link -> nic", link["delivered"], run["ingress_packets"]
    if run is None:
        return
    tenants = counters.get("tenants", {})
    reached = run["processed_packets"]
    yield "nic -> cores", run["ingress_packets"] \
        - run["hw_dropped_packets"] - run["sink_dropped_packets"], \
        reached
    for who, view in [("run", run)] + list(tenants.items()):
        for i, name in enumerate(_CORE_COUNTERS):
            name = AGGREGATE_NAMES.get(name, name)
            yield f"{who}: cores -> report ({name})", \
                sum(row[i] for row in view["cores"].values()), view[name]
        for stage, (observed, invoked) in view["hist"].items():
            yield f"{who}: cycle histogram ({stage})", invoked, observed
        for stage, (cores, report, priced) in view["cycles"].items():
            yield f"{who}: cores -> report (cycles: {stage})", cores, report
            yield f"{who}: counts x costs -> report (cycles: {stage})", \
                priced, report
        ladder = view.get("ladder")
        if ladder is not None:
            yield f"{who}: packet filter -> overload ladder", \
                view["processed_packets"], ladder["seen"]
            yield f"{who}: ladder rungs -> layers", \
                sum(ladder["rungs"]), sum(ladder["layers"].values())
    for name, view in tenants.items():
        for shared in ("ingress_packets", "hw_dropped_packets",
                       "sink_dropped_packets"):
            yield f"nic -> tenant {name} ({shared})", run[shared], \
                view[shared]
        yield f"cores -> tenant {name}", reached, \
            view["processed_packets"] + view["not_subscribed"] \
            + sum(view["metered"].values())


def check_fates(counters: dict) -> None:
    """The run's one conservation check: every offered packet reaches
    exactly one counted fate. Raises ``AssertionError`` naming the
    first edge that leaks. ``counters`` is :func:`fate_counters`' dict
    (or only its ``link`` part, for a bare ``ImpairmentLedger``)."""
    for edge, came, went in _edges(counters):
        if came != went:
            raise AssertionError(
                f"{edge}: {came} in, {went} accounted for")
    if "run" not in counters:
        return
    for who, block in fate_table(counters).items():
        for state, packets in block["fates"].items():
            if packets < 0:
                raise AssertionError(
                    f"{who or 'run'}: {state}: {packets} packets — more "
                    f"went on than the edge before it let through")
    tenants = counters.get("tenants", {})
    for who, view in [("run", counters["run"])] + list(tenants.items()):
        # A multi-tenant report sums every tenant's packet filter
        # survivors: its bytes are comparable from there on.
        skip = 2 if tenants and who == "run" else 0
        sizes = view["bytes"][skip:]
        for layer, more, fewer in zip(FUNNEL_LAYERS[skip:], sizes,
                                      sizes[1:]):
            if not more >= fewer >= 0:
                raise AssertionError(
                    f"{who}: {layer}: {fewer}B out of {more}B in")


def check(report) -> None:
    """:func:`check_fates` on a finished run's report."""
    check_fates(fate_counters(report))
