"""The impairment ledger: every impaired packet, attributed.

The PR-4 loss ledger's discipline — degraded output must carry a
precise statement of what was *not* analyzed — extends to the link
layer here. Every packet the impairment layer touches is counted by
cause and by ingress link, and the conservation invariant

    offered + duplicated == delivered + lost + quarantined + link_shed

holds exactly. It is the first edge of the run's one conservation
check (:func:`repro.telemetry.funnel.check_fates`), which chains it
with the NIC's ``ingress == delivered`` and every later fate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Drop causes, in reporting order.
DROP_CAUSES = ("loss", "quarantine", "link_disabled")


class ImpairmentLedger:
    """Counters for one impaired link layer (parent-side, one per run)."""

    def __init__(self, config_dict: Optional[Dict] = None) -> None:
        #: The configuration that produced this ledger (for exports).
        self.config = config_dict or {}
        self.offered = 0
        self.offered_bytes = 0
        self.delivered = 0
        self.delivered_bytes = 0
        #: Extra copies emitted by the duplication model.
        self.duplicated = 0
        #: Frames mutated by the corruption model (and the subset whose
        #: checksums were recomputed, making the damage silent).
        self.corrupted = 0
        self.corrupted_silent = 0
        #: Frames displaced later than their arrival position.
        self.reordered = 0
        #: Frames given extra latency by the jitter model.
        self.delayed = 0
        #: Drops by cause: the loss model, checksum quarantine, and the
        #: disable-and-repair policy shedding a disabled link.
        self.dropped: Dict[str, int] = {c: 0 for c in DROP_CAUSES}
        self.dropped_bytes: Dict[str, int] = {c: 0 for c in DROP_CAUSES}
        #: Per-link (ingress port) attribution.
        self.per_link: Dict[int, Dict[str, int]] = {}
        #: Disable/repair transitions: (virtual ts, link, event, detail).
        self.link_events: List[Tuple[float, int, str, str]] = []

    # -- recording -----------------------------------------------------
    def _link(self, port: int) -> Dict[str, int]:
        link = self.per_link.get(port)
        if link is None:
            link = {"offered": 0, "delivered": 0, "loss": 0,
                    "corrupted": 0, "quarantine": 0, "link_disabled": 0,
                    "disables": 0}
            self.per_link[port] = link
        return link

    def record_offered(self, port: int, wire_bytes: int) -> None:
        self.offered += 1
        self.offered_bytes += wire_bytes
        self._link(port)["offered"] += 1

    def record_delivered(self, port: int, wire_bytes: int) -> None:
        self.delivered += 1
        self.delivered_bytes += wire_bytes
        self._link(port)["delivered"] += 1

    def record_drop(self, port: int, wire_bytes: int, cause: str) -> None:
        self.dropped[cause] += 1
        self.dropped_bytes[cause] += wire_bytes
        self._link(port)[cause] += 1

    def record_corrupted(self, port: int, silent: bool) -> None:
        self.corrupted += 1
        if silent:
            self.corrupted_silent += 1
        self._link(port)["corrupted"] += 1

    def record_link_event(self, ts: float, port: int, event: str,
                          detail: str) -> None:
        self.link_events.append((ts, port, event, detail))
        if event == "disable":
            self._link(port)["disables"] += 1

    # -- reading -------------------------------------------------------
    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    @property
    def goodput_fraction(self) -> float:
        """Delivered wire bytes over offered wire bytes."""
        if not self.offered_bytes:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    def check(self) -> None:
        """Assert the link-layer conservation invariant."""
        from repro.telemetry.funnel import check_fates, link_counters
        check_fates({"link": link_counters(self)})

    def totals(self) -> Dict[str, int]:
        """The link-wide scalar counters, by name."""
        return {name: getattr(self, name) for name in (
            "offered", "offered_bytes", "delivered", "delivered_bytes",
            "duplicated", "corrupted", "corrupted_silent", "reordered",
            "delayed")}

    def to_dict(self) -> Dict:
        """Deterministic JSON-friendly snapshot."""
        return {
            **self.totals(),
            "dropped": dict(self.dropped),
            "dropped_bytes": dict(self.dropped_bytes),
            "per_link": {str(port): dict(link) for port, link
                         in sorted(self.per_link.items())},
            "link_events": [list(event) for event in self.link_events],
            "config": self.config,
        }

    def describe(self) -> str:
        parts = [
            f"impairment: offered={self.offered} "
            f"delivered={self.delivered} "
            f"(goodput {self.goodput_fraction * 100:.1f}%)",
            f"  lost={self.dropped['loss']} "
            f"quarantined={self.dropped['quarantine']} "
            f"link_shed={self.dropped['link_disabled']} "
            f"duplicated={self.duplicated}",
            f"  corrupted={self.corrupted} "
            f"(silent {self.corrupted_silent}) "
            f"reordered={self.reordered} delayed={self.delayed}",
        ]
        disables = [e for e in self.link_events if e[2] == "disable"]
        if disables:
            links = sorted({e[1] for e in disables})
            parts.append(f"  link disables: {len(disables)} "
                         f"on links {links}")
        return "\n".join(parts)
