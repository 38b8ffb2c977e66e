"""Deterministic bursty traffic: a baseline load with arrival spikes.

The overload ladder (:mod:`repro.overload`) degrades gracefully under
*transient* pressure and recovers when it passes. Exercising that needs
traffic whose arrival rate is deliberately non-stationary: this module
wraps the campus generator with a seeded burst schedule — uniform
baseline connection arrivals plus configurable windows during which the
arrival rate is multiplied. Everything downstream (flow construction,
payloads, perturbation) is the campus generator's, so bursty traffic
stresses the same parsing path as the steady mix.

Determinism: for a fixed seed, profile, and window schedule the packet
stream is byte-identical run to run and backend-independent, which is
what lets tests assert exact shed counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.packet.mbuf import Mbuf
from repro.traffic.campus import CampusProfile, CampusTrafficGenerator
from repro.traffic.flows import merge_flows


@dataclass(frozen=True)
class BurstWindow:
    """One arrival-rate spike, in fractions of the run duration.

    ``start`` and ``duration`` are fractions in [0, 1] of the stream's
    total duration; ``intensity`` multiplies the baseline arrival rate
    inside the window (8.0 = eight times the steady-state rate).
    """

    start: float = 0.4
    duration: float = 0.2
    intensity: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= 1.0:
            raise ValueError("burst start must be a fraction in [0, 1]")
        if not 0.0 < self.duration <= 1.0:
            raise ValueError("burst duration must be in (0, 1]")
        if self.intensity < 1.0:
            raise ValueError("burst intensity must be >= 1.0")


class BurstTrafficGenerator:
    """Campus-mix traffic with deterministic arrival-rate bursts."""

    def __init__(
        self,
        seed: int = 0,
        profile: Optional[CampusProfile] = None,
        windows: Optional[Sequence[BurstWindow]] = None,
    ) -> None:
        # Short-lived flows by default: the burst should pressure the
        # admission path, not sit in week-long streaming connections.
        self.profile = profile or CampusProfile(long_lived_fraction=0.0)
        self.windows = tuple(windows) if windows is not None \
            else (BurstWindow(),)
        self._campus = CampusTrafficGenerator(seed, self.profile)
        self.rng = self._campus.rng

    def packets(
        self,
        duration: float = 1.0,
        gbps: float = 0.1,
        start_ts: float = 0.0,
    ) -> List[Mbuf]:
        """Generate ``duration`` seconds of bursty traffic.

        ``gbps`` sets the *baseline* rate; each window contributes its
        own extra arrivals on top, so the total volume exceeds the
        baseline by ``sum((intensity - 1) * duration_fraction)``.
        """
        target_bytes = gbps * 1e9 / 8 * duration
        mean_conn_bytes = self.profile.estimate_mean_conn_bytes()
        n_base = max(1, int(target_bytes / mean_conn_bytes))
        rng = self.rng
        arrivals = [start_ts + rng.random() * duration
                    for _ in range(n_base)]
        for window in self.windows:
            extra = int(n_base * (window.intensity - 1.0)
                        * window.duration)
            w_start = start_ts + window.start * duration
            w_len = window.duration * duration
            arrivals.extend(w_start + rng.random() * w_len
                            for _ in range(extra))
        arrivals.sort()
        return merge_flows(
            self._campus._one_connection(ts) for ts in arrivals)
