"""Resilience subsystem: deterministic fault injection and graceful
degradation under pressure.

See :mod:`repro.resilience.faults` for the fault-plan model;
``docs/RESILIENCE.md`` is the narrative guide.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    CoreFaultInjector,
    FaultPlan,
    FaultReport,
    FaultSpec,
    PacketFaultInjector,
    build_fault_report,
)

__all__ = [
    "FAULT_KINDS",
    "CoreFaultInjector",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "PacketFaultInjector",
    "build_fault_report",
]
