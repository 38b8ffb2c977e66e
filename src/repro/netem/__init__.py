"""repro.netem — seeded, deterministic link impairment + mitigation.

See docs/SCENARIOS.md for the scenario-suite guide.
"""

from repro.netem.impair import (
    ImpairedLink,
    corrupt_frame,
    fix_checksums,
    frame_checksums_ok,
)
from repro.netem.ledger import (
    DROP_CAUSES,
    ImpairmentLedger,
)
from repro.netem.model import (
    GilbertElliott,
    GilbertElliottChain,
    ImpairmentConfig,
)
from repro.netem.trace import CLEAN, Decision, ImpairmentTrace

__all__ = [
    "CLEAN",
    "DROP_CAUSES",
    "Decision",
    "GilbertElliott",
    "GilbertElliottChain",
    "ImpairedLink",
    "ImpairmentConfig",
    "ImpairmentLedger",
    "ImpairmentTrace",
    "corrupt_frame",
    "fix_checksums",
    "frame_checksums_ok",
]
