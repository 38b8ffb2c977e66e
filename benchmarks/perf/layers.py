"""Bucket one cProfile run's self time into the layers of ``src/repro``.

A layer is a package under ``src/repro`` (``core`` split by file, since
its files are what ROADMAP items 2-4 each rewrite). Self time is
``tottime``; a built-in's time is charged to the module that called it,
so ``struct.unpack`` in the decoder is decode work and ``dict.get`` in
conntrack is conntrack work. Everything lands in exactly one bucket, so
the buckets sum to the traced whole.
"""

from __future__ import annotations

import pstats
from typing import Dict, Tuple

LAYERS = (
    "traffic", "packet", "nic", "filter", "conntrack", "stream",
    "protocols", "core.pipeline", "core.runtime", "core.cycles",
    "core.parallel", "core.shm", "telemetry", "tenancy", "other",
)

_CORE_FILES = {
    "runtime.py": "core.runtime",
    "cycles.py": "core.cycles", "stats.py": "core.cycles",
    "monitor.py": "core.cycles",
    "parallel.py": "core.parallel",
    "shm.py": "core.shm",
}

_MARK = "/repro/"


def layer_of(filename: str) -> str:
    """The layer a source path belongs to. Generated filter code is the
    filter layer's; the rest of ``core`` (executor, datatypes,
    subscription) is delivery, which belongs with the pipeline."""
    if filename == "<retina-filter>":
        return "filter"
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    package, _, rest = filename[at + len(_MARK):].partition("/")
    if package == "core":
        return _CORE_FILES.get(rest, "core.pipeline")
    return package if package in LAYERS else "other"


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def bucket(profile) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": n}}`` for every layer."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        if not _is_builtin(func):
            row = out[layer_of(func[0])]
            row["self_s"] += tottime
            row["calls"] += ncalls
            continue
        charged = 0.0
        for caller, (_c, caller_calls, caller_tt, _t) in callers.items():
            layer = "other" if _is_builtin(caller) \
                else layer_of(caller[0])
            out[layer]["self_s"] += caller_tt
            out[layer]["calls"] += caller_calls
            charged += caller_tt
        # A built-in entered from outside the profiled region (the
        # profiler's own disable call) has no caller on record.
        out["other"]["self_s"] += tottime - charged
    return out
