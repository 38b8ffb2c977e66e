"""Compare two ``run.py --out`` files: ``compare.py BASE.json NEW.json``.

For every (workload, end-to-end metric) pair it prints the base value,
the new value, their ratio, the bound and a verdict:

- ``unresolved``: on either side the run's own repetitions disagree
  about the value by more than the bound (odd against even repetitions),
  so the pair cannot show a change that small; or the metric has no
  bound for this pair;
- ``regressed``: the new value is worse than the base by more than the
  bound;
- ``improved``: the new value is better than the base by more than the
  bound;
- ``unchanged``: anything else.

Two files from one seed ran the same packets, so they are held to the
tighter bounds below (``zero_loss_gbps`` to equality: ledger arithmetic
repeats exactly). Files from different seeds also differ by what the
traffic happened to contain and get BENCHMARK.json's wider bounds, which
are the ones its driver applies; the wall-clock timings have none there
and stay unresolved. ``failed_share`` has bound 0 always.
One pair shows no more than "no change beyond the bound": a claimed gain
still needs ten alternating pairs. Exits 1 if any pair regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: How far a value may worsen between two runs of one seed. The issue
#: asked for 10 % on the timings and 15 % on set-up; two full runs of
#: one commit on the 2-vCPU sandbox differed by up to 14.6 % and 19 %.
ONE_SEED_BOUNDS = {
    "pkts_per_s": 0.15,
    "cpu_us_per_pkt": 0.15,
    "zero_loss_gbps": 0.0,
    "peak_rss_mb": 0.10,
    "setup_s": 0.25,
}


def load_bounds() -> Dict[str, Tuple[str, Optional[float]]]:
    """``{metric: (better, bound across seeds)}`` from BENCHMARK.json.
    The wall-clock timings are listed there without a bound (no bound
    the contract allows holds across seeds on a shared host): None."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    across = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return {name: (better[name], across.get(name))
            for name in ONE_SEED_BOUNDS}


def _spread(metric: Dict) -> float:
    """How far the run's own repetitions disagree about the value: the
    gap between its odd and its even repetitions' values where the
    value is built from slices, else the quartile spread."""
    if "split" in metric:
        return metric["split"]
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(base: Dict, new: Dict, better: str,
            bound: Optional[float]) -> str:
    """Classify one metric pair; see the module docstring."""
    if bound is None or max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    gain = new["value"] - base["value"]
    if better == "lower":
        gain = -gain
    if base["value"]:  # failed_share's base is 0: compare it as it is
        gain /= abs(base["value"])
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "unchanged"


def _failed_share(result: Dict) -> Dict:
    return {"value": result["failed"] / result["attempted"],
            "unit": "ratio"}


def pairs(base: Dict, new: Dict, bounds: Dict
          ) -> Iterator[Tuple[str, str, Dict, Dict, str, Optional[float]]]:
    one_seed = base["host"]["seed"] == new["host"]["seed"]
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        measured = b["end_to_end"] and n["end_to_end"]
        for name, (better, bound) in bounds.items() if measured else ():
            if one_seed:
                bound = ONE_SEED_BOUNDS[name]
            yield (workload, name, b["end_to_end"][name],
                   n["end_to_end"][name], better, bound)
        yield (workload, "failed_share", _failed_share(b),
               _failed_share(n), "lower", 0.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    counts = {"improved": 0, "unchanged": 0, "regressed": 0,
              "unresolved": 0}
    print(f"{'workload':<16} {'metric':<15} {'base':>13} {'new':>13} "
          f"{'unit':<7} {'new/base':>9} {'bound':>6} {'spread':>7}  "
          "verdict")
    for workload, name, b, n, better, bound in pairs(
            base, new, load_bounds()):
        result = verdict(b, n, better, bound)
        counts[result] += 1
        ratio = f"{n['value'] / b['value']:.4f}" if b["value"] else "-"
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{workload:<16} {name:<15} {b['value']:>13.6g} "
              f"{n['value']:>13.6g} {b['unit']:<7} {ratio:>9} "
              f"{shown:>6} {max(_spread(b), _spread(n)):>7.3f}  "
              f"{result}")
    for side, data in (("base", base), ("new", new)):
        for workload, reason in data.get("skipped", {}).items():
            print(f"{workload:<16} skipped in {side}: {reason}")
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
