"""The run bundle: one directory holding everything a run reported.

``write_bundle(directory, report)`` is the only writer of run output
(the CLI's ``--report-dir``). Each artifact is written only when the
run produced it; ``manifest.json`` lists the files present and, for
each absent one, why. Everything volatile — host, wall time, argv,
``backend_health`` — lives in the manifest alone, so every other file
is byte-identical between the sequential backend and any worker count.
``check_bundle(directory)`` (``python -m repro.telemetry.bundle DIR``)
reloads a bundle, checks the manifest against the directory and the
fate counters for conservation, and returns the fate table as text.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry import export
from repro.telemetry.funnel import check_fates, fate_counters, \
    fate_table, render_fates


def _json(payload, sort_keys: bool = True, **kwargs) -> str:
    return json.dumps(payload, sort_keys=sort_keys, **kwargs) + "\n"


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _artifacts(report) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(file name, text or None, why there is none)`` per artifact."""
    stats, spans, tenancy = report.stats, report.spans, report.tenancy
    counters = fate_counters(report)
    yield "stats.json", json.dumps(stats.to_dict(), indent=2), ""
    yield "fates.json", _json(  # unsorted: fates stay in pipeline order
        {"counters": counters, "fates": fate_table(counters)},
        sort_keys=False, indent=1), ""
    yield "metrics.prom", export.render_metrics(report), ""
    yield "trace.ndjson", _lines(export.trace_lines(stats)) or None, \
        "no connection was sampled for tracing"
    no_spans = "span recorder off"
    yield "spans.json", spans and _json(
        spans.chrome_trace(), separators=(",", ":")), no_spans
    yield "spans.ndjson", spans and _lines(spans.ndjson_lines()), no_spans
    flight = spans.flight_dump() if spans is not None else None
    yield "flight.json", flight and flight["dumps"] and _json(
        flight, indent=1), \
        no_spans if spans is None else "no flight-recorder trigger fired"
    yield "overload.ndjson", report.overload and _lines(
        export.overload_lines(report.overload)), "overload policy off"
    yield "impairment.ndjson", report.impairment and _lines(
        export.impairment_lines(report.impairment)), \
        "clean link: no impairment configured"
    yield "tenants.json", tenancy and _json({
        "epoch": tenancy["epoch"], "active": tenancy["active"],
        "tenants": {
            name: {"stats": tstats.to_dict(),
                   "shed": (tenancy["shed"][name].to_dict()
                            if name in tenancy["shed"] else None)}
            for name, tstats in tenancy["tenants"].items()}},
        indent=2), "single subscription"
    yield "faults.json", report.faults and _json(
        report.faults.to_dict(), indent=2), \
        "no faults: no fault plan, policy or supervision configured"


def prepare(directory) -> Path:
    """Create the bundle directory (before the run, so a bad path costs
    nothing); a path that exists and is not a directory is an error."""
    path = Path(directory)
    if path.exists() and not path.is_dir():
        raise ConfigError(
            f"--report-dir {path} exists and is not a directory: the "
            f"bundle is a directory of files; name a new path or an "
            f"existing directory")
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_bundle(directory, report, config=None, argv=None) -> dict:
    """Write ``report``'s bundle into ``directory``; returns the
    manifest. ``config`` (a ``RuntimeConfig``) and ``argv`` are
    recorded there when given."""
    import repro
    path = prepare(directory)
    files, absent = [], {}
    for name, text, reason in _artifacts(report):
        if text:
            (path / name).write_text(text)
            files.append(name)
        else:
            (path / name).unlink(missing_ok=True)  # a reused directory
            absent[name] = reason
    manifest = {
        "version": repro.__version__,
        "argv": argv,
        "config": config and vars(config),  # nested objects: repr
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "backend_health": report.backend_health,
        "files": files,
        "absent": absent,
    }
    (path / "manifest.json").write_text(
        _json(manifest, indent=2, default=repr))
    return manifest


def check_bundle(directory) -> str:
    """Re-check a written bundle; returns its fate table as text.
    Raises ``AssertionError`` on a manifest that does not match the
    directory, fates that do not follow from their counters or agree
    with ``stats.json``, or a leaking edge."""
    path = Path(directory)
    manifest = json.loads((path / "manifest.json").read_text())
    present = sorted(p.name for p in path.iterdir()
                     if p.name != "manifest.json")
    if present != sorted(manifest["files"]) or \
            set(present) & set(manifest["absent"]):
        raise AssertionError(
            f"manifest lists {sorted(manifest['files'])} (absent: "
            f"{sorted(manifest['absent'])}), directory holds {present}")
    fates = json.loads((path / "fates.json").read_text())
    counters = fates["counters"]
    check_fates(counters)
    if fate_table(counters) != fates["fates"]:
        raise AssertionError(
            "fates.json: the table does not follow from its counters")
    stats = json.loads((path / "stats.json").read_text())
    for name in ("ingress_packets", "hw_dropped_packets",
                 "sink_dropped_packets", "processed_packets",
                 "conns_shed"):
        if stats[name] != counters["run"][name]:
            raise AssertionError(
                f"stats.json {name} {stats[name]} != fates.json "
                f"{counters['run'][name]}")
    return render_fates(fates["fates"])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m repro.telemetry.bundle DIR")
    try:
        print(check_bundle(sys.argv[1]))
    except (OSError, KeyError, ValueError, AssertionError) as exc:
        sys.exit(f"error: {sys.argv[1]}: {exc}")
