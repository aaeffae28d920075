"""Exporters: text summary tables, metrics JSON, and Chrome trace JSON.

The Chrome exporter emits the trace-event format (complete events,
``ph: "X"``) that ``chrome://tracing`` and Perfetto load directly; span
start times are normalised to the session origin so a trace starts at
t=0 regardless of wall-clock epoch, and pid/tid are preserved so
ProcessPool workers show up as their own rows.
"""

from __future__ import annotations

import json
from typing import Iterable

TRACE_SCHEMA = 1
METRICS_SCHEMA = 1


# ---------------------------------------------------------------------------
# Chrome trace-event format


def chrome_trace(spans: Iterable[dict], origin: float) -> dict:
    """Build a ``chrome://tracing``-loadable document from span dicts."""

    events = []
    for span in spans:
        args = {"depth": span.get("depth", 0)}
        args.update(span.get("attrs", {}))
        events.append({
            "name": span["name"],
            "ph": "X",
            "ts": (span["ts"] - origin) * 1e6,   # microseconds since origin
            "dur": span["dur"] * 1e6,
            "pid": span.get("pid", 0),
            "tid": span.get("tid", 0),
            "args": args,
        })
    events.sort(key=lambda event: event["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "origin": origin},
    }


def write_trace(path: str, session) -> dict:
    """Serialize a session's spans as Chrome trace JSON; returns the doc."""

    spans = session.trace.snapshot() if session.trace is not None else []
    document = chrome_trace(spans, session.origin)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "traceEvents" not in document:
        raise ValueError(f"{path}: not a Chrome trace-event file "
                         "(missing 'traceEvents')")
    return document


# ---------------------------------------------------------------------------
# Metrics JSON


def write_metrics(path: str, session) -> dict:
    """Serialize a session's metrics registry as machine-readable JSON."""

    document = {
        "schema": METRICS_SCHEMA,
        "metrics": session.metrics.flattened(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_metrics(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "metrics" not in document:
        raise ValueError(f"{path}: not a metrics snapshot (missing 'metrics')")
    return document


# ---------------------------------------------------------------------------
# Text summaries


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def metrics_table(flattened: dict) -> str:
    """Human-readable table of a flattened metrics snapshot."""

    rows = []
    for name, value in flattened.items():
        if isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = str(value)
        rows.append([name, rendered])
    if not rows:
        return "(no metrics recorded)"
    return _format_table(["metric", "value"], rows)


def summarize_trace(document: dict, top: int = 0) -> str:
    """Aggregate a Chrome trace per span name: count, total, mean, max.

    Also reports the trace extent, the share of wall time covered by
    top-level (depth-0) spans, and — when campaign job spans are present
    — the cache-hit ratio, which is what the CI obs-smoke job asserts.
    ``top`` keeps the table to the spans with the largest total time; 0
    keeps every span.
    """

    if top < 0:
        raise ValueError("top must be non-negative (0 shows every span), "
                         f"got {top}")
    events = [event for event in document.get("traceEvents", [])
              if event.get("ph") == "X"]
    if not events:
        return "(empty trace)"

    by_name: dict[str, dict] = {}
    for event in events:
        entry = by_name.setdefault(event["name"], {
            "count": 0, "total": 0.0, "max": 0.0,
        })
        entry["count"] += 1
        entry["total"] += event["dur"]
        entry["max"] = max(entry["max"], event["dur"])

    ordered = sorted(by_name.items(), key=lambda item: -item[1]["total"])
    if top:
        ordered = ordered[:top]
    rows = []
    for name, entry in ordered:
        mean = entry["total"] / entry["count"]
        rows.append([
            name,
            str(entry["count"]),
            f"{entry['total'] / 1e3:.3f}",
            f"{mean / 1e3:.3f}",
            f"{entry['max'] / 1e3:.3f}",
        ])
    table = _format_table(
        ["span", "count", "total_ms", "mean_ms", "max_ms"], rows)

    start = min(event["ts"] for event in events)
    end = max(event["ts"] + event["dur"] for event in events)
    extent = end - start
    top_level = sum(event["dur"] for event in events
                    if event.get("args", {}).get("depth", 0) == 0)
    coverage = (top_level / extent) if extent > 0 else 1.0

    lines = [table, "",
             f"spans: {len(events)}  extent: {extent / 1e3:.3f} ms  "
             f"top-level coverage: {100 * coverage:.1f}%"]

    jobs = [event for event in events if event["name"] == "campaign.job"]
    if jobs:
        cached = sum(1 for event in jobs
                     if event.get("args", {}).get("cached"))
        lines.append(
            f"campaign jobs: {len(jobs)}  cached: {cached} "
            f"({100 * cached / len(jobs):.1f}%)")
    return "\n".join(lines)
