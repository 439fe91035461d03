"""Exporters and the human-readable profile report.

A telemetry *snapshot* is the plain-dict form produced by
:func:`repro.telemetry.snapshot`::

    {"counters": {...}, "gauges": {...}, "histograms": {...},
     "spans": {...}}

This module writes snapshots as JSON (one run per file), reads them
back, and renders the per-stage table behind ``ert-repro report`` and
the CLI's ``--profile`` flag.  Everything here is standard-library only so the
telemetry package never drags the analysis stack into hot paths.
"""

from __future__ import annotations

import json

from repro.telemetry.metrics import bucket_percentile


def write_json(path, snapshot: dict) -> None:
    """Write one snapshot as an indented JSON document."""
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_trace(path, document: dict) -> None:
    """Write a Chrome/Perfetto trace document (the object produced by
    :func:`repro.telemetry.current_trace` /
    :func:`repro.telemetry.events.trace_document`) as compact JSON.
    Open the file at https://ui.perfetto.dev or ``chrome://tracing``."""
    with open(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")


def load_snapshot(path) -> dict:
    """Read a snapshot written by :func:`write_json` (missing sections
    are filled in empty, so partial files still render)."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("not a telemetry snapshot (no JSON object)")
    # ``exemplars`` is optional -- present only when reads were sampled
    # -- so loading must not invent it or write/load stops round-tripping.
    for key in ("counters", "gauges", "histograms", "spans"):
        data.setdefault(key, {})
    return data


# ----------------------------------------------------------------------
# Profile rendering
# ----------------------------------------------------------------------


def _format_table(headers: "list[str]", rows: "list[list[str]]") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)))
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:,.2f}"


def _render_spans(spans: dict) -> str:
    """Per-stage timing table: indentation mirrors span nesting and the
    ``% root`` column is relative to each stage's top-level ancestor."""
    if not spans:
        return "(no spans recorded)"
    roots = {path: stat for path, stat in spans.items() if "/" not in path}
    rows = []
    for path in sorted(spans):
        stat = spans[path]
        depth = path.count("/")
        label = "  " * depth + path.rsplit("/", 1)[-1]
        root = roots.get(path.split("/", 1)[0])
        share = (100.0 * stat["total_s"] / root["total_s"]
                 if root and root["total_s"] > 0 else 100.0)
        rows.append([label, f"{stat['count']:,}", _ms(stat["total_s"]),
                     _ms(stat["self_s"]), _ms(stat["total_s"]
                                              / max(1, stat["count"])),
                     f"{share:.1f}"])
    return _format_table(
        ["stage", "calls", "total ms", "self ms", "ms/call", "% root"],
        rows)


def render_profile(snapshot: dict, title: "str | None" = None) -> str:
    """The full human-readable report: spans, counters, gauges,
    histogram summaries."""
    parts = []
    if title:
        parts.append(title)
    parts.append("== per-stage wall clock ==")
    parts.append(_render_spans(snapshot.get("spans", {})))
    counters = snapshot.get("counters", {})
    if counters:
        parts.append("")
        parts.append("== counters ==")
        parts.append(_format_table(
            ["counter", "value"],
            [[name, f"{value:,}"] for name, value
             in sorted(counters.items())]))
    gauges = snapshot.get("gauges", {})
    if gauges:
        parts.append("")
        parts.append("== gauges ==")
        parts.append(_format_table(
            ["gauge", "value"],
            [[name, f"{value:,.6g}"] for name, value
             in sorted(gauges.items())]))
    histograms = snapshot.get("histograms", {})
    if histograms:
        parts.append("")
        parts.append("== histograms ==")
        rows = []
        for name, hist in sorted(histograms.items()):
            count = hist.get("count", 0)
            mean = hist["total"] / count if count else 0.0
            row = [name, f"{count:,}", f"{mean:,.1f}",
                   f"{hist['min']:g}" if hist["min"] is not None
                   else "-",
                   f"{hist['max']:g}" if hist["max"] is not None
                   else "-"]
            for q in (0.50, 0.90, 0.99, 0.999):
                value = bucket_percentile(
                    hist["edges"], hist["counts"], count,
                    hist["min"], hist["max"], q)
                row.append(f"{value:,.1f}" if value is not None else "-")
            rows.append(row)
        parts.append(_format_table(
            ["histogram", "samples", "mean", "min", "max", "p50", "p90",
             "p99", "p99.9"], rows))
    exemplars = snapshot.get("exemplars", {})
    if exemplars.get("slowest"):
        parts.append("")
        parts.append("== slowest reads (exemplar slowlog) ==")
        parts.append(_render_slowlog(exemplars))
    return "\n".join(parts)


def _render_slowlog(exemplars: dict) -> str:
    """Table view of the exemplar slowlog: the ten top recorded reads by
    wall time, with the counters that explain the cost.  Feed any read
    id shown here to ``ert-repro explain`` for the full breakdown."""
    rows = []
    for rec in exemplars.get("slowest", [])[:10]:
        counters = rec.get("counters", {})
        top = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        rows.append([rec["read_id"], rec.get("task", "-"),
                     f"{rec['wall_ms']:,.3f}",
                     " ".join(f"{k}={v:,}" for k, v in top) or "-"])
    if not rows:
        return "(no exemplars recorded)"
    return _format_table(["read", "task", "wall ms", "top counters"], rows)
