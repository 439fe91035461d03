"""Reporters: the human text listing and the machine JSON document."""

from __future__ import annotations

import json

from repro.checks.engine import CheckReport

#: Schema version of the JSON document; bump on incompatible change.
JSON_SCHEMA_VERSION = 2


def render_text(report: CheckReport) -> str:
    """One line per violation plus a summary line (empty-safe)."""
    lines = [violation.format() for violation in report.violations]
    counts = report.counts_by_rule()
    if counts:
        breakdown = ", ".join(f"{rule} x{n}" for rule, n in counts.items())
        summary = (f"{len(report.violations)} violation(s) in "
                   f"{report.files_checked} file(s) [{breakdown}]")
    else:
        summary = (f"ok: {report.files_checked} file(s) clean")
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed by pragma)"
    lines.append(summary)
    return "\n".join(lines)


def report_as_dict(report: CheckReport) -> "dict[str, object]":
    """The JSON-ready document (see ``docs/static_analysis.md``)."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "violation_count": len(report.violations),
        "suppressed": report.suppressed,
        "counts": report.counts_by_rule(),
        "violations": [v.as_dict() for v in report.violations],
    }


def render_json(report: CheckReport) -> str:
    return json.dumps(report_as_dict(report), indent=2, sort_keys=False)
