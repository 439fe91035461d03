"""The reporter: one line per violation and a summary line."""

from __future__ import annotations

from repro.checks.engine import CheckReport


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

