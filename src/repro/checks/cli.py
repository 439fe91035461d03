"""The ``ert-repro check`` subcommand.

Exit codes: 0 clean, 1 violations found, 2 bad invocation (argparse,
unknown rule ids).
Kept separate from :mod:`repro.cli`, which hands ``check`` to
:func:`main` and imports this package for no other subcommand, so
``python -m repro.checks.cli`` works on a tree where the heavy numeric
packages will not even import.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.checks.engine import (
    DEFAULT_EXCLUDES,
    Rule,
    all_rules,
    run_checks,
)
from repro.checks.report import render_text

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``check`` arguments."""
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to check "
             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="GLOB",
        help=f"extra path patterns to skip (defaults always apply: "
             f"{', '.join(DEFAULT_EXCLUDES)})")


def _selected_rules(args: argparse.Namespace) -> "List[Rule] | None":
    """Rules after the --rules filter; None means exit 2 (printed)."""
    rules = all_rules()
    if not args.rules:
        return rules
    wanted = {rule_id.strip() for rule_id in args.rules.split(",")
              if rule_id.strip()}
    known = {rule.id for rule in rules}
    unknown = wanted - known
    if unknown:
        print(f"unknown rule id(s): {', '.join(sorted(unknown))} "
              f"(known: {', '.join(sorted(known))})", file=sys.stderr)
        return None
    return [rule for rule in rules if rule.id in wanted]


def run(args: argparse.Namespace) -> int:
    """Execute a configured ``check`` invocation; returns the exit code."""
    rules = _selected_rules(args)
    if rules is None:
        return 2
    excludes = DEFAULT_EXCLUDES + tuple(args.exclude or ())
    report = run_checks(args.paths, rules=rules, excludes=excludes)
    print(render_text(report))
    return 0 if report.ok else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ert-repro check",
        description="run the repository's static-analysis rules")
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
