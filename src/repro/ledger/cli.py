"""The ``ert-repro ledger`` subcommand: record / diff.

Exit codes: ``record`` returns 0 on success; ``diff`` returns 0 when no
throughput regression is flagged, 1 when one is (that non-zero exit is
the CI gate), and 2 on bad invocation (unknown benchmark, unreadable
inputs).  Kept separate from :mod:`repro.cli` (which hands ``ledger`` to
:func:`main`) so ``python -m repro.ledger.cli`` works standalone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.ledger.diff import (
    DEFAULT_THRESHOLD,
    diff_records,
    render_diff,
)
from repro.ledger.records import (
    DEFAULT_LEDGER_PATH,
    append_record,
    benchmarks_in,
    build_record,
    last_runs,
    read_ledger,
    snapshot_metrics,
)


def _metric_pair(text: str) -> "tuple[str, float]":
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}")
    try:
        return name, float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"metric {name!r} needs a numeric value, got {raw!r}")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``ledger`` arguments."""
    sub = parser.add_subparsers(dest="ledger_command", required=True)

    record = sub.add_parser(
        "record", help="append one run manifest to the ledger")
    record.add_argument("--ledger", default=DEFAULT_LEDGER_PATH,
                        metavar="FILE",
                        help=f"ledger path (default {DEFAULT_LEDGER_PATH})")
    record.add_argument("--benchmark", required=True,
                        help="benchmark name runs are grouped under")
    record.add_argument("--label", default="",
                        help="free-form run label (git sha, 'ci', ...)")
    record.add_argument("--metrics", default=None, metavar="FILE",
                        help="telemetry snapshot (--metrics-out file); "
                             "root-span times, counters and derived "
                             "throughput are folded in")
    record.add_argument("--metric", action="append", default=None,
                        type=_metric_pair, metavar="NAME=VALUE",
                        help="explicit metric (repeatable; overrides "
                             "derived values of the same name)")

    diff = sub.add_parser(
        "diff", help="compare the last two runs per benchmark; exit 1 "
                     "on a throughput regression")
    diff.add_argument("--ledger", default=DEFAULT_LEDGER_PATH,
                      metavar="FILE")
    diff.add_argument("--benchmark", default=None,
                      help="restrict to one benchmark (default: every "
                           "benchmark with at least two runs)")
    diff.add_argument("--threshold", type=float,
                      default=DEFAULT_THRESHOLD, metavar="FRACTION",
                      help="fractional throughput drop that counts as a "
                           f"regression (default {DEFAULT_THRESHOLD})")


def _cmd_record(args: argparse.Namespace) -> int:
    metrics: "dict[str, float]" = {}
    telemetry_summary: "dict[str, Any] | None" = None
    if args.metrics:
        from repro.telemetry import load_snapshot

        try:
            snap = load_snapshot(args.metrics)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read --metrics {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        metrics.update(snapshot_metrics(snap))
        telemetry_summary = {"counters": snap.get("counters", {}),
                             "spans": {path: stat.get("total_s")
                                       for path, stat
                                       in snap.get("spans", {}).items()
                                       if "/" not in path}}
    for name, value in (args.metric or []):
        metrics[name] = value
    if not metrics:
        print("nothing to record: give --metrics and/or --metric",
              file=sys.stderr)
        return 2
    record = build_record(args.benchmark, metrics, label=args.label,
                          telemetry=telemetry_summary)
    append_record(args.ledger, record)
    print(f"recorded {len(metrics)} metric(s) for {args.benchmark!r} "
          f"in {args.ledger}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        records = read_ledger(args.ledger)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.benchmark is not None:
        names = [args.benchmark]
        if len(last_runs(records, args.benchmark)) < 2:
            print(f"benchmark {args.benchmark!r} has fewer than two "
                  f"runs in {args.ledger}", file=sys.stderr)
            return 2
    else:
        names = [name for name in benchmarks_in(records)
                 if len(last_runs(records, name)) >= 2]
        if not names:
            print(f"no benchmark in {args.ledger} has two runs yet; "
                  f"nothing to diff")
            return 0
    failed = False
    blocks = []
    for name in names:
        previous, current = last_runs(records, name)
        try:
            deltas = diff_records(previous, current,
                                  threshold=args.threshold)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        blocks.append(render_diff(name, previous, current, deltas,
                                  threshold=args.threshold))
        failed = failed or any(d.regression for d in deltas)
    print("\n\n".join(blocks))
    return 1 if failed else 0


_SUBCOMMANDS = {
    "record": _cmd_record,
    "diff": _cmd_diff,
}


def run(args: argparse.Namespace) -> int:
    """Execute a configured ``ledger`` invocation; returns the exit
    code."""
    return _SUBCOMMANDS[args.ledger_command](args)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ert-repro ledger",
        description="record benchmark runs and gate on regressions")
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
