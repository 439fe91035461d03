"""The benchmark run ledger: persisted run manifests + regression diffs.

A *ledger* is an append-only JSONL file (``benchmarks/ledger.jsonl`` by
default) holding one manifest per recorded run: what was run (benchmark
name, workload parameters, config), where (environment fingerprint --
python, platform, cpu count), and what came out (numeric metrics,
given on the command line, derived from a telemetry snapshot or passed
by a benchmark script).  ``ert-repro ledger diff`` compares the last
two runs of each benchmark and flags throughput regressions beyond a
threshold with a non-zero exit, which is what makes the ledger a CI
gate rather than a log.

The package sits at the top of the layering DAG (alongside
``repro.analysis`` and the CLI): it may read telemetry snapshots but
nothing below it may import it (checker rule ERT005).
"""

from __future__ import annotations

from repro.ledger.diff import (
    MetricDelta,
    diff_records,
    is_throughput_metric,
    render_diff,
)
from repro.ledger.records import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    append_record,
    build_record,
    env_fingerprint,
    last_runs,
    read_ledger,
    snapshot_metrics,
)

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "MetricDelta",
    "append_record",
    "build_record",
    "diff_records",
    "env_fingerprint",
    "is_throughput_metric",
    "last_runs",
    "read_ledger",
    "render_diff",
    "snapshot_metrics",
]
